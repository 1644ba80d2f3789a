#include "sim/fusion.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/parallel.hh"
#include "sim/kernels.hh"
#include "sim/simd.hh"
#include "sim/statevector.hh"

namespace qcc {

namespace {

/** 2^12 complexes = 64 KiB per block: comfortably inside L2 with
 *  room for the scratch pattern/buffer the executor keeps hot. */
constexpr unsigned kBlockBits = 12;

/** How far the builder scans backward for a merge partner. */
constexpr size_t kLookback = 16;

std::string
describeIssue(const SimIssue &issue)
{
    if (issue.gateIndex < 0)
        return issue.what;
    return "gate " + std::to_string(issue.gateIndex) + ": " +
           issue.what;
}

} // namespace

SimError::SimError(SimIssue issue)
    : std::runtime_error(describeIssue(issue)), issue_(std::move(issue))
{
}

std::optional<SimIssue>
validateCircuit(const Circuit &c, unsigned width)
{
    if (c.numQubits() != width)
        return SimIssue{"circuit width " +
                            std::to_string(c.numQubits()) +
                            " does not match register width " +
                            std::to_string(width),
                        -1};
    const auto &gates = c.gates();
    for (size_t g = 0; g < gates.size(); ++g) {
        const Gate &gate = gates[g];
        if (gate.q0 >= width)
            return SimIssue{gateName(gate.kind) + " operand q" +
                                std::to_string(gate.q0) +
                                " out of range for width " +
                                std::to_string(width),
                            long(g)};
        if (!isTwoQubit(gate.kind))
            continue;
        if (gate.q1 >= width)
            return SimIssue{gateName(gate.kind) + " operand q" +
                                std::to_string(gate.q1) +
                                " out of range for width " +
                                std::to_string(width),
                            long(g)};
        if (gate.q0 == gate.q1)
            return SimIssue{gateName(gate.kind) +
                                " operands are identical (q" +
                                std::to_string(gate.q0) + ")",
                            long(g)};
    }
    return std::nullopt;
}

void
validateCircuitOrThrow(const Circuit &c, unsigned width)
{
    if (auto issue = validateCircuit(c, width))
        throw SimError(std::move(*issue));
}

// ---------------------------------------------------------------
// FusionBuilder
// ---------------------------------------------------------------

FusionBuilder::FusionBuilder(unsigned width_bits) : width(width_bits)
{
}

bool
FusionBuilder::touches(const Pending &op, unsigned bit) const
{
    switch (op.kind) {
      case FusedOp::Kind::OneQ:
        return op.b0 == bit;
      case FusedOp::Kind::Cnot:
      case FusedOp::Kind::Swap:
        return op.b0 == bit || op.b1 == bit;
      case FusedOp::Kind::Diag:
        for (const auto &f : op.factors)
            if (f.bit == bit)
                return true;
        return false;
    }
    return true;
}

void
FusionBuilder::addDiag(unsigned bit, cplx d0, cplx d1)
{
    // Scan backward past ops a diagonal on `bit` commutes with: any
    // op not touching the bit, and CNOTs whose *control* is the bit
    // (a diagonal commutes through the control).
    size_t steps = 0;
    for (size_t i = pending.size(); i-- > 0 && steps < kLookback;
         ++steps) {
        Pending &op = pending[i];
        switch (op.kind) {
          case FusedOp::Kind::Diag:
            // Diagonals commute with diagonals: merge here.
            for (auto &f : op.factors) {
                if (f.bit == bit) {
                    f.d0 *= d0;
                    f.d1 *= d1;
                    return;
                }
            }
            op.factors.push_back({bit, d0, d1});
            return;
          case FusedOp::Kind::OneQ:
            if (op.b0 == bit) {
                // diag applied after the matrix: scale its rows.
                op.u[0] *= d0;
                op.u[1] *= d0;
                op.u[2] *= d1;
                op.u[3] *= d1;
                return;
            }
            continue;
          case FusedOp::Kind::Cnot:
            if (op.b1 == bit)
                break; // target flips the bit: blocked
            continue;  // control or disjoint: commutes
          case FusedOp::Kind::Swap:
            if (touches(op, bit))
                break;
            continue;
        }
        break;
    }
    Pending p;
    p.kind = FusedOp::Kind::Diag;
    p.factors.push_back({bit, d0, d1});
    pending.push_back(std::move(p));
}

void
FusionBuilder::add1q(unsigned bit, const cplx u[4])
{
    // Accumulate the incoming matrix while walking backward past ops
    // that do not touch the bit; pending diagonal factors on the bit
    // are absorbed as column scales (they execute first), and an
    // earlier 1q on the same bit takes the whole product.
    cplx acc[4] = {u[0], u[1], u[2], u[3]};
    size_t steps = 0;
    for (size_t i = pending.size(); i-- > 0 && steps < kLookback;
         ++steps) {
        Pending &op = pending[i];
        switch (op.kind) {
          case FusedOp::Kind::OneQ:
            if (op.b0 == bit) {
                const cplx m0 = acc[0] * op.u[0] + acc[1] * op.u[2];
                const cplx m1 = acc[0] * op.u[1] + acc[1] * op.u[3];
                const cplx m2 = acc[2] * op.u[0] + acc[3] * op.u[2];
                const cplx m3 = acc[2] * op.u[1] + acc[3] * op.u[3];
                op.u[0] = m0;
                op.u[1] = m1;
                op.u[2] = m2;
                op.u[3] = m3;
                return;
            }
            continue;
          case FusedOp::Kind::Diag: {
              bool absorbed = false;
              for (size_t f = 0; f < op.factors.size(); ++f) {
                  if (op.factors[f].bit != bit)
                      continue;
                  // diag executes before acc: scale its columns.
                  const DiagFactor d = op.factors[f];
                  acc[0] *= d.d0;
                  acc[2] *= d.d0;
                  acc[1] *= d.d1;
                  acc[3] *= d.d1;
                  op.factors.erase(op.factors.begin() + long(f));
                  absorbed = true;
                  break;
              }
              (void)absorbed;
              continue; // an emptied Diag is skipped at build()
          }
          case FusedOp::Kind::Cnot:
          case FusedOp::Kind::Swap:
            if (touches(op, bit))
                break;
            continue;
        }
        break;
    }
    Pending p;
    p.kind = FusedOp::Kind::OneQ;
    p.b0 = bit;
    p.u[0] = acc[0];
    p.u[1] = acc[1];
    p.u[2] = acc[2];
    p.u[3] = acc[3];
    pending.push_back(std::move(p));
}

void
FusionBuilder::addCnot(unsigned control, unsigned target)
{
    Pending p;
    p.kind = FusedOp::Kind::Cnot;
    p.b0 = control;
    p.b1 = target;
    pending.push_back(std::move(p));
}

void
FusionBuilder::addSwap(unsigned a, unsigned b)
{
    Pending p;
    p.kind = FusedOp::Kind::Swap;
    p.b0 = a;
    p.b1 = b;
    pending.push_back(std::move(p));
}

FusedProgram
FusionBuilder::build()
{
    FusedProgram prog;
    prog.widthBits = width;
    for (auto &p : pending) {
        if (p.kind == FusedOp::Kind::Diag && p.factors.empty())
            continue; // fully absorbed into later matrices
        FusedOp op;
        op.kind = p.kind;
        op.b0 = p.b0;
        op.b1 = p.b1;
        op.u[0] = p.u[0];
        op.u[1] = p.u[1];
        op.u[2] = p.u[2];
        op.u[3] = p.u[3];
        if (p.kind == FusedOp::Kind::Diag) {
            op.fBegin = uint32_t(prog.factors.size());
            for (const auto &f : p.factors)
                prog.factors.push_back(f);
            op.fEnd = uint32_t(prog.factors.size());
        }
        prog.ops.push_back(op);
    }
    pending.clear();
    return prog;
}

FusedProgram
fuseCircuit(const Circuit &c)
{
    FusionBuilder fb(c.numQubits());
    const cplx i(0, 1);
    for (const Gate &g : c.gates()) {
        switch (g.kind) {
          case GateKind::Z:
            fb.addDiag(g.q0, 1.0, -1.0);
            break;
          case GateKind::S:
            fb.addDiag(g.q0, 1.0, i);
            break;
          case GateKind::Sdg:
            fb.addDiag(g.q0, 1.0, -i);
            break;
          case GateKind::RZ:
            fb.addDiag(g.q0, std::exp(-i * (g.angle / 2)),
                       std::exp(i * (g.angle / 2)));
            break;
          case GateKind::CNOT:
            fb.addCnot(g.q0, g.q1);
            break;
          case GateKind::SWAP:
            fb.addSwap(g.q0, g.q1);
            break;
          default: {
              cplx u[4];
              gateMatrix(g.kind, g.angle, u);
              fb.add1q(g.q0, u);
              break;
          }
        }
    }
    FusedProgram p = fb.build();
    p.sourceGates = c.size();
    return p;
}

// ---------------------------------------------------------------
// Cache-blocked executor
// ---------------------------------------------------------------

namespace {

/** Per-Diag execution plan: the low-bit factors collapse into one
 *  pattern shared by every block; high-bit factors pick a per-block
 *  constant from the block base. */
struct DiagExec {
    std::vector<cplx> pattern; // length = power of two (>= 1)
    std::vector<DiagFactor> high;
};

DiagExec
buildDiagExec(const FusedProgram &p, const FusedOp &op,
              unsigned block_bits)
{
    DiagExec dx;
    unsigned patBits = 0;
    for (uint32_t f = op.fBegin; f < op.fEnd; ++f) {
        const DiagFactor &fac = p.factors[f];
        if (fac.bit < block_bits)
            patBits = std::max(patBits, fac.bit + 1);
        else
            dx.high.push_back(fac);
    }
    dx.pattern.assign(size_t{1} << patBits, cplx(1.0, 0.0));
    for (uint32_t f = op.fBegin; f < op.fEnd; ++f) {
        const DiagFactor &fac = p.factors[f];
        if (fac.bit < block_bits)
            kern::ranges::diag1q(dx.pattern.data(), 0,
                                 dx.pattern.size(),
                                 uint64_t{1} << fac.bit, fac.d0,
                                 fac.d1);
    }
    return dx;
}

bool
blockLocal(const FusedOp &op, unsigned block_bits)
{
    switch (op.kind) {
      case FusedOp::Kind::OneQ:
        return op.b0 < block_bits;
      case FusedOp::Kind::Diag:
        return true; // high factors fold into a block constant
      case FusedOp::Kind::Cnot:
        // A high control only selects which blocks get the X.
        return op.b1 < block_bits;
      case FusedOp::Kind::Swap:
        return op.b0 < block_bits && op.b1 < block_bits;
    }
    return false;
}

void
applyOpInBlock(cplx *base, size_t block_len, uint64_t block_base,
               const FusedOp &op, const DiagExec *dx)
{
    using namespace kern;
    switch (op.kind) {
      case FusedOp::Kind::OneQ:
        ranges::apply1q(base, 0, block_len / 2, uint64_t{1} << op.b0,
                        op.u);
        return;
      case FusedOp::Kind::Diag: {
          cplx scale(1.0, 0.0);
          for (const auto &f : dx->high)
              scale *= (block_base & (uint64_t{1} << f.bit)) ? f.d1
                                                             : f.d0;
          ranges::diagMul(base, 0, block_len, dx->pattern.data(),
                          dx->pattern.size() - 1, scale);
          return;
      }
      case FusedOp::Kind::Cnot:
        if (op.b0 < unsigned(std::countr_zero(block_len))) {
            ranges::applyCx(base, 0, block_len / 2,
                            uint64_t{1} << op.b0,
                            uint64_t{1} << op.b1);
        } else if (block_base & (uint64_t{1} << op.b0)) {
            // High control: the block base decides; the whole block
            // gets the X on the target (or nothing).
            ranges::applyX(base, 0, block_len / 2,
                           uint64_t{1} << op.b1);
        }
        return;
      case FusedOp::Kind::Swap:
        ranges::applySwap(base, 0, block_len / 2,
                          uint64_t{1} << op.b0,
                          uint64_t{1} << op.b1);
        return;
    }
}

void
applyOpGlobal(cplx *amp, size_t dim, const FusedOp &op)
{
    switch (op.kind) {
      case FusedOp::Kind::OneQ:
        kern::apply1q(amp, dim, op.b0, op.u);
        return;
      case FusedOp::Kind::Cnot:
        kern::applyCx(amp, dim, op.b0, op.b1);
        return;
      case FusedOp::Kind::Swap:
        kern::applySwap(amp, dim, op.b0, op.b1);
        return;
      case FusedOp::Kind::Diag:
        return; // Diag is always block-local
    }
}

} // namespace

void
applyFusedProgram(cplx *amp, const FusedProgram &p)
{
    const size_t dim = size_t{1} << p.widthBits;
    const unsigned blockBits =
        std::min<unsigned>(kBlockBits, p.widthBits);
    const size_t blockLen = size_t{1} << blockBits;
    const size_t nBlocks = dim >> blockBits;

    std::vector<int> diagIndex(p.ops.size(), -1);
    std::vector<DiagExec> diags;
    for (size_t o = 0; o < p.ops.size(); ++o) {
        if (p.ops[o].kind != FusedOp::Kind::Diag)
            continue;
        diagIndex[o] = int(diags.size());
        diags.push_back(buildDiagExec(p, p.ops[o], blockBits));
    }

    const size_t grain =
        std::max<size_t>(1, kParallelGrain >> blockBits);
    size_t i = 0;
    while (i < p.ops.size()) {
        if (!blockLocal(p.ops[i], blockBits)) {
            applyOpGlobal(amp, dim, p.ops[i]);
            ++i;
            continue;
        }
        size_t j = i + 1;
        while (j < p.ops.size() && blockLocal(p.ops[j], blockBits))
            ++j;
        parallelFor(
            0, nBlocks,
            [&](size_t lo, size_t hi) {
                for (size_t blk = lo; blk < hi; ++blk) {
                    cplx *base = amp + (blk << blockBits);
                    const uint64_t blockBase = uint64_t(blk)
                                               << blockBits;
                    for (size_t o = i; o < j; ++o)
                        applyOpInBlock(base, blockLen, blockBase,
                                       p.ops[o],
                                       diagIndex[o] >= 0
                                           ? &diags[size_t(
                                                 diagIndex[o])]
                                           : nullptr);
                }
            },
            grain);
        i = j;
    }
}

} // namespace qcc
