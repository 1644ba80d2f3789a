#include "sim/statevector.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "pauli/grouping.hh"
#include "sim/kernels.hh"

namespace qcc {

namespace {

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

Statevector::Statevector(unsigned n) : Statevector(n, 0)
{
}

Statevector::Statevector(unsigned n, uint64_t basis)
    : nQubits(n), amp(size_t{1} << n, cplx(0, 0))
{
    if (n > 28)
        fatal("Statevector: state too large");
    if (basis >= amp.size())
        panic("Statevector: basis state out of range");
    amp[basis] = 1.0;
}

Statevector::Statevector(unsigned n, uint64_t basis,
                         std::vector<cplx> &&buffer)
    : nQubits(n), amp(std::move(buffer))
{
    if (n > 28)
        fatal("Statevector: state too large");
    amp.resize(size_t{1} << n);
    if (basis >= amp.size())
        panic("Statevector: basis state out of range");
    reset(basis);
}

void
Statevector::reset(uint64_t basis)
{
    if (basis >= amp.size())
        panic("Statevector::reset: basis state out of range");
    std::fill(amp.begin(), amp.end(), cplx(0, 0));
    amp[basis] = 1.0;
}

void
Statevector::applyGate(const Gate &g)
{
    const size_t dim = amp.size();
    switch (g.kind) {
      case GateKind::X:
        kern::applyX(amp.data(), dim, g.q0);
        return;
      case GateKind::Z:
        kern::applyDiag1q(amp.data(), dim, g.q0, 1.0, -1.0);
        return;
      case GateKind::S:
        kern::applyDiag1q(amp.data(), dim, g.q0, 1.0, cplx(0, 1));
        return;
      case GateKind::Sdg:
        kern::applyDiag1q(amp.data(), dim, g.q0, 1.0, cplx(0, -1));
        return;
      case GateKind::RZ: {
          const cplx i(0, 1);
          kern::applyDiag1q(amp.data(), dim, g.q0,
                            std::exp(-i * (g.angle / 2)),
                            std::exp(i * (g.angle / 2)));
          return;
      }
      case GateKind::CNOT:
        kern::applyCx(amp.data(), dim, g.q0, g.q1);
        return;
      case GateKind::SWAP:
        kern::applySwap(amp.data(), dim, g.q0, g.q1);
        return;
      default: {
          cplx u[4];
          gateMatrix(g.kind, g.angle, u);
          kern::apply1q(amp.data(), dim, g.q0, u);
          return;
      }
    }
}

void
Statevector::applyCircuit(const Circuit &c)
{
    validateCircuitOrThrow(c, nQubits);
    for (const Gate &g : c.gates())
        applyGate(g);
}

void
Statevector::applyPauliRotation(double theta, const PauliString &p)
{
    if (p.numQubits() != nQubits)
        panic("applyPauliRotation: width mismatch");
    kern::applyPauliRotation(amp.data(), amp.size(), p.xMask(),
                             p.zMask(), theta);
}

std::vector<double>
Statevector::basisProbabilities(
    const std::vector<std::pair<unsigned, PauliOp>> &rotations) const
{
    const size_t dim = amp.size();
    std::vector<cplx> rotated;
    const cplx *state = amp.data();
    if (!rotations.empty()) {
        rotated = amp;
        for (const auto &[q, op] : rotations) {
            if (q >= nQubits)
                panic("basisProbabilities: qubit out of range");
            cplx u[4];
            basisChangeMatrix(op, u);
            kern::apply1q(rotated.data(), dim, q, u);
        }
        state = rotated.data();
    }
    std::vector<double> probs(dim);
    parallelFor(0, dim, [&](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b)
            probs[b] = std::norm(state[b]);
    });
    return probs;
}

double
Statevector::expectation(const PauliSum &h) const
{
    if (h.numQubits() != nQubits)
        panic("expectation: width mismatch");
    kern::XMaskGroups groups;
    for (const auto &t : h.terms())
        groups.add(t.string.xMask(), t.string.zMask(), t.coeff.real());
    return groups.expectation(amp.data(), amp.size());
}

cplx
Statevector::inner(const Statevector &other) const
{
    if (other.amp.size() != amp.size())
        panic("inner: dimension mismatch");
    const cplx *a = amp.data(), *b = other.amp.data();
    return parallelReduce(
        0, amp.size(), cplx(0, 0), [=](size_t lo, size_t hi) {
            cplx s = 0.0;
            for (size_t i = lo; i < hi; ++i)
                s += std::conj(a[i]) * b[i];
            return s;
        });
}

double
Statevector::norm() const
{
    const cplx *a = amp.data();
    double s = parallelReduce(
        0, amp.size(), 0.0, [=](size_t lo, size_t hi) {
            double acc = 0.0;
            for (size_t i = lo; i < hi; ++i)
                acc += std::norm(a[i]);
            return acc;
        });
    return std::sqrt(s);
}

void
Statevector::normalize()
{
    double n = norm();
    if (n < 1e-300)
        panic("normalize: zero state");
    for (auto &a : amp)
        a /= n;
}

void
gateMatrix(GateKind k, double angle, cplx out[4])
{
    const cplx i(0, 1);
    const double c = std::cos(angle / 2), s = std::sin(angle / 2);
    switch (k) {
      case GateKind::X:
        out[0] = 0; out[1] = 1; out[2] = 1; out[3] = 0;
        return;
      case GateKind::Y:
        out[0] = 0; out[1] = -i; out[2] = i; out[3] = 0;
        return;
      case GateKind::Z:
        out[0] = 1; out[1] = 0; out[2] = 0; out[3] = -1;
        return;
      case GateKind::H: {
          const double r = 1.0 / std::sqrt(2.0);
          out[0] = r; out[1] = r; out[2] = r; out[3] = -r;
          return;
      }
      case GateKind::S:
        out[0] = 1; out[1] = 0; out[2] = 0; out[3] = i;
        return;
      case GateKind::Sdg:
        out[0] = 1; out[1] = 0; out[2] = 0; out[3] = -i;
        return;
      case GateKind::RX:
        out[0] = c; out[1] = -i * s; out[2] = -i * s; out[3] = c;
        return;
      case GateKind::RY:
        out[0] = c; out[1] = -s; out[2] = s; out[3] = c;
        return;
      case GateKind::RZ:
        out[0] = std::exp(-i * (angle / 2));
        out[1] = 0;
        out[2] = 0;
        out[3] = std::exp(i * (angle / 2));
        return;
      default:
        panic("gateMatrix: not a single-qubit kind");
    }
}

} // namespace qcc
