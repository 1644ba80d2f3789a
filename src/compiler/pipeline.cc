#include "compiler/pipeline.hh"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/trace.hh"
#include "compiler/chain_synthesis.hh"
#include "compiler/merge_to_root.hh"
#include "compiler/peephole.hh"
#include "compiler/verify.hh"

namespace qcc {

// ------------------------------------------------------ CompileError

namespace {

std::string
formatCompileError(const std::string &pass, long gate_index,
                   const std::string &detail)
{
    std::string msg = "pass '" + pass + "'";
    if (gate_index >= 0)
        msg += " at gate " + std::to_string(gate_index);
    return msg + ": " + detail;
}

} // namespace

CompileError::CompileError(std::string pass, long gate_index,
                           const std::string &detail)
    : std::runtime_error(formatCompileError(pass, gate_index, detail)),
      passName(std::move(pass)), gateIdx(gate_index)
{}

// ---------------------------------------------------- PipelineReport

std::string
PipelineReport::str() const
{
    std::ostringstream oss;
    char line[160];
    std::snprintf(line, sizeof(line), "%-16s %9s %12s %12s %12s\n",
                  "pass", "ms", "gates", "cnots", "depth");
    oss << line;
    for (const PassStats &s : passes) {
        std::snprintf(line, sizeof(line),
                      "%-16s %9.3f %5zu->%-5zu %5zu->%-5zu "
                      "%5zu->%-5zu\n",
                      s.pass.c_str(), s.millis, s.gatesBefore,
                      s.gatesAfter, s.cnotsBefore, s.cnotsAfter,
                      s.depthBefore, s.depthAfter);
        oss << line;
    }
    std::snprintf(line, sizeof(line), "total %.3f ms%s\n", totalMillis,
                  cacheHit ? "  [cache hit]" : "");
    oss << line;
    return oss.str();
}

// ------------------------------------------------------- PassManager

PassManager &
PassManager::add(std::unique_ptr<Pass> pass)
{
    sequence.push_back(std::move(pass));
    return *this;
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    names.reserve(sequence.size());
    for (const auto &p : sequence)
        names.emplace_back(p->name());
    return names;
}

namespace {

const CouplingGraph *
deviceGraph(const CompileState &state)
{
    if (state.graph)
        return state.graph;
    return state.tree ? &state.tree->graph : nullptr;
}

/** Synthesize the logical reference on demand (routing/verify). */
void
ensureLogical(CompileState &state)
{
    if (state.logical.size() == 0 && state.ansatz)
        state.logical = synthesizeChainCircuit(
            *state.ansatz, state.params, state.includeHfPrep);
}

} // namespace

void
PassManager::run(CompileState &state, PipelineReport &report) const
{
    for (const auto &pass : sequence) {
        PassStats stats;
        stats.pass = pass->name();
        stats.gatesBefore = state.circuit.totalGates();
        stats.cnotsBefore = state.circuit.cnotCount();
        stats.depthBefore = state.circuit.depth();

        // The span's clock doubles as the PassStats wall time, so
        // the tracer replaces the bespoke timing here instead of
        // running next to it; the PipelineReport JSON shape stays
        // exactly as before.
        {
            TraceSpan span("compile.", stats.pass);
            pass->run(state);
            stats.millis = span.elapsedMillis();
            stats.gatesAfter = state.circuit.totalGates();
            stats.cnotsAfter = state.circuit.cnotCount();
            stats.depthAfter = state.circuit.depth();
            span.arg("gates", stats.gatesAfter);
            span.arg("cnots", stats.cnotsAfter);
            span.arg("depth", stats.depthAfter);
        }
        report.totalMillis += stats.millis;
        report.passes.push_back(std::move(stats));

        // Verify-after-mutate invariant: once a circuit is routed,
        // no later mutating pass may break the coupling constraint.
        if (pass->mutates() && state.routed) {
            const CouplingGraph *g = deviceGraph(state);
            if (g) {
                auto issue = findCouplingViolation(state.circuit, *g);
                if (issue)
                    throw CompileError(pass->name(), issue->gateIndex,
                                       issue->what);
            }
        }
    }
}

// ------------------------------------------------------------ passes

void
ChainSynthesisPass::run(CompileState &state) const
{
    if (!state.ansatz)
        throw CompileError(name(), -1, "no source program bound");
    state.logical = synthesizeChainCircuit(*state.ansatz, state.params,
                                           state.includeHfPrep);
    if (!state.routed)
        state.circuit = state.logical;
}

void
HierarchicalLayoutPass::run(CompileState &state) const
{
    if (!state.ansatz)
        throw CompileError(name(), -1, "no source program bound");
    if (!state.tree)
        throw CompileError(name(), -1,
                           "hierarchical layout needs an X-Tree "
                           "target");
    state.initialLayout =
        hierarchicalInitialLayout(state.ansatz->strings(),
                                  *state.tree);
    state.haveInitialLayout = true;
}

void
MergeToRootPass::run(CompileState &state) const
{
    if (!state.ansatz)
        throw CompileError(name(), -1, "no source program bound");
    if (!state.tree)
        throw CompileError(name(), -1,
                           "Merge-to-Root needs an X-Tree target");
    MtrResult res =
        state.haveInitialLayout
            ? mergeToRootCompile(*state.ansatz, state.params,
                                 *state.tree, state.initialLayout,
                                 state.includeHfPrep)
            : mergeToRootCompile(*state.ansatz, state.params,
                                 *state.tree, state.includeHfPrep);
    state.circuit = std::move(res.circuit);
    state.initialLayout = res.initialLayout;
    state.finalLayout = res.finalLayout;
    state.swapCount = res.swapCount;
    state.haveInitialLayout = true;
    state.routed = true;
}

void
SabreRoutePass::run(CompileState &state) const
{
    const CouplingGraph *g = deviceGraph(state);
    if (!g)
        throw CompileError(name(), -1,
                           "SABRE needs a coupling-graph target");
    ensureLogical(state);
    Layout initial =
        state.haveInitialLayout
            ? state.initialLayout
            : Layout::identity(state.logical.numQubits(),
                               g->numQubits());
    SabreResult res = sabreCompile(state.logical, *g, initial, opts);
    state.circuit = std::move(res.circuit);
    state.initialLayout = res.initialLayout;
    state.finalLayout = res.finalLayout;
    state.swapCount = res.swapCount;
    state.haveInitialLayout = true;
    state.routed = true;
}

void
PeepholePass::run(CompileState &state) const
{
    state.circuit = cancelGates(state.circuit);
}

void
VerifyPass::run(CompileState &state) const
{
    if (state.routed) {
        const CouplingGraph *g = deviceGraph(state);
        if (!g)
            throw CompileError(name(), -1,
                               "routed circuit but no device graph "
                               "to check against");
        auto issue = findCouplingViolation(state.circuit, *g);
        if (issue)
            throw CompileError(name(), issue->gateIndex, issue->what);
    }
    if (trials <= 0)
        return;

    ensureLogical(state);
    const unsigned nl = state.logical.numQubits();
    Layout initial = state.routed
                         ? state.initialLayout
                         : Layout::identity(nl, nl);
    Layout final_layout =
        state.routed ? state.finalLayout : Layout::identity(nl, nl);
    auto issue =
        findEquivalenceFailure(state.circuit, state.logical, initial,
                               final_layout, trials);
    if (issue)
        throw CompileError(name(), issue->gateIndex, issue->what);
}

// ------------------------------------------------- CompilerPipeline

CompilerPipeline::CompilerPipeline(const XTree &t, PipelineOptions o)
    : opts(o), tree(&t)
{
    buildManagers();
}

CompilerPipeline::CompilerPipeline(const CouplingGraph &g,
                                   PipelineOptions o)
    : opts(o), graph(&g)
{
    if (opts.flow == PipelineOptions::Flow::MergeToRoot)
        fatal("CompilerPipeline: Merge-to-Root flow needs an X-Tree "
              "target, not a bare coupling graph");
    buildManagers();
}

CompilerPipeline::CompilerPipeline(PipelineOptions o) : opts(o)
{
    if (opts.flow != PipelineOptions::Flow::ChainOnly)
        fatal("CompilerPipeline: routing flows need a device target");
    buildManagers();
}

void
CompilerPipeline::buildManagers()
{
    using Flow = PipelineOptions::Flow;
    switch (opts.flow) {
      case Flow::ChainOnly:
          synth.add(std::make_unique<ChainSynthesisPass>());
          break;
      case Flow::MergeToRoot:
          synth.add(std::make_unique<HierarchicalLayoutPass>());
          synth.add(std::make_unique<MergeToRootPass>());
          break;
      case Flow::Sabre:
          synth.add(std::make_unique<ChainSynthesisPass>());
          synth.add(std::make_unique<SabreRoutePass>(opts.sabre));
          break;
    }
    if (opts.peephole)
        post.add(std::make_unique<PeepholePass>());
    // A chain-only compile never routes, so without equivalence
    // trials its verify pass would check nothing on every compile
    // (every noisy energy evaluation is one).
    if (opts.flow != Flow::ChainOnly || opts.verifyTrials > 0)
        post.add(std::make_unique<VerifyPass>(opts.verifyTrials));

    // Program-independent key words, computed once: every compile's
    // key starts from a copy of this prefix.
    keyPrefix.add(0x716363u); // format tag
    keyPrefix.add(uint64_t(opts.flow));
    keyPrefix.add(opts.includeHfPrep ? 1 : 0);
    if (tree) {
        keyPrefix.add(0x54u); // 'T'
        keyPrefix.add(tree->graph.numQubits());
        keyPrefix.add(tree->root);
        for (int p : tree->parent)
            keyPrefix.add(uint64_t(int64_t(p)));
    } else if (graph) {
        keyPrefix.add(0x47u); // 'G'
        keyPrefix.add(graph->numQubits());
        for (const auto &[a, b] : graph->edges())
            keyPrefix.add((uint64_t(a) << 32) | b);
    }
}

std::vector<std::string>
CompilerPipeline::passNames() const
{
    std::vector<std::string> names = synth.passNames();
    std::vector<std::string> tail = post.passNames();
    names.insert(names.end(), std::make_move_iterator(tail.begin()),
                 std::make_move_iterator(tail.end()));
    return names;
}

bool
CompilerPipeline::rebindable() const
{
    // SABRE's gate order is not provably independent of the bound
    // angles, so its results cannot be angle-rebound; exact-key
    // memoization would only hit on exact parameter repeats while
    // flooding the shared cache under parameter sweeps, so the Sabre
    // flow is not cached at all.
    return opts.flow != PipelineOptions::Flow::Sabre;
}

CacheKey
CompilerPipeline::makeKey(const Ansatz &ansatz) const
{
    // Structure only: parameters and coefficients are rebind data,
    // not key material, so any binding of the same strings on the
    // same device shares one entry.
    CacheKey key = keyPrefix;
    key.words.reserve(key.words.size() + 2 +
                      2 * ansatz.rotations.size());
    key.add(ansatz.nQubits);
    key.add(ansatz.hfMask);
    for (const auto &r : ansatz.rotations) {
        key.add(r.string.xMask());
        key.add(r.string.zMask());
    }
    return key;
}

namespace {

/**
 * Resolved RZ angles, one per non-identity rotation in program
 * order — the rebind stream for structural cache hits.
 */
std::vector<double>
resolvedAngles(const Ansatz &ansatz, const std::vector<double> &params)
{
    std::vector<double> angles;
    angles.reserve(ansatz.rotations.size());
    // Parenthesized exactly like the synthesis flows compute
    // rz(-2.0 * theta) with theta = params[param] * coeff, so a
    // rebound circuit is bit-identical to a fresh compile.
    for (const auto &r : ansatz.rotations)
        if (!r.string.isIdentity())
            angles.push_back(-2.0 * (params[r.param] * r.coeff));
    return angles;
}

/** Gate indices of every RZ, in circuit order. */
std::vector<size_t>
rzGateIndices(const Circuit &c)
{
    std::vector<size_t> idx;
    const auto &gates = c.gates();
    for (size_t i = 0; i < gates.size(); ++i)
        if (gates[i].kind == GateKind::RZ)
            idx.push_back(i);
    return idx;
}

} // namespace

CompileResult
CompilerPipeline::compile(const Ansatz &ansatz,
                          const std::vector<double> &params) const
{
    TraceSpan span("compile.pipeline");
    span.arg("qubits", ansatz.nQubits);

    // Validate up front: the cached path reads params[r.param]
    // before any pass (and its own check) would run.
    if (params.size() != ansatz.nParams)
        fatal("CompilerPipeline::compile: parameter count mismatch");

    CompileState state;
    state.ansatz = &ansatz;
    state.params = params;
    state.tree = tree;
    state.graph = graph;
    state.includeHfPrep = opts.includeHfPrep;

    PipelineReport report;
    const bool cacheOn = opts.useCache && rebindable();
    CacheKey key;
    std::vector<double> angles;
    bool hit = false;

    if (cacheOn) {
        key = makeKey(ansatz);
        angles = resolvedAngles(ansatz, params);
        CachedCompile entry;
        if (globalCircuitCache().lookup(key, angles, entry)) {
            hit = true;
            report.cacheHit = true;
            state.circuit = std::move(entry.circuit);
            state.initialLayout = entry.initialLayout;
            state.finalLayout = entry.finalLayout;
            state.swapCount = entry.swapCount;
            state.routed =
                opts.flow != PipelineOptions::Flow::ChainOnly;
            state.haveInitialLayout = state.routed;
        }
    }

    if (!hit) {
        synth.run(state, report);
        if (cacheOn) {
            CachedCompile entry;
            entry.circuit = state.circuit;
            entry.initialLayout = state.initialLayout;
            entry.finalLayout = state.finalLayout;
            entry.swapCount = state.swapCount;
            entry.rzIndex = rzGateIndices(state.circuit);
            // The synthesis flows emit exactly one RZ per
            // non-identity rotation; anything else means a pass
            // changed the invariant, so skip memoization rather
            // than risk a bad rebind.
            if (entry.rzIndex.size() == angles.size())
                globalCircuitCache().insert(key, std::move(entry));
        }
    }

    post.run(state, report);

    CompileResult res;
    if (!state.routed) {
        const unsigned n = state.circuit.numQubits();
        state.initialLayout = Layout::identity(n, n);
        state.finalLayout = state.initialLayout;
    }
    res.circuit = std::move(state.circuit);
    res.initialLayout = state.initialLayout;
    res.finalLayout = state.finalLayout;
    res.swapCount = state.swapCount;
    res.report = std::move(report);
    span.arg("cache_hit", hit);
    span.arg("gates", res.circuit.totalGates());
    res.report.totalMillis = span.elapsedMillis();
    return res;
}

std::vector<CompileResult>
CompilerPipeline::compileTerms(const PauliSum &h, double theta) const
{
    const auto &terms = h.terms();
    std::vector<CompileResult> out(terms.size());
    auto compileRange = [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            Ansatz term;
            term.nQubits = h.numQubits();
            term.nParams = 1;
            term.rotations.push_back(
                {0, terms[i].coeff.real(), terms[i].string});
            out[i] = compile(term, {theta});
        }
    };
    parallelFor(0, terms.size(), compileRange, /*grain=*/1);
    return out;
}

Circuit
cachedChainCircuit(const Ansatz &ansatz,
                   const std::vector<double> &params,
                   bool include_hf_prep)
{
    // Function-local pipelines (one per prep flavor) so the per-call
    // cost on the VQE hot path is a cache probe, not pipeline
    // construction. compile() is const and stateless, so sharing
    // across threads is safe.
    auto make = [](bool hf) {
        PipelineOptions o;
        o.flow = PipelineOptions::Flow::ChainOnly;
        o.includeHfPrep = hf;
        return CompilerPipeline(o);
    };
    static const CompilerPipeline withPrep = make(true);
    static const CompilerPipeline withoutPrep = make(false);
    const CompilerPipeline &pipe =
        include_hf_prep ? withPrep : withoutPrep;
    return pipe.compile(ansatz, params).circuit;
}

} // namespace qcc
