/**
 * @file
 * Pass-manager pipeline tests: pass ordering and reporting, the
 * verify-after-mutate invariant, equivalence between the pipeline
 * flows and the legacy free-function compile paths on real
 * molecules (LiH, H2O), cache hit/miss determinism under parameter
 * rebinding, and parallel vs serial compile equivalence.
 */

#include <gtest/gtest.h>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "arch/grid.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "compiler/chain_synthesis.hh"
#include "compiler/merge_to_root.hh"
#include "compiler/pipeline.hh"
#include "compiler/sabre.hh"
#include "compiler/verify.hh"
#include "ferm/hamiltonian.hh"

using namespace qcc;

namespace {

/** Gate-for-gate equality, angles compared exactly. */
::testing::AssertionResult
circuitsIdentical(const Circuit &a, const Circuit &b)
{
    if (a.numQubits() != b.numQubits())
        return ::testing::AssertionFailure()
               << "width " << a.numQubits() << " vs "
               << b.numQubits();
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i], &gb = b.gates()[i];
        if (ga.kind != gb.kind || ga.q0 != gb.q0 ||
            ga.q1 != gb.q1 || ga.angle != gb.angle)
            return ::testing::AssertionFailure()
                   << "gate " << i << ": " << ga.str() << " vs "
                   << gb.str();
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
layoutsIdentical(const Layout &a, const Layout &b)
{
    if (a.numLogical() != b.numLogical() ||
        a.numPhysical() != b.numPhysical())
        return ::testing::AssertionFailure() << "shape mismatch";
    for (unsigned q = 0; q < a.numLogical(); ++q)
        if (a.phys(q) != b.phys(q))
            return ::testing::AssertionFailure()
                   << "logical " << q << " on " << a.phys(q)
                   << " vs " << b.phys(q);
    return ::testing::AssertionSuccess();
}

struct Problem
{
    MolecularProblem prob;
    Ansatz ansatz;
};

const Problem &
lih()
{
    static const Problem p = [] {
        setLogLevel(LogLevel::Quiet);
        const auto &entry = benchmarkMolecule("LiH");
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
        return Problem{std::move(prob), std::move(a)};
    }();
    return p;
}

/** H2O at 30% compression (168 qubit-strings is plenty for tests). */
const Problem &
h2o()
{
    static const Problem p = [] {
        setLogLevel(LogLevel::Quiet);
        const auto &entry = benchmarkMolecule("H2O");
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
        CompressedAnsatz comp =
            compressAnsatz(full, prob.hamiltonian, 0.3);
        return Problem{std::move(prob), std::move(comp.ansatz)};
    }();
    return p;
}

std::vector<double>
randomParams(unsigned n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> params(n);
    for (double &p : params)
        p = rng.uniform(-0.3, 0.3);
    return params;
}

} // namespace

TEST(Pipeline, PassOrderingMatchesFlow)
{
    XTree tree = makeXTree(17);
    CompilerPipeline mtr(tree, PipelineOptions{});
    EXPECT_EQ(mtr.passNames(),
              (std::vector<std::string>{"hier-layout",
                                        "merge-to-root", "verify"}));

    PipelineOptions sab;
    sab.flow = PipelineOptions::Flow::Sabre;
    sab.peephole = true;
    CompilerPipeline sabre(tree, sab);
    EXPECT_EQ(sabre.passNames(),
              (std::vector<std::string>{"chain-synthesis",
                                        "sabre-route", "peephole",
                                        "verify"}));

    // An unrouted chain circuit gives the verify pass nothing to
    // check unless equivalence trials are asked for.
    PipelineOptions chain;
    chain.flow = PipelineOptions::Flow::ChainOnly;
    CompilerPipeline chainPipe(chain);
    EXPECT_EQ(chainPipe.passNames(),
              (std::vector<std::string>{"chain-synthesis"}));
    chain.verifyTrials = 2;
    CompilerPipeline checkedChain(chain);
    EXPECT_EQ(checkedChain.passNames(),
              (std::vector<std::string>{"chain-synthesis",
                                        "verify"}));
}

TEST(Pipeline, ReportRecordsEveryPassInOrder)
{
    XTree tree = makeXTree(17);
    PipelineOptions o;
    o.useCache = false; // force the full sequence to run
    CompilerPipeline pipe(tree, o);
    std::vector<double> zeros(lih().ansatz.nParams, 0.0);
    CompileResult r = pipe.compile(lih().ansatz, zeros);

    ASSERT_EQ(r.report.passes.size(), 3u);
    EXPECT_EQ(r.report.passes[0].pass, "hier-layout");
    EXPECT_EQ(r.report.passes[1].pass, "merge-to-root");
    EXPECT_EQ(r.report.passes[2].pass, "verify");
    EXPECT_FALSE(r.report.cacheHit);
    // Merge-to-root materializes the circuit; verify leaves it alone.
    EXPECT_EQ(r.report.passes[1].gatesBefore, 0u);
    EXPECT_GT(r.report.passes[1].gatesAfter, 0u);
    EXPECT_EQ(r.report.passes[2].gatesAfter,
              r.report.passes[2].gatesBefore);
    EXPECT_GE(r.report.totalMillis, 0.0);
    EXPECT_FALSE(r.report.str().empty());
}

TEST(Pipeline, MtrFlowMatchesLegacyFreeFunctions_LiH)
{
    XTree tree = makeXTree(17);
    PipelineOptions o;
    o.useCache = false;
    CompilerPipeline pipe(tree, o);
    auto params = randomParams(lih().ansatz.nParams, 7);

    CompileResult got = pipe.compile(lih().ansatz, params);
    MtrResult want =
        mergeToRootCompile(lih().ansatz, params, tree, true);

    EXPECT_TRUE(circuitsIdentical(got.circuit, want.circuit));
    EXPECT_EQ(got.swapCount, want.swapCount);
    EXPECT_TRUE(
        layoutsIdentical(got.initialLayout, want.initialLayout));
    EXPECT_TRUE(layoutsIdentical(got.finalLayout, want.finalLayout));
}

TEST(Pipeline, MtrFlowMatchesLegacyFreeFunctions_H2O)
{
    XTree tree = makeXTree(17);
    PipelineOptions o;
    o.useCache = false;
    CompilerPipeline pipe(tree, o);
    auto params = randomParams(h2o().ansatz.nParams, 11);

    CompileResult got = pipe.compile(h2o().ansatz, params);
    MtrResult want =
        mergeToRootCompile(h2o().ansatz, params, tree, true);

    EXPECT_TRUE(circuitsIdentical(got.circuit, want.circuit));
    EXPECT_EQ(got.swapCount, want.swapCount);
    EXPECT_TRUE(respectsCoupling(got.circuit, tree.graph));
}

TEST(Pipeline, SabreFlowMatchesLegacyFreeFunctions)
{
    CouplingGraph grid = makeGrid17Q();
    PipelineOptions o;
    o.flow = PipelineOptions::Flow::Sabre;
    o.useCache = false;
    CompilerPipeline pipe(grid, o);
    auto params = randomParams(lih().ansatz.nParams, 13);

    CompileResult got = pipe.compile(lih().ansatz, params);

    Circuit chain =
        synthesizeChainCircuit(lih().ansatz, params, true);
    SabreResult want = sabreCompile(
        chain, grid, Layout::identity(chain.numQubits(), 17));

    EXPECT_TRUE(circuitsIdentical(got.circuit, want.circuit));
    EXPECT_EQ(got.swapCount, want.swapCount);
}

TEST(Pipeline, CompiledCircuitIsEquivalentToLogical)
{
    // Full-blown unitary equivalence through the pipeline's own
    // verify pass (trials > 0) on a tree small enough to simulate.
    XTree tree = makeXTree(7);
    PipelineOptions o;
    o.useCache = false;
    o.verifyTrials = 3;
    CompilerPipeline pipe(tree, o);
    auto params = randomParams(lih().ansatz.nParams, 17);
    EXPECT_NO_THROW(pipe.compile(lih().ansatz, params));
}

TEST(Pipeline, CacheHitReproducesUncachedCompileExactly)
{
    XTree tree = makeXTree(17);
    CompilerPipeline cached(tree, PipelineOptions{});
    PipelineOptions u;
    u.useCache = false;
    CompilerPipeline uncached(tree, u);

    // Prime the cache, then recompile with two different bindings:
    // both must be cache hits and bit-identical to a fresh compile.
    auto p0 = randomParams(lih().ansatz.nParams, 19);
    cached.compile(lih().ansatz, p0);

    for (uint64_t seed : {23u, 29u}) {
        auto params = randomParams(lih().ansatz.nParams, seed);
        CompileResult hit = cached.compile(lih().ansatz, params);
        EXPECT_TRUE(hit.report.cacheHit);
        CompileResult fresh =
            uncached.compile(lih().ansatz, params);
        EXPECT_TRUE(circuitsIdentical(hit.circuit, fresh.circuit));
        EXPECT_EQ(hit.swapCount, fresh.swapCount);
        EXPECT_TRUE(layoutsIdentical(hit.finalLayout,
                                     fresh.finalLayout));
    }

    // Same circuit hash + same params twice -> identical output.
    auto params = randomParams(lih().ansatz.nParams, 31);
    CompileResult a = cached.compile(lih().ansatz, params);
    CompileResult b = cached.compile(lih().ansatz, params);
    EXPECT_TRUE(b.report.cacheHit);
    EXPECT_TRUE(circuitsIdentical(a.circuit, b.circuit));
}

TEST(Pipeline, ParallelAndSerialCompilesAgree_LiH)
{
    // The pool fan-outs against the same calls capped to one lane,
    // which run every chunk inline and in order.
    auto params = randomParams(lih().ansatz.nParams, 37);
    Circuit parallel =
        synthesizeChainCircuit(lih().ansatz, params, true);
    Circuit serial;
    {
        ParallelWidthCap cap(1);
        serial = synthesizeChainCircuit(lih().ansatz, params, true);
    }
    EXPECT_TRUE(circuitsIdentical(serial, parallel));

    // Whole-Hamiltonian per-term fan-out vs the serial loop.
    XTree tree = makeXTree(17);
    PipelineOptions o;
    o.useCache = false;
    CompilerPipeline pipe(tree, o);

    std::vector<CompileResult> a;
    {
        ParallelWidthCap cap(1);
        a = pipe.compileTerms(lih().prob.hamiltonian, 0.17);
    }
    auto b = pipe.compileTerms(lih().prob.hamiltonian, 0.17);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), lih().prob.hamiltonian.numTerms());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(circuitsIdentical(a[i].circuit, b[i].circuit));
        EXPECT_TRUE(respectsCoupling(a[i].circuit, tree.graph));
    }
}

TEST(Pipeline, CachedChainCircuitMatchesDirectSynthesis)
{
    for (uint64_t seed : {41u, 43u}) {
        auto params = randomParams(lih().ansatz.nParams, seed);
        Circuit direct =
            synthesizeChainCircuit(lih().ansatz, params, true);
        Circuit cached =
            cachedChainCircuit(lih().ansatz, params, true);
        EXPECT_TRUE(circuitsIdentical(direct, cached));
    }
}

namespace {

/** A buggy pass: appends a CNOT between two uncoupled qubits. */
class EvilPass : public Pass
{
  public:
    const char *name() const override { return "evil"; }
    void
    run(CompileState &state) const override
    {
        // Leaves of different XTree branches are never coupled.
        state.circuit.cnot(state.circuit.numQubits() - 1,
                           state.circuit.numQubits() - 2);
    }
};

} // namespace

TEST(Pipeline, VerifyAfterMutateNamesOffendingPassAndGate)
{
    XTree tree = makeXTree(17);
    CompileState state;
    auto params = randomParams(lih().ansatz.nParams, 47);
    state.ansatz = &lih().ansatz;
    state.params = params;
    state.tree = &tree;

    PassManager manager;
    manager.add(std::make_unique<MergeToRootPass>());
    manager.add(std::make_unique<EvilPass>());
    PipelineReport report;
    try {
        manager.run(state, report);
        FAIL() << "expected CompileError from the evil pass";
    } catch (const CompileError &err) {
        EXPECT_EQ(err.pass(), "evil");
        EXPECT_EQ(err.gateIndex(),
                  long(state.circuit.size()) - 1);
        EXPECT_NE(std::string(err.what()).find("evil"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("uncoupled"),
                  std::string::npos);
    }
    // The clean prefix ran and was recorded before the failure.
    ASSERT_EQ(report.passes.size(), 2u);
    EXPECT_EQ(report.passes[0].pass, "merge-to-root");
}

TEST(Pipeline, VerifyIssueCarriesGateIndex)
{
    CouplingGraph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    Circuit c(3);
    c.h(0);
    c.cnot(0, 1);
    c.cnot(0, 2); // violation at index 2
    auto issue = findCouplingViolation(c, g);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->gateIndex, 2);
    EXPECT_NE(issue->what.find("gate 2"), std::string::npos);
    EXPECT_FALSE(findCouplingViolation(Circuit(3), g).has_value());
}
