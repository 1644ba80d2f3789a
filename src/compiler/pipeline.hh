/**
 * @file
 * Pass-manager compiler pipeline. The paper's co-optimized flow —
 * chain synthesis, hierarchical layout, Merge-to-Root routing, SABRE
 * baseline routing, peephole cancellation, and verification — exists
 * in this repo as free functions; this subsystem wraps each one in a
 * `Pass` and executes configurable ordered sequences through a
 * `PassManager` that records per-pass wall time and gate/CNOT/depth
 * deltas into a `PipelineReport` and enforces coupling invariants
 * after every mutating pass. The trailing verify pass runs on routed
 * flows and wherever equivalence trials are asked for; a chain-only
 * compile without trials has nothing for it to check.
 *
 * `CompilerPipeline` is the front door: a flow selection (chain-only,
 * Merge-to-Root, or SABRE) plus a content-hash keyed `CircuitCache`
 * so recompiling the same program with new parameters (every VQE
 * energy evaluation) rebinds angles instead of re-routing, and a
 * per-term fan-out over the common/parallel thread pool so
 * whole-Hamiltonian compiles scale across cores.
 */

#ifndef QCC_COMPILER_PIPELINE_HH
#define QCC_COMPILER_PIPELINE_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ansatz/uccsd.hh"
#include "arch/xtree.hh"
#include "circuit/circuit.hh"
#include "compiler/cache.hh"
#include "compiler/layout.hh"
#include "compiler/sabre.hh"
#include "pauli/pauli_sum.hh"

namespace qcc {

/**
 * Compilation failure with provenance: which pass detected the
 * problem and, when gate-specific, the offending gate index.
 */
class CompileError : public std::runtime_error
{
  public:
    CompileError(std::string pass, long gate_index,
                 const std::string &detail);

    const std::string &pass() const { return passName; }

    /** Offending gate index, or -1 when not gate-specific. */
    long gateIndex() const { return gateIdx; }

  private:
    std::string passName;
    long gateIdx;
};

/** Mutable state threaded through a pass sequence. */
struct CompileState
{
    const Ansatz *ansatz = nullptr; ///< source program (non-owning)
    std::vector<double> params;     ///< rotation-angle bindings
    const XTree *tree = nullptr;    ///< target device, tree flows
    const CouplingGraph *graph = nullptr; ///< target device, routing
    bool includeHfPrep = true;

    Circuit logical;       ///< chain-synthesized logical reference
    Circuit circuit;       ///< current circuit (physical once routed)
    Layout initialLayout;
    Layout finalLayout;
    size_t swapCount = 0;
    bool haveInitialLayout = false;
    bool routed = false;   ///< circuit obeys the device coupling
};

/** Per-pass cost/effect record. */
struct PassStats
{
    std::string pass;
    double millis = 0.0;
    size_t gatesBefore = 0, gatesAfter = 0;
    size_t cnotsBefore = 0, cnotsAfter = 0;
    size_t depthBefore = 0, depthAfter = 0;
};

/** Whole-compile record: ordered pass stats plus cache outcome. */
struct PipelineReport
{
    std::vector<PassStats> passes;
    double totalMillis = 0.0;
    bool cacheHit = false;

    /** Pretty-printed table, one row per pass. */
    std::string str() const;
};

/** One compiler stage. */
class Pass
{
  public:
    virtual ~Pass() = default;

    virtual const char *name() const = 0;

    virtual void run(CompileState &state) const = 0;

    /**
     * True when the pass rewrites the circuit; the manager re-checks
     * the coupling invariant after every such pass.
     */
    virtual bool mutates() const { return true; }
};

/**
 * Ordered pass executor. Owns its passes; `run` times each one,
 * records the gate-count/CNOT/depth deltas, and throws CompileError
 * naming the pass and gate index if a mutating pass breaks the
 * coupling constraint of an already-routed circuit.
 */
class PassManager
{
  public:
    PassManager &add(std::unique_ptr<Pass> pass);

    std::vector<std::string> passNames() const;

    /** Execute the sequence, appending stats to `report`. */
    void run(CompileState &state, PipelineReport &report) const;

  private:
    std::vector<std::unique_ptr<Pass>> sequence;
};

/** @{ Pass wrappers over the existing free-function stages. */

/** Chain synthesis of the logical circuit (Figure 2 plan). */
class ChainSynthesisPass : public Pass
{
  public:
    const char *name() const override { return "chain-synthesis"; }
    void run(CompileState &state) const override;
};

/** Algorithm 2 hierarchical initial layout. */
class HierarchicalLayoutPass : public Pass
{
  public:
    const char *name() const override { return "hier-layout"; }
    void run(CompileState &state) const override;
    bool mutates() const override { return false; }
};

/** Algorithm 3 Merge-to-Root synthesis + routing. */
class MergeToRootPass : public Pass
{
  public:
    const char *name() const override { return "merge-to-root"; }
    void run(CompileState &state) const override;
};

/** SABRE routing of the chain-synthesized circuit. */
class SabreRoutePass : public Pass
{
  public:
    explicit SabreRoutePass(SabreOptions opts = {}) : opts(opts) {}
    const char *name() const override { return "sabre-route"; }
    void run(CompileState &state) const override;

  private:
    SabreOptions opts;
};

/** Peephole cancellation to a fixed point. */
class PeepholePass : public Pass
{
  public:
    const char *name() const override { return "peephole"; }
    void run(CompileState &state) const override;
};

/**
 * Verification: coupling check on routed circuits, plus randomized
 * permutation-aware equivalence against the logical reference when
 * `trials > 0` (synthesizing the reference on demand). Failures
 * throw CompileError with the offending gate index.
 */
class VerifyPass : public Pass
{
  public:
    explicit VerifyPass(int equivalence_trials = 0)
        : trials(equivalence_trials)
    {}
    const char *name() const override { return "verify"; }
    void run(CompileState &state) const override;
    bool mutates() const override { return false; }

  private:
    int trials;
};

/** @} */

/** Pipeline configuration. */
struct PipelineOptions
{
    enum class Flow
    {
        ChainOnly,   ///< logical chain circuit, no routing
        MergeToRoot, ///< hier-layout + MtR on the X-Tree
        Sabre,       ///< chain + SABRE on the coupling graph
    };
    Flow flow = Flow::MergeToRoot;

    bool includeHfPrep = true;
    bool peephole = false; ///< append the cancellation pass
    /**
     * Equivalence-check trials in the trailing verify pass; 0 keeps
     * only the coupling check (equivalence costs a 2^n simulation).
     * The verify pass runs when the flow routes or trials > 0: an
     * unrouted circuit with no trials has nothing to check.
     */
    int verifyTrials = 0;
    /**
     * Memoize compiles in the global CircuitCache (chain and MtR
     * flows only — SABRE output cannot be angle-rebound).
     */
    bool useCache = true;
    SabreOptions sabre;
};

/** Result of one pipeline compile. */
struct CompileResult
{
    Circuit circuit;
    Layout initialLayout;
    Layout finalLayout;
    size_t swapCount = 0;
    PipelineReport report;

    /** Mapping overhead in CNOTs (3 per SWAP, paper convention). */
    size_t overheadCnots() const { return 3 * swapCount; }
};

/**
 * Configured compiler front door. The cacheable prefix of the flow
 * (synthesis + layout + routing, whose structure is parameter-
 * independent for the chain and MtR flows) is memoized in the global
 * CircuitCache; angle-dependent passes (peephole) and verification
 * always run per compile.
 */
class CompilerPipeline
{
  public:
    /** Tree target: MergeToRoot and Sabre flows route on the tree. */
    CompilerPipeline(const XTree &tree, PipelineOptions opts = {});

    /** Graph target: Sabre flow only (MtR needs tree structure). */
    CompilerPipeline(const CouplingGraph &graph,
                     PipelineOptions opts = {});

    /** Device-free pipeline: ChainOnly flow only. */
    explicit CompilerPipeline(PipelineOptions opts);

    const PipelineOptions &options() const { return opts; }

    /** Pass names of the full sequence, synthesis then post. */
    std::vector<std::string> passNames() const;

    /** Compile one ansatz program with bound parameters. */
    CompileResult compile(const Ansatz &ansatz,
                          const std::vector<double> &params) const;

    /**
     * Whole-Hamiltonian compile: one exp(i theta w_j P_j) subcircuit
     * per term, fanned out over the thread pool (deterministic: the
     * result order matches the term order and every term compiles
     * independently). Identity terms yield empty circuits.
     */
    std::vector<CompileResult>
    compileTerms(const PauliSum &h, double theta) const;

  private:
    void buildManagers();
    CacheKey makeKey(const Ansatz &ansatz) const;
    bool rebindable() const;

    PipelineOptions opts;
    const XTree *tree = nullptr;
    const CouplingGraph *graph = nullptr;
    PassManager synth; ///< cacheable prefix
    PassManager post;  ///< angle-dependent / checking suffix
    CacheKey keyPrefix; ///< program-independent key words (device, flow)
};

/**
 * Cached chain synthesis for the simulator hot paths: structure
 * memoized in the global cache, angles rebound per call. Exactly
 * equivalent to synthesizeChainCircuit.
 */
Circuit cachedChainCircuit(const Ansatz &ansatz,
                           const std::vector<double> &params,
                           bool include_hf_prep = true);

} // namespace qcc

#endif // QCC_COMPILER_PIPELINE_HH
