/**
 * @file
 * qcc::Experiment — the spec-driven facade over the whole
 * co-optimized flow. One ExperimentSpec (api/spec.hh) names every
 * choice by registry key, including the workload kind itself:
 * Experiment::run() dispatches through the ExperimentKindRegistry
 * to "vqe" (molecule -> active space -> Jordan-Wigner -> Pauli
 * Hamiltonian -> (compressed) UCCSD -> VQE through an
 * estimation strategy -> optional X-tree/grid compilation),
 * "evolve" (Trotterized exp(-iHt) on the same stack, with an exact
 * Taylor fidelity reference at small n), or "estimate" (the
 * simulation-free resource estimator — compiler counts plus the
 * measurement bill, never a 2^n state). Every kind returns the same
 * structured ExperimentResult (energies, trace, pipeline summary,
 * evolution/estimate blocks, phase timings) with JSON serialization
 * under the same QCC_JSON convention as the TRACE and BENCH outputs
 * (RESULT_<name>.json).
 *
 * ExperimentSpec is an aggregate, so a designated initializer (fields
 * in declaration order) is the whole front end:
 *
 *   ExperimentResult r =
 *       Experiment(ExperimentSpec{.molecule = "H2", .bond = 0.74,
 *                                 .mode = "noisy_sampled",
 *                                 .optimizer = "spsa",
 *                                 .shots = 65536})
 *           .run();
 *
 * Spec validation resolves every registry key up front; unknown keys
 * throw RegistryError listing the registered names, unknown
 * molecules/architectures throw SpecError naming the valid choices.
 * The result document (its scalars and the compiled / evolution /
 * estimate / timing_ms blocks) is written and read through field
 * tables (api/json_fields.hh), one row per member.
 */

#ifndef QCC_API_EXPERIMENT_HH
#define QCC_API_EXPERIMENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ansatz/uccsd.hh"
#include "api/registries.hh"
#include "api/spec.hh"
#include "arch/grid.hh"
#include "arch/xtree.hh"
#include "estimate/estimate.hh"
#include "evolve/trotter.hh"
#include "ferm/hamiltonian.hh"
#include "vqe/driver.hh"

namespace qcc {

/**
 * A named target device parsed from a spec architecture key:
 * "xtree<N>" (X-Tree on N qubits), "grid17" (the paper's 17-qubit
 * grid), or "grid<R>x<C>". Tree devices carry both views; grids
 * carry only the coupling graph.
 */
struct Device
{
    std::string name;
    std::optional<XTree> tree;
    std::optional<CouplingGraph> graph;
};

/** Parse an architecture key; throws SpecError when malformed. */
Device makeDevice(const std::string &architecture);

/** Compile-phase summary (present when the spec names a pipeline). */
struct CompiledStats
{
    bool present = false;
    std::string pipeline; ///< preset key
    std::string device;   ///< architecture key ("" for chain-only)
    size_t gates = 0;
    size_t cnots = 0;
    size_t depth = 0;
    size_t swaps = 0;
    size_t overheadCnots = 0; ///< 3 per SWAP (paper convention)
    double millis = 0.0;
    bool cacheHit = false;
};

/** Structured record of one Experiment::run(). */
struct ExperimentResult
{
    ExperimentSpec spec; ///< the resolved spec that produced this

    unsigned nQubits = 0;
    unsigned nParams = 0;        ///< ansatz parameters actually run
    unsigned fullParams = 0;     ///< uncompressed UCCSD parameters
    size_t hamiltonianTerms = 0;
    size_t measurementSettings = 0; ///< grouped family count

    double hartreeFock = 0.0;
    double fci = 0.0;       ///< Lanczos reference (when computed)
    bool haveFci = false;

    VqeResult vqe;          ///< converged energy and parameters
    VqeTrace trace;         ///< full per-point run record
    uint64_t shots = 0;     ///< total measurement bill

    CompiledStats compiled;

    /** Kind "evolve": Trotter run summary (present flag inside). */
    TimeEvolutionResult evolution;

    /** Kind "estimate": resource counts (present flag inside). */
    EstimateResult estimate;

    double buildMillis = 0.0;   ///< chemistry + ansatz phase
    double vqeMillis = 0.0;
    double compileMillis = 0.0;
    double totalMillis = 0.0;

    /**
     * In-memory handles for composition (noisy re-evaluation,
     * recompilation, ...); not serialized.
     */
    PauliSum hamiltonian;
    Ansatz ansatz;

    /** Converged energy (the headline number). */
    double energy() const { return vqe.energy; }

    /**
     * Serialization selection for json(). The volatile fields —
     * wall-clock timings and the compile-cache outcome — change
     * between otherwise identical runs, so aggregators that promise
     * byte-stable output (the sweep ResultStore) drop them; the
     * trace can dominate a document and is skippable for compact
     * per-job records.
     */
    struct JsonOptions
    {
        bool timings = true; ///< timing_ms block + compiled millis/cache_hit
        bool trace = true;   ///< full per-point VQE trace
    };

    /** Full JSON document: spec, metrics, timings, and the trace. */
    std::string json() const { return json(JsonOptions{}); }

    /** JSON document with the selected sections. */
    std::string json(const JsonOptions &options) const;

    /**
     * Rehydrate a result from a parsed json() document — the resume
     * path: the sweep layer reads completed job records back out of
     * an existing SWEEP_*.json and re-serializes them, and because
     * every number round-trips exactly (%.17g / %.6g both survive a
     * parse-and-reprint), the rehydrated record's json() is
     * byte-identical to the original. Restores the serialized subset
     * only: the in-memory handles (hamiltonian, ansatz), the VQE
     * trace, and the parameter vector stay empty. False when `doc`
     * is not a result document (missing/ill-typed members); `out`
     * is untouched on failure.
     */
    static bool fromJsonDom(const JsonValue &doc,
                            ExperimentResult &out);

    /**
     * Write json() as RESULT_<name>.json under the QCC_JSON
     * convention; returns the path written ("" when disabled).
     */
    std::string write(const std::string &name) const;
};

/**
 * A workload-kind runner: a validated, resolved spec in, a full
 * result out. The registry below maps spec `kind` keys onto these.
 */
using ExperimentKindFn =
    std::function<ExperimentResult(const ExperimentSpec &)>;
using ExperimentKindRegistry = Registry<ExperimentKindFn>;

/**
 * Workload kinds by name — built-ins "vqe", "evolve", "estimate";
 * downstream code can add() new kinds and select them from specs
 * with no core changes.
 */
ExperimentKindRegistry &experimentKindRegistry();

/** A validated, runnable experiment. */
class Experiment
{
  public:
    /**
     * Validate `spec` and resolve every registry key; throws
     * RegistryError/SpecError with the valid choices on any unknown
     * name.
     */
    explicit Experiment(ExperimentSpec spec);

    const ExperimentSpec &spec() const { return resolved; }

    /** Execute the full flow described by the spec. */
    ExperimentResult run() const;

  private:
    ExperimentSpec resolved;
};

} // namespace qcc

#endif // QCC_API_EXPERIMENT_HH
