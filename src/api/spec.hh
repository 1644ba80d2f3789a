/**
 * @file
 * Declarative experiment description. An ExperimentSpec is the full
 * recipe for one end-to-end run of the co-optimized flow — workload
 * kind, molecule, basis, active space (via the Table I catalog),
 * measurement grouping, ansatz compression, compiler pipeline +
 * target architecture, evaluation mode, optimizer, shot budget,
 * evolution parameters, and seed — as a flat aggregate. Build one
 * with designated initializers in declaration order:
 *
 *   ExperimentSpec s{.molecule = "LiH", .compression = 0.5};
 *
 * The JSON form comes from one field table in spec.cc (json key,
 * member pointer, emission order) that drives json(), fromJson(),
 * applySpecField() and applySpecObject(): json() and fromJson() are
 * exact inverses (stable field order, %.17g numbers), so a spec can
 * be archived next to its RESULT_*.json and replayed bit-for-bit.
 * String fields are registry keys, resolved (and diagnosed with the
 * registered-name list) when qcc::Experiment validates the spec; the
 * parsers only check shape, throwing SpecError with field provenance
 * on malformed documents.
 */

#ifndef QCC_API_SPEC_HH
#define QCC_API_SPEC_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/json.hh"

namespace qcc {

/** Malformed-spec failure naming the offending field. */
class SpecError : public std::runtime_error
{
  public:
    SpecError(std::string field_name, const std::string &detail)
        : std::runtime_error("ExperimentSpec." + field_name + ": " +
                             detail),
          fieldName(std::move(field_name))
    {
    }

    const std::string &field() const { return fieldName; }

  private:
    std::string fieldName;
};

/**
 * One experiment, declaratively. Every member has a default member
 * initializer, so a designated initializer may leave any of them
 * out without a -Wmissing-field-initializers warning.
 */
struct ExperimentSpec
{
    /**
     * Workload kind (ExperimentKindRegistry key): "vqe" (ground
     * state), "evolve" (Trotterized time evolution), or "estimate"
     * (simulation-free resource estimate).
     */
    std::string kind = "vqe";

    /** Table I catalog molecule ("H2", "LiH", ..., "CH4"). */
    std::string molecule = "H2";

    /** Bond length in Angstrom; <= 0 uses the catalog equilibrium. */
    double bond = 0.0;

    /** STO-nG contraction count, 1-6 (3 = the paper's STO-3G). */
    int basisNg = 3;

    /** Kept-parameter ratio; >= 1 keeps the full UCCSD ansatz. */
    double compression = 1.0;

    /** GroupingRegistry key ("greedy", "sorted-insertion"). */
    std::string grouping = "greedy";

    /** Evaluation mode ("ideal", "noisy", "sampled",
     *  "noisy_sampled"). */
    std::string mode = "ideal";

    /** OptimizerRegistry key ("lbfgs", "gd", "spsa",
     *  "nelder-mead"). */
    std::string optimizer = "lbfgs";

    /** PipelinePresetRegistry key; empty skips the compile phase. */
    std::string pipeline{};

    /** Target device ("xtree<N>", "grid17", "grid<R>x<C>");
     *  required by routed pipeline presets. */
    std::string architecture{};

    /** CNOT depolarizing probability (noisy modes; the paper's
     *  Section VI-D default). */
    double cnotError = 1e-4;

    /** Single-qubit depolarizing probability (noisy modes). */
    double singleQubitError = 0.0;

    /** Shots per energy estimate; 0 uses the sampler's default of
     *  8192 (SamplingOptions::shots). */
    uint64_t shots = 0;

    /** Master seed; 0 uses the QCC_SEED-backed global seed. */
    uint64_t seed = 0;

    /** Outer-loop iteration budget (gradient optimizers). */
    int maxIter = 200;

    /** SPSA iteration budget. */
    int spsaIter = 250;

    /** Total evolution time t of exp(-iHt), in Hartree^-1 (kind
     *  "evolve"; > 0 required there, must stay 0 for "vqe"). */
    double evolveTime = 0.0;

    /** Trotter step count r (kind "evolve": >= 1 required; kind
     *  "estimate": >= 1 selects the Trotter program instead of the
     *  UCCSD ansatz; must stay 0 for "vqe"). */
    int evolveSteps = 0;

    /** Product-formula order: 1 (Lie-Trotter) or 2 (Strang). */
    int evolveOrder = 1;

    /** Compute the Lanczos FCI reference energy in the result; for
     *  kind "evolve" it gates the exact exp(-iHt) fidelity
     *  reference instead. Ignored by "estimate". */
    bool reference = true;

    /**
     * Flat JSON document, field-table order. fromJson(json()) is
     * the identity.
     */
    std::string json() const;

    /** Parse a spec document (applySpecObject over the default
     *  spec); throws SpecError on malformed input, unknown fields,
     *  or duplicate fields (each diagnostic names the field). */
    static ExperimentSpec fromJson(const std::string &doc);
};

/**
 * Apply one parsed JSON value onto a spec field named by its JSON
 * key ("molecule", "bond", "max_iter", ...). This is the expansion
 * hook the sweep layer fans a SweepSpec's axes through, so axis
 * values obey exactly the spec document's typing rules (exact
 * uint64 seeds, ints from any in-range number, truncated). Throws
 * SpecError naming the field on an unknown key or a wrong-typed
 * value.
 */
void applySpecField(ExperimentSpec &spec, const std::string &key,
                    const JsonValue &value);

/**
 * Apply every member of a spec object onto `spec`, in document
 * order: the one reader of spec objects, shared by fromJson(), a
 * SweepSpec's base and jobs, sweepd job requests and the spec block
 * of a result document. Members a document leaves out keep their
 * current values. Throws SpecError naming the field on an unknown,
 * wrong-typed or duplicated member. Callers check isObject() first
 * and report a non-object in their own terms.
 */
void applySpecObject(ExperimentSpec &spec, const JsonValue &object);

} // namespace qcc

#endif // QCC_API_SPEC_HH
