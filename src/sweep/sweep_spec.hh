/**
 * @file
 * Declarative batch description: a SweepSpec is to a whole study
 * what an ExperimentSpec is to one run. The paper's evaluation is
 * itself a sweep — Table I/II molecules x compression thresholds x
 * architectures, the Figure 10/11 dissociation curves — and a
 * SweepSpec captures one such study as a JSON document:
 *
 *   {
 *     "name": "lih_curve",
 *     "base": { "molecule": "LiH", "compression": 0.5 },
 *     "axes": {
 *       "bond": {"from": 1.0, "to": 2.6, "step": 0.2},
 *       "seed": [1, 2, 3]
 *     },
 *     "jobs": [ { "molecule": "H2" } ],
 *     "concurrency": 4
 *   }
 *
 * `base` is a partial ExperimentSpec giving every job's defaults;
 * `axes` maps spec field names to value lists (or numeric
 * from/to/step ranges) whose cartesian product — first axis
 * slowest, document order preserved — becomes the job list; `jobs`
 * appends explicit one-off specs after the product. `base` and each
 * job are read by applySpecObject and every axis value flows through
 * applySpecField (api/spec.hh), so typing and the duplicate-key rule
 * are exactly the spec's. Expansion is pure and deterministic: the
 * same document always yields the same ordered job list, which is
 * what lets the ResultStore promise stable job indices regardless
 * of execution order.
 */

#ifndef QCC_SWEEP_SWEEP_SPEC_HH
#define QCC_SWEEP_SWEEP_SPEC_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "api/spec.hh"
#include "common/json.hh"

namespace qcc {

/** Malformed-sweep failure naming the offending element. */
class SweepError : public std::runtime_error
{
  public:
    SweepError(std::string element, const std::string &detail)
        : std::runtime_error("SweepSpec." + element + ": " + detail),
          elementName(std::move(element))
    {
    }

    const std::string &element() const { return elementName; }

  private:
    std::string elementName;
};

/** One sweep axis: a spec field and its value list. */
struct SweepAxis
{
    std::string field;            ///< ExperimentSpec JSON field name
    std::vector<JsonValue> values; ///< expanded value list, in order
};

/** One batch of experiments, declaratively. */
struct SweepSpec
{
    /**
     * Widest worker pool a document or a CLI may ask for: a sweep
     * starts up to this many threads, or forks this many workers.
     */
    static constexpr unsigned kMaxConcurrency = 1024;

    /** Most jobs an axis, or the product of all axes, may expand to. */
    static constexpr size_t kMaxAxisPoints = 1000000;

    /** Study name; the aggregate lands in SWEEP_<name>.json. */
    std::string name = "sweep";

    /** Defaults applied to every job before axis values. */
    ExperimentSpec base;

    /** Cartesian-product axes, document order (first = slowest). */
    std::vector<SweepAxis> axes;

    /** Explicit one-off jobs appended after the product. */
    std::vector<ExperimentSpec> explicitJobs;

    /** Worker width; 0 uses the QCC_THREADS-backed default. */
    unsigned concurrency = 0;

    /** Soft per-job wall-clock budget in ms; 0 disables. */
    double jobTimeoutMs = 0.0;

    /** Extra attempts after a non-spec job failure. */
    int retries = 0;

    /**
     * Emit wall-clock timings (and the compile-cache outcome) in the
     * aggregate document. Off — and with no jobTimeoutMs armed,
     * since the done/timed_out margin is itself wall-clock — the
     * SWEEP_*.json bytes depend only on the spec and QCC_SEED: the
     * reproducibility contract the determinism suite pins at
     * concurrency 1 vs N.
     */
    bool emitTimings = true;

    /**
     * The ordered job list: cartesian product of the axes over
     * `base` (first axis slowest), then the explicit jobs. Throws
     * SweepError on a product above kMaxAxisPoints and
     * SweepError/SpecError on unknown axis fields or ill-typed
     * values; registry keys are validated later, per job, by the
     * engine (one bad job must not sink the sweep).
     */
    std::vector<ExperimentSpec> expand() const;

    /** Total job count without materializing the list. */
    size_t jobCount() const;

    /** Stable JSON document; fromJson(json()) reproduces the spec. */
    std::string json() const;

    /** Parse a sweep document; throws SweepError/SpecError. */
    static SweepSpec fromJson(const std::string &doc);

    /** Load and parse a spec file; throws SweepError on IO failure. */
    static SweepSpec fromFile(const std::string &path);
};

/**
 * Parse a --concurrency argument: a decimal integer in
 * [0, SweepSpec::kMaxConcurrency], 0 meaning the default width.
 * False on anything else, a sign or trailing bytes included.
 */
bool parseConcurrency(const char *text, unsigned &out);

/**
 * Content hash of one expanded job spec (32 hex chars): a double
 * FNV-1a over the spec's canonical JSON document. This is the resume
 * key — when a sweep is re-submitted, a recorded job is adopted only
 * if the hash stored next to it still matches the re-expanded spec
 * at the same index, so editing an axis invalidates exactly the jobs
 * it changes.
 */
std::string sweepJobHash(const ExperimentSpec &spec);

} // namespace qcc

#endif // QCC_SWEEP_SWEEP_SPEC_HH
