#include "api/experiment.hh"

#include <chrono>
#include <cstdlib>
#include <utility>

#include "ansatz/compression.hh"
#include "api/json_fields.hh"
#include "chem/sto_ng.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "sim/lanczos.hh"
#include "sim/pauli_frame.hh"
#include "sim/sampling.hh"
#include "store/problem_store.hh"
#include "vqe/estimation.hh"
#include "vqe/vqe.hh"

namespace qcc {

namespace {

using clock_type = std::chrono::steady_clock;

double
millisSince(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               clock_type::now() - t0)
        .count();
}

const BenchmarkMolecule &
catalogEntry(const std::string &name)
{
    for (const auto &entry : benchmarkMolecules())
        if (entry.name == name)
            return entry;
    std::string known;
    for (const auto &entry : benchmarkMolecules())
        known += (known.empty() ? "" : ", ") + entry.name;
    throw SpecError("molecule",
                    "unknown molecule '" + name +
                        "'; catalog: " + known);
}

/** Largest device size any architecture key may name. */
constexpr long kMaxDeviceQubits = 4096;

/**
 * Parse the digits of `s` after `prefix`; -1 when not that shape or
 * outside (0, kMaxDeviceQubits] — a wrapped-around size must reject
 * the key, not build a different device.
 */
long
suffixNumber(const std::string &s, const std::string &prefix)
{
    if (s.size() <= prefix.size() ||
        s.compare(0, prefix.size(), prefix) != 0)
        return -1;
    char *end = nullptr;
    const char *digits = s.c_str() + prefix.size();
    const long v = std::strtol(digits, &end, 10);
    if (end == digits || *end != '\0' || v <= 0 ||
        v > kMaxDeviceQubits)
        return -1;
    return v;
}

} // namespace

Device
makeDevice(const std::string &architecture)
{
    Device dev;
    dev.name = architecture;
    if (long n = suffixNumber(architecture, "xtree"); n > 0) {
        dev.tree = makeXTree(unsigned(n));
        dev.graph = dev.tree->graph;
        return dev;
    }
    if (architecture == "grid17") {
        dev.graph = makeGrid17Q();
        return dev;
    }
    if (architecture.compare(0, 4, "grid") == 0) {
        const size_t x = architecture.find('x', 4);
        if (x != std::string::npos) {
            const long rows =
                suffixNumber(architecture.substr(0, x), "grid");
            const long cols =
                suffixNumber(architecture.substr(x), "x");
            // The cap is on the device, not each dimension.
            if (rows > 0 && cols > 0 &&
                rows * cols <= kMaxDeviceQubits) {
                dev.graph = makeGrid(unsigned(rows), unsigned(cols));
                return dev;
            }
        }
    }
    throw SpecError("architecture",
                    "unknown device '" + architecture +
                        "'; expected xtree<N>, grid17, or "
                        "grid<R>x<C>");
}

Experiment::Experiment(ExperimentSpec s) : resolved(std::move(s))
{
    // Resolve every key now so a bad spec fails at construction with
    // the valid choices, not mid-run.
    experimentKindRegistry().get(resolved.kind);
    const BenchmarkMolecule &entry = catalogEntry(resolved.molecule);
    estimationRegistry().get(resolved.mode);
    optimizerRegistry().get(resolved.optimizer);
    groupingRegistry().get(resolved.grouping);
    if (resolved.compression <= 0.0)
        throw SpecError("compression", "ratio must be positive");
    // The STO-nG table holds 1 to kStoNgMaxGaussians primitives; a
    // count outside it is a spec error, not a mid-sweep failure.
    if (resolved.basisNg < 1 || resolved.basisNg > kStoNgMaxGaussians)
        throw SpecError("basis_ng",
                        "contraction count must be in [1, " +
                            std::to_string(kStoNgMaxGaussians) +
                            "], got " +
                            std::to_string(resolved.basisNg));
    if (!resolved.pipeline.empty()) {
        const PipelineOptions po =
            pipelinePresetRegistry().get(resolved.pipeline)();
        const bool routed =
            po.flow != PipelineOptions::Flow::ChainOnly;
        if (resolved.architecture.empty()) {
            if (routed)
                throw SpecError("architecture",
                                "pipeline preset '" +
                                    resolved.pipeline +
                                    "' routes onto a device; name "
                                    "one (xtree<N>, grid17, "
                                    "grid<R>x<C>)");
        } else {
            Device dev = makeDevice(resolved.architecture);
            if (po.flow == PipelineOptions::Flow::MergeToRoot &&
                !dev.tree)
                throw SpecError("architecture",
                                "Merge-to-Root needs a tree device "
                                "(xtree<N>), got '" +
                                    resolved.architecture + "'");
        }
    } else if (!resolved.architecture.empty()) {
        makeDevice(resolved.architecture); // validate anyway
    }
    if (resolved.evolveOrder != 1 && resolved.evolveOrder != 2)
        throw SpecError("evolve_order",
                        "product-formula order must be 1 or 2");
    if (resolved.evolveSteps < 0)
        throw SpecError("evolve_steps",
                        "step count cannot be negative");
    if (resolved.evolveTime < 0.0)
        throw SpecError("evolve_time",
                        "evolution time cannot be negative");
    if (resolved.kind == "evolve") {
        if (resolved.evolveSteps < 1)
            throw SpecError("evolve_steps",
                            "kind \"evolve\" needs at least one "
                            "Trotter step");
        if (!(resolved.evolveTime > 0.0))
            throw SpecError("evolve_time",
                            "kind \"evolve\" needs a positive "
                            "evolution time");
        if (resolved.mode != "ideal")
            throw SpecError("mode",
                            "time evolution runs on the ideal "
                            "statevector; use mode \"ideal\"");
    } else if (resolved.kind == "vqe") {
        // A typo'd kind must not silently drop the evolve fields.
        if (resolved.evolveSteps != 0 || resolved.evolveTime != 0.0)
            throw SpecError("evolve_steps",
                            "evolve_* fields apply to kinds "
                            "\"evolve\" and \"estimate\" only");
        // Refuse here, before a job sizes a 4^n vector it cannot
        // hold (NH3 would zero-fill 4 GiB before the simulator's own
        // check). The catalog width is the built problem's width.
        if (pauliFrameMode(resolved.mode) &&
            entry.expectQubits > PauliFrame::kMaxQubits)
            throw SpecError(
                "mode", "mode \"" + resolved.mode +
                            "\" holds 8 * 4^n bytes of Pauli "
                            "coefficients, at most " +
                            std::to_string(PauliFrame::kMaxQubits) +
                            " qubits; " + resolved.molecule + " needs " +
                            std::to_string(entry.expectQubits));
    }
}

namespace {

/**
 * Optional compile phase shared by every kind: when the spec names
 * a pipeline preset, compile `program` with `params` bound and fill
 * the CompiledStats block.
 */
void
compilePhase(const ExperimentSpec &resolved, const Ansatz &program,
             const std::vector<double> &params,
             ExperimentResult &out)
{
    if (resolved.pipeline.empty())
        return;
    const auto tCompile = clock_type::now();
    const PipelineOptions po =
        pipelinePresetRegistry().get(resolved.pipeline)();
    CompileResult compiled;
    if (po.flow == PipelineOptions::Flow::ChainOnly) {
        compiled = CompilerPipeline(po).compile(program, params);
    } else {
        Device dev = makeDevice(resolved.architecture);
        if (dev.tree)
            compiled = CompilerPipeline(*dev.tree, po)
                           .compile(program, params);
        else
            compiled = CompilerPipeline(*dev.graph, po)
                           .compile(program, params);
    }
    out.compiled.present = true;
    out.compiled.pipeline = resolved.pipeline;
    out.compiled.device = resolved.architecture;
    out.compiled.gates = compiled.circuit.totalGates();
    out.compiled.cnots = compiled.circuit.cnotCount();
    out.compiled.depth = compiled.circuit.depth();
    out.compiled.swaps = compiled.swapCount;
    out.compiled.overheadCnots = compiled.overheadCnots();
    out.compiled.millis = compiled.report.totalMillis;
    out.compiled.cacheHit = compiled.report.cacheHit;
    out.compileMillis = millisSince(tCompile);
}

/** Kind "vqe": the original ground-state flow. */
ExperimentResult
runVqeExperiment(const ExperimentSpec &resolved)
{
    const auto t0 = clock_type::now();
    ExperimentResult out;
    out.spec = resolved;

    // ---- chemistry + ansatz -------------------------------------
    const BenchmarkMolecule &entry = catalogEntry(resolved.molecule);
    const double bond =
        resolved.bond > 0.0 ? resolved.bond : entry.equilibriumBond;
    out.spec.bond = bond; // resolved for exact replay
    MolecularProblem prob =
        globalProblemStore().get(entry, bond, resolved.basisNg);
    Ansatz ansatz;
    {
        TraceSpan span("ansatz.build");
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
        out.fullParams = full.nParams;
        if (resolved.compression < 1.0)
            ansatz = compressAnsatz(full, prob.hamiltonian,
                                    resolved.compression)
                         .ansatz;
        else
            ansatz = std::move(full);
        span.arg("params", ansatz.nParams);
        span.arg("rotations", ansatz.rotations.size());
    }

    out.nQubits = prob.nQubits;
    out.nParams = ansatz.nParams;
    out.hamiltonianTerms = prob.hamiltonian.numTerms();
    out.hartreeFock = prob.hartreeFockEnergy;
    const GroupingFn &grouping =
        groupingRegistry().get(resolved.grouping);
    out.measurementSettings = grouping(prob.hamiltonian).size();
    if (resolved.reference) {
        out.fci = lanczosGroundEnergy(prob.hamiltonian);
        out.haveFci = true;
    }
    out.buildMillis = millisSince(t0);

    // ---- VQE through the estimation-strategy seam ---------------
    const auto tVqe = clock_type::now();
    VqeDriverOptions opts;
    opts.optimizer = optimizerRegistry().get(resolved.optimizer)();
    opts.noise.cnotDepolarizing = resolved.cnotError;
    opts.noise.singleQubitDepolarizing = resolved.singleQubitError;
    if (resolved.shots > 0)
        opts.sampling.shots = resolved.shots;
    opts.sampling.grouping = grouping;
    opts.maxIter = resolved.maxIter;
    opts.spsaIter = resolved.spsaIter;
    if (resolved.seed != 0)
        opts.seed = resolved.seed;
    out.spec.shots = opts.sampling.shots;
    out.spec.seed = opts.seed;

    VqeDriver driver(
        prob.hamiltonian, ansatz, opts,
        makeEstimationStrategy(
            resolved.mode, EstimationConfig{&prob.hamiltonian,
                                            opts.noise, opts.sampling,
                                            grouping}));
    out.vqe = driver.run();
    out.trace = driver.trace();
    out.shots = driver.shotsSpent();
    out.vqeMillis = millisSince(tVqe);

    compilePhase(resolved, ansatz, out.vqe.params, out);

    out.hamiltonian = std::move(prob.hamiltonian);
    out.ansatz = std::move(ansatz);
    out.totalMillis = millisSince(t0);
    return out;
}

/** Kind "evolve": Trotterized exp(-iHt) from the HF state. */
ExperimentResult
runEvolveExperiment(const ExperimentSpec &resolved)
{
    const auto t0 = clock_type::now();
    ExperimentResult out;
    out.spec = resolved;

    // ---- chemistry + Trotter program ----------------------------
    const BenchmarkMolecule &entry = catalogEntry(resolved.molecule);
    const double bond =
        resolved.bond > 0.0 ? resolved.bond : entry.equilibriumBond;
    out.spec.bond = bond;
    MolecularProblem prob =
        globalProblemStore().get(entry, bond, resolved.basisNg);
    const GroupingFn &grouping =
        groupingRegistry().get(resolved.grouping);
    const uint64_t hfMask =
        hartreeFockMask(prob.nSpatial, prob.nElectrons);
    TrotterBuild tb = buildTrotterAnsatz(
        prob.hamiltonian, hfMask, resolved.evolveSteps,
        resolved.evolveOrder, grouping);

    out.nQubits = prob.nQubits;
    out.nParams = 1; // dt
    out.fullParams = 1;
    out.hamiltonianTerms = prob.hamiltonian.numTerms();
    out.measurementSettings = grouping(prob.hamiltonian).size();
    out.hartreeFock = prob.hartreeFockEnergy;
    out.buildMillis = millisSince(t0);

    // ---- evolve on the ideal statevector ------------------------
    const auto tRun = clock_type::now();
    const double dt = resolved.evolveTime / resolved.evolveSteps;
    const Statevector psi = prepareAnsatzState(tb.ansatz, {dt});

    TimeEvolutionResult &ev = out.evolution;
    ev.present = true;
    ev.time = resolved.evolveTime;
    ev.steps = tb.steps;
    ev.order = tb.order;
    ev.termsPerStep = tb.termsPerStep;
    ev.identityTerms = tb.identityTerms;
    ev.initialEnergy = Statevector(prob.nQubits, hfMask)
                           .expectation(prob.hamiltonian);
    ev.finalEnergy = psi.expectation(prob.hamiltonian);
    out.vqe.energy = ev.finalEnergy; // the headline number
    out.vqe.params = {dt};
    if (resolved.reference &&
        prob.nQubits <= kMaxExactEvolveQubits) {
        const Statevector exact = exactEvolvedState(
            prob.hamiltonian, prob.nQubits, hfMask,
            resolved.evolveTime);
        ev.fidelity = stateFidelity(exact, psi);
        ev.haveFidelity = true;
    }
    // Per-step chain-plan cost: one step, no HF prep, shared
    // structure cache.
    {
        const TrotterBuild one = buildTrotterAnsatz(
            prob.hamiltonian, hfMask, 1, resolved.evolveOrder,
            grouping);
        const Circuit step =
            cachedChainCircuit(one.ansatz, {dt}, false);
        ev.stepGates = step.totalGates();
        ev.stepCnots = step.cnotCount();
        ev.stepDepth = step.depth();
    }
    out.vqeMillis = millisSince(tRun);

    compilePhase(resolved, tb.ansatz, {dt}, out);

    out.hamiltonian = std::move(prob.hamiltonian);
    out.ansatz = std::move(tb.ansatz);
    out.totalMillis = millisSince(t0);
    return out;
}

/** Kind "estimate": resource counts only, no simulator state. */
ExperimentResult
runEstimateExperiment(const ExperimentSpec &resolved)
{
    const auto t0 = clock_type::now();
    ExperimentResult out;
    out.spec = resolved;

    // ---- chemistry + program selection --------------------------
    const BenchmarkMolecule &entry = catalogEntry(resolved.molecule);
    const double bond =
        resolved.bond > 0.0 ? resolved.bond : entry.equilibriumBond;
    out.spec.bond = bond;
    MolecularProblem prob =
        globalProblemStore().get(entry, bond, resolved.basisNg);
    const GroupingFn &grouping =
        groupingRegistry().get(resolved.grouping);

    // evolve_steps >= 1 costs the Trotter program, otherwise the
    // (compressed) UCCSD ansatz.
    Ansatz program;
    if (resolved.evolveSteps >= 1) {
        program = buildTrotterAnsatz(
                      prob.hamiltonian,
                      hartreeFockMask(prob.nSpatial,
                                      prob.nElectrons),
                      resolved.evolveSteps, resolved.evolveOrder,
                      grouping)
                      .ansatz;
        out.fullParams = 1;
    } else {
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
        out.fullParams = full.nParams;
        if (resolved.compression < 1.0)
            program = compressAnsatz(full, prob.hamiltonian,
                                     resolved.compression)
                          .ansatz;
        else
            program = std::move(full);
    }

    out.nQubits = prob.nQubits;
    out.nParams = program.nParams;
    out.hamiltonianTerms = prob.hamiltonian.numTerms();
    out.hartreeFock = prob.hartreeFockEnergy;
    // Simulation-free by contract: no Lanczos reference, no VQE —
    // the headline energy is the HF mean field.
    out.vqe.energy = prob.hartreeFockEnergy;
    out.buildMillis = millisSince(t0);

    // ---- count, never simulate ----------------------------------
    const auto tEst = clock_type::now();
    EstimateRequest req;
    req.hamiltonian = &prob.hamiltonian;
    req.program = &program;
    req.grouping = grouping;
    req.shotsPerEstimate =
        resolved.shots > 0 ? resolved.shots : SamplingOptions{}.shots;
    req.iterations = resolved.maxIter;
    if (!resolved.pipeline.empty()) {
        const PipelineOptions po =
            pipelinePresetRegistry().get(resolved.pipeline)();
        if (po.flow == PipelineOptions::Flow::ChainOnly) {
            const CompilerPipeline pipe(po);
            req.pipeline = &pipe;
            out.estimate = estimateResources(req);
        } else {
            // The pipeline borrows the device views: keep `dev`
            // alive across the compile.
            const Device dev = makeDevice(resolved.architecture);
            if (dev.tree) {
                const CompilerPipeline pipe(*dev.tree, po);
                req.pipeline = &pipe;
                out.estimate = estimateResources(req);
            } else {
                const CompilerPipeline pipe(*dev.graph, po);
                req.pipeline = &pipe;
                out.estimate = estimateResources(req);
            }
        }
    } else {
        out.estimate = estimateResources(req);
    }
    out.measurementSettings = out.estimate.measurementSettings;
    out.spec.shots = req.shotsPerEstimate; // resolved for replay
    out.compileMillis = millisSince(tEst);

    out.hamiltonian = std::move(prob.hamiltonian);
    out.ansatz = std::move(program);
    out.totalMillis = millisSince(t0);
    return out;
}

} // namespace

ExperimentKindRegistry &
experimentKindRegistry()
{
    static ExperimentKindRegistry reg = [] {
        ExperimentKindRegistry r("experiment kind");
        r.add("vqe", runVqeExperiment);
        r.add("evolve", runEvolveExperiment);
        r.add("estimate", runEstimateExperiment);
        return r;
    }();
    return reg;
}

ExperimentResult
Experiment::run() const
{
    TraceSpan span("experiment.run");
    span.arg("kind", resolved.kind);
    span.arg("molecule", resolved.molecule);
    return experimentKindRegistry().get(resolved.kind)(resolved);
}

namespace {

// The result document, one row per member in emission order. The
// top-level scalars are the problem, the VQE outcome (a member
// struct, so its own table) and the shot bill; then come the blocks,
// whose volatile rows are millis/cache_hit and timing_ms.

constexpr JsonField<ExperimentResult> kProblemFields[] = {
    {"n_qubits", &ExperimentResult::nQubits},
    {"n_params", &ExperimentResult::nParams},
    {"full_params", &ExperimentResult::fullParams},
    {"hamiltonian_terms", &ExperimentResult::hamiltonianTerms},
    {"measurement_settings", &ExperimentResult::measurementSettings},
    {"hartree_fock", &ExperimentResult::hartreeFock},
    {"fci", &ExperimentResult::fci},
    {"have_fci", &ExperimentResult::haveFci},
};

constexpr JsonField<VqeResult> kVqeFields[] = {
    {"energy", &VqeResult::energy},
    {"iterations", &VqeResult::iterations},
    {"evals", &VqeResult::evals},
    {"converged", &VqeResult::converged},
};

constexpr JsonField<ExperimentResult> kBillFields[] = {
    {"shots", &ExperimentResult::shots},
};

constexpr JsonField<CompiledStats> kCompiledFields[] = {
    {"pipeline", &CompiledStats::pipeline},
    {"device", &CompiledStats::device},
    {"gates", &CompiledStats::gates},
    {"cnots", &CompiledStats::cnots},
    {"depth", &CompiledStats::depth},
    {"swaps", &CompiledStats::swaps},
    {"overhead_cnots", &CompiledStats::overheadCnots},
    {"millis", &CompiledStats::millis, true},
    {"cache_hit", &CompiledStats::cacheHit, true},
};

constexpr JsonField<TimeEvolutionResult> kEvolutionFields[] = {
    {"time", &TimeEvolutionResult::time},
    {"steps", &TimeEvolutionResult::steps},
    {"order", &TimeEvolutionResult::order},
    {"terms_per_step", &TimeEvolutionResult::termsPerStep},
    {"identity_terms", &TimeEvolutionResult::identityTerms},
    {"initial_energy", &TimeEvolutionResult::initialEnergy},
    {"final_energy", &TimeEvolutionResult::finalEnergy},
    {"fidelity", &TimeEvolutionResult::fidelity},
    {"have_fidelity", &TimeEvolutionResult::haveFidelity},
    {"step_gates", &TimeEvolutionResult::stepGates},
    {"step_cnots", &TimeEvolutionResult::stepCnots},
    {"step_depth", &TimeEvolutionResult::stepDepth},
};

constexpr JsonField<EstimateResult> kEstimateFields[] = {
    {"qubits", &EstimateResult::qubits},
    {"parameters", &EstimateResult::parameters},
    {"pauli_strings", &EstimateResult::pauliStrings},
    {"hamiltonian_terms", &EstimateResult::hamiltonianTerms},
    {"settings", &EstimateResult::measurementSettings},
    {"gates", &EstimateResult::gates},
    {"cnots", &EstimateResult::cnots},
    {"depth", &EstimateResult::depth},
    {"swaps", &EstimateResult::swaps},
    {"overhead_cnots", &EstimateResult::overheadCnots},
    {"shots_per_estimate", &EstimateResult::shotsPerEstimate},
    {"shot_budget", &EstimateResult::shotBudget},
};

constexpr JsonField<ExperimentResult> kTimingFields[] = {
    {"build", &ExperimentResult::buildMillis, true},
    {"vqe", &ExperimentResult::vqeMillis, true},
    {"compile", &ExperimentResult::compileMillis, true},
    {"total", &ExperimentResult::totalMillis, true},
};

/** One `"key": value,` line per row. */
template <class T, size_t N>
void
appendLines(std::string &out, const T &obj,
            const JsonField<T> (&table)[N])
{
    for (const JsonField<T> &field : table) {
        appendJsonField(out, obj, field);
        out += ",\n";
    }
}

/** `"name": {"key": value, ...},` plus a newline; timing rows only
 *  when `timings`. */
template <class T, size_t N>
void
appendBlock(std::string &out, const char *name, const T &obj,
            const JsonField<T> (&table)[N], bool timings)
{
    out += '"';
    out += name;
    out += "\": {";
    const char *sep = "";
    for (const JsonField<T> &field : table) {
        if (field.timing && !timings)
            continue;
        out += sep;
        appendJsonField(out, obj, field);
        sep = ", ";
    }
    out += "},\n";
}

/** Read one block object through its table; false on an unknown or
 *  ill-typed member. */
template <class T, size_t N>
bool
readBlock(const JsonValue &v, T &out, const JsonField<T> (&table)[N])
{
    if (!v.isObject())
        return false;
    for (const auto &[key, m] : v.members) {
        const JsonField<T> *field = findJsonField(table, key);
        if (!field || readJsonField(out, *field, m, true))
            return false;
    }
    return true;
}

} // namespace

std::string
ExperimentResult::json(const JsonOptions &options) const
{
    std::string specDoc = spec.json();
    while (!specDoc.empty() && specDoc.back() == '\n')
        specDoc.pop_back();

    std::string out = "{\n\"spec\": " + specDoc + ",\n";
    appendLines(out, *this, kProblemFields);
    appendLines(out, vqe, kVqeFields);
    appendLines(out, *this, kBillFields);
    if (compiled.present)
        appendBlock(out, "compiled", compiled, kCompiledFields,
                    options.timings);
    if (evolution.present)
        appendBlock(out, "evolution", evolution, kEvolutionFields,
                    options.timings);
    if (estimate.present)
        appendBlock(out, "estimate", estimate, kEstimateFields,
                    options.timings);
    if (options.timings)
        appendBlock(out, "timing_ms", *this, kTimingFields, true);
    if (options.trace) {
        std::string traceDoc = trace.json();
        while (!traceDoc.empty() && traceDoc.back() == '\n')
            traceDoc.pop_back();
        out += "\"trace\": " + traceDoc + "\n}\n";
    } else {
        // Close after the last emitted block (strip the trailing
        // comma-newline).
        if (out.size() >= 2 && out[out.size() - 2] == ',')
            out.erase(out.size() - 2, 1);
        out += "}\n";
    }
    return out;
}

bool
ExperimentResult::fromJsonDom(const JsonValue &doc,
                              ExperimentResult &out)
{
    if (!doc.isObject())
        return false;
    ExperimentResult r;
    bool haveSpec = false, haveEnergy = false;
    try {
        for (const auto &[key, v] : doc.members) {
            if (key == "spec") {
                if (!v.isObject())
                    return false;
                applySpecObject(r.spec, v);
                haveSpec = true;
            } else if (const auto *problem =
                           findJsonField(kProblemFields, key)) {
                if (readJsonField(r, *problem, v, true))
                    return false;
            } else if (const auto *outcome =
                           findJsonField(kVqeFields, key)) {
                if (readJsonField(r.vqe, *outcome, v, true))
                    return false;
                haveEnergy = haveEnergy || key == "energy";
            } else if (const auto *bill = findJsonField(kBillFields, key)) {
                if (readJsonField(r, *bill, v, true))
                    return false;
            } else if (key == "compiled") {
                if (!readBlock(v, r.compiled, kCompiledFields))
                    return false;
                r.compiled.present = true;
            } else if (key == "evolution") {
                if (!readBlock(v, r.evolution, kEvolutionFields))
                    return false;
                r.evolution.present = true;
            } else if (key == "estimate") {
                if (!readBlock(v, r.estimate, kEstimateFields))
                    return false;
                r.estimate.present = true;
            } else if (key == "timing_ms") {
                if (!readBlock(v, r, kTimingFields))
                    return false;
            } else if (key == "trace") {
                // A full RESULT document carries the VQE trace; the
                // rehydrated result does not (documented partial).
            } else {
                return false;
            }
        }
    } catch (const std::exception &) {
        return false; // applySpecObject rejected a spec member
    }
    if (!haveSpec || !haveEnergy)
        return false;
    out = std::move(r);
    return true;
}

std::string
ExperimentResult::write(const std::string &name) const
{
    const std::string path = qccJsonPath("RESULT_" + name + ".json");
    if (path.empty())
        return {};
    return writeOutputFile(path, json(), "ExperimentResult::write");
}

} // namespace qcc
