/**
 * @file
 * Tests for the qcc::Experiment facade layer: ExperimentSpec JSON
 * round-tripping and byte pins (spec and result documents), registry
 * diagnostics (unknown keys must list the registered names), the
 * architecture parser, and the contract that a facade run
 * reproduces a hand-wired VqeDriver (strategy injection)
 * bit-for-bit at a fixed seed — plus the NoisySampled composition
 * smoke check.
 */

#include <gtest/gtest.h>

#include "ansatz/uccsd.hh"
#include "api/experiment.hh"
#include "chem/sto_ng.hh"
#include "common/logging.hh"
#include "ferm/hamiltonian.hh"
#include "vqe/driver.hh"
#include "vqe/estimation.hh"
#include "vqe/optimizers.hh"

using namespace qcc;

namespace {

struct VerboseSilencer
{
    VerboseSilencer() { setLogLevel(LogLevel::Quiet); }
} silencer;

/** Every field set away from its default (JSON shape only; the
 *  combination is not a runnable experiment). */
ExperimentSpec
customSpec()
{
    ExperimentSpec s;
    s.kind = "estimate";
    s.molecule = "LiH";
    s.bond = 1.45;
    s.basisNg = 6;
    s.compression = 0.5;
    s.grouping = "sorted-insertion";
    s.mode = "noisy_sampled";
    s.optimizer = "spsa";
    s.pipeline = "mtr";
    s.architecture = "xtree17";
    s.cnotError = 2.5e-4;
    s.singleQubitError = 1e-5;
    s.shots = 4096;
    s.seed = 77;
    s.maxIter = 123;
    s.spsaIter = 321;
    s.evolveTime = 0.1;
    s.evolveSteps = 6;
    s.evolveOrder = 2;
    s.reference = false;
    return s;
}

/** A hand-filled result with all three optional blocks present. */
ExperimentResult
pinnedResult()
{
    ExperimentResult r;
    r.spec = customSpec();
    r.nQubits = 12;
    r.nParams = 46;
    r.fullParams = 92;
    r.hamiltonianTerms = 631;
    r.measurementSettings = 136;
    r.hartreeFock = -7.8618647698083;
    r.fci = -7.882362286810;
    r.haveFci = true;
    r.vqe.energy = -7.8823612;
    r.vqe.iterations = 17;
    r.vqe.evals = 250;
    r.vqe.converged = true;
    r.shots = uint64_t{1} << 40;
    r.compiled.present = true;
    r.compiled.pipeline = "mtr";
    r.compiled.device = "xtree17";
    r.compiled.gates = 1234;
    r.compiled.cnots = 456;
    r.compiled.depth = 789;
    r.compiled.swaps = 12;
    r.compiled.overheadCnots = 36;
    r.compiled.millis = 3.14159265;
    r.compiled.cacheHit = true;
    r.evolution.present = true;
    r.evolution.time = 0.1;
    r.evolution.steps = 6;
    r.evolution.order = 2;
    r.evolution.termsPerStep = 630;
    r.evolution.identityTerms = 1;
    r.evolution.initialEnergy = -7.8618647698083;
    r.evolution.finalEnergy = -7.86186476980829;
    r.evolution.fidelity = 0.99921;
    r.evolution.haveFidelity = true;
    r.evolution.stepGates = 9001;
    r.evolution.stepCnots = 4002;
    r.evolution.stepDepth = 5003;
    r.estimate.present = true;
    r.estimate.qubits = 12;
    r.estimate.parameters = 46;
    r.estimate.pauliStrings = 368;
    r.estimate.hamiltonianTerms = 631;
    r.estimate.measurementSettings = 136;
    r.estimate.gates = 7001;
    r.estimate.cnots = 3002;
    r.estimate.depth = 4003;
    r.estimate.swaps = 104;
    r.estimate.overheadCnots = 312;
    r.estimate.shotsPerEstimate = 65536;
    r.estimate.shotBudget = uint64_t{65536} * 123;
    r.buildMillis = 12.345678;
    r.vqeMillis = 250.5;
    r.compileMillis = 0.000123456789;
    r.totalMillis = 1234567.8;
    return r;
}

/** customSpec().json(), byte for byte. */
const char *const kSpecDoc = R"json({
  "kind": "estimate",
  "molecule": "LiH",
  "bond": 1.45,
  "basis_ng": 6,
  "compression": 0.5,
  "grouping": "sorted-insertion",
  "mode": "noisy_sampled",
  "optimizer": "spsa",
  "pipeline": "mtr",
  "architecture": "xtree17",
  "cnot_error": 0.00025000000000000001,
  "single_qubit_error": 1.0000000000000001e-05,
  "shots": 4096,
  "seed": 77,
  "max_iter": 123,
  "spsa_iter": 321,
  "evolve_time": 0.10000000000000001,
  "evolve_steps": 6,
  "evolve_order": 2,
  "reference": false
}
)json";

/** pinnedResult().json() after the embedded spec: timings and trace. */
const char *const kResultTailTimingsTrace = R"json("n_qubits": 12,
"n_params": 46,
"full_params": 92,
"hamiltonian_terms": 631,
"measurement_settings": 136,
"hartree_fock": -7.8618647698083004,
"fci": -7.8823622868100003,
"have_fci": true,
"energy": -7.8823612000000001,
"iterations": 17,
"evals": 250,
"converged": true,
"shots": 1099511627776,
"compiled": {"pipeline": "mtr", "device": "xtree17", "gates": 1234, "cnots": 456, "depth": 789, "swaps": 12, "overhead_cnots": 36, "millis": 3.14159, "cache_hit": true},
"evolution": {"time": 0.10000000000000001, "steps": 6, "order": 2, "terms_per_step": 630, "identity_terms": 1, "initial_energy": -7.8618647698083004, "final_energy": -7.8618647698082897, "fidelity": 0.99921000000000004, "have_fidelity": true, "step_gates": 9001, "step_cnots": 4002, "step_depth": 5003},
"estimate": {"qubits": 12, "parameters": 46, "pauli_strings": 368, "hamiltonian_terms": 631, "settings": 136, "gates": 7001, "cnots": 3002, "depth": 4003, "swaps": 104, "overhead_cnots": 312, "shots_per_estimate": 65536, "shot_budget": 8060928},
"timing_ms": {"build": 12.3457, "vqe": 250.5, "compile": 0.000123457, "total": 1.23457e+06},
"trace": {
  "mode": "",
  "optimizer": "",
  "seed": 0,
  "points": [
  ]
}
}
)json";

/** pinnedResult().json() after the embedded spec: timings only. */
const char *const kResultTailTimings = R"json("n_qubits": 12,
"n_params": 46,
"full_params": 92,
"hamiltonian_terms": 631,
"measurement_settings": 136,
"hartree_fock": -7.8618647698083004,
"fci": -7.8823622868100003,
"have_fci": true,
"energy": -7.8823612000000001,
"iterations": 17,
"evals": 250,
"converged": true,
"shots": 1099511627776,
"compiled": {"pipeline": "mtr", "device": "xtree17", "gates": 1234, "cnots": 456, "depth": 789, "swaps": 12, "overhead_cnots": 36, "millis": 3.14159, "cache_hit": true},
"evolution": {"time": 0.10000000000000001, "steps": 6, "order": 2, "terms_per_step": 630, "identity_terms": 1, "initial_energy": -7.8618647698083004, "final_energy": -7.8618647698082897, "fidelity": 0.99921000000000004, "have_fidelity": true, "step_gates": 9001, "step_cnots": 4002, "step_depth": 5003},
"estimate": {"qubits": 12, "parameters": 46, "pauli_strings": 368, "hamiltonian_terms": 631, "settings": 136, "gates": 7001, "cnots": 3002, "depth": 4003, "swaps": 104, "overhead_cnots": 312, "shots_per_estimate": 65536, "shot_budget": 8060928},
"timing_ms": {"build": 12.3457, "vqe": 250.5, "compile": 0.000123457, "total": 1.23457e+06}
}
)json";

/** pinnedResult().json() after the embedded spec: trace only. */
const char *const kResultTailTrace = R"json("n_qubits": 12,
"n_params": 46,
"full_params": 92,
"hamiltonian_terms": 631,
"measurement_settings": 136,
"hartree_fock": -7.8618647698083004,
"fci": -7.8823622868100003,
"have_fci": true,
"energy": -7.8823612000000001,
"iterations": 17,
"evals": 250,
"converged": true,
"shots": 1099511627776,
"compiled": {"pipeline": "mtr", "device": "xtree17", "gates": 1234, "cnots": 456, "depth": 789, "swaps": 12, "overhead_cnots": 36},
"evolution": {"time": 0.10000000000000001, "steps": 6, "order": 2, "terms_per_step": 630, "identity_terms": 1, "initial_energy": -7.8618647698083004, "final_energy": -7.8618647698082897, "fidelity": 0.99921000000000004, "have_fidelity": true, "step_gates": 9001, "step_cnots": 4002, "step_depth": 5003},
"estimate": {"qubits": 12, "parameters": 46, "pauli_strings": 368, "hamiltonian_terms": 631, "settings": 136, "gates": 7001, "cnots": 3002, "depth": 4003, "swaps": 104, "overhead_cnots": 312, "shots_per_estimate": 65536, "shot_budget": 8060928},
"trace": {
  "mode": "",
  "optimizer": "",
  "seed": 0,
  "points": [
  ]
}
}
)json";

/** pinnedResult().json() after the embedded spec: neither. */
const char *const kResultTailBare = R"json("n_qubits": 12,
"n_params": 46,
"full_params": 92,
"hamiltonian_terms": 631,
"measurement_settings": 136,
"hartree_fock": -7.8618647698083004,
"fci": -7.8823622868100003,
"have_fci": true,
"energy": -7.8823612000000001,
"iterations": 17,
"evals": 250,
"converged": true,
"shots": 1099511627776,
"compiled": {"pipeline": "mtr", "device": "xtree17", "gates": 1234, "cnots": 456, "depth": 789, "swaps": 12, "overhead_cnots": 36},
"evolution": {"time": 0.10000000000000001, "steps": 6, "order": 2, "terms_per_step": 630, "identity_terms": 1, "initial_energy": -7.8618647698083004, "final_energy": -7.8618647698082897, "fidelity": 0.99921000000000004, "have_fidelity": true, "step_gates": 9001, "step_cnots": 4002, "step_depth": 5003},
"estimate": {"qubits": 12, "parameters": 46, "pauli_strings": 368, "hamiltonian_terms": 631, "settings": 136, "gates": 7001, "cnots": 3002, "depth": 4003, "swaps": 104, "overhead_cnots": 312, "shots_per_estimate": 65536, "shot_budget": 8060928}
}
)json";

} // namespace

TEST(ExperimentSpec, JsonRoundTripIsIdentity)
{
    for (const ExperimentSpec &s :
         {ExperimentSpec{}, customSpec()}) {
        const std::string doc = s.json();
        ExperimentSpec back = ExperimentSpec::fromJson(doc);
        EXPECT_EQ(back.json(), doc);
        EXPECT_EQ(back.molecule, s.molecule);
        EXPECT_EQ(back.bond, s.bond);
        EXPECT_EQ(back.basisNg, s.basisNg);
        EXPECT_EQ(back.compression, s.compression);
        EXPECT_EQ(back.grouping, s.grouping);
        EXPECT_EQ(back.mode, s.mode);
        EXPECT_EQ(back.optimizer, s.optimizer);
        EXPECT_EQ(back.pipeline, s.pipeline);
        EXPECT_EQ(back.architecture, s.architecture);
        EXPECT_EQ(back.cnotError, s.cnotError);
        EXPECT_EQ(back.singleQubitError, s.singleQubitError);
        EXPECT_EQ(back.shots, s.shots);
        EXPECT_EQ(back.seed, s.seed);
        EXPECT_EQ(back.maxIter, s.maxIter);
        EXPECT_EQ(back.spsaIter, s.spsaIter);
        EXPECT_EQ(back.reference, s.reference);
        EXPECT_EQ(back.kind, s.kind);
        EXPECT_EQ(back.evolveTime, s.evolveTime);
        EXPECT_EQ(back.evolveSteps, s.evolveSteps);
        EXPECT_EQ(back.evolveOrder, s.evolveOrder);
    }
}

TEST(ExperimentSpec, MalformedJsonNamesTheField)
{
    EXPECT_THROW(ExperimentSpec::fromJson("not json"), SpecError);
    EXPECT_THROW(ExperimentSpec::fromJson("{\"bond\": \"x\"}"),
                 SpecError);
    // strtoull would wrap a negative silently; the parser must not.
    EXPECT_THROW(ExperimentSpec::fromJson("{\"seed\": -1}"),
                 SpecError);
    EXPECT_THROW(ExperimentSpec::fromJson("{\"shots\": -5}"),
                 SpecError);
    // Out-of-int-range numbers must throw, not cast (UB).
    EXPECT_THROW(ExperimentSpec::fromJson("{\"max_iter\": 1e300}"),
                 SpecError);
    try {
        ExperimentSpec::fromJson("{\"no_such_field\": 1}");
        FAIL() << "unknown field accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.field(), "no_such_field");
    }
    // A typo'd evolve field must be named, not silently dropped.
    try {
        ExperimentSpec::fromJson("{\"evolve_step\": 4}");
        FAIL() << "typo'd field accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.field(), "evolve_step");
    }
    EXPECT_THROW(ExperimentSpec::fromJson("{\"evolve_steps\": 1e300}"),
                 SpecError);
    EXPECT_THROW(ExperimentSpec::fromJson("{\"kind\": 3}"),
                 SpecError);
}

TEST(ExperimentSpec, DuplicateTopLevelFieldsRejected)
{
    // The ordered-DOM parser preserves duplicates; last-wins would
    // make two meanings for one document, so the spec layer rejects.
    try {
        ExperimentSpec::fromJson(
            "{\"molecule\": \"H2\", \"molecule\": \"LiH\"}");
        FAIL() << "duplicate field accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.field(), "molecule");
        EXPECT_NE(std::string(e.what()).find("duplicate"),
                  std::string::npos);
    }
    EXPECT_THROW(ExperimentSpec::fromJson(
                     "{\"kind\": \"vqe\", \"bond\": 1.0, "
                     "\"kind\": \"estimate\"}"),
                 SpecError);
    // Non-duplicated documents still parse.
    EXPECT_NO_THROW(ExperimentSpec::fromJson(
        "{\"kind\": \"estimate\", \"bond\": 1.0}"));
}

TEST(ExperimentSpec, EvolveFieldsRoundTrip)
{
    ExperimentSpec s;
    s.kind = "evolve";
    s.evolveTime = 0.75;
    s.evolveSteps = 6;
    s.evolveOrder = 2;
    const std::string doc = s.json();
    const ExperimentSpec back = ExperimentSpec::fromJson(doc);
    EXPECT_EQ(back.json(), doc);
    EXPECT_EQ(back.kind, "evolve");
    EXPECT_EQ(back.evolveTime, 0.75);
    EXPECT_EQ(back.evolveSteps, 6);
    EXPECT_EQ(back.evolveOrder, 2);
}

TEST(ExperimentSpec, JsonBytesArePinned)
{
    // The spec document is the sweep resume key (sweepJobHash), the
    // sweepd wire format and the replay recipe in every archived
    // result: its bytes must not move.
    EXPECT_EQ(customSpec().json(), kSpecDoc);
    EXPECT_EQ(ExperimentSpec::fromJson(kSpecDoc).json(), kSpecDoc);
}

TEST(ExperimentResult, JsonBytesArePinnedUnderEveryOption)
{
    std::string spec = kSpecDoc;
    spec.pop_back(); // embedded without its trailing newline
    const struct
    {
        bool timings, trace;
        const char *tail;
    } cases[] = {
        {true, true, kResultTailTimingsTrace},
        {true, false, kResultTailTimings},
        {false, true, kResultTailTrace},
        {false, false, kResultTailBare},
    };
    for (const auto &c : cases) {
        const ExperimentResult::JsonOptions opts{c.timings, c.trace};
        const std::string doc = pinnedResult().json(opts);
        EXPECT_EQ(doc, "{\n\"spec\": " + spec + ",\n" + c.tail)
            << "timings=" << c.timings << " trace=" << c.trace;
        // The resume path: the rehydrated record re-emits the same
        // bytes (the pinned trace is empty, so nothing is lost).
        ExperimentResult back;
        ASSERT_TRUE(ExperimentResult::fromJsonDom(JsonValue::parse(doc),
                                                  back));
        EXPECT_EQ(back.json(opts), doc)
            << "timings=" << c.timings << " trace=" << c.trace;
    }
}

TEST(ExperimentResult, LongArchitectureKeyRoundTrips)
{
    // makeDevice accepts leading zeros, so this 307-byte key names
    // xtree17. The result document must carry it whole, whatever its
    // length, and parse back to the same bytes.
    const std::string arch = "xtree" + std::string(300, '0') + "17";
    ExperimentResult res = Experiment(ExperimentSpec{
                                          .molecule = "H2",
                                          .bond = 0.74,
                                          .pipeline = "mtr",
                                          .architecture = arch,
                                          .reference = false})
                               .run();
    ASSERT_TRUE(res.compiled.present);
    EXPECT_EQ(res.compiled.device, arch);
    for (bool timings : {true, false}) {
        const ExperimentResult::JsonOptions opts{timings, false};
        const std::string doc = res.json(opts);
        ExperimentResult back;
        ASSERT_TRUE(ExperimentResult::fromJsonDom(JsonValue::parse(doc),
                                                  back));
        EXPECT_EQ(back.compiled.device, arch);
        EXPECT_EQ(back.json(opts), doc);
    }
}

TEST(Experiment, UnknownModeListsRegisteredModes)
{
    ExperimentSpec s;
    s.mode = "bogus";
    try {
        Experiment bad(s);
        FAIL() << "unknown mode accepted";
    } catch (const RegistryError &e) {
        EXPECT_EQ(e.key(), "bogus");
        const std::string msg = e.what();
        EXPECT_NE(msg.find("ideal"), std::string::npos);
        EXPECT_NE(msg.find("noisy_sampled"), std::string::npos);
        EXPECT_NE(msg.find("sampled"), std::string::npos);
    }
}

TEST(Experiment, UnknownOptimizerListsRegisteredNames)
{
    ExperimentSpec s;
    s.optimizer = "adam";
    try {
        Experiment bad(s);
        FAIL() << "unknown optimizer accepted";
    } catch (const RegistryError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("lbfgs"), std::string::npos);
        EXPECT_NE(msg.find("spsa"), std::string::npos);
        EXPECT_NE(msg.find("nelder-mead"), std::string::npos);
    }
}

TEST(Experiment, UnknownGroupingAndPresetDiagnosed)
{
    ExperimentSpec s;
    s.grouping = "rainbow";
    EXPECT_THROW(Experiment bad(s), RegistryError);

    ExperimentSpec p;
    p.pipeline = "warp";
    try {
        Experiment bad(p);
        FAIL() << "unknown preset accepted";
    } catch (const RegistryError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("chain"), std::string::npos);
        EXPECT_NE(msg.find("mtr"), std::string::npos);
        EXPECT_NE(msg.find("sabre"), std::string::npos);
    }
}

TEST(Experiment, UnknownMoleculeListsCatalog)
{
    ExperimentSpec s;
    s.molecule = "C60";
    try {
        Experiment bad(s);
        FAIL() << "unknown molecule accepted";
    } catch (const SpecError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("H2"), std::string::npos);
        EXPECT_NE(msg.find("CH4"), std::string::npos);
    }
}

TEST(Experiment, BasisNgOutsideTheStoNgTableIsASpecError)
{
    // The STO-nG table holds 1 to 6 primitives per contraction. A
    // count outside it must fail at construction, naming the field,
    // so a sweep files the job as bad input instead of the process
    // exiting from the basis builder.
    for (int ng : {0, 7, -1, 1000}) {
        ExperimentSpec s{.molecule = "H2", .basisNg = ng};
        try {
            Experiment bad(s);
            FAIL() << "basis_ng " << ng << " accepted";
        } catch (const SpecError &e) {
            EXPECT_EQ(e.field(), "basis_ng");
            EXPECT_NE(std::string(e.what()).find(std::to_string(ng)),
                      std::string::npos)
                << e.what();
        }
    }
    for (int ng : {1, kStoNgMaxGaussians})
        EXPECT_NO_THROW(
            Experiment(ExperimentSpec{.molecule = "H2", .basisNg = ng}))
            << "basis_ng " << ng;
}

TEST(Experiment, DensityMatrixModesRejectWideMolecules)
{
    // NH3 and BH3 take 14 qubits and CH4 16: a density matrix of
    // 4^14 entries is 4 GiB. The spec must fail at construction with
    // a field-level error (a sweep files it as bad input, no retry)
    // before anything sizes the state.
    for (const char *molecule : {"BH3", "NH3", "CH4"}) {
        for (const char *mode : {"noisy", "noisy_sampled"}) {
            ExperimentSpec s{.molecule = molecule, .mode = mode};
            try {
                Experiment bad(s);
                FAIL() << mode << " accepted on " << molecule;
            } catch (const SpecError &e) {
                EXPECT_EQ(e.field(), "mode");
                EXPECT_NE(std::string(e.what()).find(molecule),
                          std::string::npos)
                    << e.what();
            }
        }
        // The statevector modes and the simulation-free kind keep
        // these molecules.
        EXPECT_NO_THROW(
            Experiment(ExperimentSpec{.molecule = molecule,
                                      .mode = "sampled"}));
        EXPECT_NO_THROW(Experiment(ExperimentSpec{
            .kind = "estimate", .molecule = molecule, .mode = "noisy"}));
    }
    // The widest catalog molecules a density matrix holds still pass.
    EXPECT_NO_THROW(Experiment(
        ExperimentSpec{.molecule = "BeH2", .mode = "noisy"}));
}

TEST(Experiment, RoutedPresetRequiresDevice)
{
    ExperimentSpec s;
    s.pipeline = "mtr"; // routes, but no architecture named
    EXPECT_THROW(Experiment bad(s), SpecError);

    ExperimentSpec g;
    g.pipeline = "mtr";
    g.architecture = "grid17"; // MtR needs a tree
    EXPECT_THROW(Experiment bad(g), SpecError);
}

TEST(Experiment, DeviceParserHandlesTheArchitectureFamilies)
{
    Device t = makeDevice("xtree17");
    ASSERT_TRUE(t.tree.has_value());
    EXPECT_EQ(t.tree->graph.numQubits(), 17u);
    EXPECT_EQ(t.graph->numEdges(), 16u);

    Device g = makeDevice("grid3x6");
    EXPECT_FALSE(g.tree.has_value());
    EXPECT_EQ(g.graph->numQubits(), 18u);

    EXPECT_EQ(makeDevice("grid17").graph->numQubits(), 17u);
    EXPECT_THROW(makeDevice("torus4"), SpecError);
    EXPECT_THROW(makeDevice("gridAxB"), SpecError);
    // Out-of-range sizes must reject, not wrap to a tiny device.
    EXPECT_THROW(makeDevice("xtree4294967297"), SpecError);
    EXPECT_THROW(makeDevice("grid4294967297x2"), SpecError);
    EXPECT_THROW(makeDevice("grid4096x4096"), SpecError);
}

TEST(Experiment, RegistriesExposeTheBuiltInComponents)
{
    EXPECT_EQ(optimizerRegistry().size(), 4u);
    EXPECT_TRUE(groupingRegistry().contains("greedy"));
    EXPECT_TRUE(groupingRegistry().contains("sorted-insertion"));
    EXPECT_TRUE(groupingRegistry().contains("graph-coloring"));
    EXPECT_TRUE(pipelinePresetRegistry().contains("chain"));
    EXPECT_TRUE(estimationRegistry().contains("noisy_sampled"));

    // State-model-built backends are of their model's type.
    auto sv = statevectorModel(3).make();
    EXPECT_NE(dynamic_cast<StatevectorBackend *>(sv.get()), nullptr);
    EXPECT_EQ(sv->numQubits(), 3u);
}

TEST(Experiment, FacadeMatchesLegacyDriverBitForBit)
{
    // The acceptance contract: the spec-driven path must reproduce
    // the legacy hand-wired driver exactly at a fixed seed.
    MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeDriver legacy(
        prob.hamiltonian, ansatz, {},
        makeEstimationStrategy(
            "ideal",
            EstimationConfig{&prob.hamiltonian, {}, {}, {}}));
    VqeResult legacyRes = legacy.run();

    ExperimentResult facade =
        Experiment(ExperimentSpec{
                       .molecule = "H2", .bond = 0.74, .reference = false})
            .run();

    EXPECT_EQ(facade.energy(), legacyRes.energy);
    EXPECT_EQ(facade.vqe.params, legacyRes.params);
    EXPECT_EQ(facade.vqe.iterations, legacyRes.iterations);
    EXPECT_EQ(facade.trace.json(), legacy.trace().json());
}

TEST(Experiment, SampledFacadeMatchesLegacySampledDriver)
{
    MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeDriverOptions o;
    o.optimizer = std::make_shared<SpsaVqeOptimizer>();
    o.spsaIter = 30;
    o.sampling.shots = 2048;
    VqeDriver legacy(
        prob.hamiltonian, ansatz, o,
        makeEstimationStrategy(
            "sampled",
            EstimationConfig{&prob.hamiltonian, o.noise, o.sampling,
                             {}}));
    VqeResult legacyRes = legacy.run();

    ExperimentResult facade =
        Experiment(ExperimentSpec{.molecule = "H2",
                                  .bond = 0.74,
                                  .mode = "sampled",
                                  .optimizer = "spsa",
                                  .shots = 2048,
                                  .spsaIter = 30,
                                  .reference = false})
            .run();

    EXPECT_EQ(facade.energy(), legacyRes.energy);
    EXPECT_EQ(facade.shots, legacy.shotsSpent());
    EXPECT_EQ(facade.trace.json(), legacy.trace().json());
}

TEST(Experiment, NoisySampledIsAOneLineComposition)
{
    // Smoke check of the composed mode: density-matrix state + shot
    // readout, selected purely by spec string.
    ExperimentResult res =
        Experiment(ExperimentSpec{.molecule = "H2",
                                  .bond = 0.74,
                                  .mode = "noisy_sampled",
                                  .optimizer = "spsa",
                                  .cnotError = 1e-3,
                                  .singleQubitError = 0.0,
                                  .shots = 512,
                                  .spsaIter = 10,
                                  .reference = false})
            .run();

    EXPECT_EQ(res.trace.mode, "noisy_sampled");
    EXPECT_GT(res.shots, uint64_t{0});
    EXPECT_LT(res.energy(), 0.0);
    // The strategy's backend really is the density-matrix model.
    EstimationConfig cfg;
    cfg.hamiltonian = &res.hamiltonian;
    auto strat = makeEstimationStrategy("noisy_sampled", cfg);
    auto backend = strat->makeBackend();
    EXPECT_NE(dynamic_cast<DensityMatrixBackend *>(backend.get()),
              nullptr);
    EXPECT_TRUE(strat->stochastic());
}

TEST(Experiment, ResultJsonCarriesSpecMetricsAndTrace)
{
    ExperimentResult res =
        Experiment(ExperimentSpec{
                       .molecule = "H2", .bond = 0.74, .pipeline = "chain"})
            .run();
    ASSERT_TRUE(res.haveFci);
    EXPECT_NEAR(res.energy(), res.fci, 1e-4);
    EXPECT_TRUE(res.compiled.present);
    EXPECT_GT(res.compiled.cnots, size_t{0});

    const std::string doc = res.json();
    EXPECT_NE(doc.find("\"spec\""), std::string::npos);
    EXPECT_NE(doc.find("\"molecule\": \"H2\""), std::string::npos);
    EXPECT_NE(doc.find("\"trace\""), std::string::npos);
    EXPECT_NE(doc.find("\"energy\""), std::string::npos);
    EXPECT_NE(doc.find("\"compiled\""), std::string::npos);
    EXPECT_NE(doc.find("\"timing_ms\""), std::string::npos);

    // The resolved spec round-trips through the result document's
    // own spec block (replay provenance).
    ExperimentSpec back = ExperimentSpec::fromJson(res.spec.json());
    EXPECT_EQ(back.json(), res.spec.json());
    EXPECT_EQ(back.bond, 0.74);
}

TEST(Experiment, SortedInsertionGroupingSelectableBySpec)
{
    ExperimentResult res =
        Experiment(ExperimentSpec{.molecule = "H2",
                                  .bond = 0.74,
                                  .grouping = "sorted-insertion",
                                  .reference = false})
            .run();
    EXPECT_GT(res.measurementSettings, size_t{0});
    EXPECT_LT(res.measurementSettings, res.hamiltonianTerms);
    // Same ideal physics regardless of grouping strategy.
    ExperimentResult greedy =
        Experiment(ExperimentSpec{
                       .molecule = "H2", .bond = 0.74, .reference = false})
            .run();
    EXPECT_NEAR(res.energy(), greedy.energy(), 1e-9);
}
