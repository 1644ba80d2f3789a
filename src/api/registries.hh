/**
 * @file
 * The facade's component registries. Each pluggable choice an
 * ExperimentSpec names by string — classical optimizer,
 * measurement-grouping strategy, compiler-pipeline preset — is a
 * string-keyed Registry (common/registry.hh) seeded with the
 * built-in components in its accessor's bootstrap, so static-library
 * dead-stripping can never drop one. Unknown keys throw
 * RegistryError listing the registered names. Downstream code can
 * add() new components at startup and select them from specs with no
 * core changes — the ScaffCC-style pass-registry pattern applied to
 * the whole stack.
 *
 * Built-ins:
 *  - optimizers: "lbfgs", "gd", "spsa", "nelder-mead"
 *  - groupings: "greedy", "sorted-insertion", "graph-coloring"
 *  - pipeline presets: "chain", "mtr", "mtr-peephole",
 *    "mtr-verify", "sabre"
 * (Evaluation modes have their own registry in vqe/estimation.hh;
 * a mode's StateModel is the one place a backend is built.)
 */

#ifndef QCC_API_REGISTRIES_HH
#define QCC_API_REGISTRIES_HH

#include <functional>
#include <memory>

#include "common/registry.hh"
#include "compiler/pipeline.hh"
#include "pauli/grouping.hh"
#include "vqe/optimizers.hh"

namespace qcc {

using OptimizerFactoryFn =
    std::function<std::unique_ptr<VqeOptimizer>()>;
using PipelinePresetFn = std::function<PipelineOptions()>;

using OptimizerRegistry = Registry<OptimizerFactoryFn>;
using GroupingRegistry = Registry<GroupingFn>;
using PipelinePresetRegistry = Registry<PipelinePresetFn>;

/** Classical optimizers by name. */
OptimizerRegistry &optimizerRegistry();

/** Measurement-grouping strategies by name. */
GroupingRegistry &groupingRegistry();

/** Compiler-pipeline presets by name. */
PipelinePresetRegistry &pipelinePresetRegistry();

} // namespace qcc

#endif // QCC_API_REGISTRIES_HH
