#include "api/registries.hh"

namespace qcc {

OptimizerRegistry &
optimizerRegistry()
{
    static OptimizerRegistry reg = [] {
        OptimizerRegistry r("optimizer");
        r.add("lbfgs",
              [] { return std::make_unique<LbfgsVqeOptimizer>(); });
        r.add("gd", [] {
            return std::make_unique<GradientDescentVqeOptimizer>();
        });
        r.add("spsa",
              [] { return std::make_unique<SpsaVqeOptimizer>(); });
        r.add("nelder-mead", [] {
            return std::make_unique<NelderMeadVqeOptimizer>();
        });
        return r;
    }();
    return reg;
}

GroupingRegistry &
groupingRegistry()
{
    static GroupingRegistry reg = [] {
        GroupingRegistry r("grouping strategy");
        r.add("greedy", groupQubitWise);
        r.add("sorted-insertion", groupQubitWiseSorted);
        r.add("graph-coloring", groupQubitWiseColoring);
        return r;
    }();
    return reg;
}

PipelinePresetRegistry &
pipelinePresetRegistry()
{
    static PipelinePresetRegistry reg = [] {
        PipelinePresetRegistry r("pipeline preset");
        r.add("chain", [] {
            PipelineOptions o;
            o.flow = PipelineOptions::Flow::ChainOnly;
            return o;
        });
        r.add("mtr", [] { return PipelineOptions{}; });
        r.add("mtr-peephole", [] {
            PipelineOptions o;
            o.peephole = true;
            return o;
        });
        r.add("mtr-verify", [] {
            PipelineOptions o;
            o.verifyTrials = 2;
            return o;
        });
        r.add("sabre", [] {
            PipelineOptions o;
            o.flow = PipelineOptions::Flow::Sabre;
            return o;
        });
        return r;
    }();
    return reg;
}

} // namespace qcc
