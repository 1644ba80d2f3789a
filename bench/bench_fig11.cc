/**
 * @file
 * Figure 11 reproduction: fabrication yield of XTree17Q vs Grid17Q
 * as a function of fabrication precision. The paper's x-axis
 * (0.2-0.6 GHz) maps to per-qubit frequency sigma through the
 * documented calibration constant; yield is the collision-free
 * fraction of Monte-Carlo fabricated devices under the seven-
 * condition frequency-collision model with CR straddling.
 */

#include <cstdio>

#include "api/experiment.hh"
#include "arch/grid.hh"
#include "arch/xtree.hh"
#include "arch/yield.hh"
#include "bench_util.hh"
#include "common/rng.hh"

using namespace qcc;
using namespace qccbench;

int
main()
{
    setLogLevel(LogLevel::Quiet);
    banner("Figure 11: yield rate, XTree17Q vs Grid17Q");

    const int samples = fullMode() ? 200000 : 20000;

    XTree tree = makeXTree(17);
    CouplingGraph grid = makeGrid17Q();
    auto fTree = allocateFrequencies(tree.graph);
    auto fGrid = allocateFrequencies(grid);

    std::printf("couplers: XTree17Q = %zu, Grid17Q = %zu\n\n",
                tree.graph.numEdges(), grid.numEdges());
    std::printf("%-22s %12s %12s %8s\n", "precision (GHz)",
                "XTree17Q", "Grid17Q", "ratio");
    rule();

    double ratioAccum = 0.0;
    int ratioCount = 0;
    for (double precision : {0.2, 0.3, 0.4, 0.5, 0.6}) {
        double sigma = precision * paperPrecisionToSigma;
        Rng r1(deriveSeed(17)), r2(deriveSeed(17));
        double yt = simulateYield(tree.graph, fTree, sigma, samples,
                                  r1);
        double yg =
            simulateYield(grid, fGrid, sigma, samples, r2);
        double ratio = yg > 0 ? yt / yg : 0.0;
        std::printf("%-22.1f %12.5f %12.5f %7.1fx\n", precision, yt,
                    yg, ratio);
        if (yg > 0) {
            ratioAccum += ratio;
            ++ratioCount;
        }
    }
    rule();
    std::printf("mean XTree/Grid yield ratio: %.1fx   "
                "(paper: ~8x)\n",
                ratioCount ? ratioAccum / ratioCount : 0.0);

    // The other half of the co-design claim: the sparse tree that
    // fabricates ~8x more reliably is also the one the pipeline
    // compiles onto almost for free. Run the 50%-compressed LiH
    // spec through the Experiment facade with the verified MtR
    // preset as a sanity coda (one cheap SPSA step: the compiled
    // structure is parameter-independent).
    ExperimentResult res =
        Experiment(ExperimentSpec{.molecule = "LiH",
                                  .compression = 0.5,
                                  .optimizer = "spsa",
                                  .pipeline = "mtr-verify",
                                  .architecture = "xtree17",
                                  .spsaIter = 1,
                                  .reference = false})
            .run();
    std::printf("\nLiH@50%% on XTree17Q via facade: %zu gates, "
                "depth %zu, overhead %zu CNOTs, verified, "
                "%.1f ms\n",
                res.compiled.gates, res.compiled.depth,
                res.compiled.overheadCnots, res.compiled.millis);
    return 0;
}
