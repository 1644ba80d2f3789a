/**
 * @file
 * Architecture design-space exploration: for tree and grid devices
 * of increasing size, allocate frequencies, simulate fabrication
 * yield, and print coupler counts — the Section IV argument that
 * N-1-coupler trees scale to larger processors at usable yield
 * while grids collapse. Devices are named with the same
 * architecture keys ExperimentSpecs use ("xtree<N>", "grid17",
 * "grid<R>x<C>") and built through the api makeDevice parser.
 */

#include <cstdio>
#include <string>

#include "api/experiment.hh"
#include "arch/yield.hh"
#include "common/logging.hh"
#include "common/rng.hh"

int
main()
{
    using namespace qcc;
    setLogLevel(LogLevel::Quiet);

    std::printf("== Yield exploration: X-Trees vs grids ==\n");
    std::printf("(fabrication precision 0.4 GHz, paper calibration)"
                "\n\n");
    const double sigma = 0.4 * paperPrecisionToSigma;
    const int samples = 20000;

    std::printf("%-14s %8s %9s %10s\n", "device", "qubits",
                "couplers", "yield");
    for (const char *key :
         {"xtree5", "xtree8", "xtree17", "xtree26", "grid17",
          "grid3x6", "grid4x5"}) {
        Device dev = makeDevice(key);
        const CouplingGraph &g = *dev.graph;
        auto f = allocateFrequencies(g);
        Rng rng(deriveSeed(1)); // QCC_SEED reproducible
        double y = simulateYield(g, f, sigma, samples, rng);
        std::printf("%-14s %8u %9zu %10.4f\n", dev.name.c_str(),
                    g.numQubits(), g.numEdges(), y);
    }

    std::printf("\ntrees keep the minimum N-1 couplers, so yield "
                "degrades far more slowly with size.\n");
    return 0;
}
