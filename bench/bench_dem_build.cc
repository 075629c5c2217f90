/**
 * @file
 * DEM-build benchmark: `sim::BuildDem` (backward error analysis) against
 * its forward bit-lane oracle `sim::BuildDemReference` on compiled
 * memory-Z experiments. Rows: d=7 grid and d=5/7 linear devices at trap
 * capacity 2 over d rounds, and d=3 grid at 100/200/400/800 rounds (the
 * production build is linear in rounds, the oracle quadratic).
 *
 * Each row records the production and oracle build times (best of N),
 * their ratio, whether `FormatDem` of the two models is byte-identical,
 * and each builder's peak resident set size. The peak is the process
 * VmHWM after the high-water mark is reset through /proc/self/clear_refs
 * just before the build (`rss_reset` false where the kernel refuses, in
 * which case the figure is the process-wide peak so far); it includes
 * the experiment circuit already held.
 *
 * Modes:
 *   (default)   best of 7 production / 3 oracle builds per row
 *   --smoke     best of 5 / 2 for CI under `ctest --timeout`; exits
 *               non-zero only on a byte-identity violation (timing is
 *               gated by scripts/check_bench_regression.py, not here)
 *
 * Writes BENCH_dem.json to the working directory. No Google Benchmark
 * dependency, so the smoke mode runs in every CI configuration.
 */
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "sim/dem_io.h"
#include "sim/dem_reference.h"

namespace {

using namespace tiqec;
using clk = std::chrono::steady_clock;

struct Config
{
    int distance;
    qccd::TopologyKind topology;
    int rounds;
};

/** Drops freed heap pages and resets the peak-RSS mark; false when the
 *  kernel does not support the reset. */
bool
ResetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

/** VmHWM of this process in MB (0 when unreadable). */
double
PeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0.0;
}

struct Timed
{
    double best_ms = 1e300;
    double peak_mb = 0.0;
    bool rss_reset = true;
    std::string text;
};

template <typename Build>
Timed
Measure(const sim::NoisyCircuit& circuit, int trials, Build build)
{
    Timed out;
    for (int t = 0; t < trials; ++t) {
        out.rss_reset = ResetPeakRss() && out.rss_reset;
        const auto t0 = clk::now();
        const sim::DetectorErrorModel dem = build(circuit);
        const double ms =
            std::chrono::duration<double, std::milli>(clk::now() - t0)
                .count();
        out.peak_mb = std::max(out.peak_mb, PeakRssMb());
        out.best_ms = std::min(out.best_ms, ms);
        if (t == 0) {
            out.text = sim::FormatDem(dem);
        }
    }
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const int prod_trials = smoke ? 5 : 7;
    const int oracle_trials = smoke ? 2 : 3;

    using qccd::TopologyKind;
    const std::vector<Config> configs = {
        {7, TopologyKind::kGrid, 7},     {5, TopologyKind::kLinear, 5},
        {7, TopologyKind::kLinear, 7},   {3, TopologyKind::kGrid, 100},
        {3, TopologyKind::kGrid, 200},   {3, TopologyKind::kGrid, 400},
        {3, TopologyKind::kGrid, 800},
    };

    std::printf("=== DEM build: backward (production) vs forward bit-lane "
                "(oracle), memory-Z, capacity 2 ===\n");
    std::printf("=== best of %d production / %d oracle builds ===\n\n",
                prod_trials, oracle_trials);
    std::printf("%-3s %-7s %6s %10s %11s %8s %9s %10s %10s\n", "d",
                "topology", "rounds", "prod ms", "oracle ms", "speedup",
                "identical", "prod MB", "oracle MB");
    bench::Rule(82);

    bool all_identical = true;
    std::vector<bench::JsonRecord> records;
    for (const Config& config : configs) {
        const qec::RotatedSurfaceCode code(config.distance);
        core::ArchitectureConfig arch;
        arch.topology = config.topology;
        arch.trap_capacity = 2;
        const core::CompileArtifacts arts =
            core::CompileCandidate(code, arch);
        if (!arts.ok) {
            std::fprintf(stderr, "compile failed: %s\n",
                         arts.error.c_str());
            return 1;
        }
        const noise::RoundNoiseProfile profile =
            core::AnnotateCandidate(code, arch, arts);
        const sim::NoisyCircuit circuit = workloads::BuildExperiment(
            code, arts.compiled.qec_circuit, profile,
            core::NoiseParamsFor(arch), config.rounds,
            workloads::WorkloadSpec{});

        const Timed prod = Measure(
            circuit, prod_trials,
            [](const sim::NoisyCircuit& c) { return sim::BuildDem(c); });
        const Timed oracle = Measure(
            circuit, oracle_trials, [](const sim::NoisyCircuit& c) {
                return sim::BuildDemReference(c);
            });
        const bool identical = prod.text == oracle.text;
        all_identical = all_identical && identical;
        const double speedup = oracle.best_ms / prod.best_ms;
        const std::string topology =
            qccd::TopologyKindName(config.topology);
        std::printf("%-3d %-7s %6d %10.2f %11.2f %7.2fx %9s %10.1f "
                    "%10.1f\n",
                    config.distance, topology.c_str(), config.rounds,
                    prod.best_ms, oracle.best_ms, speedup,
                    identical ? "yes" : "NO", prod.peak_mb, oracle.peak_mb);

        bench::JsonRecord r;
        r.Add("distance", config.distance);
        r.Add("topology", topology);
        r.Add("trap_capacity", 2);
        r.Add("rounds", config.rounds);
        r.Add("detectors", circuit.num_detectors());
        r.Add("prod_ms", prod.best_ms);
        r.Add("oracle_ms", oracle.best_ms);
        // The speedup is the machine-portable figure the regression gate
        // compares across hosts; absolute times are not comparable.
        r.Add("speedup", speedup);
        r.Add("identical", identical);
        r.Add("prod_peak_rss_mb", prod.peak_mb);
        r.Add("oracle_peak_rss_mb", oracle.peak_mb);
        r.Add("rss_reset", prod.rss_reset && oracle.rss_reset);
        r.Add("best_of", prod_trials);
        r.Add("oracle_best_of", oracle_trials);
        r.Add("smoke", smoke);
        records.push_back(std::move(r));
    }
    std::printf("\n(output byte-identity is the hard invariant; "
                "scripts/check_bench_regression.py gates the speedups and "
                "the rounds-800/rounds-100 production time ratio)\n");
    bench::WriteBenchJson("BENCH_dem.json", "dem_build", records);
    return all_identical ? 0 : 1;
}
