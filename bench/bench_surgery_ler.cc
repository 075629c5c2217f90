/**
 * @file
 * Lattice-surgery logical-error-rate benchmark (ISSUE 5 acceptance):
 * joint-parity LER vs patch distance for the merged-double-patch
 * surgery and stability workloads on the paper's optimal design point
 * (grid topology, trap capacity 2), next to the single-patch memory
 * rows the paper's §7 evaluation is built from.
 *
 * This is the measurement behind the paper's §8 claim: the merged
 * (2d+1) x d patch's parity-check circuits have the same local
 * structure as a single patch's, so the QCCD round time should stay
 * flat under surgery — and with the workload subsystem the claim is
 * finally checked with logical error rates, not just makespans. Every
 * row is a `core::SweepRunner` candidate; the memory / surgery /
 * stability rows on the same merged code share one compiled schedule
 * and noise profile through the sweep cache.
 *
 * A second table sweeps the stability workload's round count at fixed
 * distance: the joint parity is a timelike observable (its effective
 * distance is the number of merged rounds), so its LER falls with
 * rounds until the decoder's hyperedge ambiguity floor — both numbers a
 * memory experiment cannot produce.
 *
 * Modes:
 *   (default)   distances 3/5, 1X and 5X gates, ~10^5-shot budgets
 *   --smoke     d=3 on a trimmed budget for CI under `ctest --timeout`;
 *               exits non-zero if any candidate fails, any LER is not a
 *               finite probability, the merged round time is not flat
 *               vs the single patch (> 5% off), or the sweep is not
 *               bit-identical between 1 and 2 worker threads.
 *
 * Like bench_compile_throughput, this binary has no Google Benchmark
 * dependency so the smoke mode runs in every CI configuration.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "qec/surgery.h"
#include "workloads/experiment.h"

namespace {

using namespace tiqec;

struct Row
{
    core::SweepCandidate candidate;
    int qubits = 0;
    int distance = 0;
};

core::SweepCandidate
MakeCandidate(std::shared_ptr<const qec::StabilizerCode> code,
              workloads::WorkloadKind workload, double improvement,
              std::int64_t max_shots, int rounds, const std::string& label)
{
    core::SweepCandidate c;
    c.code = std::move(code);
    c.arch.topology = qccd::TopologyKind::kGrid;
    c.arch.trap_capacity = 2;
    c.arch.gate_improvement = improvement;
    c.options.workload.kind = workload;
    c.options.rounds = rounds;
    c.options.max_shots = max_shots;
    c.options.target_logical_errors = 0;  // fixed budget: comparable rows
    c.label = label;
    return c;
}

/** "e0/e1/e2" per-observable error counts, "-" when unavailable. */
std::string
PerObsString(const core::Metrics& m)
{
    if (!m.ok || m.per_observable_errors.empty()) {
        return "-";
    }
    std::string out;
    for (size_t o = 0; o < m.per_observable_errors.size(); ++o) {
        if (o > 0) {
            out += "/";
        }
        out += std::to_string(m.per_observable_errors[o]);
    }
    return out;
}

void
PrintRow(const Row& row, const core::Metrics& m)
{
    std::printf("%-30s %6d %11s %9lld %7lld %-17s %12s %12s %5d %9s\n",
                row.candidate.label.c_str(), row.qubits,
                bench::NumOrNan(m.round_time, m.ok).c_str(),
                static_cast<long long>(m.shots),
                static_cast<long long>(m.logical_errors),
                PerObsString(m).c_str(),
                bench::NumOrNan(m.ler_per_shot.rate, m.ok, "%.3e").c_str(),
                bench::NumOrNan(m.ler_per_round, m.ok, "%.3e").c_str(),
                m.dem_undecomposable,
                bench::NumOrNan(m.dem_dropped_probability, m.ok, "%.1e")
                    .c_str());
}

/** One JSON record per table row (the BENCH_surgery.json snapshot). */
bench::JsonRecord
RowRecord(const Row& row, const core::Metrics& m)
{
    bench::JsonRecord r;
    r.Add("label", row.candidate.label);
    r.Add("workload",
          workloads::WorkloadKindName(row.candidate.options.workload.kind));
    r.Add("distance", row.distance);
    r.Add("gate_improvement", row.candidate.arch.gate_improvement);
    r.Add("rounds", row.candidate.options.rounds);
    r.Add("correlated_decoder", row.candidate.options.correlated);
    r.Add("qubits", row.qubits);
    r.Add("ok", m.ok);
    r.Add("shots", m.shots);
    r.Add("logical_errors", m.logical_errors);
    r.Add("per_observable_errors", m.per_observable_errors);
    r.Add("metric", "ler_per_shot");
    r.Add("value", m.ler_per_shot.rate);
    r.Add("best_of", 1);
    r.Add("ler_low", m.ler_per_shot.low);
    r.Add("ler_high", m.ler_per_shot.high);
    r.Add("ler_per_round", m.ler_per_round);
    r.Add("round_time_us", m.round_time);
    r.Add("dem_hyperedges", m.dem_hyperedges);
    r.Add("dem_undecomposable", m.dem_undecomposable);
    r.Add("dem_dropped_probability", m.dem_dropped_probability);
    r.Add("dem_undecomposable_probability",
          m.dem_undecomposable_probability);
    return r;
}

bool
FiniteProbability(double p)
{
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const std::vector<int> distances = smoke ? std::vector<int>{3}
                                             : std::vector<int>{3, 5};
    const std::vector<double> improvements = {1.0, 5.0};
    const std::int64_t max_shots = smoke ? (1 << 12) : (1 << 16);
    const int threads = bench::MonteCarloThreads();

    std::printf("=== Lattice surgery & stability LER (grid, capacity 2; "
                "paper §8) ===\n");
    std::printf("surgery rows: per-obs = joint parity / patch A / patch "
                "B; _plain = elementary decoder (correlated stage off); "
                "undec/drop_p = DEM mechanisms dropped from decoding\n");
    std::printf("%-30s %6s %11s %9s %7s %-17s %12s %12s %5s %9s\n",
                "workload", "qubits", "round (us)", "shots", "errors",
                "per-obs errors", "LER/shot", "LER/round", "undec",
                "drop_p");
    bench::Rule(127);

    // One candidate list for everything: the engine compiles each
    // distinct (code, arch) once and shares it across the surgery,
    // stability, and memory-on-merged rows — and across the gate
    // improvements, which enter the noise key but not the compile key,
    // so the code objects are built once per distance outside the
    // improvement loop.
    std::map<int, std::shared_ptr<const qec::RotatedSurfaceCode>> singles;
    std::map<int, std::shared_ptr<const qec::MergedPatchCode>> mergeds;
    for (const int d : distances) {
        singles[d] = std::make_shared<qec::RotatedSurfaceCode>(d);
        mergeds[d] = std::make_shared<qec::MergedPatchCode>(
            d, qec::SurgeryParity::kXX);
    }
    std::vector<Row> rows;
    for (const double improvement : improvements) {
        for (const int d : distances) {
            const std::string suffix = "_d" + std::to_string(d) + "_" +
                                       std::to_string(static_cast<int>(
                                           improvement)) + "x";
            const auto& single = singles.at(d);
            const auto& merged = mergeds.at(d);
            rows.push_back({MakeCandidate(
                                single, workloads::WorkloadKind::kMemory,
                                improvement, max_shots, d,
                                "memory_single" + suffix),
                            single->num_qubits(), d});
            rows.push_back({MakeCandidate(
                                merged, workloads::WorkloadKind::kMemory,
                                improvement, max_shots, d,
                                "memory_merged" + suffix),
                            merged->num_qubits(), d});
            rows.push_back({MakeCandidate(
                                merged, workloads::WorkloadKind::kSurgery,
                                improvement, max_shots, d,
                                "surgery_xx" + suffix),
                            merged->num_qubits(), d});
            // The correlated-vs-plain A/B: the same surgery workload
            // decoded with the hyperedge stage disabled. Shares the
            // compiled schedule, DEM, and shard streams through the
            // sweep cache, so the only difference is the decoder.
            Row plain{MakeCandidate(
                          merged, workloads::WorkloadKind::kSurgery,
                          improvement, max_shots, d,
                          "surgery_xx_plain" + suffix),
                      merged->num_qubits(), d};
            plain.candidate.options.correlated = false;
            rows.push_back(std::move(plain));
            rows.push_back({MakeCandidate(
                                merged,
                                workloads::WorkloadKind::kStability,
                                improvement, max_shots, d,
                                "stability_xx" + suffix),
                            merged->num_qubits(), d});
        }
    }
    std::vector<core::SweepCandidate> candidates;
    candidates.reserve(rows.size());
    for (const Row& row : rows) {
        candidates.push_back(row.candidate);
    }
    core::SweepRunnerOptions sopts;
    sopts.num_threads = threads;
    const std::vector<core::Metrics> metrics =
        core::SweepRunner(sopts).Run(candidates);

    bool ok = true;
    double single_round = 0.0;
    std::vector<bench::JsonRecord> records;
    for (size_t i = 0; i < rows.size(); ++i) {
        const core::Metrics& m = metrics[i];
        PrintRow(rows[i], m);
        records.push_back(RowRecord(rows[i], m));
        // The tentpole's A/B gate: at 1X noise the correlated decoder
        // must strictly beat the elementary baseline on the surgery
        // workload — both on the any-observable count and on the joint
        // parity itself. (_plain rows follow their correlated twin.)
        const bool is_plain =
            rows[i].candidate.label.rfind("surgery_xx_plain", 0) == 0;
        if (is_plain && i > 0 && m.ok && metrics[i - 1].ok &&
            rows[i].candidate.arch.gate_improvement == 1.0) {
            const core::Metrics& corr = metrics[i - 1];
            if (corr.logical_errors >= m.logical_errors ||
                corr.per_observable_errors.empty() ||
                m.per_observable_errors.empty() ||
                corr.per_observable_errors[0] >=
                    m.per_observable_errors[0]) {
                std::fprintf(stderr,
                             "FAIL: %s: correlated decoder does not beat "
                             "the elementary baseline (any-obs %lld vs "
                             "%lld)\n",
                             rows[i - 1].candidate.label.c_str(),
                             static_cast<long long>(corr.logical_errors),
                             static_cast<long long>(m.logical_errors));
                ok = false;
            }
        }
        // The §8 flatness claim: every merged-patch row of a (d,
        // improvement) group must match the single-patch round time.
        // A failed single row invalidates its group's baseline (instead
        // of leaking the previous group's) and its own FAIL already
        // flips the verdict.
        const bool is_single =
            rows[i].candidate.label.rfind("memory_single", 0) == 0;
        if (is_single) {
            single_round = m.ok ? m.round_time : 0.0;
        }
        if (!m.ok) {
            std::fprintf(stderr, "FAIL: %s: %s\n",
                         rows[i].candidate.label.c_str(),
                         m.error.c_str());
            ok = false;
            continue;
        }
        if (!FiniteProbability(m.ler_per_shot.rate)) {
            std::fprintf(stderr, "FAIL: %s: LER %g is not a probability\n",
                         rows[i].candidate.label.c_str(),
                         m.ler_per_shot.rate);
            ok = false;
        }
        if (!is_single && single_round > 0.0 &&
                   std::abs(m.round_time - single_round) >
                       0.05 * single_round) {
            std::fprintf(stderr,
                         "FAIL: %s: round time %.1f us not flat vs "
                         "single patch %.1f us\n",
                         rows[i].candidate.label.c_str(), m.round_time,
                         single_round);
            ok = false;
        }
    }

    // Timelike scaling: the parity LER vs merged round count.
    std::printf("\n=== Stability: joint-parity LER vs merged rounds "
                "(d=3, 5X gates) ===\n");
    std::printf("%-24s %9s %7s %12s %12s\n", "rounds", "shots", "errors",
                "LER/shot", "LER/round");
    bench::Rule(70);
    {
        const auto& merged = mergeds.at(3);
        std::vector<core::SweepCandidate> stab;
        const std::vector<int> round_counts =
            smoke ? std::vector<int>{1, 3} : std::vector<int>{1, 2, 3, 5, 7};
        for (const int rounds : round_counts) {
            stab.push_back(MakeCandidate(
                merged, workloads::WorkloadKind::kStability, 5.0,
                max_shots, rounds, "r" + std::to_string(rounds)));
        }
        const std::vector<core::Metrics> stab_metrics =
            core::SweepRunner(sopts).Run(stab);
        for (size_t i = 0; i < stab.size(); ++i) {
            const core::Metrics& m = stab_metrics[i];
            records.push_back(
                RowRecord({stab[i], merged->num_qubits(), 3}, m));
            std::printf("%-24s %9lld %7lld %12s %12s\n",
                        stab[i].label.c_str(),
                        static_cast<long long>(m.shots),
                        static_cast<long long>(m.logical_errors),
                        bench::NumOrNan(m.ler_per_shot.rate, m.ok,
                                        "%.3e")
                            .c_str(),
                        bench::NumOrNan(m.ler_per_round, m.ok, "%.3e")
                            .c_str());
            if (!m.ok) {
                std::fprintf(stderr, "FAIL: stability %s: %s\n",
                             stab[i].label.c_str(), m.error.c_str());
                ok = false;
            } else if (!FiniteProbability(m.ler_per_shot.rate)) {
                std::fprintf(stderr,
                             "FAIL: stability %s: LER %g is not a "
                             "probability\n",
                             stab[i].label.c_str(), m.ler_per_shot.rate);
                ok = false;
            }
        }
    }

    bench::WriteBenchJson("BENCH_surgery.json", "surgery_ler", records);

    if (smoke) {
        // Determinism gate: the whole surgery sweep must be
        // bit-identical between one and two worker threads.
        core::SweepRunnerOptions one;
        one.num_threads = 1;
        core::SweepRunnerOptions two;
        two.num_threads = 2;
        const auto a = core::SweepRunner(one).Run(candidates);
        const auto b = core::SweepRunner(two).Run(candidates);
        bool identical = a.size() == b.size();
        for (size_t i = 0; identical && i < a.size(); ++i) {
            identical = bench::MetricsBitIdentical(a[i], b[i]);
        }
        if (!identical) {
            std::fprintf(stderr, "FAIL: surgery sweep is not "
                                 "bit-identical across pool widths\n");
            ok = false;
        }
        std::printf("\nsmoke: %s\n", ok ? "OK" : "FAILED");
    }
    return ok ? 0 : 1;
}
