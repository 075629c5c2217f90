/**
 * @file
 * Lattice-surgery study (paper §8): logical two-qubit operations between
 * surface-code patches are performed by measuring joint parities on a
 * temporarily merged patch. The merged region's parity-check circuits
 * have the same local structure as a single patch's, so if the
 * capacity-2 grid gives a constant round time for one logical qubit, it
 * should give (nearly) the same round time during surgery — the
 * property that lets the paper's single-qubit conclusions carry over to
 * full fault-tolerant computation.
 *
 * This example runs the surgery workloads end-to-end through
 * `core::SweepRunner`: a single distance-d memory patch next to the
 * (2d+1) x d merged double patch running the X(X)X and Z(X)Z surgery
 * experiments (d merged rounds measuring the joint parity, with the
 * parity outcome and both patch logicals as observables) and the
 * stability experiment (the parity outcome alone — the timelike
 * benchmark). All merged-patch rows per orientation share one compiled
 * schedule and noise profile through the sweep cache.
 *
 * Run: ./build/examples/lattice_surgery [distance] [max_shots]
 * (the second argument trims the Monte-Carlo budget; the CI smoke job
 * uses it to keep the example fast under `ctest --timeout`.)
 */
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "core/toolflow.h"
#include "qec/surgery.h"

namespace {

/** Strict integer argv parsing: garbage, trailing junk, or non-positive
 *  values are rejected instead of silently becoming 0 (std::atoi turned
 *  "abc" into distance 0 and let negatives straight through). */
bool
ParsePositive(const char* arg, std::int64_t& out, const char* what)
{
    const char* end = arg + std::strlen(arg);
    std::int64_t parsed = 0;
    const auto [ptr, ec] = std::from_chars(arg, end, parsed);
    if (ec != std::errc() || ptr != end || parsed <= 0) {
        std::fprintf(stderr,
                     "error: %s \"%s\" is not a positive integer\n", what,
                     arg);
        return false;
    }
    out = parsed;
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace tiqec;
    std::int64_t distance = 3;
    std::int64_t max_shots = 20000;
    if (argc > 1 && !ParsePositive(argv[1], distance, "distance")) {
        return 2;
    }
    if (argc > 2 && !ParsePositive(argv[2], max_shots, "max_shots")) {
        return 2;
    }
    // Upper bound before the int narrowing: a merged patch allocates
    // ~2*(2d+1)*d qubits, so anything beyond a few hundred is a typo,
    // and values past INT_MAX would otherwise wrap in the cast.
    if (distance < 2 || distance > 999) {
        std::fprintf(stderr,
                     "error: distance must be between 2 and 999\n");
        return 2;
    }
    const int d = static_cast<int>(distance);

    std::printf("lattice-surgery study at distance %d (grid, capacity 2, "
                "5X gates)\n\n",
                d);
    std::printf("%-26s %8s %12s %10s %8s %14s\n", "workload", "qubits",
                "round (us)", "moves", "errors", "LER/shot");
    for (int i = 0; i < 84; ++i) {
        std::putchar('-');
    }
    std::putchar('\n');

    struct Row
    {
        core::SweepCandidate candidate;
        int qubits;
    };
    auto make = [&](std::shared_ptr<const qec::StabilizerCode> code,
                    workloads::WorkloadKind workload,
                    const std::string& label) {
        core::SweepCandidate c;
        int qubits = code->num_qubits();
        c.code = std::move(code);
        c.arch.topology = qccd::TopologyKind::kGrid;
        c.arch.trap_capacity = 2;
        c.arch.gate_improvement = 5.0;
        c.options.workload.kind = workload;
        c.options.max_shots = max_shots;
        c.options.target_logical_errors = 60;
        c.label = label;
        return Row{std::move(c), qubits};
    };

    std::vector<Row> rows;
    rows.push_back(make(std::make_shared<qec::RotatedSurfaceCode>(d),
                        workloads::WorkloadKind::kMemory,
                        "single patch memory"));
    for (const auto parity :
         {qec::SurgeryParity::kXX, qec::SurgeryParity::kZZ}) {
        const auto merged =
            std::make_shared<qec::MergedPatchCode>(d, parity);
        const std::string suffix =
            " (" + qec::SurgeryParityName(parity) + ")";
        rows.push_back(make(merged, workloads::WorkloadKind::kSurgery,
                            "merged surgery" + suffix));
        rows.push_back(make(merged, workloads::WorkloadKind::kStability,
                            "merged stability" + suffix));
    }

    std::vector<core::SweepCandidate> candidates;
    candidates.reserve(rows.size());
    for (const Row& row : rows) {
        candidates.push_back(row.candidate);
    }
    const std::vector<core::Metrics> metrics =
        core::SweepRunner().Run(candidates);

    bool all_ok = true;
    for (size_t i = 0; i < rows.size(); ++i) {
        const core::Metrics& m = metrics[i];
        if (!m.ok) {
            std::printf("%-26s FAILED: %s\n", rows[i].candidate.label.c_str(),
                        m.error.c_str());
            all_ok = false;
            continue;
        }
        std::printf("%-26s %8d %12.0f %10d %8lld %14.3e\n",
                    rows[i].candidate.label.c_str(), rows[i].qubits,
                    m.round_time, m.movement_ops_per_round,
                    static_cast<long long>(m.logical_errors),
                    m.ler_per_shot.rate);
    }

    std::printf("\nIf the merged rows' round times match the single "
                "patch, the QCCD architecture's cycle time is\n"
                "surgery-invariant: logical operations run at the same "
                "clock as logical idling, which is the\n"
                "paper's §8 argument for generality. The surgery rows' "
                "LER covers the joint parity and both\n"
                "patch logicals; the stability rows isolate the parity "
                "outcome, whose timelike distance is the\n"
                "number of merged rounds (d here).\n");
    return all_ok ? 0 : 1;
}
