/**
 * @file
 * Differential tests for the cached parallel sweep engine: a
 * `core::SweepRunner` pass over a candidate list must be bit-identical
 * to the serial `core::Evaluate` loop over the same candidates — for
 * every pool width, including the early-stop path — and a broken
 * candidate must fail alone without aborting the sweep.
 */
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "qec/code.h"

namespace tiqec::core {
namespace {

bool
SameDouble(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
ExpectBitIdentical(const Metrics& serial, const Metrics& swept)
{
    EXPECT_EQ(serial.ok, swept.ok);
    EXPECT_EQ(serial.error, swept.error);
    EXPECT_TRUE(SameDouble(serial.round_time, swept.round_time));
    EXPECT_TRUE(SameDouble(serial.shot_time, swept.shot_time));
    EXPECT_EQ(serial.movement_ops_per_round, swept.movement_ops_per_round);
    EXPECT_TRUE(SameDouble(serial.movement_time_per_round,
                           swept.movement_time_per_round));
    EXPECT_EQ(serial.num_traps_used, swept.num_traps_used);
    EXPECT_TRUE(SameDouble(serial.mean_two_qubit_error,
                           swept.mean_two_qubit_error));
    EXPECT_TRUE(SameDouble(serial.max_two_qubit_error,
                           swept.max_two_qubit_error));
    EXPECT_TRUE(SameDouble(serial.idle_dephasing_data_qubit,
                           swept.idle_dephasing_data_qubit));
    EXPECT_EQ(serial.shots, swept.shots);
    EXPECT_EQ(serial.logical_errors, swept.logical_errors);
    EXPECT_TRUE(
        SameDouble(serial.ler_per_shot.rate, swept.ler_per_shot.rate));
    EXPECT_TRUE(
        SameDouble(serial.ler_per_shot.low, swept.ler_per_shot.low));
    EXPECT_TRUE(
        SameDouble(serial.ler_per_shot.high, swept.ler_per_shot.high));
    EXPECT_TRUE(SameDouble(serial.ler_per_round, swept.ler_per_round));
    EXPECT_EQ(serial.resources.num_electrodes,
              swept.resources.num_electrodes);
}

/** A small but non-trivial design-space slice: two distances, two trap
 *  capacities, two seeds per point (the seed replicas share every cached
 *  artifact), plus one early-stopping candidate at 1X noise. */
std::vector<SweepCandidate>
MixedCandidates()
{
    std::vector<SweepCandidate> candidates;
    for (const int d : {3, 5}) {
        const std::shared_ptr<const qec::StabilizerCode> code =
            qec::MakeCode("rotated", d);
        for (const int cap : {2, 3}) {
            for (int s = 0; s < 2; ++s) {
                SweepCandidate c;
                c.code = code;
                c.arch.trap_capacity = cap;
                c.arch.gate_improvement = 5.0;
                c.options.max_shots = 1 << 12;
                c.options.target_logical_errors = 0;  // fixed budget
                c.options.seed = 0x5EED + static_cast<std::uint64_t>(s);
                candidates.push_back(std::move(c));
            }
        }
    }
    // Early-stop path: 1X noise errors fast, so a small target stops
    // well inside the budget.
    SweepCandidate early;
    early.code = qec::MakeCode("rotated", 3);
    early.arch.trap_capacity = 2;
    early.arch.gate_improvement = 1.0;
    early.options.max_shots = 1 << 14;
    early.options.target_logical_errors = 40;
    candidates.push_back(std::move(early));
    // A compile-only candidate exercises the metrics-without-sampling
    // path through the same cache.
    SweepCandidate compile_only;
    compile_only.code = candidates.back().code;
    compile_only.arch.trap_capacity = 2;
    compile_only.arch.gate_improvement = 1.0;
    compile_only.options.compile_only = true;
    candidates.push_back(std::move(compile_only));
    return candidates;
}

std::vector<Metrics>
SerialEvaluateLoop(const std::vector<SweepCandidate>& candidates)
{
    std::vector<Metrics> metrics;
    metrics.reserve(candidates.size());
    for (const SweepCandidate& c : candidates) {
        metrics.push_back(Evaluate(*c.code, c.arch, c.options));
    }
    return metrics;
}

TEST(SweepRunnerTest, BitIdenticalToSerialEvaluateLoopAtEveryPoolWidth)
{
    const std::vector<SweepCandidate> candidates = MixedCandidates();
    const std::vector<Metrics> serial = SerialEvaluateLoop(candidates);
    // The early-stop candidate must actually early-stop, or this test
    // is not covering the claimed path.
    ASSERT_LT(serial[serial.size() - 2].shots, std::int64_t{1} << 14);
    ASSERT_GE(serial[serial.size() - 2].logical_errors, 40);

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        SweepRunnerOptions opts;
        opts.num_threads = threads;
        const std::vector<Metrics> swept =
            SweepRunner(opts).Run(candidates);
        ASSERT_EQ(swept.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("candidate " + std::to_string(i));
            ExpectBitIdentical(serial[i], swept[i]);
        }
    }
}

TEST(SweepRunnerTest, ScalarDecodePathIsAlsoBitIdentical)
{
    SweepCandidate c;
    c.code = qec::MakeCode("rotated", 3);
    c.arch.gate_improvement = 5.0;
    c.options.max_shots = 1 << 12;
    c.options.target_logical_errors = 0;
    c.options.decode_path = sim::DecodePath::kScalar;
    const Metrics serial = Evaluate(*c.code, c.arch, c.options);
    SweepRunnerOptions opts;
    opts.num_threads = 2;
    const std::vector<Metrics> swept = SweepRunner(opts).Run({c});
    ASSERT_EQ(swept.size(), 1u);
    ExpectBitIdentical(serial, swept[0]);
}

TEST(SweepRunnerTest, CompileFailureMarksOnlyThatCandidate)
{
    const std::shared_ptr<const qec::StabilizerCode> code =
        qec::MakeCode("rotated", 3);
    std::vector<SweepCandidate> candidates;
    SweepCandidate good;
    good.code = code;
    good.arch.trap_capacity = 2;
    good.arch.gate_improvement = 5.0;
    good.options.max_shots = 1 << 10;
    candidates.push_back(good);
    // Capacity 1 is invalid (one slot is reserved for communication);
    // before the staged pipeline this crashed in device synthesis.
    SweepCandidate bad = good;
    bad.arch.trap_capacity = 1;
    candidates.push_back(bad);
    candidates.push_back(good);

    const std::vector<Metrics> swept = SweepRunner().Run(candidates);
    ASSERT_EQ(swept.size(), 3u);
    EXPECT_TRUE(swept[0].ok);
    EXPECT_FALSE(swept[1].ok);
    EXPECT_FALSE(swept[1].error.empty());
    EXPECT_TRUE(swept[2].ok);
    // The healthy candidates are untouched by the failure.
    ExpectBitIdentical(swept[0], swept[2]);
}

TEST(SweepRunnerTest, EvaluateReportsCompileErrorInsteadOfCrashing)
{
    // The serial entry point gets the same fix: capacity < 2 used to
    // divide by zero inside MakeDeviceFor.
    const auto code = qec::MakeCode("rotated", 3);
    ArchitectureConfig arch;
    arch.trap_capacity = 1;
    const Metrics m = Evaluate(*code, arch);
    EXPECT_FALSE(m.ok);
    EXPECT_FALSE(m.error.empty());
}

TEST(SweepRunnerTest, MultiRoundCandidatesAreCompileOnly)
{
    const std::shared_ptr<const qec::StabilizerCode> code =
        qec::MakeCode("rotated", 3);
    SweepCandidate block;
    block.code = code;
    block.arch.trap_capacity = 2;
    block.compile_rounds = 5;
    block.options.compile_only = true;
    SweepCandidate invalid = block;
    invalid.options.compile_only = false;

    const std::vector<SweepOutcome> outcomes =
        SweepRunner().RunDetailed({block, invalid});
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].metrics.ok) << outcomes[0].metrics.error;
    // A five-round block's elapsed time is its makespan; the per-round
    // mean cannot exceed a one-round compile of the same architecture.
    EXPECT_DOUBLE_EQ(outcomes[0].metrics.shot_time,
                     outcomes[0].compile->compiled.schedule.makespan);
    EXPECT_DOUBLE_EQ(outcomes[0].metrics.round_time * 5.0,
                     outcomes[0].metrics.shot_time);
    EXPECT_FALSE(outcomes[1].metrics.ok);
    EXPECT_FALSE(outcomes[1].metrics.error.empty());
}

TEST(SweepRunnerTest, SharedArtifactsAcrossSeedReplicasStayIndependent)
{
    // Two seeds of one configuration share compile/annotate/DEM cache
    // entries but must sample distinct streams.
    const std::shared_ptr<const qec::StabilizerCode> code =
        qec::MakeCode("rotated", 3);
    std::vector<SweepCandidate> candidates;
    for (int s = 0; s < 2; ++s) {
        SweepCandidate c;
        c.code = code;
        c.arch.gate_improvement = 1.0;
        c.options.max_shots = 1 << 12;
        c.options.target_logical_errors = 0;
        c.options.seed = 0x5EED + static_cast<std::uint64_t>(s);
        candidates.push_back(std::move(c));
    }
    const std::vector<SweepOutcome> outcomes =
        SweepRunner().RunDetailed(candidates);
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].metrics.ok);
    ASSERT_TRUE(outcomes[1].metrics.ok);
    // Same cached compile artifact object...
    EXPECT_EQ(outcomes[0].compile.get(), outcomes[1].compile.get());
    // ...identical compile metrics...
    EXPECT_DOUBLE_EQ(outcomes[0].metrics.round_time,
                     outcomes[1].metrics.round_time);
    // ...but different Monte-Carlo draws (1X noise: ample errors, so
    // two 4096-shot streams colliding exactly is ~impossible).
    EXPECT_NE(outcomes[0].metrics.logical_errors,
              outcomes[1].metrics.logical_errors);
}

TEST(SweepRunnerTest, OneDecodingGraphPerSimKeyAndCorrelatedFlag)
{
    // Two equal-content codes (distinct objects, different seeds) share
    // one sim key and so one decoding graph; the same point decoded
    // plain needs a second; another distance a third. Candidates that
    // sample nothing build none. Many small shards per run make several
    // workers decode one run on its shared graph at once.
    std::vector<SweepCandidate> candidates;
    const auto add = [&](int d, std::uint64_t seed, bool correlated,
                         std::int64_t shots) {
        SweepCandidate c;
        c.code = qec::MakeCode("rotated", d);
        c.arch.gate_improvement = 1.0;
        c.options.max_shots = shots;
        c.options.target_logical_errors = 0;
        c.options.shard_shots = 256;
        c.options.seed = seed;
        c.options.correlated = correlated;
        candidates.push_back(std::move(c));
    };
    add(3, 1, true, 1 << 12);
    add(3, 2, true, 1 << 12);
    add(3, 1, false, 1 << 12);
    add(5, 1, true, 1 << 11);
    add(5, 1, false, 0);
    candidates.back().options.compile_only = true;
    add(3, 3, false, 0);
    const std::int64_t distinct_graphs = 3;

    std::vector<Metrics> first;
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        SweepRunnerOptions opts;
        opts.num_threads = threads;
        SweepRunner runner(opts);
        const std::vector<Metrics> swept = runner.Run(candidates);
        EXPECT_EQ(runner.last_run_stats().decoder_builds, distinct_graphs);
        ASSERT_EQ(swept.size(), candidates.size());
        for (const Metrics& m : swept) {
            EXPECT_TRUE(m.ok) << m.error;
        }
        EXPECT_GT(swept[0].logical_errors, 0);
        EXPECT_NE(swept[0].logical_errors, swept[1].logical_errors);
        if (first.empty()) {
            first = swept;
            continue;
        }
        for (size_t i = 0; i < swept.size(); ++i) {
            SCOPED_TRACE("candidate " + std::to_string(i));
            ExpectBitIdentical(first[i], swept[i]);
            EXPECT_EQ(first[i].per_observable_errors,
                      swept[i].per_observable_errors);
        }
    }
}

TEST(SweepRunnerTest, LargeDistanceCandidatesRunEndToEnd)
{
    // d=7 and d=9 candidates through the full pipeline — compile, noise
    // annotation, DEM build, Monte-Carlo sampling — on a small fixed
    // budget; the compiler hot-path overhaul is what makes these sweep
    // rows affordable. Bit-identity with the serial Evaluate loop must
    // hold at these sizes too.
    std::vector<SweepCandidate> candidates;
    for (const int d : {7, 9}) {
        SweepCandidate c;
        c.code = qec::MakeCode("rotated", d);
        c.arch.trap_capacity = 2;
        c.arch.gate_improvement = 5.0;
        c.options.max_shots = 1 << 9;
        c.options.target_logical_errors = 0;  // fixed budget
        candidates.push_back(std::move(c));
    }
    const std::vector<Metrics> serial = SerialEvaluateLoop(candidates);
    SweepRunnerOptions opts;
    opts.num_threads = 4;
    std::vector<SweepCandidate> swept_candidates = candidates;
    // A d=9 multi-round compile-only block (the fig9 shot-time shape);
    // multi-round blocks are a sweep-engine extra, so it is not part of
    // the serial comparison.
    SweepCandidate block;
    block.code = candidates.back().code;
    block.arch.trap_capacity = 2;
    block.compile_rounds = 5;
    block.options.compile_only = true;
    swept_candidates.push_back(std::move(block));
    const std::vector<Metrics> swept =
        SweepRunner(opts).Run(swept_candidates);
    ASSERT_EQ(swept.size(), serial.size() + 1);
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ExpectBitIdentical(serial[i], swept[i]);
    }
    // The capacity-2 paper shape holds at scale: round time flat from
    // d=7 to d=9.
    EXPECT_DOUBLE_EQ(swept[0].round_time, swept[1].round_time);
    // The d=9 five-round block compiles and its mean round time matches
    // its makespan split across rounds.
    ASSERT_TRUE(swept[2].ok) << swept[2].error;
    EXPECT_DOUBLE_EQ(swept[2].round_time * 5.0, swept[2].shot_time);
}

TEST(SweepRunnerTest, NullCodeIsReportedNotDereferenced)
{
    SweepCandidate c;  // no code
    const std::vector<Metrics> swept = SweepRunner().Run({c});
    ASSERT_EQ(swept.size(), 1u);
    EXPECT_FALSE(swept[0].ok);
    EXPECT_FALSE(swept[0].error.empty());
}

}  // namespace
}  // namespace tiqec::core
