/**
 * @file
 * Tests for the Stim-substitute simulation stack: noisy circuit IR, the
 * bit-parallel frame simulator, and the detector-error-model builder.
 * Includes hand-checkable propagation cases, statistical channel tests,
 * and the differential suite pinning the backward DEM builder to its
 * forward bit-lane oracle.
 */
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/request.h"
#include "core/sweep.h"
#include "sim/dem.h"
#include "sim/dem_io.h"
#include "sim/dem_reference.h"
#include "sim/frame_simulator.h"
#include "sim/noisy_circuit.h"

namespace tiqec::sim {
namespace {

TEST(NoisyCircuitTest, RecordAndDetectorBookkeeping)
{
    NoisyCircuit c(2);
    const int m0 = c.AddMeasure(0, 0.0);
    const int m1 = c.AddMeasure(1, 0.0);
    EXPECT_EQ(m0, 0);
    EXPECT_EQ(m1, 1);
    const int d0 = c.AddDetector({m0, m1}, {0, 0}, 0);
    EXPECT_EQ(d0, 0);
    c.AddObservableInclude(0, {m1});
    EXPECT_EQ(c.num_measurements(), 2);
    EXPECT_EQ(c.num_detectors(), 1);
    EXPECT_EQ(c.num_observables(), 1);
}

TEST(NoisyCircuitTest, NoiseChannelCount)
{
    NoisyCircuit c(2);
    c.AddDepolarize1(0, 0.1);
    c.AddDepolarize2(0, 1, 0.1);
    c.AddXError(0, 0.1);
    c.AddZError(1, 0.0);  // p = 0 channels are dropped
    c.AddMeasure(0, 0.01);
    c.AddReset(1, 0.0);
    EXPECT_EQ(c.CountNoiseChannels(), 4);
}

TEST(SampleBatchTest, SyndromeOfReadsHandPackedWords)
{
    // 130 shots = 2 full words + 2 tail bits; 3 detectors.
    SampleBatch batch(130, 3, 1);
    ASSERT_EQ(batch.words(), 3);
    batch.SetDetectorWord(0, 0, 1ULL << 0);           // shot 0
    batch.SetDetectorWord(1, 0, 1ULL << 0);           // shot 0
    batch.SetDetectorWord(1, 1, 1ULL << 63);          // shot 127
    batch.SetDetectorWord(2, 2, 1ULL << 1);           // shot 129
    EXPECT_EQ(batch.SyndromeOf(0), (std::vector<int>{0, 1}));
    EXPECT_EQ(batch.SyndromeOf(1), (std::vector<int>{}));
    EXPECT_EQ(batch.SyndromeOf(127), (std::vector<int>{1}));
    EXPECT_EQ(batch.SyndromeOf(129), (std::vector<int>{2}));
}

TEST(SampleBatchTest, CountNonTrivialShotsHandPacked)
{
    SampleBatch batch(130, 2, 1);
    batch.SetDetectorWord(0, 0, (1ULL << 3) | (1ULL << 7));
    batch.SetDetectorWord(1, 0, 1ULL << 3);   // shot 3 fires both rows
    batch.SetDetectorWord(1, 1, 1ULL << 0);   // shot 64
    batch.SetDetectorWord(0, 2, 1ULL << 1);   // shot 129 (tail word)
    EXPECT_EQ(batch.CountNonTrivialShots(), 4);  // shots 3, 7, 64, 129
}

TEST(SampleBatchTest, NonTrivialShotMaskHandPacked)
{
    SampleBatch batch(130, 2, 1);
    batch.SetDetectorWord(0, 0, (1ULL << 3) | (1ULL << 7));
    batch.SetDetectorWord(1, 0, 1ULL << 3);
    batch.SetDetectorWord(1, 1, 1ULL << 0);
    batch.SetDetectorWord(0, 2, (1ULL << 1) | (1ULL << 5));  // 5: invalid
    std::vector<std::uint64_t> mask;
    batch.NonTrivialShotMask(mask);
    ASSERT_EQ(mask.size(), 3u);
    EXPECT_EQ(mask[0], (1ULL << 3) | (1ULL << 7));
    EXPECT_EQ(mask[1], 1ULL << 0);
    // Tail bits at or beyond shot 130 are masked off.
    EXPECT_EQ(mask[2], 1ULL << 1);
    EXPECT_EQ(batch.WordValidMask(0), ~0ULL);
    EXPECT_EQ(batch.WordValidMask(2), (1ULL << 2) - 1);
}

TEST(SampleBatchTest, ExtractSyndromesMatchesSyndromeOf)
{
    SampleBatch batch(130, 3, 1);
    batch.SetDetectorWord(0, 0, 1ULL << 0);
    batch.SetDetectorWord(1, 0, 1ULL << 0);
    batch.SetDetectorWord(1, 1, 1ULL << 63);
    batch.SetDetectorWord(2, 0, 1ULL << 0);
    batch.SetDetectorWord(2, 2, 1ULL << 1);
    SparseSyndromes syndromes;
    batch.ExtractSyndromes(syndromes);
    ASSERT_EQ(syndromes.offsets.size(), 131u);
    EXPECT_EQ(syndromes.offsets.front(), 0);
    EXPECT_EQ(syndromes.offsets.back(),
              static_cast<std::int64_t>(syndromes.fired.size()));
    for (int s = 0; s < batch.shots(); ++s) {
        const std::vector<int> expected = batch.SyndromeOf(s);
        const std::vector<int> got(
            syndromes.fired.begin() + syndromes.offsets[s],
            syndromes.fired.begin() + syndromes.offsets[s + 1]);
        ASSERT_EQ(got, expected) << "shot " << s;
    }
    EXPECT_EQ(syndromes.offsets[1] - syndromes.offsets[0], 3);
}

TEST(SampleBatchTest, ShotCountNotMultipleOf64)
{
    // Bits in the tail word beyond `shots` must not be counted.
    SampleBatch batch(70, 1, 1);
    ASSERT_EQ(batch.words(), 2);
    batch.SetDetectorWord(0, 1, ~0ULL);  // shots 64..127 all set
    std::int64_t expected = 70 - 64;
    EXPECT_EQ(batch.CountNonTrivialShots(), expected);
    EXPECT_TRUE(batch.Detector(0, 69));
    const auto syndrome = batch.SyndromeOf(69);
    EXPECT_EQ(syndrome, (std::vector<int>{0}));
}

TEST(SampleBatchTest, ObservableWordRoundTrip)
{
    SampleBatch batch(64, 1, 2);
    batch.SetObservableWord(1, 0, 1ULL << 5);
    batch.XorObservableWord(1, 0, (1ULL << 5) | (1ULL << 6));
    EXPECT_EQ(batch.ObservableWord(1, 0), 1ULL << 6);
    EXPECT_FALSE(batch.Observable(1, 5));
    EXPECT_TRUE(batch.Observable(1, 6));
    EXPECT_FALSE(batch.Observable(0, 6));
}

TEST(FrameSimulatorTest, NoiselessCircuitIsTrivial)
{
    NoisyCircuit c(3);
    c.AddReset(0, 0.0);
    c.AddH(0);
    c.AddCnot(0, 1);
    c.AddCnot(1, 2);
    const int m0 = c.AddMeasure(0, 0.0);
    const int m1 = c.AddMeasure(1, 0.0);
    c.AddDetector({m0, m1}, {0, 0}, 0);
    c.AddObservableInclude(0, {m1});
    FrameSimulator simulator(c, 7);
    const SampleBatch batch = simulator.Sample(1000);
    EXPECT_EQ(batch.CountNonTrivialShots(), 0);
    for (int s = 0; s < 1000; ++s) {
        EXPECT_FALSE(batch.Observable(0, s));
    }
}

TEST(FrameSimulatorTest, DeterministicXErrorPropagatesThroughCnot)
{
    // X on the control propagates to the target.
    NoisyCircuit c(2);
    c.AddXError(0, 1.0);
    c.AddCnot(0, 1);
    const int m0 = c.AddMeasure(0, 0.0);
    const int m1 = c.AddMeasure(1, 0.0);
    c.AddDetector({m0}, {0, 0}, 0);
    c.AddDetector({m1}, {1, 0}, 0);
    FrameSimulator simulator(c, 11);
    const SampleBatch batch = simulator.Sample(128);
    for (int s = 0; s < 128; ++s) {
        EXPECT_TRUE(batch.Detector(0, s));
        EXPECT_TRUE(batch.Detector(1, s));
    }
}

TEST(FrameSimulatorTest, ZErrorConvertsThroughHadamard)
{
    // Z then H gives X, which a Z-basis measurement sees.
    NoisyCircuit c(1);
    c.AddZError(0, 1.0);
    c.AddH(0);
    const int m = c.AddMeasure(0, 0.0);
    c.AddDetector({m}, {0, 0}, 0);
    FrameSimulator simulator(c, 13);
    const SampleBatch batch = simulator.Sample(64);
    for (int s = 0; s < 64; ++s) {
        EXPECT_TRUE(batch.Detector(0, s));
    }
}

TEST(FrameSimulatorTest, ResetClearsErrors)
{
    NoisyCircuit c(1);
    c.AddXError(0, 1.0);
    c.AddReset(0, 0.0);
    const int m = c.AddMeasure(0, 0.0);
    c.AddDetector({m}, {0, 0}, 0);
    FrameSimulator simulator(c, 17);
    const SampleBatch batch = simulator.Sample(64);
    EXPECT_EQ(batch.CountNonTrivialShots(), 0);
}

TEST(FrameSimulatorTest, XErrorRateIsStatisticallyCorrect)
{
    const double p = 0.05;
    NoisyCircuit c(1);
    c.AddXError(0, p);
    const int m = c.AddMeasure(0, 0.0);
    c.AddDetector({m}, {0, 0}, 0);
    FrameSimulator simulator(c, 19);
    const int shots = 200000;
    const SampleBatch batch = simulator.Sample(shots);
    int fired = 0;
    for (int s = 0; s < shots; ++s) {
        fired += batch.Detector(0, s) ? 1 : 0;
    }
    const double rate = static_cast<double>(fired) / shots;
    EXPECT_NEAR(rate, p, 5.0 * std::sqrt(p * (1 - p) / shots));
}

TEST(FrameSimulatorTest, Depolarize1SplitsEvenly)
{
    // X and Y components flip a Z-basis measurement: expect 2p/3.
    const double p = 0.3;
    NoisyCircuit c(1);
    c.AddDepolarize1(0, p);
    const int m = c.AddMeasure(0, 0.0);
    c.AddDetector({m}, {0, 0}, 0);
    FrameSimulator simulator(c, 23);
    const int shots = 300000;
    const SampleBatch batch = simulator.Sample(shots);
    int fired = 0;
    for (int s = 0; s < shots; ++s) {
        fired += batch.Detector(0, s) ? 1 : 0;
    }
    const double expected = 2.0 * p / 3.0;
    EXPECT_NEAR(static_cast<double>(fired) / shots, expected,
                5.0 * std::sqrt(expected / shots));
}

TEST(FrameSimulatorTest, MeasurementFlipDoesNotTouchState)
{
    NoisyCircuit c(1);
    const int m0 = c.AddMeasure(0, 1.0);  // always flips the record
    const int m1 = c.AddMeasure(0, 0.0);  // state itself is unflipped
    c.AddDetector({m0}, {0, 0}, 0);
    c.AddDetector({m1}, {0, 0}, 1);
    FrameSimulator simulator(c, 29);
    const SampleBatch batch = simulator.Sample(64);
    for (int s = 0; s < 64; ++s) {
        EXPECT_TRUE(batch.Detector(0, s));
        EXPECT_FALSE(batch.Detector(1, s));
    }
}

TEST(FrameSimulatorTest, SwapExchangesFrames)
{
    NoisyCircuit c(2);
    c.AddXError(0, 1.0);
    c.AddSwap(0, 1);
    const int m0 = c.AddMeasure(0, 0.0);
    const int m1 = c.AddMeasure(1, 0.0);
    c.AddDetector({m0}, {0, 0}, 0);
    c.AddDetector({m1}, {1, 0}, 0);
    FrameSimulator simulator(c, 31);
    const SampleBatch batch = simulator.Sample(64);
    for (int s = 0; s < 64; ++s) {
        EXPECT_FALSE(batch.Detector(0, s));
        EXPECT_TRUE(batch.Detector(1, s));
    }
}

TEST(FrameSimulatorTest, ObservableAccumulatesAcrossIncludes)
{
    NoisyCircuit c(2);
    c.AddXError(0, 1.0);
    c.AddXError(1, 1.0);
    const int m0 = c.AddMeasure(0, 0.0);
    const int m1 = c.AddMeasure(1, 0.0);
    c.AddObservableInclude(0, {m0});
    c.AddObservableInclude(0, {m1});
    FrameSimulator simulator(c, 37);
    const SampleBatch batch = simulator.Sample(64);
    for (int s = 0; s < 64; ++s) {
        EXPECT_FALSE(batch.Observable(0, s)) << "two flips must cancel";
    }
}

// ---------------------------------------------------------------------------
// DEM extraction
// ---------------------------------------------------------------------------

TEST(DemTest, SingleChannelSingleEdge)
{
    NoisyCircuit c(1);
    c.AddXError(0, 0.01);
    const int m = c.AddMeasure(0, 0.0);
    c.AddDetector({m}, {0, 0}, 0);
    c.AddObservableInclude(0, {m});
    const DetectorErrorModel dem = BuildDem(c);
    ASSERT_EQ(dem.edges.size(), 1u);
    EXPECT_EQ(dem.edges[0].d0, 0);
    EXPECT_EQ(dem.edges[0].d1, DemEdge::kBoundary);
    EXPECT_EQ(dem.edges[0].obs_mask, 1u);
    EXPECT_NEAR(dem.edges[0].p, 0.01, 1e-12);
}

TEST(DemTest, TwoDetectorEdge)
{
    // One X error seen by two repetition-code style checks.
    NoisyCircuit c(3);
    c.AddXError(1, 0.02);
    c.AddCnot(1, 0);  // ancilla 0 checks qubit 1
    c.AddCnot(1, 2);  // ancilla 2 checks qubit 1
    const int m0 = c.AddMeasure(0, 0.0);
    const int m2 = c.AddMeasure(2, 0.0);
    c.AddDetector({m0}, {0, 0}, 0);
    c.AddDetector({m2}, {2, 0}, 0);
    const DetectorErrorModel dem = BuildDem(c);
    ASSERT_EQ(dem.edges.size(), 1u);
    EXPECT_EQ(dem.edges[0].d0, 0);
    EXPECT_EQ(dem.edges[0].d1, 1);
    EXPECT_NEAR(dem.edges[0].p, 0.02, 1e-12);
}

TEST(DemTest, ParallelMechanismsCombineProbabilities)
{
    NoisyCircuit c(1);
    c.AddXError(0, 0.01);
    c.AddXError(0, 0.02);
    const int m = c.AddMeasure(0, 0.0);
    c.AddDetector({m}, {0, 0}, 0);
    const DetectorErrorModel dem = BuildDem(c);
    ASSERT_EQ(dem.edges.size(), 1u);
    // XOR-combine: p = p1 (1 - p2) + p2 (1 - p1).
    EXPECT_NEAR(dem.edges[0].p, 0.01 * 0.98 + 0.02 * 0.99, 1e-12);
}

TEST(DemTest, InvisibleComponentsAreIgnored)
{
    // Z noise before a reset has no observable consequence at all.
    NoisyCircuit c(1);
    c.AddZError(0, 0.5);
    c.AddReset(0, 0.0);
    const int m = c.AddMeasure(0, 0.0);
    c.AddDetector({m}, {0, 0}, 0);
    const DetectorErrorModel dem = BuildDem(c);
    EXPECT_TRUE(dem.edges.empty());
}

TEST(DemTest, DepolarizeComponentsEnumerated)
{
    NoisyCircuit c(2);
    c.AddDepolarize2(0, 1, 0.15);
    const int m0 = c.AddMeasure(0, 0.0);
    const int m1 = c.AddMeasure(1, 0.0);
    c.AddDetector({m0}, {0, 0}, 0);
    c.AddDetector({m1}, {1, 0}, 0);
    const DetectorErrorModel dem = BuildDem(c);
    EXPECT_EQ(dem.num_components, 15);
    // Distinct visible signatures: {D0}, {D1}, {D0,D1}.
    EXPECT_EQ(dem.edges.size(), 3u);
    for (const auto& e : dem.edges) {
        EXPECT_GT(e.p, 0.0);
    }
}

TEST(DemTest, MeasurementFlipMakesTimelikeEdge)
{
    NoisyCircuit c(1);
    const int m0 = c.AddMeasure(0, 0.001);
    const int m1 = c.AddMeasure(0, 0.0);
    c.AddDetector({m0}, {0, 0}, 0);
    c.AddDetector({m0, m1}, {0, 0}, 1);
    const DetectorErrorModel dem = BuildDem(c);
    ASSERT_EQ(dem.edges.size(), 1u);
    EXPECT_EQ(dem.edges[0].d0, 0);
    EXPECT_EQ(dem.edges[0].d1, 1);
    EXPECT_NEAR(dem.edges[0].p, 0.001, 1e-12);
}

// ---------------------------------------------------------------------------
// DEM builder vs the forward bit-lane oracle
// ---------------------------------------------------------------------------

/** Empty when `FormatDem` of the two models agree, else the first line
 *  that differs (a plain EXPECT_EQ would diff two multi-megabyte texts
 *  line by line). */
std::string
DemDifference(const DetectorErrorModel& dem, const DetectorErrorModel& ref)
{
    const std::string a = FormatDem(dem);
    const std::string b = FormatDem(ref);
    if (a == b) {
        return "";
    }
    size_t line_start = 0;
    int line = 1;
    for (size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
        if (a[i] == '\n') {
            line_start = i + 1;
            ++line;
        }
    }
    auto line_of = [&](const std::string& text) {
        return text.substr(line_start,
                           text.find('\n', line_start) - line_start);
    };
    return "line " + std::to_string(line) + ": '" + line_of(a) +
           "' vs oracle '" + line_of(b) + "'";
}

/** A seeded random circuit over every SimOp: two-qubit ops on distinct
 *  qubits, measure/reset with and without noise, detectors that may list
 *  one record twice, and multi-record observables that may name one of
 *  the next two records before it is taken (it reads as zero then). */
NoisyCircuit
RandomCircuit(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto pick = [&](int n) { return static_cast<int>(rng() % n); };
    auto prob = [&]() { return 0.001 * (1 + pick(200)); };
    const int nq = 2 + pick(5);
    NoisyCircuit c(nq);
    auto records = [&](int n, int ahead) {
        std::vector<std::int32_t> out;
        for (int k = 0; k < n; ++k) {
            out.push_back(pick(c.num_measurements() + ahead));
        }
        return out;
    };
    const int ops = 20 + pick(60);
    for (int k = 0; k < ops; ++k) {
        const int a = pick(nq);
        const int b = (a + 1 + pick(nq - 1)) % nq;
        switch (pick(11)) {
          case 0:
            c.AddH(a);
            break;
          case 1:
            c.AddCnot(a, b);
            break;
          case 2:
            c.AddSwap(a, b);
            break;
          case 3:
            c.AddMeasure(a, pick(2) ? prob() : 0.0);
            break;
          case 4:
            c.AddReset(a, pick(2) ? prob() : 0.0);
            break;
          case 5:
            c.AddXError(a, prob());
            break;
          case 6:
            c.AddZError(a, prob());
            break;
          case 7:
            c.AddDepolarize1(a, prob());
            break;
          case 8:
            c.AddDepolarize2(a, b, prob());
            break;
          case 9:
            if (c.num_measurements() > 0) {
                std::vector<std::int32_t> targets = records(1 + pick(3), 0);
                if (pick(4) == 0) {
                    targets.push_back(targets.front());
                }
                c.AddDetector(targets, {0, 0}, 0);
            }
            break;
          default: {
            const int observable = pick(3);
            c.AddObservableInclude(observable, records(1 + pick(3), 2));
            break;
          }
        }
    }
    // Close with a noisy readout of every qubit (at least two records,
    // so every observable target exists), half of it detected.
    for (int q = 0; q < nq; ++q) {
        const int m = c.AddMeasure(q, prob());
        if (pick(2)) {
            c.AddDetector({m}, {0, 0}, 0);
        }
    }
    return c;
}

TEST(DemReferenceTest, RandomCircuitsMatchOracle)
{
    int decomposed = 0;
    int hyperedges = 0;
    int undecomposable = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE(seed);
        const NoisyCircuit c = RandomCircuit(seed);
        const DetectorErrorModel dem = BuildDem(c);
        EXPECT_EQ(DemDifference(dem, BuildDemReference(c)), "");
        decomposed += dem.num_decomposed;
        hyperedges += dem.num_hyperedges;
        undecomposable += dem.num_undecomposable;
    }
    // The corpus reaches every stage of the merge.
    EXPECT_GT(decomposed, 0);
    EXPECT_GT(hyperedges, 0);
    EXPECT_GT(undecomposable, 0);
}

TEST(DemReferenceTest, WorkloadCircuitsMatchOracle)
{
    const std::string lines[] = {
        "family=rotated distance=3 topology=grid capacity=2",
        "family=rotated distance=5 topology=grid capacity=2",
        "family=rotated distance=3 topology=linear capacity=2",
        "family=rotated distance=5 topology=linear capacity=2",
        "family=merged_zz distance=3 topology=grid capacity=2 "
        "workload=stability",
        "family=merged_zz distance=3 topology=grid capacity=2 "
        "workload=surgery",
        "workload=program program=cnot distance=3",
        "workload=program program=bell distance=3",
    };
    std::vector<core::SweepCandidate> candidates;
    for (const std::string& line : lines) {
        core::SweepCandidate candidate;
        std::string error;
        ASSERT_TRUE(core::ParseRequestCandidate(line + " shots=0",
                                                &candidate, &error))
            << line << ": " << error;
        candidates.push_back(std::move(candidate));
    }
    core::SweepRunnerOptions options;
    options.num_threads = 2;
    const std::vector<core::SweepOutcome> outcomes =
        core::SweepRunner(options).RunDetailed(candidates);
    ASSERT_EQ(outcomes.size(), candidates.size());
    for (const core::SweepOutcome& out : outcomes) {
        SCOPED_TRACE(out.label);
        ASSERT_TRUE(out.sim != nullptr) << out.metrics.error;
        EXPECT_EQ(DemDifference(out.sim->dem,
                                BuildDemReference(out.sim->experiment)),
                  "");
    }
}

}  // namespace
}  // namespace tiqec::sim
