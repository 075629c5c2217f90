/**
 * @file
 * Tests for the union-find decoder: hand-built decoding graphs, the
 * single-edge invariant on real compiled memory experiments, and
 * end-to-end logical error suppression with distance.
 */
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include <vector>

#include "compiler/compiler.h"
#include "core/request.h"
#include "core/sweep.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "qec/surgery.h"
#include "sim/dem.h"
#include "sim/frame_simulator.h"
#include "sim/memory_experiment.h"
#include "workloads/experiment.h"

namespace tiqec::decoder {
namespace {

using sim::DemEdge;
using sim::DetectorErrorModel;

/** Repetition-code style chain: D0 - D1 - D2 with boundaries on both
 *  ends; the left boundary edge carries the observable. */
DetectorErrorModel
ChainDem()
{
    DetectorErrorModel dem;
    dem.num_detectors = 3;
    dem.num_observables = 1;
    dem.edges.push_back({0, DemEdge::kBoundary, 0.01, 1});
    dem.edges.push_back({0, 1, 0.01, 0});
    dem.edges.push_back({1, 2, 0.01, 0});
    dem.edges.push_back({2, DemEdge::kBoundary, 0.01, 0});
    return dem;
}

TEST(UnionFindDecoderTest, EmptySyndromeNoCorrection)
{
    UnionFindDecoder decoder(ChainDem());
    EXPECT_EQ(decoder.Decode({}), 0u);
}

TEST(UnionFindDecoderTest, AdjacentPairMatchesDirectEdge)
{
    UnionFindDecoder decoder(ChainDem());
    EXPECT_EQ(decoder.Decode({0, 1}), 0u);
    EXPECT_EQ(decoder.Decode({1, 2}), 0u);
}

TEST(UnionFindDecoderTest, SingleDefectNearBoundaryDrains)
{
    UnionFindDecoder decoder(ChainDem());
    // Defect at 0: the nearest boundary edge flips the observable.
    EXPECT_EQ(decoder.Decode({0}), 1u);
    // Defect at 2: drains right without flipping.
    EXPECT_EQ(decoder.Decode({2}), 0u);
}

TEST(UnionFindDecoderTest, RepeatedDecodesAreIndependent)
{
    UnionFindDecoder decoder(ChainDem());
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(decoder.Decode({0, 1}), 0u);
        EXPECT_EQ(decoder.Decode({0}), 1u);
        EXPECT_EQ(decoder.Decode({}), 0u);
    }
}

TEST(UnionFindDecoderTest, OddClusterWithoutBoundaryThrows)
{
    // Two detectors joined by a single edge and no boundary edge: an
    // even syndrome decodes, an odd one can never settle and must fail
    // loudly instead of silently returning a partial correction.
    DetectorErrorModel dem;
    dem.num_detectors = 2;
    dem.num_observables = 1;
    dem.edges.push_back({0, 1, 0.01, 1});
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.Decode({0, 1}), 1u);
    EXPECT_THROW(decoder.Decode({0}), std::runtime_error);
    EXPECT_THROW(decoder.Decode({1}), std::runtime_error);
    // The throwing path must leave the scratch clean.
    EXPECT_EQ(decoder.Decode({0, 1}), 1u);
    EXPECT_EQ(decoder.Decode({}), 0u);
}

TEST(UnionFindDecoderTest, MalformedSyndromesAreRejected)
{
    UnionFindDecoder decoder(ChainDem());
    // A detector listed twice has even parity: it is not one defect.
    try {
        decoder.Decode({2, 2});
        ADD_FAILURE() << "repeated detector accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(),
                     "UnionFindDecoder: syndrome detector 2 is listed "
                     "twice");
    }
    for (const int bad : {3, -1}) {
        try {
            decoder.Decode({0, bad});
            ADD_FAILURE() << "out-of-range detector " << bad
                          << " accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()),
                      "UnionFindDecoder: syndrome detector " +
                          std::to_string(bad) +
                          " is out of range [0, 3)");
        }
    }
    // Both rejections leave the scratch clean.
    EXPECT_EQ(decoder.Decode({0}), 1u);
    EXPECT_EQ(decoder.Decode({0, 1}), 0u);
    EXPECT_EQ(decoder.Decode({2}), 0u);
}

TEST(UnionFindDecoderTest, DecodeBatchMatchesScalarOnHandPackedChain)
{
    UnionFindDecoder decoder(ChainDem());
    // 70 shots: shot 0 fires {0} (obs flip), shot 1 fires {0, 1},
    // shot 65 fires {2}; everything else is trivial.
    sim::SampleBatch batch(70, 3, 1);
    batch.SetDetectorWord(0, 0, (1ULL << 0) | (1ULL << 1));
    batch.SetDetectorWord(1, 0, 1ULL << 1);
    batch.SetDetectorWord(2, 1, 1ULL << 1);
    std::vector<std::uint64_t> predictions;
    const auto outcome = decoder.DecodeBatch(batch, predictions);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.decoded_shots, 3);
    ASSERT_EQ(predictions.size(), 2u);
    EXPECT_EQ(predictions[0], 1ULL << 0);  // only shot 0 flips obs 0
    EXPECT_EQ(predictions[1], 0u);
}

TEST(UnionFindDecoderTest, FullChainParity)
{
    UnionFindDecoder decoder(ChainDem());
    // Defects at both ends: either both drain to their boundaries
    // (obs = 1) or connect through the middle (obs = 0); with unit
    // weights both have length 2, and the decoder must pick one
    // consistently rather than half of each.
    const std::uint32_t obs = decoder.Decode({0, 2});
    EXPECT_TRUE(obs == 0u || obs == 1u);
}

/** Builds the DEM of a compiled memory experiment. */
struct CompiledDem
{
    DetectorErrorModel dem;
    sim::NoisyCircuit circuit{0};
};

CompiledDem
BuildCompiledDem(int distance, int rounds, double improvement)
{
    CompiledDem out;
    const qec::RotatedSurfaceCode code(distance);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    EXPECT_TRUE(result.ok) << result.error;
    noise::NoiseParams params;
    params.gate_improvement = improvement;
    const auto profile =
        noise::AnnotateRound(code, graph, result, params, timing);
    out.circuit = sim::BuildMemoryZ(code, result.qec_circuit, profile,
                                    params, rounds);
    out.dem = sim::BuildDem(out.circuit);
    return out;
}

TEST(UnionFindDecoderTest, SingleEdgeInvariantOnCompiledDem)
{
    // Decoding the syndrome of any single DEM edge must reproduce that
    // edge's observable effect - the property that guarantees first-order
    // errors are always corrected.
    for (const int d : {3, 5}) {
        const CompiledDem compiled = BuildCompiledDem(d, d, 10.0);
        UnionFindDecoder decoder(compiled.dem);
        for (const auto& e : compiled.dem.edges) {
            std::vector<int> syndrome = {e.d0};
            if (e.d1 != DemEdge::kBoundary) {
                syndrome.push_back(e.d1);
            }
            EXPECT_EQ(decoder.Decode(syndrome), e.obs_mask)
                << "d=" << d << " edge (" << e.d0 << "," << e.d1 << ")";
        }
    }
}

TEST(UnionFindDecoderTest, NoConflictingParallelEdges)
{
    const CompiledDem compiled = BuildCompiledDem(3, 3, 5.0);
    std::map<std::pair<int, int>, std::uint32_t> seen;
    for (const auto& e : compiled.dem.edges) {
        const auto key = std::make_pair(e.d0, e.d1);
        const auto it = seen.find(key);
        EXPECT_TRUE(it == seen.end())
            << "parallel edges left in DEM at (" << e.d0 << "," << e.d1
            << ")";
        seen[key] = e.obs_mask;
    }
}

// ---------------------------------------------------------------------------
// Correlated second stage: hyperedge arbitration on hand-built DEMs
// ---------------------------------------------------------------------------

/** Two disjoint elementary edges plus one correlated mechanism whose
 *  true action flips obs 0 while its decomposition XOR is 0. */
DetectorErrorModel
HyperedgeDem()
{
    DetectorErrorModel dem;
    dem.num_detectors = 4;
    dem.num_observables = 1;
    dem.edges.push_back({0, 1, 0.01, 0});
    dem.edges.push_back({2, 3, 0.01, 0});
    dem.hyperedges.push_back({{0, 1, 2, 3}, {0, 1}, 0.001, 1, 0});
    dem.num_hyperedges = 1;
    return dem;
}

TEST(CorrelatedDecodeTest, ResidualAppliedWhenDecompositionRealised)
{
    // Mechanism odds 1e-3 beat the independent-edges odds ~1e-4, so the
    // winning interpretation of the realised pair {e0, e1} is the
    // mechanism, and its residual (obs 1) must be re-applied.
    UnionFindDecoder decoder(HyperedgeDem());
    EXPECT_EQ(decoder.num_active_hyperedges(), 1);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 1u);
    // A partial realisation is NOT the mechanism: one pair alone keeps
    // the elementary interpretation.
    EXPECT_EQ(decoder.Decode({0, 1}), 0u);
    EXPECT_EQ(decoder.Decode({2, 3}), 0u);
    // The stage-2 scratch must reset between decodes.
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 1u);
}

TEST(CorrelatedDecodeTest, BaselineWinsWhenEdgesMoreProbable)
{
    DetectorErrorModel dem = HyperedgeDem();
    // Make the independent-edges interpretation the more probable one
    // (odds ~0.11 vs 1e-3): the mechanism loses arbitration statically.
    dem.edges[0].p = 0.25;
    dem.edges[1].p = 0.25;
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.num_active_hyperedges(), 0);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 0u);
}

TEST(CorrelatedDecodeTest, ConsistentMechanismVetoesResidual)
{
    DetectorErrorModel dem = HyperedgeDem();
    // A more probable variant of a second mechanism shares the edge set
    // but its true action matches the decomposition XOR: it wins the
    // arbitration and the inconsistent mechanism must not fire.
    dem.hyperedges.push_back({{0, 1, 2, 3}, {0, 1}, 0.005, 0, 1});
    dem.num_hyperedges = 2;
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.num_active_hyperedges(), 0);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 0u);
}

TEST(CorrelatedDecodeTest, CorrelatedOffGivesElementaryBaseline)
{
    UnionFindDecoder decoder(HyperedgeDem(),
                             UnionFindDecoder::Options{false});
    EXPECT_EQ(decoder.num_active_hyperedges(), 0);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 0u);
}

TEST(CorrelatedDecodeTest, ClaimedEdgesBlockOverlappingMechanisms)
{
    DetectorErrorModel dem;
    dem.num_detectors = 6;
    dem.num_observables = 2;
    dem.edges.push_back({0, 1, 0.01, 0});
    dem.edges.push_back({2, 3, 0.01, 0});
    dem.edges.push_back({4, 5, 0.01, 0});
    // Mechanism 0 (p .002) decomposes onto {e0, e1}, mechanism 1
    // (p .001) onto {e1, e2}; both realised, but e1 can only be claimed
    // once — the higher-probability mechanism wins and the overlapping
    // one must not apply its residual on half-claimed evidence.
    dem.hyperedges.push_back({{0, 1, 2, 3}, {0, 1}, 0.002, 1, 0});
    dem.hyperedges.push_back({{2, 3, 4, 5}, {1, 2}, 0.001, 2, 1});
    dem.num_hyperedges = 2;
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.num_active_hyperedges(), 2);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3, 4, 5}), 1u);
    // With only mechanism 1's decomposition realised, it fires.
    EXPECT_EQ(decoder.Decode({2, 3, 4, 5}), 2u);
}

/** On the compiled d=3 surgery DEM, decoding each hyperedge mechanism's
 *  own detector signature must reproduce the mechanism's observable
 *  action for strictly more mechanisms with the correlated stage than
 *  without it (the mechanisms are exactly the signatures the elementary
 *  graph mislabels). */
TEST(CorrelatedDecodeTest, RecoversMechanismActionsOnCompiledSurgeryDem)
{
    const qec::MergedPatchCode code(3, qec::SurgeryParity::kXX);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(result.ok) << result.error;
    noise::NoiseParams params;
    params.gate_improvement = 1.0;
    const auto profile =
        noise::AnnotateRound(code, graph, result, params, timing);
    workloads::WorkloadSpec spec(workloads::WorkloadKind::kSurgery,
                                 sim::MemoryBasis::kZ);
    const sim::NoisyCircuit circuit = workloads::BuildExperiment(
        code, result.qec_circuit, profile, params, 3, spec);
    const DetectorErrorModel dem = sim::BuildDem(circuit);
    ASSERT_GT(dem.num_hyperedges, 0);

    UnionFindDecoder correlated(dem);
    UnionFindDecoder plain(dem, UnionFindDecoder::Options{false});
    EXPECT_GT(correlated.num_active_hyperedges(), 0);
    int correlated_correct = 0;
    int plain_correct = 0;
    int last_mechanism = -1;
    for (const auto& h : dem.hyperedges) {
        if (h.mechanism == last_mechanism) {
            continue;  // one decode per mechanism, not per variant
        }
        last_mechanism = h.mechanism;
        std::vector<int> syndrome(h.dets.begin(), h.dets.end());
        correlated_correct += correlated.Decode(syndrome) == h.obs_mask;
        plain_correct += plain.Decode(syndrome) == h.obs_mask;
    }
    EXPECT_GT(correlated_correct, plain_correct);
}

// ---------------------------------------------------------------------------
// Golden prediction digests: exact DecodeBatch output on fixed-seed batches
// ---------------------------------------------------------------------------

/** FNV-1a-64 over the little-endian bytes of `word`. */
std::uint64_t
Fnv1a(std::uint64_t hash, std::uint64_t word)
{
    for (int b = 0; b < 8; ++b) {
        hash ^= (word >> (8 * b)) & 0xFF;
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

/** The experiment + DEM of one request line (the sweep's build-sim
 *  stage; the request's own Monte-Carlo budget is a token 64 shots). */
std::shared_ptr<const core::SimArtifacts>
SimArtifactsFor(const std::string& line)
{
    core::SweepCandidate candidate;
    std::string error;
    EXPECT_TRUE(core::ParseRequestCandidate(
        line + " shots=64 target_errors=0", &candidate, &error))
        << error;
    core::SweepRunnerOptions opts;
    opts.num_threads = 1;
    const auto outcomes = core::SweepRunner(opts).RunDetailed({candidate});
    EXPECT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].metrics.ok) << outcomes[0].metrics.error;
    return outcomes[0].sim;
}

/** Digest of a fresh correlated decoder's DecodeBatch over 8,192 shots
 *  sampled at `seed`: FNV-1a-64 of every prediction plane word, then of
 *  decoded_shots. */
std::uint64_t
PredictionDigest(const core::SimArtifacts& sim, std::uint64_t seed,
                 UnionFindDecoder::BatchOutcome* outcome = nullptr)
{
    sim::FrameSimulator simulator(sim.experiment, seed);
    const sim::SampleBatch batch = simulator.Sample(8192);
    UnionFindDecoder decoder(sim.dem);
    std::vector<std::uint64_t> predictions;
    const auto out = decoder.DecodeBatch(batch, predictions);
    EXPECT_TRUE(out.completed);
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (const std::uint64_t word : predictions) {
        hash = Fnv1a(hash, word);
    }
    hash = Fnv1a(hash, static_cast<std::uint64_t>(out.decoded_shots));
    if (outcome != nullptr) {
        *outcome = out;
    }
    return hash;
}

/**
 * Pins the exact predictions of the production (correlated) decoder on
 * every experiment shape the LER requests decode: memory at d=3/5/7 on
 * the grid at 1X and 5X, a dense linear-capacity-3 DEM, surgery,
 * stability and the cnot/bell programs. A decoder optimisation must
 * leave every digest unchanged; a deliberate change in decoded output
 * must re-record them and say why.
 */
TEST(GoldenDecodeTest, PredictionDigestsArePinned)
{
    struct Golden
    {
        const char* line;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {"family=rotated distance=3 topology=grid capacity=2",
         0xb00b7fbe56f19b5aULL},
        {"family=rotated distance=3 topology=grid capacity=2 "
         "improvement=5",
         0x8d2842c76fac3f02ULL},
        {"family=rotated distance=5 topology=grid capacity=2",
         0xba1398b1801c5279ULL},
        {"family=rotated distance=5 topology=grid capacity=2 "
         "improvement=5",
         0x1107be43217a2ddbULL},
        {"family=rotated distance=7 topology=grid capacity=2",
         0x967ace37c606bbceULL},
        {"family=rotated distance=7 topology=grid capacity=2 "
         "improvement=5",
         0xba37b0bc17ecaf3aULL},
        {"family=rotated distance=5 topology=linear capacity=3",
         0x1dbd0ac9dfd385c4ULL},
        {"family=rotated distance=5 topology=linear capacity=2",
         0xdb8b521f22d6c5f9ULL},
        {"family=merged_zz distance=3 topology=grid capacity=2 "
         "workload=surgery",
         0xafd87b3cb8d9ec84ULL},
        {"family=merged_zz distance=5 topology=grid capacity=2 "
         "workload=surgery",
         0x5c898c93adc964beULL},
        {"family=merged_xx distance=3 topology=grid capacity=2 "
         "workload=surgery",
         0x52e150371800498cULL},
        {"family=merged_zz distance=3 topology=grid capacity=2 "
         "workload=stability",
         0xf89d0539c4fa90fcULL},
        {"workload=program program=cnot distance=3",
         0x93ec3eadb07e7464ULL},
        {"workload=program program=bell distance=3",
         0x2850f64a482ceb71ULL},
    };
    for (const Golden& g : goldens) {
        const auto sim = SimArtifactsFor(g.line);
        ASSERT_NE(sim, nullptr) << g.line;
        const std::uint64_t digest = PredictionDigest(*sim, 0x601D);
        EXPECT_EQ(digest, g.digest)
            << g.line << ": digest 0x" << std::hex << digest;
    }
}

/** DecodeBatch's deterministic work counters on the d=5 1X memory batch
 *  (no active stage-2 entry) and on the densest stage-2 DEM, d=5 linear
 *  capacity 2: growth is unchanged by forest optimisations, the forest
 *  settles only the nodes the peel can use, and stage 2 claims the same
 *  entries however it finds them. */
TEST(GoldenDecodeTest, WorkCountersArePinned)
{
    struct Pin
    {
        const char* line;
        std::int64_t decoded_shots;
        std::int64_t grown_edges;
        std::int64_t forest_nodes;
        std::int64_t stage2_claims;
    };
    const Pin pins[] = {
        {"family=rotated distance=5 topology=grid capacity=2", 7873, 295905,
         80241, 0},
        {"family=rotated distance=5 topology=linear capacity=2", 8192,
         1891546, 796014, 67},
        {"family=merged_zz distance=3 topology=grid capacity=2 "
         "workload=surgery",
         6549, 118241, 29627, 260},
    };
    for (const Pin& pin : pins) {
        const auto sim = SimArtifactsFor(pin.line);
        ASSERT_NE(sim, nullptr) << pin.line;
        UnionFindDecoder::BatchOutcome outcome;
        PredictionDigest(*sim, 0x601D, &outcome);
        EXPECT_EQ(outcome.decoded_shots, pin.decoded_shots) << pin.line;
        EXPECT_EQ(outcome.grown_edges, pin.grown_edges) << pin.line;
        EXPECT_EQ(outcome.forest_nodes, pin.forest_nodes) << pin.line;
        EXPECT_EQ(outcome.stage2_claims, pin.stage2_claims) << pin.line;
    }
}

TEST(LogicalErrorTest, SuppressionWithDistance)
{
    // End-to-end: at 10X gate improvement on the capacity-2 grid, the
    // logical error rate must drop by at least 2x from d=3 to d=5
    // (paper Figure 10's sub-threshold behaviour).
    double ler[2] = {0, 0};
    const int dists[2] = {3, 5};
    for (int i = 0; i < 2; ++i) {
        const CompiledDem compiled =
            BuildCompiledDem(dists[i], dists[i], 10.0);
        UnionFindDecoder decoder(compiled.dem);
        sim::FrameSimulator simulator(compiled.circuit, 99);
        const int shots = 60000;
        const sim::SampleBatch batch = simulator.Sample(shots);
        int errors = 0;
        for (int s = 0; s < shots; ++s) {
            const std::uint32_t predicted =
                decoder.Decode(batch.SyndromeOf(s));
            const std::uint32_t actual = batch.Observable(0, s) ? 1 : 0;
            errors += (predicted ^ actual) & 1;
        }
        ler[i] = static_cast<double>(errors) / shots;
    }
    EXPECT_GT(ler[0], 0.0) << "d=3 should show some logical errors";
    EXPECT_LT(ler[1], 0.5 * ler[0])
        << "logical error rate must be suppressed with distance";
}

TEST(LogicalErrorTest, DecodingBeatsNotDecoding)
{
    const CompiledDem compiled = BuildCompiledDem(3, 3, 1.0);
    UnionFindDecoder decoder(compiled.dem);
    sim::FrameSimulator simulator(compiled.circuit, 123);
    const int shots = 20000;
    const sim::SampleBatch batch = simulator.Sample(shots);
    int with_decoder = 0;
    int without = 0;
    for (int s = 0; s < shots; ++s) {
        const std::uint32_t predicted = decoder.Decode(batch.SyndromeOf(s));
        const std::uint32_t actual = batch.Observable(0, s) ? 1 : 0;
        with_decoder += (predicted ^ actual) & 1;
        without += actual;
    }
    EXPECT_LT(with_decoder, without);
}

}  // namespace
}  // namespace tiqec::decoder
