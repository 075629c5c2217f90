/**
 * @file
 * Robustness and stress tests across the stack: randomized multi-error
 * decoding checks, repetition-code logical memory, failure injection
 * (degenerate devices, saturated noise), and broader compile sweeps
 * covering rectangular patches and WISE scheduling.
 */
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "analysis/distance_certifier.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "core/request.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "sim/dem.h"
#include "sim/frame_simulator.h"
#include "sim/memory_experiment.h"
#include "store/service.h"

namespace tiqec {
namespace {

using qccd::TimingModel;
using qccd::TopologyKind;

sim::DetectorErrorModel
CompiledDem(const qec::StabilizerCode& code, int rounds, double improvement)
{
    const TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    EXPECT_TRUE(result.ok) << result.error;
    noise::NoiseParams params;
    params.gate_improvement = improvement;
    const auto profile =
        noise::AnnotateRound(code, graph, result, params, timing);
    const auto experiment = sim::BuildMemoryZ(code, result.qec_circuit,
                                              profile, params, rounds);
    return sim::BuildDem(experiment);
}

TEST(DecoderStressTest, RandomEdgePairsDecodeConsistently)
{
    // Two simultaneous independent error mechanisms: the decoder must
    // predict the XOR of their observable effects whenever their
    // syndromes do not interact (disjoint detector sets with graph
    // distance > 2). Interacting pairs are legitimately ambiguous.
    const qec::RotatedSurfaceCode code(5);
    const auto dem = CompiledDem(code, 5, 10.0);
    decoder::UnionFindDecoder decoder(dem);
    // Detector adjacency for the interaction filter.
    std::vector<std::set<int>> adjacent(dem.num_detectors);
    for (const auto& e : dem.edges) {
        if (e.d1 != sim::DemEdge::kBoundary) {
            adjacent[e.d0].insert(e.d1);
            adjacent[e.d1].insert(e.d0);
        }
    }
    auto interacts = [&](const std::set<int>& a, const std::set<int>& b) {
        for (const int d : a) {
            if (b.count(d)) {
                return true;
            }
            for (const int n : adjacent[d]) {
                if (b.count(n)) {
                    return true;
                }
            }
        }
        return false;
    };
    Rng rng(1234);
    int tested = 0;
    int failures = 0;
    for (int trial = 0; trial < 4000 && tested < 600; ++trial) {
        const auto& e1 = dem.edges[rng.NextBelow(dem.edges.size())];
        const auto& e2 = dem.edges[rng.NextBelow(dem.edges.size())];
        std::set<int> s1 = {e1.d0};
        if (e1.d1 != sim::DemEdge::kBoundary) {
            s1.insert(e1.d1);
        }
        std::set<int> s2 = {e2.d0};
        if (e2.d1 != sim::DemEdge::kBoundary) {
            s2.insert(e2.d1);
        }
        if (interacts(s1, s2)) {
            continue;
        }
        std::vector<int> syndrome(s1.begin(), s1.end());
        syndrome.insert(syndrome.end(), s2.begin(), s2.end());
        std::sort(syndrome.begin(), syndrome.end());
        const std::uint32_t expected = e1.obs_mask ^ e2.obs_mask;
        failures += decoder.Decode(syndrome) != expected ? 1 : 0;
        ++tested;
    }
    ASSERT_GE(tested, 300) << "filter too aggressive";
    // Far-separated pairs must essentially always decode correctly.
    EXPECT_LE(failures, tested / 50)
        << failures << " of " << tested << " disjoint pairs misdecoded";
}

TEST(DecoderStressTest, DecoderNeverCrashesOnRandomSyndromes)
{
    const qec::RotatedSurfaceCode code(3);
    const auto dem = CompiledDem(code, 3, 5.0);
    decoder::UnionFindDecoder decoder(dem);
    Rng rng(99);
    for (int trial = 0; trial < 2000; ++trial) {
        std::set<int> syndrome;
        const int weight = 1 + static_cast<int>(rng.NextBelow(8));
        while (static_cast<int>(syndrome.size()) < weight) {
            syndrome.insert(
                static_cast<int>(rng.NextBelow(dem.num_detectors)));
        }
        const std::vector<int> s(syndrome.begin(), syndrome.end());
        const std::uint32_t obs = decoder.Decode(s);
        EXPECT_LE(obs, 1u);
    }
}

TEST(RepetitionMemoryTest, StrongSuppression)
{
    // The repetition code only fights bit flips, so its memory-Z
    // suppression is much stronger than the surface code's at equal
    // distance - a sanity anchor for the whole pipeline.
    double ler[2] = {0, 0};
    const int dists[2] = {3, 7};
    for (int i = 0; i < 2; ++i) {
        const qec::RepetitionCode code(dists[i]);
        core::ArchitectureConfig arch;
        arch.topology = TopologyKind::kLinear;
        arch.gate_improvement = 5.0;
        core::EvaluationOptions opts;
        opts.max_shots = 1 << 15;
        opts.target_logical_errors = 1 << 30;
        const auto m = core::Evaluate(code, arch, opts);
        ASSERT_TRUE(m.ok) << m.error;
        ler[i] = m.ler_per_shot.rate;
    }
    EXPECT_LT(ler[1], ler[0] + 1e-4);
}

TEST(FailureInjectionTest, SaturatedNoiseStillDecodes)
{
    // Error probabilities near the clamp: nothing crashes and the LER
    // approaches the 50% coin-flip ceiling instead of exceeding it.
    const qec::RotatedSurfaceCode code(3);
    const TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(result.ok);
    noise::NoiseParams params;
    params.a0 = 0.3;  // absurdly hot
    params.p_reset = 0.4;
    params.p_measure = 0.4;
    const auto profile =
        noise::AnnotateRound(code, graph, result, params, timing);
    const auto experiment = sim::BuildMemoryZ(code, result.qec_circuit,
                                              profile, params, 3);
    const auto dem = sim::BuildDem(experiment);
    decoder::UnionFindDecoder decoder(dem);
    sim::FrameSimulator simulator(experiment, 5);
    const auto batch = simulator.Sample(4000);
    int errors = 0;
    for (int s = 0; s < batch.shots(); ++s) {
        const std::uint32_t predicted = decoder.Decode(batch.SyndromeOf(s));
        errors += (predicted ^ (batch.Observable(0, s) ? 1 : 0)) & 1;
    }
    const double ler = static_cast<double>(errors) / batch.shots();
    EXPECT_GT(ler, 0.2);
    EXPECT_LT(ler, 0.65);
}

TEST(FailureInjectionTest, TinyDeviceRejectedCleanly)
{
    const qec::RotatedSurfaceCode code(5);
    const TimingModel timing;
    const auto graph = qccd::DeviceGraph::MakeGrid(2, 2, 2);
    const auto result =
        compiler::CompileParityCheckRounds(code, 1, graph, timing);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("too few traps"), std::string::npos);
}

/** Device synthesis divides by (capacity - 1); a capacity below 2 must
 *  throw instead of dividing by zero, on every path that sizes a device
 *  (the reference compile in tiqec_certify included). */
TEST(FailureInjectionTest, CapacityBelowTwoRejectedBySynthesis)
{
    const qec::RotatedSurfaceCode code(3);
    for (const int capacity : {1, 0, -3}) {
        EXPECT_THROW(compiler::MakeDeviceFor(code, TopologyKind::kGrid,
                                             capacity),
                     std::invalid_argument)
            << capacity;
    }
}

/** A trap capacity far beyond the ion count (up to INT_MAX) compiles
 *  onto one trap. The router's chain arena and the cluster-count
 *  ceiling divisions must not do `int` arithmetic on the raw capacity:
 *  an overflow there crashes the whole batch. */
TEST(FailureInjectionTest, HugeCapacityCompilesInsteadOfCrashing)
{
    std::string batch;
    for (const char* capacity : {"1073741824", "2147483647"}) {
        for (const char* shape :
             {"", "topology=linear wiring=wise", "topology=switch"}) {
            batch += std::string("family=rotated distance=3 shots=64 ") +
                     "capacity=" + capacity + " " + shape + "\n";
        }
        batch += std::string("family=merged_zz distance=3 workload=surgery "
                             "shots=0 validate=1 certify=1 capacity=") +
                 capacity + "\n";
    }
    const store::SweepServiceResult result =
        store::RunSweepService(batch, store::SweepServiceOptions{});
    ASSERT_EQ(result.num_requests, 8);
    for (const std::string& line : result.result_lines) {
        EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
        EXPECT_NE(line.find("\"num_traps_used\":1,"), std::string::npos)
            << line;
    }
}

/** A linear-device d=5 memory DEM (~27k mechanisms, ~370M mechanism
 *  pairs) is past the certifier's meet-in-the-middle size cap: the
 *  fallback is skipped and the request fails cleanly on the
 *  `dem.distance` rule instead of exhausting memory. */
TEST(FailureInjectionTest, OversizedCertifyFallbackFailsCleanly)
{
    core::SweepCandidate candidate;
    std::string error;
    ASSERT_TRUE(core::ParseRequestCandidate(
        "family=rotated distance=5 topology=linear capacity=2 shots=0 "
        "certify=1",
        &candidate, &error))
        << error;
    core::SweepRunner runner(core::SweepRunnerOptions{});
    const std::vector<core::SweepOutcome> outcomes =
        runner.RunDetailed({candidate});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].metrics.ok);
    EXPECT_NE(outcomes[0].metrics.error.find("dem.distance"),
              std::string::npos)
        << outcomes[0].metrics.error;
    ASSERT_NE(outcomes[0].sim, nullptr);
    EXPECT_EQ(analysis::CertifyDistance(outcomes[0].sim->dem).mitm_pairs, 0);
}

/** Non-physical parameters and negative budgets are request errors with
 *  pinned texts naming the key, and the error line keeps the label. */
TEST(RequestDomainTest, NonPhysicalValuesRejectedWithPinnedText)
{
    const std::pair<std::string, std::string> cases[] = {
        {"improvement=0", "improvement must be finite and > 0, got '0'"},
        {"improvement=-1", "improvement must be finite and > 0, got '-1'"},
        {"improvement=nan",
         "improvement must be finite and > 0, got 'nan'"},
        {"improvement=inf",
         "improvement must be finite and > 0, got 'inf'"},
        {"shots=-5", "shots must be >= 0, got '-5'"},
        {"target_errors=-1", "target_errors must be >= 0, got '-1'"},
        // Omitting `rounds` selects the distance; an explicit count must
        // not silently fall back to it.
        {"rounds=0", "rounds must be >= 1, got '0'"},
        {"rounds=-1", "rounds must be >= 1, got '-1'"},
        {"rounds=-2", "rounds must be >= 1, got '-2'"},
        {"compile_rounds=0", "compile_rounds must be >= 1, got '0'"},
        {"compile_rounds=-3", "compile_rounds must be >= 1, got '-3'"},
    };
    for (const auto& [token, text] : cases) {
        SCOPED_TRACE(token);
        const std::string line =
            "family=rotated distance=3 " + token + " label=bad";
        core::SweepCandidate candidate;
        std::string error;
        EXPECT_FALSE(core::ParseRequestCandidate(line, &candidate, &error));
        EXPECT_EQ(error, text);

        const store::SweepServiceResult result =
            store::RunSweepService(line + "\n", store::SweepServiceOptions{});
        ASSERT_EQ(result.result_lines.size(), 1u);
        EXPECT_EQ(result.result_lines[0],
                  "{\"label\":\"bad\",\"request\":\"" + line +
                      "\",\"ok\":false,\"error\":\"request parse: " +
                      text + "\"}");
    }
    // The boundaries stay valid: zero budgets, any positive factor.
    for (const std::string token : {"shots=0", "target_errors=0",
                                    "improvement=0.5", "rounds=1",
                                    "compile_rounds=1"}) {
        core::SweepCandidate candidate;
        std::string error;
        EXPECT_TRUE(core::ParseRequestCandidate(
            "family=rotated distance=3 " + token, &candidate, &error))
            << token << ": " << error;
    }
}

/** `EvaluationOptions::rounds` is -1 (the code distance) or a positive
 *  count; anything else fails the candidate with a pinned text. */
TEST(RequestDomainTest, NonPositiveRoundsRejectedBySweep)
{
    const qec::RotatedSurfaceCode code(3);
    core::EvaluationOptions options;
    options.compile_only = true;
    for (const int rounds : {0, -2}) {
        options.rounds = rounds;
        const core::Metrics m = core::Evaluate(code, {}, options);
        EXPECT_FALSE(m.ok) << rounds;
        EXPECT_EQ(m.error, "rounds must be -1 (the code distance) or >= 1, "
                           "got " + std::to_string(rounds));
    }
    for (const int rounds : {-1, 1}) {
        options.rounds = rounds;
        const core::Metrics m = core::Evaluate(code, {}, options);
        EXPECT_TRUE(m.ok) << rounds << ": " << m.error;
    }
}

struct SweepCase
{
    int dx;
    int dy;
    TopologyKind topology;
    int capacity;
    bool wise;
};

class ExtendedCompileSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(ExtendedCompileSweep, CompilesValidates)
{
    const SweepCase& c = GetParam();
    const qec::RectangularSurfaceCode code(c.dx, c.dy);
    const TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, c.topology, c.capacity);
    compiler::CompilerOptions options;
    options.wise = c.wise;
    if (c.wise) {
        options.cooling_per_two_qubit_gate =
            timing.cooling_per_two_qubit_gate;
    }
    const auto result =
        compiler::CompileParityCheckRounds(code, 1, graph, timing, options);
    ASSERT_TRUE(result.ok) << result.error;
    qccd::DeviceState state(graph, code.num_qubits());
    for (int q = 0; q < code.num_qubits(); ++q) {
        state.LoadIon(QubitId(q), result.placement.qubit_trap[q]);
    }
    for (const auto& op : result.routing.ops) {
        const auto err = state.TryApply(op);
        ASSERT_FALSE(err.has_value()) << *err;
    }
    EXPECT_TRUE(state.TransportComponentsEmpty());
}

INSTANTIATE_TEST_SUITE_P(
    Rectangles, ExtendedCompileSweep,
    ::testing::Values(
        SweepCase{5, 3, TopologyKind::kGrid, 2, false},
        SweepCase{3, 5, TopologyKind::kGrid, 2, false},
        SweepCase{7, 3, TopologyKind::kGrid, 2, false},
        SweepCase{7, 3, TopologyKind::kGrid, 5, false},
        SweepCase{5, 3, TopologyKind::kSwitch, 2, false},
        SweepCase{5, 3, TopologyKind::kGrid, 2, true},
        SweepCase{3, 3, TopologyKind::kGrid, 2, true},
        SweepCase{3, 3, TopologyKind::kGrid, 12, true},
        SweepCase{4, 6, TopologyKind::kGrid, 3, false}),
    [](const auto& info) {
        const SweepCase& c = info.param;
        return "dx" + std::to_string(c.dx) + "dy" + std::to_string(c.dy) +
               "_" + qccd::TopologyKindName(c.topology) + "_c" +
               std::to_string(c.capacity) + (c.wise ? "_wise" : "");
    });

}  // namespace
}  // namespace tiqec
