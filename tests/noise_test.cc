/**
 * @file
 * Unit tests for the trapped-ion noise model and the schedule-to-noise
 * annotator (heating tracking, idle windows, per-gate attribution).
 */
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "noise/annotator.h"
#include "noise/noise_model.h"

namespace tiqec::noise {
namespace {

using qccd::TimingModel;
using qccd::TopologyKind;

TEST(NoiseModelTest, ThermalFactorDecreasesWithChainSize)
{
    const NoiseParams p;
    EXPECT_GT(p.ThermalFactor(2), p.ThermalFactor(5));
    EXPECT_GT(p.ThermalFactor(5), p.ThermalFactor(20));
    // N = 1 is clamped to the N = 2 value (a single ion still has a mode).
    EXPECT_DOUBLE_EQ(p.ThermalFactor(1), p.ThermalFactor(2));
}

TEST(NoiseModelTest, TwoQubitErrorGrowsWithHeating)
{
    const NoiseParams p;
    const double cold = p.TwoQubitError(40.0, 2, 0.1);
    const double hot = p.TwoQubitError(40.0, 2, 6.0);
    EXPECT_GT(hot, 2.0 * cold);
}

TEST(NoiseModelTest, GateImprovementDividesErrors)
{
    NoiseParams p1;
    NoiseParams p10 = p1;
    p10.gate_improvement = 10.0;
    EXPECT_NEAR(p1.TwoQubitError(40.0, 2, 1.0),
                10.0 * p10.TwoQubitError(40.0, 2, 1.0), 1e-12);
    EXPECT_NEAR(p1.MeasureError(), 10.0 * p10.MeasureError(), 1e-12);
    EXPECT_NEAR(p1.ResetError(), 10.0 * p10.ResetError(), 1e-12);
}

TEST(NoiseModelTest, CalibrationFiveXGivesAboutOneEMinusThree)
{
    // Paper §5.1: "A 5X improvement in our setup corresponds to ~1e-3
    // depolarising error rates per qubit gate" in the post-movement
    // steady state (n-bar at the split/merge bound).
    NoiseParams p;
    p.gate_improvement = 5.0;
    const double err = p.TwoQubitError(40.0, 2, 6.0);
    EXPECT_GT(err, 0.4e-3);
    EXPECT_LT(err, 2.0e-3);
}

TEST(NoiseModelTest, SingleQubitGatesAreBetterThanTwoQubit)
{
    const NoiseParams p;
    EXPECT_LT(p.SingleQubitError(5.0, 2, 1.0),
              0.2 * p.TwoQubitError(40.0, 2, 1.0));
}

TEST(NoiseModelTest, IdleDephasing)
{
    const NoiseParams p;
    EXPECT_DOUBLE_EQ(p.IdleDephasing(0.0), 0.0);
    EXPECT_DOUBLE_EQ(p.IdleDephasing(-5.0), 0.0);
    // Short windows: p ~ t / (2 T2).
    EXPECT_NEAR(p.IdleDephasing(2.2), 0.5e-6, 1e-8);
    // Infinite window saturates at 1/2.
    EXPECT_NEAR(p.IdleDephasing(1e12), 0.5, 1e-6);
    // Monotone in t.
    EXPECT_LT(p.IdleDephasing(100.0), p.IdleDephasing(1000.0));
}

TEST(NoiseModelTest, CooledModeUsesFixedRates)
{
    NoiseParams p;
    p.cooled = true;
    // Heating state must not matter when cooled.
    EXPECT_DOUBLE_EQ(p.TwoQubitError(40.0, 2, 0.1),
                     p.TwoQubitError(40.0, 30, 6.0));
    EXPECT_DOUBLE_EQ(p.TwoQubitError(40.0, 2, 0.0), 2e-3);
    EXPECT_DOUBLE_EQ(p.SingleQubitError(5.0, 2, 0.0), 3e-3);
}

class AnnotatorTest : public ::testing::Test
{
  protected:
    void Compile(const qec::StabilizerCode& code, TopologyKind topology,
                 int capacity)
    {
        graph_ = compiler::MakeDeviceFor(code, topology, capacity);
        result_ = compiler::CompileParityCheckRounds(code, 1, *graph_,
                                                     timing_);
        ASSERT_TRUE(result_.ok) << result_.error;
    }

    TimingModel timing_;
    std::optional<qccd::DeviceGraph> graph_;
    compiler::CompilationResult result_;
};

TEST_F(AnnotatorTest, ProfileShapesMatchCircuit)
{
    const qec::RotatedSurfaceCode code(3);
    Compile(code, TopologyKind::kGrid, 2);
    NoiseParams params;
    const RoundNoiseProfile profile =
        AnnotateRound(code, *graph_, result_, params, timing_);
    EXPECT_EQ(static_cast<int>(profile.gate_noise.size()),
              result_.qec_circuit.size());
    EXPECT_EQ(static_cast<int>(profile.idle_z.size()), code.num_qubits());
    EXPECT_DOUBLE_EQ(profile.round_time, result_.schedule.makespan);
}

TEST_F(AnnotatorTest, EveryCnotGetsPairError)
{
    const qec::RotatedSurfaceCode code(3);
    Compile(code, TopologyKind::kGrid, 2);
    NoiseParams params;
    const RoundNoiseProfile profile =
        AnnotateRound(code, *graph_, result_, params, timing_);
    for (int i = 0; i < result_.qec_circuit.size(); ++i) {
        const auto& g = result_.qec_circuit.gates()[i];
        if (g.kind == circuit::GateKind::kCnot) {
            EXPECT_GT(profile.gate_noise[i].p_pair, 0.0) << "gate " << i;
            EXPECT_GT(profile.gate_noise[i].p_q0, 0.0) << "gate " << i;
            EXPECT_GT(profile.gate_noise[i].p_q1, 0.0) << "gate " << i;
        }
        if (g.kind == circuit::GateKind::kMeasure) {
            EXPECT_DOUBLE_EQ(profile.gate_noise[i].p_q0,
                             params.MeasureError());
        }
        if (g.kind == circuit::GateKind::kReset) {
            EXPECT_DOUBLE_EQ(profile.gate_noise[i].p_q0,
                             params.ResetError());
        }
    }
}

TEST_F(AnnotatorTest, MovementHeatsGates)
{
    // On a capacity-2 grid every MS gate follows a merge, so the chain
    // n-bar at gate time must be at the split/merge bound.
    const qec::RotatedSurfaceCode code(3);
    Compile(code, TopologyKind::kGrid, 2);
    NoiseParams params;
    AnnotateRound(code, *graph_, result_, params, timing_,
                  &result_.schedule);
    int ms_ops = 0;
    for (const auto& t : result_.schedule.ops) {
        if (t.op.kind == qccd::OpKind::kMs) {
            ++ms_ops;
            EXPECT_DOUBLE_EQ(t.nbar, timing_.nbar_split_merge);
            EXPECT_EQ(t.chain_size, 2);
        }
    }
    EXPECT_GT(ms_ops, 0);
}

TEST_F(AnnotatorTest, SingleChainHasNoHeating)
{
    const qec::RepetitionCode code(3);
    graph_ = qccd::DeviceGraph::MakeLinear(1, code.num_qubits() + 1);
    result_ = compiler::CompileParityCheckRounds(code, 1, *graph_, timing_);
    ASSERT_TRUE(result_.ok) << result_.error;
    NoiseParams params;
    const RoundNoiseProfile profile = AnnotateRound(
        code, *graph_, result_, params, timing_, &result_.schedule);
    EXPECT_TRUE(profile.swaps.empty());
    for (const auto& t : result_.schedule.ops) {
        if (t.op.kind == qccd::OpKind::kMs) {
            EXPECT_DOUBLE_EQ(t.nbar, timing_.nbar_cooled);
            EXPECT_EQ(t.chain_size, code.num_qubits());
        }
    }
}

TEST_F(AnnotatorTest, IdleWindowsBoundedByRoundTime)
{
    const qec::RotatedSurfaceCode code(4);
    Compile(code, TopologyKind::kGrid, 2);
    NoiseParams params;
    const RoundNoiseProfile profile =
        AnnotateRound(code, *graph_, result_, params, timing_);
    const double full_round =
        params.IdleDephasing(profile.round_time);
    for (const double p : profile.idle_z) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, full_round);
    }
}

TEST_F(AnnotatorTest, SlowerRoundsDephaseMore)
{
    const qec::RotatedSurfaceCode code(3);
    NoiseParams params;
    Compile(code, TopologyKind::kGrid, 2);
    const RoundNoiseProfile fast =
        AnnotateRound(code, *graph_, result_, params, timing_);
    Compile(code, TopologyKind::kLinear, 2);
    const RoundNoiseProfile slow =
        AnnotateRound(code, *graph_, result_, params, timing_);
    const int q = code.data_qubits().front().value;
    EXPECT_GT(slow.idle_z[q], 5.0 * fast.idle_z[q]);
}

}  // namespace
}  // namespace tiqec::noise
