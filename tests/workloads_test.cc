/**
 * @file
 * Workload-subsystem tests: golden/differential coverage for the
 * merged-patch surgery code (stabilizer counts, observable supports,
 * the joint-parity product algebra, pinned d=3/5 DEM stats), the
 * memory workload's bit-identity with the historical `BuildMemory`
 * path, the surgery/stability sweep's cross-thread bit-identity at
 * d=3/5, and cross-workload compile-artifact sharing in the sweep
 * cache.
 */
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "qec/surgery.h"
#include "sim/dem.h"
#include "sim/memory_experiment.h"
#include "workloads/experiment.h"

namespace tiqec::workloads {
namespace {

bool
SameDouble(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Merged-patch code structure
// ---------------------------------------------------------------------------

class MergedPatchCodeTest
    : public ::testing::TestWithParam<std::tuple<int, qec::SurgeryParity>>
{
  protected:
    int d() const { return std::get<0>(GetParam()); }
    qec::SurgeryParity parity() const { return std::get<1>(GetParam()); }
};

TEST_P(MergedPatchCodeTest, CountsMatchTheMergedRectangle)
{
    const qec::MergedPatchCode code(d(), parity());
    const int data = (2 * d() + 1) * d();
    EXPECT_EQ(code.num_data(), data);
    EXPECT_EQ(code.num_ancillas(), data - 1);
    EXPECT_EQ(code.distance(), d());
    EXPECT_EQ(static_cast<int>(code.seam_data().size()), d());
    EXPECT_EQ(static_cast<int>(code.patch_a_data().size()), d() * d());
    EXPECT_EQ(static_cast<int>(code.patch_b_data().size()), d() * d());
    EXPECT_EQ(static_cast<int>(code.patch_a_logical().size()), d());
    EXPECT_EQ(static_cast<int>(code.patch_b_logical().size()), d());
    // The joint checks are one plaquette column/row pair: d+1 checks.
    EXPECT_EQ(static_cast<int>(code.joint_parity_checks().size()),
              d() + 1);
}

TEST_P(MergedPatchCodeTest, PatchAndSeamDataPartitionTheDataQubits)
{
    const qec::MergedPatchCode code(d(), parity());
    std::set<int> all;
    for (const auto& group : {code.patch_a_data(), code.patch_b_data(),
                              code.seam_data()}) {
        for (const QubitId q : group) {
            EXPECT_TRUE(all.insert(q.value).second)
                << "qubit " << q.value << " classified twice";
        }
    }
    EXPECT_EQ(static_cast<int>(all.size()), code.num_data());
}

TEST_P(MergedPatchCodeTest, JointChecksAreTheParityTypeSeamSpanners)
{
    const qec::MergedPatchCode code(d(), parity());
    std::set<int> seam;
    for (const QubitId q : code.seam_data()) {
        seam.insert(q.value);
    }
    const std::set<int> joint(code.joint_parity_checks().begin(),
                              code.joint_parity_checks().end());
    const qec::CheckType joint_type =
        qec::SurgeryParityCheckType(parity());
    for (int k = 0; k < code.num_ancillas(); ++k) {
        const auto& chk = code.checks()[k];
        bool touches_seam = false;
        for (const QubitId q : chk.data_order) {
            touches_seam |= q.valid() && seam.count(q.value) > 0;
        }
        if (chk.type == joint_type) {
            // Joint-parity checks are exactly the parity-type checks
            // whose support spans the seam - the checks that did not
            // exist before the merge.
            EXPECT_EQ(joint.count(k) > 0, touches_seam) << "check " << k;
        } else {
            EXPECT_EQ(joint.count(k), 0u) << "check " << k;
        }
    }
}

/**
 * The algebra the joint-parity measurement rests on: the product of the
 * joint checks' operators is exactly the two patch-boundary
 * columns/rows adjacent to the seam - per-patch logical representatives
 * of the parity type - so the product of their first-round outcomes
 * measures the joint parity, and the split preparation (patch data in
 * the parity basis) makes it deterministic.
 */
TEST_P(MergedPatchCodeTest, JointCheckProductIsTheTwoBoundaryLogicals)
{
    const qec::MergedPatchCode code(d(), parity());
    std::set<int> sym;
    for (const int k : code.joint_parity_checks()) {
        for (const QubitId q : code.checks()[k].data_order) {
            if (!q.valid()) {
                continue;
            }
            if (!sym.insert(q.value).second) {
                sym.erase(q.value);
            }
        }
    }
    const bool horizontal = parity() == qec::SurgeryParity::kXX;
    std::set<int> expected;
    for (const QubitId q : code.data_qubits()) {
        const Coord c = code.qubit(q).coord;
        const int i =
            static_cast<int>(((horizontal ? c.x : c.y) - 1.0) / 2.0);
        if (i == d() - 1 || i == d() + 1) {
            expected.insert(q.value);
        }
    }
    EXPECT_EQ(sym, expected);
}

TEST_P(MergedPatchCodeTest, PatchLogicalsLiveInTheirPatchesAndCommute)
{
    const qec::MergedPatchCode code(d(), parity());
    const auto in = [](const std::vector<QubitId>& group,
                       const std::vector<QubitId>& sub) {
        const std::set<int> g = [&] {
            std::set<int> s;
            for (const QubitId q : group) {
                s.insert(q.value);
            }
            return s;
        }();
        for (const QubitId q : sub) {
            if (g.count(q.value) == 0) {
                return false;
            }
        }
        return true;
    };
    EXPECT_TRUE(in(code.patch_a_data(), code.patch_a_logical()));
    EXPECT_TRUE(in(code.patch_b_data(), code.patch_b_logical()));

    // Symplectic commutation of each patch logical with every check:
    // the logical is parity-type (X for kXX), so it can only
    // anticommute with opposite-type checks, via odd overlap.
    for (const auto* logical :
         {&code.patch_a_logical(), &code.patch_b_logical()}) {
        std::set<int> support;
        for (const QubitId q : *logical) {
            support.insert(q.value);
        }
        for (int k = 0; k < code.num_ancillas(); ++k) {
            const auto& chk = code.checks()[k];
            if (chk.type == qec::SurgeryParityCheckType(parity())) {
                continue;  // same Pauli type always commutes
            }
            int overlap = 0;
            for (const QubitId q : chk.data_order) {
                overlap += q.valid() && support.count(q.value) ? 1 : 0;
            }
            EXPECT_EQ(overlap % 2, 0)
                << "patch logical anticommutes with check " << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Distances, MergedPatchCodeTest,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(qec::SurgeryParity::kXX,
                                         qec::SurgeryParity::kZZ)));

TEST(MergedPatchCodeTest, FactorySpellsBothOrientations)
{
    const auto xx = qec::MakeCode("merged_xx", 3);
    const auto zz = qec::MakeCode("merged_zz", 3);
    ASSERT_NE(dynamic_cast<const qec::MergedPatchCode*>(xx.get()),
              nullptr);
    ASSERT_NE(dynamic_cast<const qec::MergedPatchCode*>(zz.get()),
              nullptr);
    EXPECT_EQ(dynamic_cast<const qec::MergedPatchCode*>(xx.get())
                  ->parity(),
              qec::SurgeryParity::kXX);
    EXPECT_EQ(dynamic_cast<const qec::MergedPatchCode*>(zz.get())
                  ->parity(),
              qec::SurgeryParity::kZZ);
}

// ---------------------------------------------------------------------------
// Experiment interface
// ---------------------------------------------------------------------------

TEST(WorkloadSpecTest, KindNamesRoundTrip)
{
    for (const WorkloadKind kind :
         {WorkloadKind::kMemory, WorkloadKind::kStability,
          WorkloadKind::kSurgery}) {
        EXPECT_EQ(ParseWorkloadKind(WorkloadKindName(kind)), kind);
    }
    EXPECT_THROW(ParseWorkloadKind("surgery_xx"), std::invalid_argument);
}

TEST(WorkloadSpecTest, SurgeryRequiresAMergedPatchCode)
{
    const qec::RotatedSurfaceCode plain(3);
    EXPECT_THROW(
        MakeExperiment(plain, WorkloadSpec(WorkloadKind::kSurgery)),
        std::invalid_argument);
    EXPECT_THROW(
        MakeExperiment(plain, WorkloadSpec(WorkloadKind::kStability)),
        std::invalid_argument);
    // Memory runs on anything, including the merged patch.
    const qec::MergedPatchCode merged(3, qec::SurgeryParity::kXX);
    EXPECT_EQ(MakeExperiment(merged, {})->name(), "memory_z");
    EXPECT_EQ(
        MakeExperiment(merged, WorkloadSpec(WorkloadKind::kSurgery))->name(),
        "surgery_xx");
    EXPECT_EQ(
        MakeExperiment(merged, WorkloadSpec(WorkloadKind::kStability))
            ->num_observables(),
        1);
}

/** The memory workload through the experiment interface must be
 *  instruction-for-instruction identical to the historical
 *  `sim::BuildMemory` path (the refactor's bit-identity contract). */
TEST(MemoryInterfaceTest, InstructionStreamMatchesBuildMemory)
{
    const qec::RotatedSurfaceCode code(3);
    core::ArchitectureConfig arch;
    arch.gate_improvement = 5.0;
    const auto arts = core::CompileCandidate(code, arch);
    ASSERT_TRUE(arts.ok) << arts.error;
    const auto profile = core::AnnotateCandidate(code, arch, arts);
    const auto params = core::NoiseParamsFor(arch);

    for (const sim::MemoryBasis basis :
         {sim::MemoryBasis::kZ, sim::MemoryBasis::kX}) {
        SCOPED_TRACE(basis == sim::MemoryBasis::kZ ? "memory-Z"
                                                   : "memory-X");
        const sim::NoisyCircuit direct = sim::BuildMemory(
            code, arts.compiled.qec_circuit, profile, params, 3, basis);
        const sim::NoisyCircuit via_interface = BuildExperiment(
            code, arts.compiled.qec_circuit, profile, params, 3,
            WorkloadSpec(WorkloadKind::kMemory, basis));
        ASSERT_EQ(via_interface.instructions().size(),
                  direct.instructions().size());
        for (size_t i = 0; i < direct.instructions().size(); ++i) {
            const auto& a = direct.instructions()[i];
            const auto& b = via_interface.instructions()[i];
            ASSERT_EQ(a.op, b.op) << "instruction " << i;
            ASSERT_EQ(a.q0, b.q0) << "instruction " << i;
            ASSERT_EQ(a.q1, b.q1) << "instruction " << i;
            ASSERT_TRUE(SameDouble(a.p, b.p)) << "instruction " << i;
            ASSERT_EQ(a.index, b.index) << "instruction " << i;
            ASSERT_EQ(a.targets, b.targets) << "instruction " << i;
        }
        EXPECT_EQ(via_interface.num_detectors(), direct.num_detectors());
        EXPECT_EQ(via_interface.num_observables(),
                  direct.num_observables());
    }
}

/** `workload: memory` through the sweep engine matches the historical
 *  path for every pool width (1/2/8). */
TEST(MemoryInterfaceTest, MemoryWorkloadSweepIsThreadInvariant)
{
    core::SweepCandidate c;
    c.code = qec::MakeCode("rotated", 3);
    c.arch.gate_improvement = 1.0;
    c.options.max_shots = 1 << 12;
    c.options.target_logical_errors = 0;
    ASSERT_EQ(c.options.workload.kind, WorkloadKind::kMemory);
    const core::Metrics serial =
        core::Evaluate(*c.code, c.arch, c.options);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_GT(serial.logical_errors, 0);
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        core::SweepRunnerOptions opts;
        opts.num_threads = threads;
        const auto swept = core::SweepRunner(opts).Run({c});
        ASSERT_EQ(swept.size(), 1u);
        EXPECT_EQ(swept[0].shots, serial.shots);
        EXPECT_EQ(swept[0].logical_errors, serial.logical_errors);
        EXPECT_TRUE(SameDouble(swept[0].ler_per_shot.rate,
                               serial.ler_per_shot.rate));
    }
}

// ---------------------------------------------------------------------------
// Surgery experiment structure + pinned DEM golden values
// ---------------------------------------------------------------------------

struct PinnedDem
{
    int d;
    WorkloadKind kind;
    int detectors;
    int observables;
    int edges;
    int components;
    int hyperedge_mechanisms;
};

/** Golden DEM stats for the kXX surgery/stability experiments at d=3/5
 *  (grid, capacity 2, 5X, d merged rounds). The compiled schedule these
 *  derive from is itself pinned bit-exact by compiler_golden_test, so
 *  any drift here is a change in the experiment construction. */
TEST(SurgeryExperimentTest, PinnedDemStatsAtD3AndD5)
{
    const std::vector<PinnedDem> pinned = {
        {3, WorkloadKind::kSurgery, 56, 3, 266, 4533, 345},
        {3, WorkloadKind::kStability, 56, 1, 266, 4533, 345},
        {5, WorkloadKind::kSurgery, 264, 3, 1318, 21835, 2725},
        {5, WorkloadKind::kStability, 264, 1, 1318, 21835, 2725},
    };
    for (const PinnedDem& pin : pinned) {
        SCOPED_TRACE("d=" + std::to_string(pin.d) + " " +
                     WorkloadKindName(pin.kind));
        const qec::MergedPatchCode code(pin.d, qec::SurgeryParity::kXX);
        core::ArchitectureConfig arch;
        arch.trap_capacity = 2;
        arch.gate_improvement = 5.0;
        const auto arts = core::CompileCandidate(code, arch);
        ASSERT_TRUE(arts.ok) << arts.error;
        const auto profile = core::AnnotateCandidate(code, arch, arts);
        const auto sim_arts = core::BuildSimArtifacts(
            code, arts, profile, arch, pin.d, WorkloadSpec(pin.kind));
        const sim::DetectorErrorModel& dem = sim_arts.dem;
        EXPECT_EQ(dem.num_detectors, pin.detectors);
        EXPECT_EQ(dem.num_observables, pin.observables);
        EXPECT_EQ(static_cast<int>(dem.edges.size()), pin.edges);
        EXPECT_EQ(dem.num_components, pin.components);
        // No probability mass may be lost: no conflicting parallel
        // edges dropped, no undecomposable mechanisms — the backtracking
        // decomposition matches every composite signature, and each one
        // is kept as hyperedge variants for the correlated decode stage.
        EXPECT_EQ(dem.dropped_probability, 0.0);
        EXPECT_EQ(dem.num_undecomposable, 0);
        EXPECT_EQ(dem.undecomposable_probability, 0.0);
        EXPECT_EQ(dem.num_hyperedges, pin.hyperedge_mechanisms);
        EXPECT_EQ(dem.num_decomposed, pin.hyperedge_mechanisms);
        EXPECT_GE(static_cast<int>(dem.hyperedges.size()),
                  pin.hyperedge_mechanisms);
        EXPECT_GT(dem.hyperedge_probability, 0.0);
    }
}

TEST(SurgeryExperimentTest, DetectorAndObservableLayout)
{
    const int d = 3;
    const qec::MergedPatchCode code(d, qec::SurgeryParity::kXX);
    core::ArchitectureConfig arch;
    arch.trap_capacity = 2;
    arch.gate_improvement = 5.0;
    const auto arts = core::CompileCandidate(code, arch);
    ASSERT_TRUE(arts.ok) << arts.error;
    const auto profile = core::AnnotateCandidate(code, arch, arts);
    const auto experiment = MakeExperiment(
        code, WorkloadSpec(WorkloadKind::kSurgery));
    const sim::NoisyCircuit circuit =
        experiment->Build(arts.compiled.qec_circuit, profile,
                          core::NoiseParamsFor(arch), d);

    // Count the joint-type checks to derive the expected detector
    // layout: round 0 anchors every parity-type check away from the
    // seam, rounds 1..d-1 anchor every check, and the final layer
    // anchors the parity-type checks away from the seam again. The
    // joint-parity checks are detector-free at both time boundaries -
    // the open timelike axis that makes the parity a stability
    // observable.
    int joint_type_checks = 0;
    for (const auto& chk : code.checks()) {
        joint_type_checks +=
            chk.type == qec::SurgeryParityCheckType(code.parity()) ? 1
                                                                   : 0;
    }
    const int joint = static_cast<int>(code.joint_parity_checks().size());
    const int expected = (joint_type_checks - joint) +  // round 0
                         (d - 1) * code.num_ancillas() +  // consecutive
                         (joint_type_checks - joint);   // final layer
    EXPECT_EQ(circuit.num_detectors(), expected);
    EXPECT_EQ(circuit.num_observables(), 3);

    // The joint-parity observable reads the first-round records of
    // exactly the joint checks; the patch observables read the final
    // data records of the patch logical supports.
    int parity_targets = -1;
    for (const auto& inst : circuit.instructions()) {
        if (inst.op == sim::SimOp::kObservableInclude &&
            inst.index == kJointParityObservable) {
            parity_targets = static_cast<int>(inst.targets.size());
        }
    }
    EXPECT_EQ(parity_targets, joint);
}

// ---------------------------------------------------------------------------
// Sweep integration (the ISSUE 5 acceptance gate)
// ---------------------------------------------------------------------------

std::vector<core::SweepCandidate>
SurgerySweepCandidates()
{
    std::vector<core::SweepCandidate> candidates;
    for (const int d : {3, 5}) {
        const auto code = std::make_shared<qec::MergedPatchCode>(
            d, qec::SurgeryParity::kXX);
        for (const WorkloadKind kind :
             {WorkloadKind::kSurgery, WorkloadKind::kStability}) {
            core::SweepCandidate c;
            c.code = code;
            c.arch.trap_capacity = 2;
            c.arch.gate_improvement = 1.0;
            c.options.workload.kind = kind;
            c.options.max_shots = 1 << 13;
            c.options.target_logical_errors = 0;  // fixed budget
            c.label = WorkloadKindName(kind) + "_d" + std::to_string(d);
            candidates.push_back(std::move(c));
        }
    }
    return candidates;
}

TEST(SurgerySweepTest, FiniteLerBitIdenticalAcrossPoolWidths)
{
    const std::vector<core::SweepCandidate> candidates =
        SurgerySweepCandidates();
    std::vector<core::Metrics> serial;
    for (const auto& c : candidates) {
        serial.push_back(core::Evaluate(*c.code, c.arch, c.options));
        ASSERT_TRUE(serial.back().ok) << serial.back().error;
    }
    // The surgery rows must observe actual logical errors at 1X (the
    // "finite LER" acceptance: a real number from real failures, not a
    // degenerate 0-of-0).
    EXPECT_GT(serial[0].logical_errors, 0);  // surgery d=3
    EXPECT_GT(serial[2].logical_errors, 0);  // surgery d=5
    for (const auto& m : serial) {
        EXPECT_GE(m.ler_per_shot.rate, 0.0);
        EXPECT_LE(m.ler_per_shot.rate, 1.0);
        EXPECT_EQ(m.shots, 1 << 13);
    }

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        core::SweepRunnerOptions opts;
        opts.num_threads = threads;
        const std::vector<core::Metrics> swept =
            core::SweepRunner(opts).Run(candidates);
        ASSERT_EQ(swept.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(candidates[i].label);
            EXPECT_EQ(swept[i].shots, serial[i].shots);
            EXPECT_EQ(swept[i].logical_errors, serial[i].logical_errors);
            EXPECT_TRUE(SameDouble(swept[i].ler_per_shot.rate,
                                   serial[i].ler_per_shot.rate));
            EXPECT_TRUE(SameDouble(swept[i].ler_per_round,
                                   serial[i].ler_per_round));
        }
    }
}

/** The word-parallel batch decode path and the scalar reference path
 *  must agree on multi-observable circuits too (the batch path ORs the
 *  per-observable mismatch planes; the scalar path compares masks). */
TEST(SurgerySweepTest, BatchAndScalarDecodePathsAgreeOnThreeObservables)
{
    const qec::MergedPatchCode code(3, qec::SurgeryParity::kXX);
    core::ArchitectureConfig arch;
    arch.trap_capacity = 2;
    arch.gate_improvement = 1.0;
    core::EvaluationOptions opts;
    opts.workload.kind = WorkloadKind::kSurgery;
    opts.max_shots = 1 << 13;
    opts.target_logical_errors = 0;
    opts.decode_path = sim::DecodePath::kBatch;
    const core::Metrics batch = core::Evaluate(code, arch, opts);
    opts.decode_path = sim::DecodePath::kScalar;
    const core::Metrics scalar = core::Evaluate(code, arch, opts);
    ASSERT_TRUE(batch.ok) << batch.error;
    ASSERT_TRUE(scalar.ok) << scalar.error;
    ASSERT_GT(batch.logical_errors, 0);
    EXPECT_EQ(batch.shots, scalar.shots);
    EXPECT_EQ(batch.logical_errors, scalar.logical_errors);
    EXPECT_TRUE(SameDouble(batch.ler_per_shot.rate,
                           scalar.ler_per_shot.rate));
}

TEST(SurgerySweepTest, WorkloadsShareCompileArtifactsOnTheSameDevice)
{
    const auto code = std::make_shared<qec::MergedPatchCode>(
        3, qec::SurgeryParity::kXX);
    std::vector<core::SweepCandidate> candidates;
    for (const WorkloadKind kind :
         {WorkloadKind::kMemory, WorkloadKind::kStability,
          WorkloadKind::kSurgery}) {
        core::SweepCandidate c;
        c.code = code;
        c.arch.trap_capacity = 2;
        c.arch.gate_improvement = 5.0;
        c.options.workload.kind = kind;
        c.options.max_shots = 1 << 10;
        c.options.target_logical_errors = 0;
        candidates.push_back(std::move(c));
    }
    const std::vector<core::SweepOutcome> outcomes =
        core::SweepRunner().RunDetailed(candidates);
    ASSERT_EQ(outcomes.size(), 3u);
    for (const auto& outcome : outcomes) {
        ASSERT_TRUE(outcome.metrics.ok) << outcome.metrics.error;
    }
    // One compiled schedule for all three workloads: the compile cache
    // key excludes the workload, which only enters the sim-stage key.
    EXPECT_EQ(outcomes[0].compile.get(), outcomes[1].compile.get());
    EXPECT_EQ(outcomes[1].compile.get(), outcomes[2].compile.get());
    // Identical compile metrics, different experiments.
    EXPECT_TRUE(SameDouble(outcomes[0].metrics.round_time,
                           outcomes[1].metrics.round_time));
    EXPECT_TRUE(SameDouble(outcomes[1].metrics.round_time,
                           outcomes[2].metrics.round_time));
}

TEST(SurgerySweepTest, WorkloadMismatchFailsOnlyThatCandidate)
{
    // surgery on a plain rotated patch is a candidate error, not a
    // sweep abort - and the serial entry point reports it identically.
    const auto plain = std::make_shared<qec::RotatedSurfaceCode>(3);
    core::SweepCandidate good;
    good.code = plain;
    good.arch.gate_improvement = 5.0;
    good.options.max_shots = 1 << 10;
    good.options.target_logical_errors = 0;
    core::SweepCandidate bad = good;
    bad.options.workload.kind = WorkloadKind::kSurgery;

    const std::vector<core::Metrics> swept =
        core::SweepRunner().Run({good, bad, good});
    ASSERT_EQ(swept.size(), 3u);
    EXPECT_TRUE(swept[0].ok) << swept[0].error;
    EXPECT_FALSE(swept[1].ok);
    EXPECT_NE(swept[1].error.find("MergedPatchCode"), std::string::npos)
        << swept[1].error;
    EXPECT_TRUE(swept[2].ok) << swept[2].error;

    const core::Metrics serial =
        core::Evaluate(*bad.code, bad.arch, bad.options);
    EXPECT_FALSE(serial.ok);
    EXPECT_EQ(serial.error, swept[1].error);
}

/** The parity outcome is a timelike observable: more merged rounds buy
 *  a lower stability LER (until the decoder's hyperedge ambiguity
 *  floor). Deterministic seeds make this an exact regression pin, not a
 *  statistical assertion. */
TEST(SurgerySweepTest, StabilityLerFallsWithMergedRounds)
{
    const qec::MergedPatchCode code(3, qec::SurgeryParity::kXX);
    core::ArchitectureConfig arch;
    arch.trap_capacity = 2;
    arch.gate_improvement = 5.0;
    core::EvaluationOptions opts;
    opts.workload.kind = WorkloadKind::kStability;
    opts.max_shots = 1 << 14;
    opts.target_logical_errors = 0;

    opts.rounds = 1;
    const core::Metrics one = core::Evaluate(code, arch, opts);
    opts.rounds = 5;
    const core::Metrics five = core::Evaluate(code, arch, opts);
    ASSERT_TRUE(one.ok) << one.error;
    ASSERT_TRUE(five.ok) << five.error;
    EXPECT_GT(one.logical_errors, 0);
    EXPECT_LT(five.logical_errors, one.logical_errors);
}

}  // namespace
}  // namespace tiqec::workloads
