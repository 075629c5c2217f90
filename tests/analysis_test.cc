/**
 * @file
 * Mutation harness for the artifact validators (src/analysis/,
 * DESIGN.md §6). Clean artifacts from both compiler pipelines must
 * produce zero diagnostics, and every registered rule-id must fire on
 * at least one deliberately corrupted artifact — so no rule is dead and
 * each mutation class is caught by the rule it was written for.
 */
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "analysis/distance_certifier.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "qccd/primitives.h"
#include "qec/code.h"
#include "qec/surgery.h"
#include "workloads/program.h"

namespace tiqec::analysis {
namespace {

using compiler::CompilationResult;
using compiler::TimedOp;
using qccd::OpKind;
using sim::SimInstruction;
using sim::SimOp;

/** One clean d=3 grid candidate, compiled/annotated/simulated once. */
struct CleanArtifacts
{
    qec::RotatedSurfaceCode code{3};
    core::ArchitectureConfig arch;
    int rounds = 3;
    core::CompileArtifacts compile;
    noise::RoundNoiseProfile profile;
    core::SimArtifacts sim;
};

const CleanArtifacts&
Clean()
{
    static const CleanArtifacts* fixture = [] {
        auto* f = new CleanArtifacts();
        f->compile = core::CompileCandidate(f->code, f->arch);
        if (!f->compile.ok) {
            ADD_FAILURE() << "fixture compile failed: " << f->compile.error;
            return f;
        }
        f->profile = core::AnnotateCandidate(f->code, f->arch, f->compile);
        f->sim = core::BuildSimArtifacts(
            f->code, f->compile, f->profile, f->arch, f->rounds,
            workloads::WorkloadSpec(workloads::WorkloadKind::kMemory,
                                    sim::MemoryBasis::kZ));
        return f;
    }();
    return *fixture;
}

std::vector<Diagnostic>
ValidateMutatedSchedule(const CompilationResult& mutated)
{
    return ValidateCompiledArtifacts(mutated, Clean().compile.graph,
                                     Clean().compile.timing,
                                     /*wise=*/false);
}

bool
HasRule(const std::vector<Diagnostic>& diags, std::string_view rule)
{
    return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
        return d.rule == rule;
    });
}

std::string
Join(const std::vector<Diagnostic>& diags)
{
    std::string out;
    for (const Diagnostic& d : diags) {
        out += "[" + d.rule + "] " + d.location + ": " + d.message + "\n";
    }
    return out.empty() ? "(no diagnostics)" : out;
}

/** Finds stream indices (a, b), a < b, where op b matches `later` and
 *  op a matches `earlier` with b in a's scan; -1/-1 when absent. */
template <typename Earlier, typename Later>
std::pair<int, int>
FindOpPair(const compiler::Schedule& s, const Earlier& earlier,
           const Later& later)
{
    for (size_t i = 0; i < s.ops.size(); ++i) {
        if (!earlier(s.ops[i])) {
            continue;
        }
        for (size_t j = i + 1; j < s.ops.size(); ++j) {
            if (later(s.ops[i], s.ops[j])) {
                return {static_cast<int>(i), static_cast<int>(j)};
            }
        }
    }
    return {-1, -1};
}

/** One mutation: the rule it must trigger plus the corrupted-artifact
 *  validation run. Returning an empty vector marks setup failure. */
struct Mutation
{
    std::string_view rule;
    std::function<std::vector<Diagnostic>()> run;
};

std::vector<Mutation>
MutationBattery()
{
    std::vector<Mutation> battery;

    // -- schedule.* ----------------------------------------------------
    battery.push_back({kRuleIonOverlap, [] {
        CompilationResult m = Clean().compile.compiled;
        const auto [a, b] = FindOpPair(
            m.schedule, [](const TimedOp&) { return true; },
            [](const TimedOp& ti, const TimedOp& tj) {
                return tj.op.ion0 == ti.op.ion0;
            });
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = m.schedule.ops[a].start;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleTrapOverlap, [] {
        CompilationResult m = Clean().compile.compiled;
        // Two trap-unit ops in one trap on disjoint ions, overlapped.
        const auto uses_unit = [](const TimedOp& t) {
            return (t.op.IsGate() || t.op.kind == OpKind::kSplit ||
                    t.op.kind == OpKind::kMerge) &&
                   t.op.node.valid();
        };
        const auto [a, b] = FindOpPair(
            m.schedule, uses_unit,
            [&](const TimedOp& ti, const TimedOp& tj) {
                return uses_unit(tj) && tj.op.node == ti.op.node &&
                       tj.op.ion0 != ti.op.ion0 &&
                       tj.op.ion0 != ti.op.ion1 &&
                       (!tj.op.ion1.valid() ||
                        (tj.op.ion1 != ti.op.ion0 &&
                         tj.op.ion1 != ti.op.ion1));
            });
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = m.schedule.ops[a].start;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleSegmentOverlap, [] {
        CompilationResult m = Clean().compile.compiled;
        // The second split of one segment retimed into the first's hold.
        const auto [a, b] = FindOpPair(
            m.schedule,
            [](const TimedOp& t) { return t.op.kind == OpKind::kSplit; },
            [](const TimedOp& ti, const TimedOp& tj) {
                return tj.op.kind == OpKind::kSplit &&
                       tj.op.segment == ti.op.segment;
            });
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = m.schedule.ops[a].start;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleJunctionCapacity, [] {
        CompilationResult m = Clean().compile.compiled;
        // Grid junctions have capacity 1: overlap two crossings.
        const auto [a, b] = FindOpPair(
            m.schedule,
            [](const TimedOp& t) {
                return t.op.kind == OpKind::kJunctionEnter;
            },
            [](const TimedOp& ti, const TimedOp& tj) {
                return tj.op.kind == OpKind::kJunctionEnter &&
                       tj.op.node == ti.op.node &&
                       tj.op.ion0 != ti.op.ion0;
            });
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = m.schedule.ops[a].start;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleDurationLut, [] {
        CompilationResult m = Clean().compile.compiled;
        EXPECT_FALSE(m.schedule.ops.empty());
        m.schedule.ops[0].duration *= 2.0;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleDagOrder, [] {
        CompilationResult m = Clean().compile.compiled;
        // The last gate op necessarily has a DAG predecessor that
        // finishes after t=0.
        int b = -1;
        for (size_t i = 0; i < m.schedule.ops.size(); ++i) {
            if (m.schedule.ops[i].op.IsGate()) {
                b = static_cast<int>(i);
            }
        }
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = 0.0;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRulePositionTrace, [] {
        CompilationResult m = Clean().compile.compiled;
        // Dropping a merge strands the split chain in its segment.
        const auto it = std::find_if(
            m.schedule.ops.begin(), m.schedule.ops.end(),
            [](const TimedOp& t) { return t.op.kind == OpKind::kMerge; });
        EXPECT_NE(it, m.schedule.ops.end());
        m.schedule.ops.erase(it);
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleScheduleStats, [] {
        CompilationResult m = Clean().compile.compiled;
        m.schedule.makespan += 1.0;
        return ValidateMutatedSchedule(m);
    }});

    // -- circuit.* -----------------------------------------------------
    battery.push_back({kRuleQubitRange, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        const auto it = std::find_if(
            insts.begin(), insts.end(),
            [](const SimInstruction& i) { return i.op == SimOp::kCnot; });
        EXPECT_NE(it, insts.end());
        it->q1 = m.num_qubits();
        return ValidateCircuit(m);
    }});
    battery.push_back({kRuleRecordRange, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        const auto it = std::find_if(insts.rbegin(), insts.rend(),
                                     [](const SimInstruction& i) {
                                         return i.op == SimOp::kDetector;
                                     });
        EXPECT_NE(it, insts.rend());
        it->targets[0] = m.num_measurements();  // dangling record
        return ValidateCircuit(m);
    }});
    battery.push_back({kRuleProbabilityRange, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        const auto it = std::find_if(
            insts.begin(), insts.end(),
            [](const SimInstruction& i) { return i.op == SimOp::kMeasure; });
        EXPECT_NE(it, insts.end());
        it->p = 1.5;
        return ValidateCircuit(m);
    }});
    battery.push_back({kRuleMeasuredOut, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        const auto it = std::find_if(
            insts.begin(), insts.end(),
            [](const SimInstruction& i) { return i.op == SimOp::kMeasure; });
        EXPECT_NE(it, insts.end());
        SimInstruction h;  // Clifford on a collapsed, not-yet-reset qubit
        h.op = SimOp::kH;
        h.q0 = it->q0;
        insts.insert(it + 1, h);
        return ValidateCircuit(m);
    }});
    battery.push_back({kRuleDetectorDeterminism, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        // A two-record detector compares an ancilla measurement across
        // rounds; either record alone is a random outcome.
        const auto it = std::find_if(insts.begin(), insts.end(),
                                     [](const SimInstruction& i) {
                                         return i.op == SimOp::kDetector &&
                                                i.targets.size() == 2;
                                     });
        EXPECT_NE(it, insts.end());
        it->targets.pop_back();
        return ValidateCircuit(m);
    }});

    // -- dem.* ---------------------------------------------------------
    battery.push_back({kRuleDemProbabilityRange, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.edges.empty());
        m.edges[0].p = 1.5;
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemDetectorRange, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.edges.empty());
        m.edges[0].d0 = m.num_detectors;
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemDuplicateEdge, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.edges.empty());
        m.edges.push_back(m.edges[0]);
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemHyperedgeEdges, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        const auto it = std::find_if(
            m.hyperedges.begin(), m.hyperedges.end(),
            [](const sim::DemHyperedge& h) { return h.edges.size() >= 2; });
        EXPECT_NE(it, m.hyperedges.end());
        it->edges.pop_back();  // no longer tiles the signature
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemMassConservation, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.hyperedges.empty());
        m.hyperedges[0].p *= 0.5;  // mass leak vs recorded diagnostics
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemDetectorCoverage, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        m.num_detectors += 1;  // orphan detector: no mechanism flips it
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemLogicalOperator, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.edges.empty());
        // Observable action beyond the model's tracked observables.
        m.edges[0].obs_mask |= 1u << m.num_observables;
        return ValidateDem(m);
    }});
    // -- program.* -----------------------------------------------------
    // Structural validation of the logical-program IR
    // (workloads/program.h) through `analysis::ValidateProgram`: one
    // targeted corruption per registered rule.
    battery.push_back({kRuleProgramPatch, [] {
        // Duplicate patch name in the fabric declaration.
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a a\nobservable o merge:0\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramLiveness, [] {
        // Re-preparing a patch that is already live.
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a\nprepare a z\nprepare a z\nidle 1\n"
            "measure a z\nobservable o measure:a\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramAdjacency, [] {
        // Merging fabric positions 0 and 2 skips the patch between them.
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a b c\nprepare a z\nprepare c z\n"
            "merge a c zz\nsplit\nmeasure a z\nmeasure c z\n"
            "observable o merge:0\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramMergeState, [] {
        // Split with no open merge.
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a\nprepare a z\nsplit\nidle 1\n"
            "measure a z\nobservable o measure:a\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramObservable, [] {
        // Observable term referencing a merge index past the last merge.
        workloads::LogicalProgram p =
            workloads::CanonicalProgram("single_merge");
        p.observables[0].terms[0].index = 7;
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramBasis, [] {
        // X readout of a Z-prepared idle patch: the observable depends
        // on a random measurement outcome (symplectic tableau check).
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a\nprepare a z\nidle 1\nmeasure a x\n"
            "observable o measure:a\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramDistance, [] {
        // Even code distance cannot host the surgery fabric.
        return ValidateProgram(
            workloads::CanonicalProgram("single_merge"), /*distance=*/4);
    }});

    battery.push_back({kRuleDemDistance, [] {
        // A parallel boundary edge with flipped observable action gives
        // the logical operator a weight-2 shortcut through one detector.
        sim::DetectorErrorModel m = Clean().sim.dem;
        const auto it = std::find_if(
            m.edges.begin(), m.edges.end(), [](const sim::DemEdge& e) {
                return e.d1 == sim::DemEdge::kBoundary;
            });
        EXPECT_NE(it, m.edges.end());
        sim::DemEdge shortcut = *it;
        shortcut.obs_mask ^= 1u;
        m.edges.push_back(shortcut);
        return CheckDistance(m, Clean().code.distance());
    }});

    return battery;
}

// Every mutation is caught by the rule it was written for, and the
// battery covers the whole registry: a newly registered rule without a
// mutation (a dead rule) fails the coverage assertion.
TEST(AnalysisMutation, EveryRuleFiresOnItsMutation)
{
    ASSERT_TRUE(Clean().compile.ok);
    std::set<std::string_view> covered;
    for (const Mutation& mutation : MutationBattery()) {
        SCOPED_TRACE(std::string(mutation.rule));
        const std::vector<Diagnostic> diags = mutation.run();
        EXPECT_TRUE(HasRule(diags, mutation.rule)) << Join(diags);
        covered.insert(mutation.rule);
    }
    for (const std::string_view rule : AllRuleIds()) {
        EXPECT_TRUE(covered.count(rule))
            << "registered rule has no mutation: " << rule;
    }
    EXPECT_EQ(MutationBattery().size(), AllRuleIds().size());
}

struct FamilyCase
{
    const char* family;
    std::vector<workloads::WorkloadKind> workloads;
};

/** Compiles `fc.family` at `distance` through one compiler pipeline,
 *  then checks that every workload's artifacts validate cleanly and
 *  certify at effective distance exactly `distance`, exactly, for every
 *  observable. */
void
ExpectCleanAndCertified(const FamilyCase& fc, int distance, bool reference)
{
    SCOPED_TRACE("d=" + std::to_string(distance) +
                 (reference ? " reference " : " fast ") + fc.family);
    const auto code = qec::MakeCode(fc.family, distance);
    core::ArchitectureConfig arch;
    core::CompileArtifacts arts;
    arts.graph =
        compiler::MakeDeviceFor(*code, arch.topology, arch.trap_capacity);
    compiler::CompilerOptions copts;
    copts.reference_pipeline = reference;
    arts.compiled = compiler::CompileParityCheckRounds(*code, 1, arts.graph,
                                                       arts.timing, copts);
    ASSERT_TRUE(arts.compiled.ok) << arts.compiled.error;
    arts.ok = true;

    const auto schedule_diags = ValidateCompiledArtifacts(
        arts.compiled, arts.graph, arts.timing, /*wise=*/false);
    EXPECT_TRUE(schedule_diags.empty()) << Join(schedule_diags);

    const auto profile = core::AnnotateCandidate(*code, arch, arts);
    for (const workloads::WorkloadKind kind : fc.workloads) {
        SCOPED_TRACE("workload=" + std::to_string(static_cast<int>(kind)));
        const workloads::WorkloadSpec spec(kind, sim::MemoryBasis::kZ);
        const auto sim = core::BuildSimArtifacts(*code, arts, profile, arch,
                                                 distance, spec);
        const auto sim_diags = ValidateSimArtifacts(
            sim.experiment, sim.dem, SimValidationOptionsFor(*code, spec));
        EXPECT_TRUE(sim_diags.empty()) << Join(sim_diags);

        DistanceCertificate cert;
        const auto cert_diags = CheckDistance(sim.dem, distance, {}, &cert);
        EXPECT_TRUE(cert_diags.empty()) << Join(cert_diags);
        for (const ObservableDistance& od : cert.observables) {
            EXPECT_TRUE(od.found);
            EXPECT_TRUE(od.exact);
            EXPECT_EQ(od.distance, distance) << "observable " << od.observable;
            EXPECT_EQ(static_cast<int>(od.witness.size()), distance);
        }
        EXPECT_EQ(cert.searched_weight, distance - 1);
    }
}

const FamilyCase kRotatedMemory = {"rotated",
                                   {workloads::WorkloadKind::kMemory}};
const FamilyCase kMergedZz = {"merged_zz",
                              {workloads::WorkloadKind::kStability,
                               workloads::WorkloadKind::kSurgery}};
const FamilyCase kMergedXxSurgery = {"merged_xx",
                                     {workloads::WorkloadKind::kSurgery}};

// Clean artifacts from both compiler pipelines validate cleanly for all
// three workloads, and the static certifier reports effective distance
// exactly d for every observable (the PR's acceptance contract).
TEST(AnalysisClean, BothPipelinesAtD3AndD5ValidateAndCertifyAllWorkloads)
{
    for (const int distance : {3, 5}) {
        for (const bool reference : {false, true}) {
            for (const FamilyCase& fc : {kRotatedMemory, kMergedZz}) {
                ExpectCleanAndCertified(fc, distance, reference);
            }
        }
    }
}

// At d=7 the exact distance is out of the weight-4 fallback's reach; the
// sector projection bound must prove it on its own.
TEST(AnalysisClean, FastPipelineAtD7CertifiesExactly)
{
    for (const FamilyCase& fc :
         {kRotatedMemory, kMergedZz, kMergedXxSurgery}) {
        ExpectCleanAndCertified(fc, 7, /*reference=*/false);
    }
}

// The certifier on a hand-built repetition-chain DEM: boundary - d0 -
// d1 - d2 - boundary, observable on one boundary edge. Distance is the
// chain length; a correlated three-detector hyperedge mechanism (the
// non-graphlike regime) shortcuts it.
TEST(DistanceCertifier, HandBuiltChainAndHyperedgeShortcut)
{
    sim::DetectorErrorModel m;
    m.num_detectors = 3;
    m.num_observables = 1;
    m.edges.push_back({0, sim::DemEdge::kBoundary, 0.01, 1});
    m.edges.push_back({0, 1, 0.01, 0});
    m.edges.push_back({1, 2, 0.01, 0});
    m.edges.push_back({2, sim::DemEdge::kBoundary, 0.01, 0});

    const DistanceCertificate cert = CertifyDistance(m);
    EXPECT_TRUE(cert.graph_like);
    ASSERT_EQ(cert.observables.size(), 1u);
    EXPECT_TRUE(cert.observables[0].found);
    EXPECT_TRUE(cert.observables[0].exact);
    EXPECT_EQ(cert.observables[0].distance, 4);
    EXPECT_EQ(cert.observables[0].witness.size(), 4u);
    EXPECT_TRUE(CheckDistance(m, 4).empty());
    EXPECT_TRUE(HasRule(CheckDistance(m, 5), kRuleDemDistance));

    // A correlated mechanism across all three detectors cancels against
    // {edge 0-1, edge 2-boundary}: a weight-3 undetectable logical
    // error invisible to the graphlike search.
    sim::DemHyperedge h;
    h.dets = {0, 1, 2};
    h.p = 0.001;
    h.obs_mask = 1;
    h.mechanism = 0;
    m.hyperedges.push_back(h);
    m.num_hyperedges = 1;

    const DistanceCertificate shortcut = CertifyDistance(m);
    EXPECT_FALSE(shortcut.graph_like);
    ASSERT_EQ(shortcut.observables.size(), 1u);
    EXPECT_TRUE(shortcut.observables[0].found);
    EXPECT_TRUE(shortcut.observables[0].exact);
    EXPECT_EQ(shortcut.observables[0].distance, 3);
    const auto diags = CheckDistance(m, 4);
    ASSERT_TRUE(HasRule(diags, kRuleDemDistance)) << Join(diags);
    EXPECT_NE(diags[0].message.find("witness mechanism set"),
              std::string::npos)
        << diags[0].message;
}

/** The fast-pipeline DEM of `family` at `distance` (rounds = d). */
sim::DetectorErrorModel
FastDem(const char* family, int distance, workloads::WorkloadKind kind)
{
    const auto code = qec::MakeCode(family, distance);
    core::ArchitectureConfig arch;
    const core::CompileArtifacts arts = core::CompileCandidate(*code, arch);
    EXPECT_TRUE(arts.ok) << arts.error;
    const auto profile = core::AnnotateCandidate(*code, arch, arts);
    return core::BuildSimArtifacts(
               *code, arts, profile, arch, distance,
               workloads::WorkloadSpec(kind, sim::MemoryBasis::kZ))
        .dem;
}

// The sector bound closes memory d=5 without the weight-4 fallback, and
// its early stop leaves every witness as the fallback path reports it:
// stripping the basis tags forces the fallback and must not change a
// single distance, exactness flag or witness.
TEST(DistanceCertifier, SectorBoundSkipsFallbackAndKeepsWitnesses)
{
    const std::vector<std::pair<const char*, workloads::WorkloadKind>>
        cases = {{"rotated", workloads::WorkloadKind::kMemory},
                 {"merged_xx", workloads::WorkloadKind::kSurgery}};
    for (const int distance : {3, 5}) {
        for (const auto& [family, kind] : cases) {
            SCOPED_TRACE(std::string(family) + " d=" +
                         std::to_string(distance));
            sim::DetectorErrorModel dem = FastDem(family, distance, kind);
            ASSERT_FALSE(dem.detector_basis.empty());
            const DistanceCertificate tagged = CertifyDistance(dem);
            EXPECT_EQ(tagged.mitm_pairs, 0);
            EXPECT_GT(tagged.projection_states, 0);
            EXPECT_GT(tagged.witness_states, 0);

            dem.detector_basis.clear();
            const DistanceCertificate untagged = CertifyDistance(dem);
            EXPECT_EQ(untagged.projection_states, 0);
            EXPECT_GT(untagged.mitm_pairs, 0);
            ASSERT_EQ(tagged.observables.size(), untagged.observables.size());
            for (size_t o = 0; o < tagged.observables.size(); ++o) {
                const ObservableDistance& a = tagged.observables[o];
                const ObservableDistance& b = untagged.observables[o];
                EXPECT_TRUE(a.exact);
                EXPECT_EQ(a.exact, b.exact);
                EXPECT_EQ(a.distance, b.distance);
                EXPECT_EQ(a.witness, b.witness);
            }
        }
    }
}

/** Exhaustive reference: the minimum weight of an undetectable logical
 *  error per observable over all 2^n mechanism subsets (-1: none). */
std::vector<int>
BruteForceDistances(const std::vector<std::pair<std::uint32_t,
                                                std::uint32_t>>& mechanisms,
                    int num_observables)
{
    std::vector<int> best(static_cast<size_t>(num_observables), -1);
    const std::uint32_t n = static_cast<std::uint32_t>(mechanisms.size());
    for (std::uint32_t subset = 1; subset < (1u << n); ++subset) {
        std::uint32_t syndrome = 0;
        std::uint32_t obs = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (subset >> i & 1u) {
                syndrome ^= mechanisms[i].first;
                obs ^= mechanisms[i].second;
            }
        }
        if (syndrome != 0) {
            continue;
        }
        const int weight = std::popcount(subset);
        for (int o = 0; o < num_observables; ++o) {
            int& b = best[static_cast<size_t>(o)];
            if ((obs >> o & 1u) && (b < 0 || weight < b)) {
                b = weight;
            }
        }
    }
    return best;
}

// Seeded random DEMs of <= 16 mechanisms (edges, boundary edges, and
// hyperedges, some spanning 3+ detectors of one sector) against 2^n
// enumeration, each under correct, random, and missing basis tags. A
// claimed-exact distance must be the true minimum, a witness must be a
// real undetectable logical error, and no lower bound may exceed the
// true minimum — whatever the tags say.
TEST(DistanceCertifier, AgreesWithBruteForceOnRandomModels)
{
    int exact_claims = 0;
    int exact_above_fallback = 0;
    int fallback_runs = 0;
    for (std::uint64_t seed = 0; seed < 240; ++seed) {
        Rng rng(seed);
        // Detectors [0, num_x) are X checks, the rest Z checks.
        int num_x = 1 + static_cast<int>(rng.NextBelow(4));
        const int num_z = 1 + static_cast<int>(rng.NextBelow(4));
        const int nd = num_x + num_z;
        const int num_obs = 1 + static_cast<int>(rng.NextBelow(2));
        const int n = 4 + static_cast<int>(rng.NextBelow(13));

        // Mechanisms as (sorted detectors, observable mask).
        std::vector<std::pair<std::vector<int>, std::uint32_t>> drawn;
        if (seed % 3 == 0) {
            // Two repetition chains, one per sector, the X one carrying
            // observable 0 on its first link, plus Y-like mechanisms
            // that flip one link of each (distances reach 7) and
            // three-detector shortcuts across the X chain (the
            // non-graphlike regime of the X projection).
            const auto chain = [&drawn](int first, int length,
                                        std::uint32_t obs) {
                for (int k = 0; k <= length; ++k) {
                    std::vector<int> link;
                    for (const int d : {first + k - 1, first + k}) {
                        if (d >= first && d < first + length) {
                            link.push_back(d);
                        }
                    }
                    drawn.emplace_back(link, k == 0 ? obs : 0u);
                }
            };
            chain(0, num_x + 2, 1u);
            chain(num_x + 2, num_z, static_cast<std::uint32_t>(
                                        rng.NextBelow(1u << num_obs)));
            const size_t links = drawn.size();
            for (int y = static_cast<int>(rng.NextBelow(3)); y > 0; --y) {
                const auto a = drawn[rng.NextBelow(num_x + 3)];
                const auto b =
                    drawn[num_x + 3 + rng.NextBelow(links - num_x - 3)];
                std::vector<int> dets = a.first;
                dets.insert(dets.end(), b.first.begin(), b.first.end());
                drawn.emplace_back(dets, a.second ^ b.second);
            }
            for (int h = static_cast<int>(rng.NextBelow(2)); h > 0; --h) {
                const int k = static_cast<int>(rng.NextBelow(num_x));
                drawn.emplace_back(std::vector<int>{k, k + 1, k + 2},
                                   static_cast<std::uint32_t>(
                                       rng.NextBelow(1u << num_obs)));
            }
            num_x += 2;
        } else {
            for (int i = 0; i < n; ++i) {
                // Up to 2 detectors per sector, or (rarely) 3 X ones.
                std::set<int> dets;
                const int want_x = rng.NextBelow(8) == 0
                                       ? 3
                                       : static_cast<int>(rng.NextBelow(3));
                for (int k = 0; k < want_x; ++k) {
                    dets.insert(static_cast<int>(rng.NextBelow(num_x)));
                }
                const int want_z = static_cast<int>(rng.NextBelow(3));
                for (int k = 0; k < want_z; ++k) {
                    dets.insert(num_x +
                                static_cast<int>(rng.NextBelow(num_z)));
                }
                if (dets.empty()) {
                    dets.insert(static_cast<int>(rng.NextBelow(nd)));
                }
                drawn.emplace_back(
                    std::vector<int>(dets.begin(), dets.end()),
                    static_cast<std::uint32_t>(
                        rng.NextBelow(1u << num_obs)));
            }
        }

        sim::DetectorErrorModel dem;
        dem.num_detectors = num_x + num_z;
        dem.num_observables = num_obs;
        for (auto& [dets, obs] : drawn) {
            std::sort(dets.begin(), dets.end());
            if (dets.size() <= 2 && rng.NextBelow(4) != 0) {
                dem.edges.push_back(
                    {dets[0],
                     dets.size() == 2 ? dets[1] : sim::DemEdge::kBoundary,
                     0.01, obs});
            } else {
                sim::DemHyperedge h;
                h.dets = dets;
                h.p = 0.001;
                h.obs_mask = obs;
                h.mechanism = dem.num_hyperedges++;
                dem.hyperedges.push_back(h);
            }
        }
        // Edges come first in the certifier's mechanism order.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> ordered;
        for (const sim::DemEdge& e : dem.edges) {
            ordered.emplace_back(
                (1u << e.d0) | (e.d1 == sim::DemEdge::kBoundary
                                    ? 0u
                                    : 1u << e.d1),
                e.obs_mask);
        }
        for (const sim::DemHyperedge& h : dem.hyperedges) {
            std::uint32_t syndrome = 0;
            for (const int d : h.dets) {
                syndrome |= 1u << d;
            }
            ordered.emplace_back(syndrome, h.obs_mask);
        }
        const std::vector<int> truth = BruteForceDistances(ordered, num_obs);

        for (int tags = 0; tags < 3; ++tags) {
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " tags=" + std::to_string(tags));
            dem.detector_basis.clear();
            for (int d = 0; d < dem.num_detectors && tags < 2; ++d) {
                dem.detector_basis.push_back(
                    tags == 0 ? (d < num_x ? sim::DetectorBasis::kX
                                           : sim::DetectorBasis::kZ)
                              : static_cast<sim::DetectorBasis>(
                                    rng.NextBelow(3)));
            }
            const DistanceCertificate cert = CertifyDistance(dem);
            fallback_runs += cert.mitm_pairs > 0 ? 1 : 0;
            ASSERT_EQ(cert.observables.size(),
                      static_cast<size_t>(num_obs));
            for (const ObservableDistance& od : cert.observables) {
                const int t = truth[static_cast<size_t>(od.observable)];
                if (t >= 0) {
                    EXPECT_LE(od.lower_bound, t);
                    EXPECT_LT(cert.searched_weight, t);
                }
                if (od.found) {
                    ASSERT_GE(t, 0);
                    EXPECT_EQ(static_cast<int>(od.witness.size()),
                              od.distance);
                    std::uint32_t syndrome = 0;
                    std::uint32_t obs = 0;
                    for (const int m : od.witness) {
                        syndrome ^= ordered[static_cast<size_t>(m)].first;
                        obs ^= ordered[static_cast<size_t>(m)].second;
                    }
                    EXPECT_EQ(syndrome, 0u);
                    EXPECT_EQ(obs >> od.observable & 1u, 1u);
                }
                if (od.exact) {
                    ++exact_claims;
                    EXPECT_EQ(od.found, t >= 0);
                    if (od.found) {
                        EXPECT_EQ(od.distance, t);
                        EXPECT_EQ(od.lower_bound, t);
                        exact_above_fallback += t > 5 ? 1 : 0;
                    }
                }
            }
        }
    }
    // The corpus exercises every path: exact claims, the fallback, and
    // exact distances only the projection bound can prove.
    EXPECT_GT(exact_claims, 400);
    EXPECT_GT(fallback_runs, 0);
    EXPECT_GT(exact_above_fallback, 0);
}

// WISE wiring folds cooling into two-qubit gate durations; the duration
// rule must accept that wiring when told about it.
TEST(AnalysisClean, WiseScheduleValidatesWithWiseFlag)
{
    const qec::RotatedSurfaceCode code(3);
    core::ArchitectureConfig arch;
    arch.wiring = core::WiringKind::kWise;
    const core::CompileArtifacts arts = core::CompileCandidate(code, arch);
    ASSERT_TRUE(arts.ok) << arts.error;
    const auto diags = ValidateCompiledArtifacts(
        arts.compiled, arts.graph, arts.timing, /*wise=*/true);
    EXPECT_TRUE(diags.empty()) << Join(diags);
}

// Toolflow wiring: validation + certification on, clean candidate ->
// success, and the sweep engine agrees with the serial path shot for
// shot.
TEST(AnalysisWiring, EvaluateAndSweepAcceptCleanCandidateWithValidation)
{
    const qec::RotatedSurfaceCode code(3);
    core::ArchitectureConfig arch;
    core::EvaluationOptions options;
    options.validate_artifacts = true;
    options.certify_distance = true;
    options.max_shots = 1 << 12;
    options.target_logical_errors = 8;

    const core::Metrics serial = core::Evaluate(code, arch, options);
    ASSERT_TRUE(serial.ok) << serial.error;

    core::SweepCandidate candidate;
    candidate.code = std::make_shared<qec::RotatedSurfaceCode>(3);
    candidate.arch = arch;
    candidate.options = options;
    core::SweepRunner runner;
    const auto metrics = runner.Run({candidate});
    ASSERT_EQ(metrics.size(), 1u);
    ASSERT_TRUE(metrics[0].ok) << metrics[0].error;
    EXPECT_EQ(metrics[0].shots, serial.shots);
    EXPECT_EQ(metrics[0].logical_errors, serial.logical_errors);
    EXPECT_EQ(runner.last_run_stats().validations, 2);
    EXPECT_EQ(runner.last_run_stats().validation_failures, 0);
    EXPECT_EQ(runner.last_run_stats().certifies, 1);
    EXPECT_EQ(runner.last_run_stats().certify_failures, 0);
}

// Deleting a seam stabilizer round (surgery with rounds < d) silently
// lowers the joint-parity observable's temporal distance; the certifier
// catches it as sub-distance with a witness, identically in the serial
// path and in the sweep engine at every pool width.
TEST(AnalysisWiring, SeamRoundDeletionIsCaughtAsSubDistance)
{
    const auto code = std::make_shared<qec::MergedPatchCode>(
        3, qec::SurgeryParity::kZZ);
    core::ArchitectureConfig arch;
    core::EvaluationOptions options;
    options.workload.kind = workloads::WorkloadKind::kSurgery;
    options.rounds = 2;  // one seam stabilizer round deleted
    options.certify_distance = true;
    options.max_shots = 1 << 10;
    options.target_logical_errors = 8;

    const core::Metrics serial = core::Evaluate(*code, arch, options);
    EXPECT_FALSE(serial.ok);
    EXPECT_NE(serial.error.find(kRuleDemDistance), std::string::npos)
        << serial.error;
    EXPECT_NE(serial.error.find("witness mechanism set"),
              std::string::npos)
        << serial.error;

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        core::SweepCandidate candidate;
        candidate.code = code;
        candidate.arch = arch;
        candidate.options = options;
        core::SweepRunnerOptions ropts;
        ropts.num_threads = threads;
        core::SweepRunner runner(ropts);
        const auto metrics = runner.Run({candidate});
        ASSERT_EQ(metrics.size(), 1u);
        EXPECT_FALSE(metrics[0].ok);
        EXPECT_EQ(metrics[0].error, serial.error);  // byte-identical
        EXPECT_EQ(runner.last_run_stats().certifies, 1);
        EXPECT_EQ(runner.last_run_stats().certify_failures, 1);
    }
}

}  // namespace
}  // namespace tiqec::analysis
