// Artifact-store subsystem tests (DESIGN.md §7): byte-stable
// serializers, content-addressed keys, the store API's miss/hit/corrupt
// contract, the sweep engine's warm-store zero-compile acceptance pin,
// corruption isolation, and the batch sweep service.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "common/atomic_file.h"
#include "core/pipeline.h"
#include "core/request.h"
#include "core/sweep.h"
#include "noise/profile_io.h"
#include "qec/code.h"
#include "qec/surgery.h"
#include "sim/circuit_io.h"
#include "sim/dem_io.h"
#include "store/artifact_store.h"
#include "store/keys.h"
#include "store/service.h"
#include "workloads/experiment.h"

namespace tiqec {
namespace {

std::string
FreshDir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + "tiqec_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

struct PipelineArtifacts
{
    std::shared_ptr<const qec::StabilizerCode> code;
    core::ArchitectureConfig arch;
    core::CompileArtifacts compile;
    noise::RoundNoiseProfile profile;
    core::SimArtifacts sim;
};

/** One real d=3 rotated-surface-code pipeline run (grid, capacity 2) —
 *  the serializer fixtures must round-trip genuine artifacts, not
 *  hand-built minimal ones. */
PipelineArtifacts
BuildPipelineArtifacts()
{
    PipelineArtifacts p;
    p.code = qec::MakeCode("rotated", 3);
    p.compile = core::CompileCandidate(*p.code, p.arch, 1, nullptr);
    EXPECT_TRUE(p.compile.ok) << p.compile.error;
    p.profile = core::AnnotateCandidate(*p.code, p.arch, p.compile);
    p.sim = core::BuildSimArtifacts(*p.code, p.compile, p.profile, p.arch,
                                    3, workloads::WorkloadSpec{});
    return p;
}

bool
SameDouble(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Field-exact Metrics comparison — the store contract is *bit*
 *  identity with the storeless run, not closeness. */
void
ExpectMetricsBitIdentical(const core::Metrics& a, const core::Metrics& b)
{
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_TRUE(SameDouble(a.round_time, b.round_time));
    EXPECT_TRUE(SameDouble(a.shot_time, b.shot_time));
    EXPECT_EQ(a.movement_ops_per_round, b.movement_ops_per_round);
    EXPECT_TRUE(SameDouble(a.movement_time_per_round,
                           b.movement_time_per_round));
    EXPECT_EQ(a.num_traps_used, b.num_traps_used);
    EXPECT_TRUE(SameDouble(a.mean_two_qubit_error, b.mean_two_qubit_error));
    EXPECT_TRUE(SameDouble(a.max_two_qubit_error, b.max_two_qubit_error));
    EXPECT_TRUE(SameDouble(a.idle_dephasing_data_qubit,
                           b.idle_dephasing_data_qubit));
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.logical_errors, b.logical_errors);
    EXPECT_TRUE(SameDouble(a.ler_per_shot.rate, b.ler_per_shot.rate));
    EXPECT_TRUE(SameDouble(a.ler_per_shot.low, b.ler_per_shot.low));
    EXPECT_TRUE(SameDouble(a.ler_per_shot.high, b.ler_per_shot.high));
    EXPECT_TRUE(SameDouble(a.ler_per_round, b.ler_per_round));
    EXPECT_EQ(a.per_observable_errors, b.per_observable_errors);
    EXPECT_EQ(a.dem_hyperedges, b.dem_hyperedges);
    EXPECT_EQ(a.dem_undecomposable, b.dem_undecomposable);
    EXPECT_TRUE(SameDouble(a.dem_dropped_probability,
                           b.dem_dropped_probability));
    EXPECT_TRUE(SameDouble(a.dem_undecomposable_probability,
                           b.dem_undecomposable_probability));
}

// ---------------------------------------------------------- serializers

TEST(DemIoTest, RoundTripIsByteStableAndLossless)
{
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const sim::DetectorErrorModel& dem = p.sim.dem;
    // The fixture must exercise the full format, hyperedges and detector
    // basis tags included.
    ASSERT_GT(dem.num_detectors, 0);
    ASSERT_FALSE(dem.edges.empty());
    ASSERT_FALSE(dem.hyperedges.empty());
    ASSERT_EQ(dem.detector_basis.size(),
              static_cast<size_t>(dem.num_detectors));
    EXPECT_EQ(std::count(dem.detector_basis.begin(),
                         dem.detector_basis.end(),
                         sim::DetectorBasis::kUnknown),
              0);

    const std::string text = sim::FormatDem(dem);
    sim::DetectorErrorModel parsed;
    std::string error;
    ASSERT_TRUE(sim::ParseDem(text, &parsed, &error)) << error;
    EXPECT_EQ(sim::FormatDem(parsed), text);

    EXPECT_EQ(parsed.num_detectors, dem.num_detectors);
    EXPECT_EQ(parsed.num_observables, dem.num_observables);
    EXPECT_EQ(parsed.edges.size(), dem.edges.size());
    EXPECT_EQ(parsed.hyperedges.size(), dem.hyperedges.size());
    EXPECT_EQ(parsed.num_hyperedges, dem.num_hyperedges);
    EXPECT_EQ(parsed.detector_basis, dem.detector_basis);
    EXPECT_EQ(parsed.num_undecomposable, dem.num_undecomposable);
    EXPECT_TRUE(SameDouble(parsed.dropped_probability,
                           dem.dropped_probability));
    EXPECT_TRUE(SameDouble(parsed.undecomposable_probability,
                           dem.undecomposable_probability));
    for (size_t i = 0; i < dem.edges.size(); ++i) {
        EXPECT_EQ(parsed.edges[i].d0, dem.edges[i].d0);
        EXPECT_EQ(parsed.edges[i].d1, dem.edges[i].d1);
        EXPECT_TRUE(SameDouble(parsed.edges[i].p, dem.edges[i].p));
        EXPECT_EQ(parsed.edges[i].obs_mask, dem.edges[i].obs_mask);
    }
}

TEST(DemIoTest, RejectsCorruptText)
{
    sim::DetectorErrorModel dem;
    std::string error;
    EXPECT_FALSE(sim::ParseDem("not a dem", &dem, &error));
    EXPECT_NE(error.find("dem parse"), std::string::npos);
}

// The basis line carries zero tags or one per detector, each X, Z or -;
// anything else is a pinned parse error, and an untagged model
// round-trips as "bases 0".
TEST(DemIoTest, BasisLineIsCheckedAndUntaggedRoundTrips)
{
    const std::string head =
        "tiqec-dem v2\ncounts 3 1 1 0\ndiag 0 0 0 0\nmass 0 0 0\n";
    const std::string edge = "e 0 1 0.25 1\n";
    sim::DetectorErrorModel dem;
    std::string error;

    ASSERT_TRUE(sim::ParseDem(head + "bases 0\n" + edge, &dem, &error))
        << error;
    EXPECT_TRUE(dem.detector_basis.empty());
    EXPECT_EQ(sim::FormatDem(dem), head + "bases 0\n" + edge);

    ASSERT_TRUE(sim::ParseDem(head + "bases 3 XZ-\n" + edge, &dem, &error))
        << error;
    EXPECT_EQ(dem.detector_basis,
              (std::vector<sim::DetectorBasis>{sim::DetectorBasis::kX,
                                               sim::DetectorBasis::kZ,
                                               sim::DetectorBasis::kUnknown}));
    EXPECT_EQ(sim::FormatDem(dem), head + "bases 3 XZ-\n" + edge);

    EXPECT_FALSE(sim::ParseDem(head + "bases 2 XZ\n" + edge, &dem, &error));
    EXPECT_EQ(error, "dem parse: bases line has 2 tags for 3 detectors");
    EXPECT_FALSE(sim::ParseDem(head + "bases 3 XZ\n" + edge, &dem, &error));
    EXPECT_EQ(error, "dem parse: bases line has 2 tags for 3 detectors");
    EXPECT_FALSE(sim::ParseDem(head + "bases 3 XYZ\n" + edge, &dem, &error));
    EXPECT_EQ(error, "dem parse: detector basis out of range in bases line");
    EXPECT_FALSE(sim::ParseDem(head + edge, &dem, &error));
    EXPECT_NE(error.find("malformed bases line"), std::string::npos)
        << error;
}

TEST(CircuitIoTest, RoundTripIsByteStableAndValidatorClean)
{
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const std::string text = sim::FormatNoisyCircuit(p.sim.experiment);
    std::string error;
    const std::optional<sim::NoisyCircuit> parsed =
        sim::ParseNoisyCircuit(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(sim::FormatNoisyCircuit(*parsed), text);
    EXPECT_EQ(parsed->num_detectors(), p.sim.experiment.num_detectors());
    EXPECT_EQ(parsed->num_observables(),
              p.sim.experiment.num_observables());
    for (int d = 0; d < parsed->num_detectors(); ++d) {
        EXPECT_EQ(parsed->detectors()[d].basis,
                  p.sim.experiment.detectors()[d].basis);
        EXPECT_NE(parsed->detectors()[d].basis,
                  sim::DetectorBasis::kUnknown);
    }
    // The validate-on-load contract: a round-tripped experiment passes
    // the same static validators the build path does.
    EXPECT_TRUE(
        analysis::ValidateSimArtifacts(*parsed, p.sim.dem).empty());
}

TEST(CircuitIoTest, RejectsOutOfRangeOperands)
{
    // A corrupt qubit index must come back as a parse error, never an
    // assert/abort in the replay builders.
    const std::string text = "tiqec-circuit v2\nqubits 2\nops 1\nH 7\n";
    std::string error;
    EXPECT_FALSE(sim::ParseNoisyCircuit(text, &error).has_value());
    EXPECT_EQ(error, "circuit parse: qubit out of range in op 0");
}

TEST(CircuitIoTest, DetectorBasisRoundTripsAndIsChecked)
{
    const std::string head = "tiqec-circuit v2\nqubits 1\nops 3\nM 0 0\n";
    const std::string det = "DET 0 0 0 X 1 0\n";
    const std::string obs = "OBS 0 1 0\n";
    std::string error;
    const std::optional<sim::NoisyCircuit> parsed =
        sim::ParseNoisyCircuit(head + det + obs, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->detectors()[0].basis, sim::DetectorBasis::kX);
    EXPECT_EQ(sim::FormatNoisyCircuit(*parsed), head + det + obs);

    EXPECT_FALSE(sim::ParseNoisyCircuit(head + "DET 0 0 0 Y 1 0\n" + obs,
                                        &error)
                     .has_value());
    EXPECT_EQ(error, "circuit parse: detector basis out of range in op 1");
}

TEST(ProfileIoTest, RoundTripIsByteStable)
{
    const PipelineArtifacts p = BuildPipelineArtifacts();
    ASSERT_FALSE(p.profile.gate_noise.empty());
    ASSERT_FALSE(p.profile.idle_z.empty());

    const std::string text = noise::FormatNoiseProfile(p.profile);
    noise::RoundNoiseProfile parsed;
    std::string error;
    ASSERT_TRUE(noise::ParseNoiseProfile(text, &parsed, &error)) << error;
    EXPECT_EQ(noise::FormatNoiseProfile(parsed), text);
    EXPECT_EQ(parsed.gate_noise.size(), p.profile.gate_noise.size());
    EXPECT_EQ(parsed.idle_z.size(), p.profile.idle_z.size());
    EXPECT_EQ(parsed.swaps.size(), p.profile.swaps.size());
    EXPECT_TRUE(SameDouble(parsed.round_time, p.profile.round_time));
}

// ----------------------------------------------------------------- keys

TEST(StoreKeysTest, ContentAddressingIgnoresObjectIdentity)
{
    const auto a = qec::MakeCode("rotated", 3);
    const auto b = qec::MakeCode("rotated", 3);
    core::ArchitectureConfig arch;
    const store::StoreKey ka =
        store::CompileStoreKey(*a, arch, 1, nullptr);
    const store::StoreKey kb =
        store::CompileStoreKey(*b, arch, 1, nullptr);
    // Distinct objects, identical content: one key, so the sweep cache
    // and the store share one artifact.
    EXPECT_EQ(ka.canonical, kb.canonical);
    EXPECT_EQ(ka.FileName(), kb.FileName());
}

TEST(StoreKeysTest, EveryInputPerturbsTheKey)
{
    const auto d3 = qec::MakeCode("rotated", 3);
    const auto d5 = qec::MakeCode("rotated", 5);
    core::ArchitectureConfig arch;
    const std::string base =
        store::CompileStoreKey(*d3, arch, 1, nullptr).canonical;

    EXPECT_NE(store::CompileStoreKey(*d5, arch, 1, nullptr).canonical,
              base);
    EXPECT_NE(store::CompileStoreKey(*d3, arch, 2, nullptr).canonical,
              base);
    core::ArchitectureConfig cap3 = arch;
    cap3.trap_capacity = 3;
    EXPECT_NE(store::CompileStoreKey(*d3, cap3, 1, nullptr).canonical,
              base);
    core::ArchitectureConfig wise = arch;
    wise.wiring = core::WiringKind::kWise;
    EXPECT_NE(store::CompileStoreKey(*d3, wise, 1, nullptr).canonical,
              base);

    const store::StoreKey ck =
        store::CompileStoreKey(*d3, arch, 1, nullptr);
    const store::StoreKey n1 = store::NoiseStoreKey(ck, 1.0);
    const store::StoreKey n5 = store::NoiseStoreKey(ck, 5.0);
    EXPECT_NE(n1.canonical, n5.canonical);
    EXPECT_NE(store::SimStoreKey(n1, 3, 0, 0).canonical,
              store::SimStoreKey(n1, 5, 0, 0).canonical);
    EXPECT_NE(store::SimStoreKey(n1, 3, 0, 0).canonical,
              store::SimStoreKey(n1, 3, 1, 0).canonical);
    EXPECT_NE(store::SimStoreKey(n1, 3, 0, 0).canonical,
              store::SimStoreKey(n1, 3, 0, 1).canonical);
}

TEST(StoreKeysTest, SpecKeyReadsTheBasisOnlyForMemory)
{
    const auto code = qec::MakeCode("rotated", 3);
    const store::StoreKey nk = store::NoiseStoreKey(
        store::CompileStoreKey(*code, core::ArchitectureConfig{}, 1, nullptr),
        1.0);
    using workloads::WorkloadKind;
    const auto key = [&](WorkloadKind kind, sim::MemoryBasis basis) {
        return store::SimStoreKey(nk, 3, workloads::WorkloadSpec(kind, basis))
            .canonical;
    };
    EXPECT_NE(key(WorkloadKind::kMemory, sim::MemoryBasis::kX),
              key(WorkloadKind::kMemory, sim::MemoryBasis::kZ));
    EXPECT_EQ(key(WorkloadKind::kSurgery, sim::MemoryBasis::kX),
              key(WorkloadKind::kSurgery, sim::MemoryBasis::kZ));
    EXPECT_EQ(key(WorkloadKind::kMemory, sim::MemoryBasis::kX),
              store::SimStoreKey(nk, 3,
                                 static_cast<int>(sim::MemoryBasis::kX),
                                 static_cast<int>(WorkloadKind::kMemory))
                  .canonical);
}

TEST(StoreKeysTest, FileNameIsSixteenHexPlusArt)
{
    const store::StoreKey key{"compile", "anything"};
    const std::string name = key.FileName();
    ASSERT_EQ(name.size(), 20u);
    EXPECT_EQ(name.substr(16), ".art");
    EXPECT_EQ(name.find_first_not_of("0123456789abcdef"), 16u);
}

// ------------------------------------------------------------ store API

TEST(AtomicFileTest, ConcurrentWritersNeverExposeAPartialFile)
{
    // Pool workers of one sweep, and processes sharing a store, write
    // one content-addressed path at the same time. Every write must
    // succeed, and every read must see the whole content or no file.
    const std::string dir = FreshDir("atomic_concurrent");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/artifact.art";
    const std::string content(1 << 18, 'x');
    std::atomic<bool> done{false};
    std::atomic<int> torn_reads{0};
    std::thread reader([&] {
        while (!done.load()) {
            std::string got;
            if (common::ReadFile(path, &got) && got != content) {
                torn_reads.fetch_add(1);
            }
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&] {
            for (int i = 0; i < 25; ++i) {
                std::string error;
                EXPECT_TRUE(common::AtomicWriteFile(path, content, &error))
                    << error;
            }
        });
    }
    for (std::thread& writer : writers) {
        writer.join();
    }
    done.store(true);
    reader.join();
    EXPECT_EQ(torn_reads.load(), 0);
    // No temp file is left behind.
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              1);
}

TEST(ArtifactStoreTest, CompileMissThenHitRoundTrip)
{
    const store::ArtifactStore store(FreshDir("store_api"));
    const auto code = qec::MakeCode("rotated", 3);
    core::ArchitectureConfig arch;
    const store::StoreKey key =
        store::CompileStoreKey(*code, arch, 1, nullptr);

    core::CompileArtifacts loaded;
    std::string error;
    EXPECT_EQ(store.LoadCompile(key, *code, arch, 1, nullptr, &loaded,
                                &error),
              store::LoadStatus::kMiss);

    const core::CompileArtifacts arts =
        core::CompileCandidate(*code, arch, 1, nullptr);
    ASSERT_TRUE(arts.ok) << arts.error;
    ASSERT_TRUE(store.StoreCompile(key, arts, &error)) << error;
    ASSERT_TRUE(std::filesystem::exists(store.PathFor(key)));

    ASSERT_EQ(store.LoadCompile(key, *code, arch, 1, nullptr, &loaded,
                                &error),
              store::LoadStatus::kHit)
        << error;
    EXPECT_TRUE(loaded.ok);
    ASSERT_EQ(loaded.compiled.schedule.ops.size(),
              arts.compiled.schedule.ops.size());
    EXPECT_TRUE(SameDouble(loaded.compiled.schedule.makespan,
                           arts.compiled.schedule.makespan));
    EXPECT_EQ(loaded.compiled.schedule.num_passes,
              arts.compiled.schedule.num_passes);
    EXPECT_EQ(loaded.compiled.schedule.num_movement_ops,
              arts.compiled.schedule.num_movement_ops);
    EXPECT_TRUE(SameDouble(loaded.compiled.placement.cost,
                           arts.compiled.placement.cost));
    EXPECT_EQ(loaded.compiled.partition.cluster_of,
              arts.compiled.partition.cluster_of);
    EXPECT_EQ(loaded.compiled.native.size(), arts.compiled.native.size());

    const store::ArtifactStore::Counters c = store.counters();
    EXPECT_EQ(c.hits, 1);
    EXPECT_EQ(c.misses, 1);
    EXPECT_EQ(c.writes, 1);
    EXPECT_EQ(c.corrupt, 0);
}

TEST(ArtifactStoreTest, FailedCompileBundlesAreRejected)
{
    const store::ArtifactStore store(FreshDir("store_reject"));
    core::CompileArtifacts failed;
    failed.ok = false;
    std::string error;
    EXPECT_FALSE(store.StoreCompile({"compile", "k"}, failed, &error));
    EXPECT_FALSE(error.empty());
}

TEST(ArtifactStoreTest, NoiseShapeMismatchIsCorrupt)
{
    const store::ArtifactStore store(FreshDir("store_noise"));
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const store::StoreKey key = store::NoiseStoreKey(
        store::CompileStoreKey(*p.code, p.arch, 1, nullptr), 1.0);
    std::string error;
    ASSERT_TRUE(store.StoreNoise(key, p.profile, &error)) << error;

    noise::RoundNoiseProfile loaded;
    EXPECT_EQ(store.LoadNoise(key, p.profile.gate_noise.size(),
                              p.profile.idle_z.size(), &loaded, &error),
              store::LoadStatus::kHit)
        << error;
    // A profile whose shape disagrees with the compile bundle it is
    // supposed to annotate is stale/corrupt, not a hit.
    EXPECT_EQ(store.LoadNoise(key, p.profile.gate_noise.size() + 1,
                              p.profile.idle_z.size(), &loaded, &error),
              store::LoadStatus::kCorrupt);
    EXPECT_NE(error.find("artifact store"), std::string::npos);
}

TEST(ArtifactStoreTest, KeyStringMismatchDegradesToMiss)
{
    const store::ArtifactStore store(FreshDir("store_collision"));
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const store::StoreKey key = store::NoiseStoreKey(
        store::CompileStoreKey(*p.code, p.arch, 1, nullptr), 1.0);
    std::string error;
    ASSERT_TRUE(store.StoreNoise(key, p.profile, &error)) << error;

    // Same file name (we overwrite the stored key line), different
    // canonical string: simulates an FNV collision / stale layout. Must
    // degrade to a miss, never load the wrong artifact.
    std::string content;
    ASSERT_TRUE(common::ReadFile(store.PathFor(key), &content, &error));
    const size_t key_begin = content.find("key ");
    ASSERT_NE(key_begin, std::string::npos);
    const size_t key_end = content.find('\n', key_begin);
    content.replace(key_begin, key_end - key_begin, "key other-content");
    ASSERT_TRUE(common::AtomicWriteFile(store.PathFor(key), content,
                                        &error));

    noise::RoundNoiseProfile loaded;
    EXPECT_EQ(store.LoadNoise(key, p.profile.gate_noise.size(),
                              p.profile.idle_z.size(), &loaded, &error),
              store::LoadStatus::kMiss);
}

// ---------------------------------------------- sweep-engine integration

std::vector<core::SweepCandidate>
WarmStoreCandidates()
{
    // A fresh runner every run: the in-memory cache dies with it, so
    // any warm-run work skipped is the store's doing.
    std::vector<core::SweepCandidate> candidates;
    core::SweepCandidate c;
    c.code = qec::MakeCode("rotated", 3);
    c.options.max_shots = 1024;
    c.options.target_logical_errors = 25;
    c.options.seed = 0x5EED;
    c.label = "rotated_d3";
    candidates.push_back(c);
    core::SweepCandidate rep;
    rep.code = qec::MakeCode("repetition", 3);
    rep.arch.topology = qccd::TopologyKind::kLinear;
    rep.arch.trap_capacity = 3;
    rep.options.max_shots = 512;
    rep.options.target_logical_errors = 25;
    rep.options.seed = 7;
    rep.label = "rep_d3";
    candidates.push_back(rep);
    return candidates;
}

TEST(SweepStoreTest, WarmRunPerformsZeroCompilesAndIsBitIdentical)
{
    const std::string root = FreshDir("store_warm");

    // Reference: no store at all.
    core::SweepRunner plain(core::SweepRunnerOptions{});
    const std::vector<core::SweepOutcome> reference =
        plain.RunDetailed(WarmStoreCandidates());
    EXPECT_GT(plain.last_run_stats().compiles, 0);
    EXPECT_EQ(plain.last_run_stats().store_hits, 0);

    // Cold pass populates the store.
    core::SweepRunnerOptions cold_opts;
    cold_opts.store = std::make_shared<store::ArtifactStore>(root);
    core::SweepRunner cold(cold_opts);
    const std::vector<core::SweepOutcome> cold_run =
        cold.RunDetailed(WarmStoreCandidates());
    const core::SweepRunStats& cold_stats = cold.last_run_stats();
    EXPECT_EQ(cold_stats.compiles, 2);
    EXPECT_GT(cold_stats.store_misses, 0);
    EXPECT_EQ(cold_stats.store_writes, cold_stats.store_misses);
    EXPECT_EQ(cold_stats.store_corrupt, 0);

    // Warm pass: new runner, new store handle, fresh code objects —
    // and zero stage executions (the PR's acceptance contract).
    core::SweepRunnerOptions warm_opts;
    warm_opts.store = std::make_shared<store::ArtifactStore>(root);
    core::SweepRunner warm(warm_opts);
    const std::vector<core::SweepOutcome> warm_run =
        warm.RunDetailed(WarmStoreCandidates());
    const core::SweepRunStats& warm_stats = warm.last_run_stats();
    EXPECT_EQ(warm_stats.compiles, 0);
    EXPECT_EQ(warm_stats.annotates, 0);
    EXPECT_EQ(warm_stats.sim_builds, 0);
    EXPECT_EQ(warm_stats.store_misses, 0);
    EXPECT_EQ(warm_stats.store_corrupt, 0);
    EXPECT_EQ(warm_stats.store_writes, 0);
    EXPECT_GT(warm_stats.store_hits, 0);

    ASSERT_EQ(reference.size(), cold_run.size());
    ASSERT_EQ(reference.size(), warm_run.size());
    for (size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE(reference[i].label);
        ExpectMetricsBitIdentical(reference[i].metrics,
                                  cold_run[i].metrics);
        ExpectMetricsBitIdentical(reference[i].metrics,
                                  warm_run[i].metrics);
    }
}

/** Rewrites the artifact at `path` through `mutate(lines)`. */
void
RewriteArtifact(const std::string& path,
                const std::function<void(std::vector<std::string>&)>& mutate)
{
    std::string content;
    std::string error;
    ASSERT_TRUE(common::ReadFile(path, &content, &error)) << error;
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < content.size()) {
        const size_t end = content.find('\n', begin);
        lines.push_back(content.substr(begin, end - begin));
        if (end == std::string::npos) {
            break;
        }
        begin = end + 1;
    }
    mutate(lines);
    std::string out;
    for (const std::string& line : lines) {
        out += line;
        out += '\n';
    }
    ASSERT_TRUE(common::AtomicWriteFile(path, out, &error)) << error;
}

TEST(SweepStoreTest, GarbagePayloadIsolatesWithDiagnostic)
{
    const std::string root = FreshDir("store_garbage");
    auto store_ptr = std::make_shared<store::ArtifactStore>(root);

    core::SweepRunnerOptions opts;
    opts.store = store_ptr;
    core::SweepRunner(opts).RunDetailed(WarmStoreCandidates());

    // Truncate the rotated_d3 compile payload to garbage (header and
    // key line intact, so it is found and then fails to parse).
    const auto code = qec::MakeCode("rotated", 3);
    const std::string path = store_ptr->PathFor(store::CompileStoreKey(
        *code, core::ArchitectureConfig{}, 1, nullptr));
    ASSERT_TRUE(std::filesystem::exists(path));
    RewriteArtifact(path, [](std::vector<std::string>& lines) {
        ASSERT_GE(lines.size(), 3u);
        lines.resize(2);
        lines.push_back("garbage");
    });

    core::SweepRunner warm(opts);
    const std::vector<core::SweepOutcome> outcomes =
        warm.RunDetailed(WarmStoreCandidates());
    ASSERT_EQ(outcomes.size(), 2u);
    // The corrupt artifact isolates its candidate with the store's
    // diagnostic — no crash, no silent recompile hiding the damage.
    EXPECT_FALSE(outcomes[0].metrics.ok);
    EXPECT_NE(outcomes[0].metrics.error.find("artifact store"),
              std::string::npos)
        << outcomes[0].metrics.error;
    // The untouched candidate proceeds normally off its own artifacts.
    EXPECT_TRUE(outcomes[1].metrics.ok) << outcomes[1].metrics.error;
    EXPECT_EQ(warm.last_run_stats().store_corrupt, 1);
}

TEST(SweepStoreTest, TamperedScheduleFailsValidatorsOnLoad)
{
    const std::string root = FreshDir("store_tamper");
    auto store_ptr = std::make_shared<store::ArtifactStore>(root);

    core::SweepRunnerOptions opts;
    opts.store = store_ptr;
    core::SweepRunner(opts).RunDetailed(WarmStoreCandidates());

    // Tamper one schedule row's duration: the payload still parses, but
    // the validate-on-load pass must reject it (duration-LUT rule).
    const auto code = qec::MakeCode("rotated", 3);
    const std::string path = store_ptr->PathFor(store::CompileStoreKey(
        *code, core::ArchitectureConfig{}, 1, nullptr));
    RewriteArtifact(path, [](std::vector<std::string>& lines) {
        for (size_t i = 0; i < lines.size(); ++i) {
            if (lines[i].rfind("schedule ", 0) == 0) {
                // lines[i + 1] is the CSV header; i + 2 the first row.
                ASSERT_GT(lines.size(), i + 2);
                std::string& row = lines[i + 2];
                std::vector<std::string> fields;
                size_t begin = 0;
                for (;;) {
                    const size_t comma = row.find(',', begin);
                    fields.push_back(
                        row.substr(begin, comma - begin));
                    if (comma == std::string::npos) {
                        break;
                    }
                    begin = comma + 1;
                }
                ASSERT_EQ(fields.size(), 12u);
                fields[8] = "123456";  // duration_us
                row.clear();
                for (size_t f = 0; f < fields.size(); ++f) {
                    if (f > 0) {
                        row += ',';
                    }
                    row += fields[f];
                }
                return;
            }
        }
        FAIL() << "no schedule block in compile artifact";
    });

    core::SweepRunner warm(opts);
    const std::vector<core::SweepOutcome> outcomes =
        warm.RunDetailed(WarmStoreCandidates());
    EXPECT_FALSE(outcomes[0].metrics.ok);
    EXPECT_NE(outcomes[0].metrics.error.find(analysis::kCompiledSubject),
              std::string::npos)
        << outcomes[0].metrics.error;
    EXPECT_EQ(warm.last_run_stats().store_corrupt, 1);
}

/** A surgery candidate on the merged patch, or on the plain rectangle
 *  with the same geometry, with no shots. */
core::SweepCandidate
SurgeryCandidate(bool merged)
{
    core::SweepCandidate c;
    if (merged) {
        c.code = std::make_shared<qec::MergedPatchCode>(
            3, qec::SurgeryParity::kXX);
    } else {
        c.code = std::make_shared<qec::RectangularSurfaceCode>(7, 3);
    }
    c.options.workload = workloads::WorkloadSpec(
        workloads::WorkloadKind::kSurgery);
    c.options.max_shots = 0;
    c.label = merged ? "merged" : "plain";
    return c;
}

void
ExpectPlainSurgeryRejected(const core::SweepOutcome& outcome)
{
    EXPECT_FALSE(outcome.metrics.ok);
    EXPECT_NE(outcome.metrics.error.find(
                  "surgery workload requires a qec::MergedPatchCode"),
              std::string::npos)
        << outcome.metrics.error;
}

TEST(SweepStoreTest, MergedPatchNeverAliasesItsPlainRectangle)
{
    // Same name, qubits, checks and logicals: only the merged-patch
    // fields tell the two codes apart.
    const core::SweepCandidate merged = SurgeryCandidate(true);
    const core::SweepCandidate plain = SurgeryCandidate(false);
    EXPECT_NE(store::CompileStoreKey(*merged.code, merged.arch, 1, nullptr)
                  .canonical,
              store::CompileStoreKey(*plain.code, plain.arch, 1, nullptr)
                  .canonical);

    // Without a store, and with a store the merged candidate warmed.
    ExpectPlainSurgeryRejected(
        core::SweepRunner(core::SweepRunnerOptions{}).RunDetailed({plain})[0]);
    core::SweepRunnerOptions opts;
    opts.store = std::make_shared<store::ArtifactStore>(
        FreshDir("store_merged_alias"));
    EXPECT_TRUE(
        core::SweepRunner(opts).RunDetailed({merged})[0].metrics.ok);
    ExpectPlainSurgeryRejected(core::SweepRunner(opts).RunDetailed({plain})[0]);

    // One batch holding both, in either order, at every pool width.
    for (const int threads : {1, 2, 8}) {
        for (const bool merged_first : {true, false}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " merged_first=" + std::to_string(merged_first));
            core::SweepRunnerOptions batch_opts;
            batch_opts.num_threads = threads;
            const std::vector<core::SweepOutcome> outcomes =
                core::SweepRunner(batch_opts)
                    .RunDetailed(merged_first
                                     ? std::vector{merged, plain}
                                     : std::vector{plain, merged});
            ASSERT_EQ(outcomes.size(), 2u);
            const size_t m = merged_first ? 0 : 1;
            EXPECT_TRUE(outcomes[m].metrics.ok) << outcomes[m].metrics.error;
            ExpectPlainSurgeryRejected(outcomes[1 - m]);
        }
    }
}

/** The examples/certify_requests.txt batch with no shots. Its 11 lines
 *  hold 9 distinct codes (the stability and surgery lines on merged_zz
 *  d=3 and d=5 share one) and 11 experiment shapes. */
constexpr const char* kCertifyBatch =
    "family=rotated distance=3 topology=grid capacity=2 workload=memory\n"
    "family=rotated distance=5 topology=grid capacity=2 workload=memory\n"
    "family=merged_zz distance=3 topology=grid capacity=2 "
    "workload=stability\n"
    "family=merged_zz distance=5 topology=grid capacity=2 "
    "workload=stability\n"
    "family=merged_zz distance=3 topology=grid capacity=2 workload=surgery\n"
    "family=merged_zz distance=5 topology=grid capacity=2 workload=surgery\n"
    "family=merged_xx distance=3 topology=grid capacity=2 workload=surgery\n"
    "family=merged_xx distance=5 topology=grid capacity=2 workload=surgery\n"
    "family=rotated distance=7 topology=grid capacity=2 workload=memory\n"
    "family=merged_zz distance=7 topology=grid capacity=2 workload=surgery\n"
    "family=merged_xx distance=7 topology=grid capacity=2 workload=surgery\n";

TEST(SweepStoreTest, RunStatsAreAFunctionOfTheBatch)
{
    // Equal-content lines share one cache entry, so each key is
    // computed and probed once: the counts cannot depend on which
    // worker got there first.
    std::vector<core::SweepCandidate> candidates =
        core::ParseRequestBatch(kCertifyBatch).candidates;
    ASSERT_EQ(candidates.size(), 11u);
    for (core::SweepCandidate& c : candidates) {
        c.options.max_shots = 0;
    }
    for (const int threads : {1, 2, 8}) {
        for (const bool with_store : {false, true}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " store=" + std::to_string(with_store));
            core::SweepRunnerOptions opts;
            opts.num_threads = threads;
            if (with_store) {
                opts.store = std::make_shared<store::ArtifactStore>(
                    FreshDir("store_counters"));
            }
            core::SweepRunner runner(opts);
            for (const core::SweepOutcome& out :
                 runner.RunDetailed(candidates)) {
                EXPECT_TRUE(out.metrics.ok) << out.metrics.error;
            }
            const core::SweepRunStats& stats = runner.last_run_stats();
            EXPECT_EQ(stats.compiles, 9);
            EXPECT_EQ(stats.annotates, 9);
            EXPECT_EQ(stats.sim_builds, 11);
            EXPECT_EQ(stats.store_hits, 0);
            EXPECT_EQ(stats.store_misses, with_store ? 29 : 0);
            EXPECT_EQ(stats.store_writes, with_store ? 29 : 0);
            EXPECT_EQ(stats.store_corrupt, 0);
        }
    }
}

// -------------------------------------------------------------- service

TEST(SweepServiceTest, ParseRejectsMalformedRequests)
{
    core::SweepCandidate c;
    std::string error;
    EXPECT_FALSE(core::ParseRequestCandidate("distance=3", &c, &error));
    EXPECT_NE(error.find("family"), std::string::npos);
    EXPECT_FALSE(core::ParseRequestCandidate("family=rotated", &c, &error));
    EXPECT_NE(error.find("distance"), std::string::npos);
    EXPECT_FALSE(core::ParseRequestCandidate(
        "family=rotated distance=3 nonsense=1", &c, &error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);
    EXPECT_FALSE(core::ParseRequestCandidate(
        "family=rotated distance=three", &c, &error));
    EXPECT_FALSE(core::ParseRequestCandidate(
        "family=rotated distance=3 basis=q", &c, &error));
}

TEST(SweepServiceTest, ParseFillsCandidate)
{
    core::SweepCandidate c;
    std::string error;
    ASSERT_TRUE(core::ParseRequestCandidate(
        "family=rotated distance=3 topology=switch capacity=4 "
        "wiring=wise improvement=5 shots=99 target_errors=7 seed=11 "
        "basis=x compile_only=1 label=custom",
        &c, &error))
        << error;
    EXPECT_EQ(c.code->distance(), 3);
    EXPECT_EQ(c.arch.topology, qccd::TopologyKind::kSwitch);
    EXPECT_EQ(c.arch.trap_capacity, 4);
    EXPECT_EQ(c.arch.wiring, core::WiringKind::kWise);
    EXPECT_EQ(c.arch.gate_improvement, 5.0);
    EXPECT_EQ(c.options.max_shots, 99);
    EXPECT_EQ(c.options.target_logical_errors, 7);
    EXPECT_EQ(c.options.seed, 11u);
    EXPECT_EQ(c.options.workload.basis, sim::MemoryBasis::kX);
    EXPECT_TRUE(c.options.compile_only);
    EXPECT_EQ(c.label, "custom");

    // `basis=` and `workload=` fill different fields of the workload
    // spec, so their token order cannot matter: both orders give the
    // same spec and the same sim-store key.
    const auto sim_key = [](const std::string& line) {
        core::RequestSpec spec;
        std::string err;
        EXPECT_TRUE(core::ParseRequestLine(line, &spec, &err)) << err;
        const workloads::WorkloadSpec& w = spec.options.workload;
        EXPECT_EQ(w.kind, workloads::WorkloadKind::kMemory);
        EXPECT_EQ(w.basis, sim::MemoryBasis::kX);
        const auto code = qec::MakeCode(spec.family, spec.distance);
        return store::SimStoreKey(
                   store::NoiseStoreKey(
                       store::CompileStoreKey(*code, spec.arch, 1, nullptr),
                       spec.arch.gate_improvement),
                   spec.distance, static_cast<int>(w.basis),
                   static_cast<int>(w.kind))
            .canonical;
    };
    EXPECT_EQ(sim_key("family=rotated distance=3 basis=x workload=memory"),
              sim_key("family=rotated distance=3 workload=memory basis=x"));
}

TEST(SweepServiceTest, BatchIsolatesMalformedLines)
{
    const std::string requests =
        "# comment\n"
        "\n"
        "family=rotated distance=3 compile_only=1 label=good\n"
        "family=rotated distance=oops\n";
    store::SweepServiceOptions options;
    const store::SweepServiceResult result =
        store::RunSweepService(requests, options);
    ASSERT_EQ(result.num_requests, 2);
    EXPECT_EQ(result.num_ok, 1);
    ASSERT_EQ(result.result_lines.size(), 2u);
    EXPECT_NE(result.result_lines[0].find("\"ok\":true"),
              std::string::npos);
    EXPECT_NE(result.result_lines[1].find("request parse:"),
              std::string::npos);
    EXPECT_NE(result.summary_line.find("\"requests\":2"),
              std::string::npos);
}

TEST(SweepServiceTest, ParseErrorKeepsRequestLabel)
{
    // The record takes the line's last label= token, exactly as a
    // successful parse would; no label= token leaves it empty.
    const store::SweepServiceResult result = store::RunSweepService(
        "family=rotated distance=3 capacity=zz label=mine\n"
        "label=first family=rotated distance=x label=second\n"
        "family=rotated distance=oops\n",
        store::SweepServiceOptions{});
    ASSERT_EQ(result.result_lines.size(), 3u);
    EXPECT_EQ(result.result_lines[0],
              "{\"label\":\"mine\",\"request\":\"family=rotated "
              "distance=3 capacity=zz label=mine\",\"ok\":false,"
              "\"error\":\"request parse: bad integer 'zz' in "
              "capacity\"}");
    EXPECT_EQ(result.result_lines[1].rfind("{\"label\":\"second\",", 0),
              0u);
    EXPECT_EQ(result.result_lines[2].rfind("{\"label\":\"\",", 0), 0u);
}

}  // namespace
}  // namespace tiqec
