/**
 * @file
 * Decode-throughput benchmark for the Monte-Carlo hot path: shots/sec
 * of the scalar per-shot decode (SyndromeOf + Decode, the reference
 * path) vs the word-parallel batch pipeline (non-trivial-shot mask +
 * transposed sparse syndrome extraction + DecodeBatch) on compiled
 * memory-Z experiments at d=3/5 across gate-improvement noise scales on
 * the capacity-2 grid, plus d=5 on the capacity-2 linear device, whose
 * DEM has the most active correlated stage-2 entries of any memory
 * experiment the sweeps decode.
 *
 * Unlike the figure benches this does not reproduce a paper artifact;
 * it pins the sampler's decode throughput so optimisations are measured
 * rather than eyeballed (the SPEC-style methodology in PAPERS.md).
 */
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "compiler/compiler.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "qec/code.h"
#include "sim/dem.h"
#include "sim/frame_simulator.h"
#include "sim/memory_experiment.h"

namespace {

using namespace tiqec;

/** A compiled memory-Z experiment, its DEM, and a sampled batch. */
struct Workload
{
    sim::DetectorErrorModel dem;
    sim::NoisyCircuit circuit{0};
    sim::SampleBatch batch{0, 0, 0};
};

Workload
MakeWorkload(int distance, double improvement, int shots,
             qccd::TopologyKind topology = qccd::TopologyKind::kGrid)
{
    Workload w;
    const qec::RotatedSurfaceCode code(distance);
    const qccd::TimingModel timing;
    const auto graph = compiler::MakeDeviceFor(code, topology, 2);
    auto result =
        compiler::CompileParityCheckRounds(code, 1, graph, timing);
    noise::NoiseParams params;
    params.gate_improvement = improvement;
    const auto profile =
        noise::AnnotateRound(code, graph, result, params, timing);
    w.circuit = sim::BuildMemoryZ(code, result.qec_circuit, profile,
                                  params, distance);
    w.dem = sim::BuildDem(w.circuit);
    sim::FrameSimulator simulator(w.circuit, 0xBE9C);
    w.batch = simulator.Sample(shots);
    return w;
}

/**
 * The pre-batch-pipeline decode path, kept verbatim as the benchmark
 * baseline: one union-find decode per shot with the per-call scratch
 * allocations (clusters, cluster_of_root, grown_adj, parent_edge,
 * visited, BFS deque) the production decoder has since made persistent.
 * This is exactly what ParallelSampler::EstimateLogicalErrors ran per
 * shot before DecodeBatch existed, so "speedup vs legacy" measures the
 * whole optimisation, not just the extraction.
 */
class LegacyScalarDecoder
{
  public:
    explicit LegacyScalarDecoder(const sim::DetectorErrorModel& dem)
        : num_detectors_(dem.num_detectors)
    {
        edges_.reserve(dem.edges.size());
        incident_.resize(num_detectors_ + 1);
        for (const auto& e : dem.edges) {
            const std::int32_t v =
                e.d1 == sim::DemEdge::kBoundary ? Boundary() : e.d1;
            const auto idx = static_cast<std::int32_t>(edges_.size());
            edges_.push_back({e.d0, v, e.obs_mask});
            incident_[e.d0].push_back(idx);
            incident_[v == Boundary() ? Boundary() : v].push_back(idx);
        }
        const int n = num_detectors_ + 1;
        parent_.resize(n);
        for (int i = 0; i < n; ++i) {
            parent_[i] = i;
        }
        defect_.assign(n, 0);
        in_cluster_.assign(n, 0);
        edge_grown_.assign(edges_.size(), 0);
    }

    std::uint32_t
    Decode(const std::vector<int>& syndrome)
    {
        if (syndrome.empty()) {
            return 0;
        }
        struct Cluster
        {
            int parity = 0;
            bool boundary = false;
            std::vector<std::int32_t> frontier;
        };
        std::vector<std::int32_t> touched_nodes;
        std::vector<std::int32_t> grown_edges;
        std::vector<Cluster> clusters(syndrome.size());
        std::vector<std::int32_t> cluster_of_root(num_detectors_ + 1, -1);
        auto touch = [&](int node) {
            if (!in_cluster_[node]) {
                in_cluster_[node] = 1;
                touched_nodes.push_back(node);
            }
        };
        for (size_t i = 0; i < syndrome.size(); ++i) {
            const int d = syndrome[i];
            touch(d);
            defect_[d] = 1;
            clusters[i].parity = 1;
            clusters[i].frontier.push_back(d);
            cluster_of_root[d] = static_cast<std::int32_t>(i);
        }
        bool any_odd = true;
        int guard = 0;
        while (any_odd && ++guard < 4 * (num_detectors_ + 2)) {
            any_odd = false;
            for (size_t ci = 0; ci < clusters.size(); ++ci) {
                const int root = Find(syndrome[ci]);
                if (cluster_of_root[root] !=
                    static_cast<std::int32_t>(ci)) {
                    continue;
                }
                Cluster& c = clusters[ci];
                if (c.parity % 2 == 0 || c.boundary) {
                    continue;
                }
                any_odd = true;
                std::vector<std::int32_t> frontier;
                frontier.swap(c.frontier);
                for (const std::int32_t node : frontier) {
                    for (const std::int32_t ei : incident_[node]) {
                        if (edge_grown_[ei]) {
                            continue;
                        }
                        edge_grown_[ei] = 1;
                        grown_edges.push_back(ei);
                        const Edge& e = edges_[ei];
                        const int other = e.u == node ? e.v : e.u;
                        if (other == Boundary()) {
                            c.boundary = true;
                            continue;
                        }
                        if (!in_cluster_[other]) {
                            touch(other);
                            parent_[other] = root;
                            c.frontier.push_back(other);
                            continue;
                        }
                        const int other_root = Find(other);
                        if (other_root == root) {
                            continue;
                        }
                        const std::int32_t oc = cluster_of_root[other_root];
                        if (oc >= 0) {
                            Cluster& o = clusters[oc];
                            c.parity += o.parity;
                            c.boundary = c.boundary || o.boundary;
                            c.frontier.insert(c.frontier.end(),
                                              o.frontier.begin(),
                                              o.frontier.end());
                            o.frontier.clear();
                            cluster_of_root[other_root] = -1;
                        }
                        parent_[other_root] = root;
                    }
                }
                const int new_root = Find(root);
                if (new_root != root) {
                    cluster_of_root[root] = -1;
                }
                cluster_of_root[new_root] = static_cast<std::int32_t>(ci);
            }
        }
        std::uint32_t correction = 0;
        std::vector<std::int32_t> order;
        std::vector<std::int32_t> parent_edge(num_detectors_ + 1, -1);
        std::vector<char> visited(num_detectors_ + 1, 0);
        std::vector<std::vector<std::int32_t>> grown_adj(num_detectors_ +
                                                         1);
        for (const std::int32_t ei : grown_edges) {
            const Edge& e = edges_[ei];
            grown_adj[e.u].push_back(ei);
            if (e.v != Boundary()) {
                grown_adj[e.v].push_back(ei);
            }
        }
        auto bfs_from = [&](std::int32_t start) {
            std::deque<std::int32_t> queue{start};
            while (!queue.empty()) {
                const std::int32_t node = queue.front();
                queue.pop_front();
                order.push_back(node);
                for (const std::int32_t ei : grown_adj[node]) {
                    const Edge& e = edges_[ei];
                    const int other = e.u == node ? e.v : e.u;
                    if (other == Boundary() || visited[other]) {
                        continue;
                    }
                    visited[other] = 1;
                    parent_edge[other] = ei;
                    queue.push_back(other);
                }
            }
        };
        for (const std::int32_t ei : grown_edges) {
            const Edge& e = edges_[ei];
            if (e.v == Boundary() && !visited[e.u]) {
                visited[e.u] = 1;
                parent_edge[e.u] = ei;
                bfs_from(e.u);
            }
        }
        for (const std::int32_t node : touched_nodes) {
            if (!visited[node]) {
                visited[node] = 1;
                parent_edge[node] = -1;
                bfs_from(node);
            }
        }
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const std::int32_t node = *it;
            if (!defect_[node]) {
                continue;
            }
            const std::int32_t ei = parent_edge[node];
            if (ei < 0) {
                continue;
            }
            const Edge& e = edges_[ei];
            correction ^= e.obs_mask;
            defect_[node] = 0;
            const int other = e.u == node ? e.v : e.u;
            if (other != Boundary()) {
                defect_[other] ^= 1;
            }
        }
        for (const std::int32_t node : touched_nodes) {
            parent_[node] = node;
            defect_[node] = 0;
            in_cluster_[node] = 0;
        }
        for (const std::int32_t ei : grown_edges) {
            edge_grown_[ei] = 0;
        }
        return correction;
    }

  private:
    struct Edge
    {
        std::int32_t u;
        std::int32_t v;
        std::uint32_t obs_mask;
    };

    int Boundary() const { return num_detectors_; }

    int
    Find(int x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    int num_detectors_;
    std::vector<Edge> edges_;
    std::vector<std::vector<std::int32_t>> incident_;
    std::vector<std::int32_t> parent_;
    std::vector<char> defect_;
    std::vector<char> in_cluster_;
    std::vector<char> edge_grown_;
};

std::int64_t
LegacyErrors(LegacyScalarDecoder& decoder, const sim::SampleBatch& batch)
{
    std::int64_t errors = 0;
    for (int s = 0; s < batch.shots(); ++s) {
        const std::uint32_t predicted =
            decoder.Decode(batch.SyndromeOf(s));
        errors += (predicted ^ (batch.Observable(0, s) ? 1u : 0u)) & 1u;
    }
    return errors;
}

std::int64_t
ScalarErrors(decoder::UnionFindDecoder& decoder,
             const sim::SampleBatch& batch)
{
    std::int64_t errors = 0;
    for (int s = 0; s < batch.shots(); ++s) {
        const std::uint32_t predicted =
            decoder.Decode(batch.SyndromeOf(s));
        errors += (predicted ^ (batch.Observable(0, s) ? 1u : 0u)) & 1u;
    }
    return errors;
}

std::int64_t
BatchErrors(decoder::UnionFindDecoder& decoder,
            const sim::SampleBatch& batch,
            std::vector<std::uint64_t>& predictions,
            decoder::UnionFindDecoder::BatchOutcome* outcome = nullptr)
{
    const auto out = decoder.DecodeBatch(batch, predictions);
    if (outcome != nullptr) {
        *outcome = out;
    }
    std::int64_t errors = 0;
    for (int w = 0; w < batch.words(); ++w) {
        const std::uint64_t actual =
            batch.ObservableWord(0, w) & batch.WordValidMask(w);
        errors += __builtin_popcountll(predictions[w] ^ actual);
    }
    return errors;
}

/**
 * Best-of-`reps` wall-clock shots/sec of each decode path over `shots`
 * shots. Each timed sample repeats its path often enough to last at
 * least 20 ms (fast configs decode a batch in well under a millisecond,
 * where one preemption decides the sample). The paths are timed
 * round-robin, one sample of each per round, so a burst of contention on
 * a loaded host lands on every path of a config alike instead of skewing
 * one path's ratio to the legacy baseline, and each path gets `reps`
 * chances at a quiet slot.
 */
std::array<double, 4>
ShotsPerSec(int shots, int reps,
            const std::array<std::function<void()>, 4>& paths)
{
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::time_point t0, Clock::time_point t1) {
        return std::chrono::duration<double>(t1 - t0).count();
    };
    constexpr double kMinSampleSec = 0.02;
    std::array<int, 4> repeats{};
    for (size_t p = 0; p < paths.size(); ++p) {
        const auto t0 = Clock::now();
        paths[p]();
        const double sec = seconds(t0, Clock::now());
        repeats[p] = sec >= kMinSampleSec
                         ? 1
                         : static_cast<int>(kMinSampleSec / sec) + 1;
    }
    std::array<double, 4> best{};
    for (int r = 0; r < reps; ++r) {
        for (size_t p = 0; p < paths.size(); ++p) {
            const auto t0 = Clock::now();
            for (int k = 0; k < repeats[p]; ++k) {
                paths[p]();
            }
            const double sec = seconds(t0, Clock::now());
            best[p] = std::max(best[p],
                               static_cast<double>(shots) * repeats[p] / sec);
        }
    }
    return best;
}

/** One measured point: a capacity-2 memory-Z experiment. */
struct Config
{
    int distance;
    double improvement;
    qccd::TopologyKind topology;
    const char* topology_name;
    int shots;
};

void
PrintThroughputTable()
{
    // Best of 9 interleaved samples of >= 20 ms: best-of-3 single
    // batches, timed one path after another, let contention on a loaded
    // 4-core host move single configs' path/legacy ratios by a third
    // between back-to-back runs.
    const int reps = 9;
    std::vector<Config> configs;
    for (const int d : {3, 5}) {
        for (const double improvement : {1.0, 3.0, 10.0}) {
            configs.push_back(
                {d, improvement, qccd::TopologyKind::kGrid, "grid", 1 << 15});
        }
    }
    // Decoding near 50% LER costs ~10-60 us/shot here, so fewer shots.
    configs.push_back(
        {5, 1.0, qccd::TopologyKind::kLinear, "linear", 1 << 13});
    std::vector<bench::JsonRecord> records;
    std::printf("\n=== Decode throughput, capacity 2 ===\n");
    std::printf("legacy = pre-pipeline per-shot decode (SyndromeOf + "
                "per-call scratch)\n"
                "scalar = DecodePath::kScalar, correlated stage off "
                "(matches legacy errors)\n"
                "batch  = DecodePath::kBatch, correlated stage off "
                "(mask + sparse extraction + DecodeBatch)\n"
                "corr   = DecodePath::kBatch, weighted forest + "
                "hyperedge stage (production default; fewer errors)\n"
                "forest = peeling-forest nodes settled per decoded shot "
                "(batch / corr)\n\n");
    std::printf("%-6s %-4s %-6s %7s %11s %13s %13s %13s %13s %9s %9s "
                "%13s\n",
                "device", "d", "gates", "shots", "nontrivial",
                "legacy(sh/s)", "scalar(sh/s)", "batch(sh/s)", "corr(sh/s)",
                "vs legacy", "corr cost", "forest");
    tiqec::bench::Rule(129);
    for (const Config& cfg : configs) {
        const int d = cfg.distance;
        const double improvement = cfg.improvement;
        const int shots = cfg.shots;
        const Workload w =
            MakeWorkload(d, improvement, shots, cfg.topology);
        decoder::UnionFindDecoder::Options plain_opts;
        plain_opts.correlated = false;
        LegacyScalarDecoder legacy_decoder(w.dem);
        decoder::UnionFindDecoder scalar_decoder(w.dem, plain_opts);
        decoder::UnionFindDecoder batch_decoder(w.dem, plain_opts);
        decoder::UnionFindDecoder corr_decoder(w.dem);
        std::vector<std::uint64_t> predictions;
        std::vector<std::uint64_t> corr_predictions;
        decoder::UnionFindDecoder::BatchOutcome batch_work;
        decoder::UnionFindDecoder::BatchOutcome corr_work;
        const std::int64_t legacy_errors =
            LegacyErrors(legacy_decoder, w.batch);
        const std::int64_t scalar_errors =
            ScalarErrors(scalar_decoder, w.batch);
        const std::int64_t batch_errors = BatchErrors(
            batch_decoder, w.batch, predictions, &batch_work);
        const std::int64_t corr_errors = BatchErrors(
            corr_decoder, w.batch, corr_predictions, &corr_work);
        const auto forest_per_shot =
            [](const decoder::UnionFindDecoder::BatchOutcome& o) {
                return o.decoded_shots > 0
                           ? static_cast<double>(o.forest_nodes) /
                                 o.decoded_shots
                           : 0.0;
            };
        if (scalar_errors != batch_errors ||
            legacy_errors != batch_errors) {
            std::printf("MISMATCH d=%d: legacy=%lld scalar=%lld "
                        "batch=%lld\n",
                        d, static_cast<long long>(legacy_errors),
                        static_cast<long long>(scalar_errors),
                        static_cast<long long>(batch_errors));
        }
        const auto [legacy_tput, scalar_tput, batch_tput, corr_tput] =
            ShotsPerSec(
                shots, reps,
                {[&]() {
                     benchmark::DoNotOptimize(
                         LegacyErrors(legacy_decoder, w.batch));
                 },
                 [&]() {
                     benchmark::DoNotOptimize(
                         ScalarErrors(scalar_decoder, w.batch));
                 },
                 [&]() {
                     benchmark::DoNotOptimize(
                         BatchErrors(batch_decoder, w.batch, predictions));
                 },
                 [&]() {
                     benchmark::DoNotOptimize(BatchErrors(
                         corr_decoder, w.batch, corr_predictions));
                 }});
        const double frac =
            static_cast<double>(w.batch.CountNonTrivialShots()) /
            shots;
        std::printf("%-6s %-4d %-6.0f %7d %10.1f%% %13.0f %13.0f "
                    "%13.0f %13.0f %8.2fx %8.2fx %6.1f/%-6.1f\n",
                    cfg.topology_name, d, improvement, shots,
                    100.0 * frac, legacy_tput,
                    scalar_tput, batch_tput, corr_tput,
                    batch_tput / legacy_tput,
                    batch_tput / corr_tput,
                    forest_per_shot(batch_work),
                    forest_per_shot(corr_work));
        struct PathPoint
        {
            const char* path;
            double tput;
            std::int64_t errors;
            bool correlated;
            /** DecodeBatch work counters (batch paths only). */
            const decoder::UnionFindDecoder::BatchOutcome* work;
        };
        for (const PathPoint& p :
             {PathPoint{"legacy", legacy_tput, legacy_errors, false,
                        nullptr},
              {"scalar", scalar_tput, scalar_errors, false, nullptr},
              {"batch", batch_tput, batch_errors, false, &batch_work},
              {"batch_correlated", corr_tput, corr_errors, true,
               &corr_work}}) {
            bench::JsonRecord r;
            r.Add("workload", "memory_z");
            r.Add("topology", cfg.topology_name);
            r.Add("capacity", 2);
            r.Add("distance", d);
            r.Add("gate_improvement", improvement);
            r.Add("decode_path", p.path);
            r.Add("correlated_decoder", p.correlated);
            r.Add("shots", static_cast<std::int64_t>(shots));
            r.Add("nontrivial_fraction", frac);
            r.Add("metric", "shots_per_sec");
            r.Add("value", p.tput);
            r.Add("best_of", reps);
            r.Add("errors", p.errors);
            r.Add("errors_agree", legacy_errors == batch_errors &&
                                      scalar_errors == batch_errors);
            if (p.work != nullptr) {
                r.Add("forest_nodes_per_shot",
                      forest_per_shot(*p.work));
            }
            records.push_back(std::move(r));
        }
    }
    std::printf("\n(acceptance: batch >= 2x the legacy scalar baseline "
                "at d=5, 1X gates; legacy/scalar/batch count identical "
                "errors; corr trades throughput for fewer errors)\n");
    bench::WriteBenchJson("BENCH_decode.json", "decode_throughput",
                          records);
}

void
BM_DecodeLegacy(benchmark::State& state)
{
    const int d = static_cast<int>(state.range(0));
    const Workload w = MakeWorkload(d, 1.0, 1 << 13);
    LegacyScalarDecoder decoder(w.dem);
    for (auto _ : state) {
        benchmark::DoNotOptimize(LegacyErrors(decoder, w.batch));
    }
    state.SetItemsProcessed(state.iterations() * w.batch.shots());
}
BENCHMARK(BM_DecodeLegacy)->Arg(3)->Arg(5);

void
BM_DecodeScalar(benchmark::State& state)
{
    const int d = static_cast<int>(state.range(0));
    const Workload w = MakeWorkload(d, 1.0, 1 << 13);
    decoder::UnionFindDecoder decoder(w.dem);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ScalarErrors(decoder, w.batch));
    }
    state.SetItemsProcessed(state.iterations() * w.batch.shots());
}
BENCHMARK(BM_DecodeScalar)->Arg(3)->Arg(5);

void
BM_DecodeBatch(benchmark::State& state)
{
    const int d = static_cast<int>(state.range(0));
    const Workload w = MakeWorkload(d, 1.0, 1 << 13);
    decoder::UnionFindDecoder decoder(w.dem);
    std::vector<std::uint64_t> predictions;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            BatchErrors(decoder, w.batch, predictions));
    }
    state.SetItemsProcessed(state.iterations() * w.batch.shots());
}
BENCHMARK(BM_DecodeBatch)->Arg(3)->Arg(5);

}  // namespace

int
main(int argc, char** argv)
{
    PrintThroughputTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
