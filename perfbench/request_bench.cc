/**
 * @file
 * Request-level benchmark driver (see README.md). Two modes, both over
 * one request file in the `core::ParseRequestLine` grammar:
 *
 *   request_bench batch --requests F --threads N --seconds S --setups K
 *                       --results OUT [--store DIR]
 *       Closed loop, one client: sets up K times (parse the corpus, run
 *       a cold store fill when --store is given, run one untimed
 *       warm-up batch through `store::RunSweepService`), then sends
 *       timed batches until S seconds have passed (at least one).
 *       Prints one JSON report line; writes the warm-up batch's result
 *       lines to OUT.
 *
 *   request_bench trace --requests F --threads N --out DIR [--store DIR]
 *       Runs one service batch (after a cold fill when --store is
 *       given), then replays every request serially through the public
 *       stage API with a span around each call, and once more without
 *       spans. Writes DIR/replay.jsonl (per-request outcomes and
 *       counters), DIR/service.jsonl, DIR/trace.json (Chrome trace-event
 *       array), DIR/layers.json (total and self time per span name) and
 *       prints one JSON report line with the per-layer metrics.
 *
 * The process never aborts on a failing request: a request that fails
 * comes back as an `ok:false` line and the run goes on.
 */
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "core/pipeline.h"
#include "core/request.h"
#include "decoder/union_find_decoder.h"
#include "sim/frame_simulator.h"
#include "store/artifact_store.h"
#include "store/keys.h"
#include "store/service.h"

namespace {

namespace fs = std::filesystem;
using namespace tiqec;
using Clock = std::chrono::steady_clock;

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** User + system CPU seconds of this process so far. */
double
CpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
Quote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
Num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
NumList(const std::vector<double>& values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) {
            out += ',';
        }
        out += Num(values[i]);
    }
    return out + "]";
}

std::string
IntList(const std::vector<std::int64_t>& values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) {
            out += ',';
        }
        out += std::to_string(values[i]);
    }
    return out + "]";
}

/** Ordered `"key":value` pairs rendered as one JSON object. */
class Object
{
  public:
    Object& Raw(const std::string& key, const std::string& raw)
    {
        if (!body_.empty()) {
            body_ += ',';
        }
        body_ += Quote(key);
        body_ += ':';
        body_ += raw;
        return *this;
    }
    Object& Str(const std::string& key, const std::string& v)
    {
        return Raw(key, Quote(v));
    }
    Object& Dbl(const std::string& key, double v) { return Raw(key, Num(v)); }
    Object& Int(const std::string& key, std::int64_t v)
    {
        return Raw(key, std::to_string(v));
    }
    Object& Bool(const std::string& key, bool v)
    {
        return Raw(key, v ? "true" : "false");
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

bool
WriteText(const fs::path& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    return static_cast<bool>(out.flush());
}

std::string
JoinLines(const std::vector<std::string>& lines)
{
    std::string out;
    for (const std::string& line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

std::uint64_t
DirectoryBytes(const fs::path& dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    if (!fs::exists(dir, ec)) {
        return 0;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec)) {
            total += entry.file_size(ec);
        }
    }
    return total;
}

/** Non-comment, non-blank request lines (the service's own filter). */
std::vector<std::string>
RequestLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        const size_t first = line.find_first_not_of(" \t");
        if (first != std::string::npos && line[first] != '#') {
            lines.push_back(line);
        }
    }
    return lines;
}

struct Args
{
    std::string mode;
    std::string requests;
    std::string results;
    std::string out;
    std::string store;
    int threads = 1;
    double seconds = 1.0;
    int setups = 1;
};

// ------------------------------------------------------------ batch mode

store::SweepServiceResult
ServeBatch(const std::string& corpus, const Args& args)
{
    store::SweepServiceOptions options;
    options.num_threads = args.threads;
    if (!args.store.empty()) {
        options.store = std::make_shared<store::ArtifactStore>(args.store);
    }
    return store::RunSweepService(corpus, options);
}

int
RunBatchMode(const std::string& corpus, const Args& args)
{
    std::vector<double> setup_s;
    std::vector<std::string> reference;
    bool setups_agree = true;
    bool cold_warm_agree = true;
    std::int64_t warm_compiles = 0;
    int num_requests = 0;
    int num_ok = 0;
    for (int k = 0; k < args.setups; ++k) {
        if (!args.store.empty()) {
            fs::remove_all(args.store);  // every set-up starts cold
        }
        const Clock::time_point start = Clock::now();
        // Parse the corpus once up front, as a client validating its
        // batch before sending it would.
        int parsed = 0;
        for (const std::string& line : RequestLines(corpus)) {
            core::SweepCandidate candidate;
            std::string error;
            parsed += core::ParseRequestCandidate(line, &candidate, &error)
                          ? 1
                          : 0;
        }
        std::vector<std::string> cold;
        if (!args.store.empty()) {
            cold = ServeBatch(corpus, args).result_lines;
        }
        const store::SweepServiceResult warmup = ServeBatch(corpus, args);
        setup_s.push_back(SecondsSince(start));
        if (parsed == 0) {
            std::fprintf(stderr, "no request parsed\n");
            return 1;
        }
        if (!args.store.empty()) {
            cold_warm_agree = cold_warm_agree && cold == warmup.result_lines;
            warm_compiles += warmup.stats.compiles;
        }
        if (k == 0) {
            reference = warmup.result_lines;
            num_requests = warmup.num_requests;
            num_ok = warmup.num_ok;
        } else {
            setups_agree = setups_agree && warmup.result_lines == reference;
        }
    }

    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    int mismatched = 0;
    const Clock::time_point timed_start = Clock::now();
    do {
        const double cpu0 = CpuSeconds();
        const Clock::time_point t0 = Clock::now();
        const store::SweepServiceResult batch = ServeBatch(corpus, args);
        wall_s.push_back(SecondsSince(t0));
        cpu_s.push_back(CpuSeconds() - cpu0);
        mismatched += batch.result_lines == reference ? 0 : 1;
        if (!args.store.empty()) {
            warm_compiles += batch.stats.compiles;
        }
    } while (SecondsSince(timed_start) < args.seconds);

    if (!WriteText(args.results, JoinLines(reference))) {
        std::fprintf(stderr, "cannot write %s\n", args.results.c_str());
        return 1;
    }
    Object report;
    report.Str("mode", "batch")
        .Int("requests", num_requests)
        .Int("ok", num_ok)
        .Int("threads", args.threads)
        .Raw("setup_s", NumList(setup_s))
        .Raw("batch_wall_s", NumList(wall_s))
        .Raw("batch_cpu_s", NumList(cpu_s))
        .Int("mismatched_batches", mismatched)
        .Bool("setups_agree", setups_agree)
        .Bool("cold_warm_agree", cold_warm_agree)
        .Int("warm_compiles", warm_compiles)
        .Dbl("peak_rss_mb", PeakRssMb())
        .Int("store_bytes",
             static_cast<std::int64_t>(
                 args.store.empty() ? 0 : DirectoryBytes(args.store)));
    std::printf("%s\n", report.str().c_str());
    return 0;
}

// ------------------------------------------------------------- tracing

/** In-memory span log: a serial stack of open spans, each closed span
 *  recorded with its parent and request. Disabled, it records nothing. */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        int request = -1;
        int parent = -1;
        Clock::time_point start;
        Clock::time_point end;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
    {
    }

    int Begin(const char* name, int request)
    {
        if (!enabled_) {
            return -1;
        }
        const int parent = open_.empty() ? -1 : open_.back();
        records_.push_back({name, request, parent, Clock::now(), {}});
        open_.push_back(static_cast<int>(records_.size()) - 1);
        return open_.back();
    }
    void End(int id)
    {
        if (id < 0) {
            return;
        }
        records_[static_cast<size_t>(id)].end = Clock::now();
        open_.pop_back();
    }

    const std::vector<Record>& records() const { return records_; }
    Clock::time_point origin() const { return origin_; }

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<int> open_;
};

class Span
{
  public:
    Span(Tracer& tracer, const char* name, int request)
        : tracer_(tracer), id_(tracer.Begin(name, request))
    {
    }
    ~Span() { tracer_.End(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer& tracer_;
    int id_;
};

double
Ms(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// -------------------------------------------------------------- replay

/** Outcome and work counters of one serially replayed request. */
struct Replay
{
    std::string label;
    bool ok = false;
    std::string error;
    int qubits = 0;
    std::int64_t movement_ops = 0;
    int detectors = 0;
    std::int64_t mechanisms = 0;
    std::int64_t hyperedges = 0;
    std::int64_t shots = 0;
    std::int64_t logical_errors = 0;
    std::vector<std::int64_t> per_observable_errors;
    std::int64_t decoded_shots = 0;
    std::int64_t sample_bytes = 0;
    double mc_ms = 0.0;
    bool certified = false;
    double certify_ms = 0.0;
    std::int64_t certify_mechanisms = 0;
    int certify_observables = 0;
    int certify_exact = 0;
    std::int64_t store_hits = 0;
    std::int64_t store_misses = 0;
    std::int64_t bytes_read = 0;
    std::int64_t bytes_written = 0;
    double total_ms = 0.0;
};

std::int64_t
FileBytes(const store::ArtifactStore& st, const store::StoreKey& key)
{
    std::error_code ec;
    const auto size = fs::file_size(st.PathFor(key), ec);
    return ec ? 0 : static_cast<std::int64_t>(size);
}

/** Shard size rule of `sim::LerShardRun`: clamp to [64, INT_MAX] and
 *  round up to a multiple of 64. */
int
ShardShots(int requested)
{
    constexpr std::int64_t kMax = std::numeric_limits<int>::max() & ~63;
    const std::int64_t clamped = std::clamp<std::int64_t>(requested, 64, kMax);
    return static_cast<int>((clamped + 63) & ~std::int64_t{63});
}

/**
 * Replays one request the way `core::SweepRunner` evaluates it, one
 * stage call at a time: parse, compile (per unit), validate, annotate,
 * build-sim, validate, certify, then the Monte-Carlo shards — frame
 * sampling with stream `Rng(seed, shard)` and batch decoding — with the
 * runner's in-order commit and early stop. With a store, every stage
 * probes it first and persists what it computes.
 */
class Replayer
{
  public:
    Replayer(Tracer& tracer, const store::ArtifactStore* st)
        : tracer_(tracer), store_(st)
    {
    }

    Replay Run(const std::string& line, int request)
    {
        Replay r;
        const Clock::time_point start = Clock::now();
        {
            Span root(tracer_, "request", request);
            r.error = Evaluate(line, request, r);
            r.ok = r.error.empty();
        }
        r.total_ms = Ms(start, Clock::now());
        return r;
    }

  private:
    /** Returns the error text the service would report, or "". */
    std::string Evaluate(const std::string& line, int request, Replay& r)
    {
        core::SweepCandidate c;
        {
            Span span(tracer_, "core.parse", request);
            std::string error;
            if (!core::ParseRequestCandidate(line, &c, &error)) {
                return "request parse: " + error;
            }
        }
        r.label = c.label;
        r.qubits = c.code->num_qubits();
        if (c.compile_rounds < 1) {
            return "compile_rounds must be >= 1";
        }
        if (c.compile_rounds != 1 && !c.options.compile_only) {
            return "multi-round compilation is compile-only (the noise "
                   "annotator requires a one-round schedule)";
        }
        const workloads::WorkloadSpec spec = c.options.workload_spec();
        if (std::string e = core::CheckProgramCandidate(*c.code, spec);
            !e.empty()) {
            return e;
        }
        const std::vector<const qec::StabilizerCode*> units =
            core::UnitCodesFor(*c.code, spec);
        const size_t primary =
            spec.program ? static_cast<size_t>(spec.program->primary_index())
                         : 0;

        // Compile every unit, then validate, then annotate: the runner's
        // error precedence.
        std::vector<core::CompileArtifacts> arts(units.size());
        std::vector<store::StoreKey> ckeys(units.size());
        for (size_t u = 0; u < units.size(); ++u) {
            if (std::string e = Compile(c, *units[u], request, r, arts[u],
                                        ckeys[u]);
                !e.empty()) {
                return e;
            }
        }
        if (c.options.validate_artifacts) {
            for (const core::CompileArtifacts& a : arts) {
                Span span(tracer_, "analysis.validate", request);
                const auto diags = analysis::ValidateCompiledArtifacts(
                    a.compiled, a.graph, a.timing,
                    c.arch.wiring == core::WiringKind::kWise);
                if (!diags.empty()) {
                    return analysis::FormatDiagnostics(
                        analysis::kCompiledSubject, diags);
                }
            }
        }
        std::vector<noise::RoundNoiseProfile> profiles(units.size());
        if (c.compile_rounds == 1) {
            for (size_t u = 0; u < units.size(); ++u) {
                if (std::string e = Annotate(c, *units[u], arts[u], ckeys[u],
                                             request, r, profiles[u]);
                    !e.empty()) {
                    return e;
                }
            }
        }
        core::Metrics metrics;
        core::FillCompileMetrics(
            *c.code, c.arch, arts[primary],
            c.compile_rounds == 1 ? &profiles[primary] : nullptr,
            Rounds(c), metrics);
        r.movement_ops = metrics.movement_ops_per_round;
        if (c.options.compile_only) {
            return "";
        }

        core::SimArtifacts sim_arts;
        if (std::string e = BuildSim(c, spec, units, arts, profiles, primary,
                                     ckeys[primary], request, r, sim_arts);
            !e.empty()) {
            return e;
        }
        const sim::DetectorErrorModel& dem = sim_arts.dem;
        r.detectors = sim_arts.experiment.num_detectors();
        r.hyperedges = dem.num_hyperedges;
        r.mechanisms = static_cast<std::int64_t>(dem.edges.size()) +
                       dem.num_hyperedges;
        if (c.options.validate_artifacts) {
            Span span(tracer_, "analysis.validate", request);
            const auto diags = analysis::ValidateSimArtifacts(
                sim_arts.experiment, dem,
                analysis::SimValidationOptionsFor(*c.code, spec));
            if (!diags.empty()) {
                return analysis::FormatDiagnostics(analysis::kSimSubject,
                                                   diags);
            }
        }
        if (c.options.certify_distance) {
            const int d = c.code->distance();
            analysis::DistanceCertificate cert;
            std::vector<analysis::Diagnostic> diags;
            const Clock::time_point t0 = Clock::now();
            {
                Span span(tracer_, "analysis.certify", request);
                diags = analysis::CheckDistance(dem, d, {}, &cert);
            }
            r.certified = true;
            r.certify_ms = Ms(t0, Clock::now());
            r.certify_mechanisms =
                static_cast<std::int64_t>(cert.mechanisms.size());
            for (const analysis::ObservableDistance& od : cert.observables) {
                ++r.certify_observables;
                const bool below = od.found && od.distance < d;
                const bool open =
                    !cert.graph_like && d > cert.searched_weight + 1;
                r.certify_exact += below || open ? 0 : 1;
            }
            if (!diags.empty()) {
                return analysis::FormatDiagnostics(analysis::kCertifySubject,
                                                   diags);
            }
        }
        if (c.options.max_shots <= 0) {
            return "";
        }
        return MonteCarlo(c, sim_arts, request, r);
    }

    static int Rounds(const core::SweepCandidate& c)
    {
        return c.options.rounds > 0 ? c.options.rounds : c.code->distance();
    }

    std::string Compile(const core::SweepCandidate& c,
                        const qec::StabilizerCode& unit, int request,
                        Replay& r, core::CompileArtifacts& arts,
                        store::StoreKey& key)
    {
        if (store_ != nullptr) {
            std::string err;
            store::LoadStatus status;
            {
                Span span(tracer_, "store.load", request);
                key = store::CompileStoreKey(unit, c.arch, c.compile_rounds,
                                             c.device.get());
                status = store_->LoadCompile(key, unit, c.arch,
                                             c.compile_rounds,
                                             c.device.get(), &arts, &err);
            }
            if (Probe(status, key, r)) {
                return status == store::LoadStatus::kCorrupt ? err : "";
            }
        }
        {
            Span span(tracer_, "compiler.compile", request);
            arts = core::CompileCandidate(unit, c.arch, c.compile_rounds,
                                          c.device.get());
        }
        if (!arts.ok) {
            return arts.error;
        }
        if (store_ != nullptr) {
            Span span(tracer_, "store.write", request);
            store_->StoreCompile(key, arts);
            r.bytes_written += FileBytes(*store_, key);
        }
        return "";
    }

    std::string Annotate(const core::SweepCandidate& c,
                         const qec::StabilizerCode& unit,
                         const core::CompileArtifacts& arts,
                         const store::StoreKey& ckey, int request, Replay& r,
                         noise::RoundNoiseProfile& profile)
    {
        store::StoreKey key;
        if (store_ != nullptr) {
            std::string err;
            store::LoadStatus status;
            {
                Span span(tracer_, "store.load", request);
                key = store::NoiseStoreKey(ckey, c.arch.gate_improvement);
                status = store_->LoadNoise(
                    key, arts.compiled.qec_circuit.size(),
                    static_cast<size_t>(unit.num_qubits()), &profile, &err);
            }
            if (Probe(status, key, r)) {
                return status == store::LoadStatus::kCorrupt ? err : "";
            }
        }
        try {
            Span span(tracer_, "noise.annotate", request);
            profile = core::AnnotateCandidate(unit, c.arch, arts);
        } catch (const std::exception& e) {
            return e.what();
        }
        if (store_ != nullptr) {
            Span span(tracer_, "store.write", request);
            store_->StoreNoise(key, profile);
            r.bytes_written += FileBytes(*store_, key);
        }
        return "";
    }

    std::string BuildSim(const core::SweepCandidate& c,
                         const workloads::WorkloadSpec& spec,
                         const std::vector<const qec::StabilizerCode*>& units,
                         const std::vector<core::CompileArtifacts>& arts,
                         const std::vector<noise::RoundNoiseProfile>& profiles,
                         size_t primary, const store::StoreKey& ckey,
                         int request, Replay& r, core::SimArtifacts& out)
    {
        store::StoreKey key;
        if (store_ != nullptr) {
            std::string err;
            store::LoadStatus status;
            {
                Span span(tracer_, "store.load", request);
                // The runner's key normalisation: only memory reads the
                // basis.
                const int basis =
                    spec.kind == workloads::WorkloadKind::kMemory
                        ? static_cast<int>(spec.basis)
                        : 0;
                key = store::SimStoreKey(
                    store::NoiseStoreKey(ckey, c.arch.gate_improvement),
                    Rounds(c), basis, static_cast<int>(spec.kind),
                    spec.program ? spec.program->canonical_text()
                                 : std::string());
                status = store_->LoadSim(key, &out, &err);
            }
            if (Probe(status, key, r)) {
                return status == store::LoadStatus::kCorrupt ? err : "";
            }
        }
        try {
            Span span(tracer_, "sim.build", request);
            if (spec.program) {
                std::vector<core::ProgramUnit> punits;
                for (size_t u = 0; u < units.size(); ++u) {
                    punits.push_back({units[u], &arts[u], &profiles[u]});
                }
                out = core::BuildProgramSimArtifacts(*spec.program, punits,
                                                     c.arch, Rounds(c));
            } else {
                out = core::BuildSimArtifacts(*c.code, arts[primary],
                                              profiles[primary], c.arch,
                                              Rounds(c), spec);
            }
        } catch (const std::exception& e) {
            return e.what();
        }
        if (store_ != nullptr) {
            Span span(tracer_, "store.write", request);
            store_->StoreSim(key, out);
            r.bytes_written += FileBytes(*store_, key);
        }
        return "";
    }

    /** Counts a store probe; true when the probe settled the stage. */
    bool Probe(store::LoadStatus status, const store::StoreKey& key,
               Replay& r)
    {
        if (status == store::LoadStatus::kMiss) {
            ++r.store_misses;
            return false;
        }
        if (status == store::LoadStatus::kHit) {
            ++r.store_hits;
            r.bytes_read += FileBytes(*store_, key);
        }
        return true;
    }

    std::string MonteCarlo(const core::SweepCandidate& c,
                           const core::SimArtifacts& arts, int request,
                           Replay& r)
    {
        const sim::NoisyCircuit& circuit = arts.experiment;
        if (circuit.num_observables() < 1) {
            return "LerShardRun: circuit has no logical observable";
        }
        if (c.options.decode_path != sim::DecodePath::kBatch) {
            return "replay supports the batch decode path only";
        }
        const Clock::time_point mc_start = Clock::now();
        const int shard_shots = ShardShots(c.options.shard_shots);
        const std::int64_t budget = c.options.max_shots;
        const std::int64_t target = c.options.target_logical_errors;
        const std::int64_t num_shards =
            (budget + shard_shots - 1) / shard_shots;
        const int num_obs = circuit.num_observables();
        r.per_observable_errors.assign(static_cast<size_t>(num_obs), 0);
        std::unique_ptr<decoder::UnionFindDecoder> uf;
        {
            Span span(tracer_, "decoder.build", request);
            uf = std::make_unique<decoder::UnionFindDecoder>(
                arts.dem,
                decoder::UnionFindDecoder::Options{c.options.correlated});
        }
        std::vector<std::uint64_t> predictions;
        for (std::int64_t k = 0; k < num_shards; ++k) {
            Span shard(tracer_, "mc.shard", request);
            const int n = static_cast<int>(
                std::min<std::int64_t>(shard_shots, budget - k * shard_shots));
            std::unique_ptr<sim::SampleBatch> batch;
            {
                Span span(tracer_, "sim.sample", request);
                sim::FrameSimulator simulator(
                    circuit, Rng(c.options.seed, static_cast<std::uint64_t>(k)));
                batch = std::make_unique<sim::SampleBatch>(simulator.Sample(n));
            }
            decoder::UnionFindDecoder::BatchOutcome outcome;
            try {
                Span span(tracer_, "decoder.decode", request);
                outcome = uf->DecodeBatch(*batch, predictions);
            } catch (const std::exception& e) {
                return e.what();
            }
            r.decoded_shots += outcome.decoded_shots;
            r.sample_bytes += static_cast<std::int64_t>(batch->num_detectors()) *
                              n / 8;
            const size_t words = static_cast<size_t>(batch->words());
            for (int w = 0; w < batch->words(); ++w) {
                const std::uint64_t valid = batch->WordValidMask(w);
                std::uint64_t mismatch = 0;
                for (int o = 0; o < num_obs; ++o) {
                    const std::uint64_t diff =
                        predictions[static_cast<size_t>(o) * words +
                                    static_cast<size_t>(w)] ^
                        batch->ObservableWord(o, w);
                    r.per_observable_errors[static_cast<size_t>(o)] +=
                        std::popcount(diff & valid);
                    mismatch |= diff;
                }
                r.logical_errors += std::popcount(mismatch & valid);
            }
            r.shots += n;
            if (target > 0 && r.logical_errors >= target) {
                break;
            }
        }
        r.mc_ms = Ms(mc_start, Clock::now());
        return "";
    }

    Tracer& tracer_;
    const store::ArtifactStore* store_;
};

struct ReplayPass
{
    std::vector<Replay> replays;
    double total_s = 0.0;
    std::int64_t validated_loads = 0;
};

/** Replays every request serially; with `store_dir`, first a cold pass
 *  into a fresh store there and then a warm pass over it. */
ReplayPass
ReplayCorpus(const std::vector<std::string>& lines, Tracer& tracer,
             const std::string& store_dir)
{
    ReplayPass pass;
    std::unique_ptr<store::ArtifactStore> st;
    int passes = 1;
    if (!store_dir.empty()) {
        fs::remove_all(store_dir);
        st = std::make_unique<store::ArtifactStore>(store_dir);
        passes = 2;
    }
    Replayer replayer(tracer, st.get());
    const Clock::time_point start = Clock::now();
    int request = 0;
    for (int p = 0; p < passes; ++p) {
        for (const std::string& line : lines) {
            pass.replays.push_back(replayer.Run(line, request++));
        }
    }
    pass.total_s = SecondsSince(start);
    if (st) {
        pass.validated_loads = st->counters().validated;
    }
    return pass;
}

/** Chrome trace-event JSON: one complete ("X") event per span. */
std::string
ChromeTrace(const Tracer& tracer, const std::vector<Replay>& replays)
{
    std::string out = "[\n";
    const auto& records = tracer.records();
    for (size_t i = 0; i < records.size(); ++i) {
        const Tracer::Record& rec = records[i];
        const std::string& label =
            replays[static_cast<size_t>(rec.request)].label;
        const double ts = 1000.0 * Ms(tracer.origin(), rec.start);
        const double dur = 1000.0 * Ms(rec.start, rec.end);
        Object args;
        args.Str("request", label)
            .Int("span", static_cast<std::int64_t>(i))
            .Int("parent_span", rec.parent)
            .Str("parent", rec.parent < 0
                               ? ""
                               : records[static_cast<size_t>(rec.parent)].name)
            .Dbl("end_us", ts + dur);
        Object ev;
        ev.Str("name", rec.name)
            .Str("cat", rec.name.substr(0, rec.name.find('.')))
            .Str("ph", "X")
            .Dbl("ts", ts)
            .Dbl("dur", dur)
            .Int("pid", 1)
            .Int("tid", 1)
            .Str("id", label)
            .Raw("args", args.str());
        out += ev.str();
        out += i + 1 < records.size() ? ",\n" : "\n";
    }
    return out + "]\n";
}

struct LayerTime
{
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::int64_t count = 0;
};

/** Inclusive and self time per span name; self time is a span's
 *  duration minus its children's (children never overlap: the replay is
 *  serial). */
std::map<std::string, LayerTime>
LayerTimes(const Tracer& tracer)
{
    const auto& records = tracer.records();
    std::vector<double> child_ms(records.size(), 0.0);
    for (const Tracer::Record& rec : records) {
        if (rec.parent >= 0) {
            child_ms[static_cast<size_t>(rec.parent)] += Ms(rec.start, rec.end);
        }
    }
    std::map<std::string, LayerTime> out;
    for (size_t i = 0; i < records.size(); ++i) {
        const double ms = Ms(records[i].start, records[i].end);
        LayerTime& lt = out[records[i].name];
        lt.total_ms += ms;
        lt.self_ms += ms - child_ms[i];
        ++lt.count;
    }
    return out;
}

std::string
ReplayLine(const Replay& r)
{
    Object o;
    o.Str("label", r.label)
        .Bool("ok", r.ok)
        .Str("error", r.error)
        .Int("qubits", r.qubits)
        .Int("movement_ops", r.movement_ops)
        .Int("detectors", r.detectors)
        .Int("dem_mechanisms", r.mechanisms)
        .Int("dem_hyperedges", r.hyperedges)
        .Int("shots", r.shots)
        .Int("logical_errors", r.logical_errors)
        .Raw("per_observable_errors", IntList(r.per_observable_errors))
        .Int("decoded_shots", r.decoded_shots)
        .Dbl("mc_ms", r.mc_ms)
        .Bool("certified", r.certified)
        .Dbl("certify_ms", r.certify_ms)
        .Dbl("total_ms", r.total_ms);
    return o.str();
}

int
RunTraceMode(const std::string& corpus, const Args& args)
{
    const fs::path out_dir(args.out);
    fs::create_directories(out_dir);
    const std::vector<std::string> lines = RequestLines(corpus);

    // One service batch (after the cold fill when a store is used): the
    // reference result lines and the pool-utilisation sample.
    std::int64_t store_bytes = 0;
    if (!args.store.empty()) {
        fs::remove_all(args.store);
        ServeBatch(corpus, args);
        store_bytes = static_cast<std::int64_t>(DirectoryBytes(args.store));
    }
    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const store::SweepServiceResult service = ServeBatch(corpus, args);
    const double batch_wall = SecondsSince(t0);
    const double batch_cpu = CpuSeconds() - cpu0;

    const std::string replay_store =
        args.store.empty() ? "" : args.store + "-replay";
    Tracer traced(true);
    const ReplayPass pass = ReplayCorpus(lines, traced, replay_store);
    Tracer untraced(false);
    const ReplayPass plain = ReplayCorpus(lines, untraced, replay_store);
    if (!replay_store.empty()) {
        fs::remove_all(replay_store);
    }

    std::string replay_jsonl;
    for (const Replay& r : pass.replays) {
        replay_jsonl += ReplayLine(r) + "\n";
    }
    const std::map<std::string, LayerTime> layers = LayerTimes(traced);
    Object self_times;
    for (const auto& [name, lt] : layers) {
        self_times.Raw(name, Object()
                                 .Dbl("total_ms", lt.total_ms)
                                 .Dbl("self_ms", lt.self_ms)
                                 .Int("count", lt.count)
                                 .str());
    }
    if (!WriteText(out_dir / "replay.jsonl", replay_jsonl) ||
        !WriteText(out_dir / "service.jsonl",
                   JoinLines(service.result_lines)) ||
        !WriteText(out_dir / "trace.json",
                   ChromeTrace(traced, pass.replays)) ||
        !WriteText(out_dir / "layers.json", self_times.str() + "\n")) {
        std::fprintf(stderr, "cannot write to %s\n", args.out.c_str());
        return 1;
    }

    // Per-layer aggregates over the traced pass.
    const auto ms = [&](const char* name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.total_ms;
    };
    std::int64_t movement_ops = 0, shots = 0, decoded = 0, sample_bytes = 0;
    std::int64_t detectors = 0, mechanisms = 0, hyperedges = 0;
    std::int64_t certify_mechs = 0, certify_obs = 0, certify_exact = 0;
    std::int64_t hits = 0, misses = 0, bytes_read = 0, bytes_written = 0;
    double critical_path = 0.0;
    for (const Replay& r : pass.replays) {
        movement_ops += r.movement_ops;
        shots += r.shots;
        decoded += r.decoded_shots;
        sample_bytes += r.sample_bytes;
        detectors += r.detectors;
        mechanisms += r.mechanisms;
        hyperedges += r.hyperedges;
        certify_mechs += r.certify_mechanisms;
        certify_obs += r.certify_observables;
        certify_exact += r.certify_exact;
        hits += r.store_hits;
        misses += r.store_misses;
        bytes_read += r.bytes_read;
        bytes_written += r.bytes_written;
        critical_path = std::max(critical_path, r.total_ms);
    }
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    Object metrics;
    metrics.Dbl("compiler.compile_ms", ms("compiler.compile"))
        .Int("compiler.movement_ops", movement_ops)
        .Dbl("noise.annotate_ms", ms("noise.annotate"))
        .Dbl("decoder.build_ms", ms("decoder.build"))
        .Dbl("decoder.decode_ms", ms("decoder.decode"))
        .Dbl("decoder.nontrivial_fraction", ratio(decoded, shots))
        .Dbl("decoder.us_per_nontrivial_shot",
             ratio(1000.0 * ms("decoder.decode"), decoded))
        .Dbl("sim.sample_ms", ms("sim.sample"))
        .Int("sim.shots", shots)
        .Int("sim.sample_bytes", sample_bytes)
        .Dbl("sim.build_ms", ms("sim.build"))
        .Int("sim.detectors", detectors)
        .Int("sim.dem_mechanisms", mechanisms)
        .Dbl("sim.hyperedge_fraction", ratio(hyperedges, mechanisms))
        .Dbl("analysis.certify_ms", ms("analysis.certify"))
        .Int("analysis.certify_mechanisms", certify_mechs)
        .Dbl("analysis.certify_exact_fraction",
             ratio(certify_exact, certify_obs))
        .Dbl("analysis.validate_ms", ms("analysis.validate"))
        .Dbl("store.load_ms", ms("store.load"))
        .Int("store.bytes_read", bytes_read)
        .Dbl("store.hit_ratio", ratio(hits, hits + misses))
        .Int("store.validated_loads", pass.validated_loads)
        .Dbl("store.write_ms", ms("store.write"))
        .Int("store.bytes_written", bytes_written)
        .Dbl("store.mb_on_disk", static_cast<double>(store_bytes) / 1e6)
        .Dbl("core.parse_ms", ms("core.parse"))
        .Dbl("core.critical_path_ms", critical_path)
        .Dbl("core.pool_utilization",
             ratio(batch_cpu, batch_wall * args.threads))
        .Dbl("trace.replay_s", pass.total_s)
        .Dbl("trace.untraced_replay_s", plain.total_s)
        .Dbl("trace.overhead_fraction",
             ratio(pass.total_s - plain.total_s, plain.total_s));
    Object report;
    report.Str("mode", "trace")
        .Int("requests", service.num_requests)
        .Int("ok", service.num_ok)
        .Int("threads", args.threads)
        .Int("spans", static_cast<std::int64_t>(traced.records().size()))
        .Raw("metrics", metrics.str());
    std::printf("%s\n", report.str().c_str());
    return 0;
}

int
Usage()
{
    std::fprintf(stderr,
                 "usage: request_bench batch|trace --requests FILE "
                 "--threads N [--seconds S] [--setups K] [--results FILE] "
                 "[--out DIR] [--store DIR]\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        return Usage();
    }
    Args args;
    args.mode = argv[1];
    try {
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            const std::string value = argv[i + 1];
            if (key == "--requests") {
                args.requests = value;
            } else if (key == "--results") {
                args.results = value;
            } else if (key == "--out") {
                args.out = value;
            } else if (key == "--store") {
                args.store = value;
            } else if (key == "--threads") {
                args.threads = std::stoi(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--setups") {
                args.setups = std::stoi(value);
            } else {
                return Usage();
            }
        }
    } catch (const std::exception&) {
        return Usage();
    }
    if (args.requests.empty() || args.threads < 1 || args.setups < 1) {
        return Usage();
    }
    std::ifstream in(args.requests, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", args.requests.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string corpus = text.str();
    try {
        if (args.mode == "batch" && !args.results.empty()) {
            return RunBatchMode(corpus, args);
        }
        if (args.mode == "trace" && !args.out.empty()) {
            return RunTraceMode(corpus, args);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "request_bench: %s\n", e.what());
        return 1;
    }
    return Usage();
}
