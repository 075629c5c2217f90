#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "common/worker_pool.h"
#include "decoder/decoding_graph.h"
#include "sim/parallel_sampler.h"
#include "store/artifact_store.h"
#include "store/keys.h"

namespace tiqec::core {

namespace {

/** A candidate's stage keys, computed once: per unit (in
 *  `UnitCodesFor` order) its compile and noise keys, the sim key of its
 *  primary unit, and its decoding-graph key (sim key + correlated).
 *  They are the store's content keys (store/keys.h), so candidates share
 *  an entry exactly when the content the stage reads is equal, whether
 *  or not they share objects. The graph is never persisted; its key
 *  only indexes the in-memory cache. */
struct CandidateKeys
{
    std::vector<const qec::StabilizerCode*> units;
    std::vector<store::StoreKey> compile;
    std::vector<store::StoreKey> noise;
    size_t primary = 0;
    int rounds = 0;
    store::StoreKey sim;
    store::StoreKey graph;
};

struct CompileEntry
{
    /** Shared with every outcome that reads this entry. */
    std::shared_ptr<CompileArtifacts> arts =
        std::make_shared<CompileArtifacts>();
};

struct NoiseEntry
{
    bool ok = false;
    std::string error;
    noise::RoundNoiseProfile profile;
};

struct SimEntry
{
    bool ok = false;
    std::string error;
    /** Shared with every outcome that reads this entry. */
    std::shared_ptr<SimArtifacts> arts = std::make_shared<SimArtifacts>();
};

struct GraphEntry
{
    std::string error;
    /** Shared read-only by every Monte-Carlo run of this key. */
    std::shared_ptr<const decoder::DecodingGraph> graph;
};

/** The first (candidate, unit) that asked for a key. A stage body
 *  reads its inputs off this exemplar; every asker of a key has equal
 *  content, so neither the asking order nor the worker that runs a key
 *  changes what it computes. */
struct Exemplar
{
    size_t candidate = 0;
    size_t unit = 0;
};

/**
 * One stage's keyed cache. `Want` collects the distinct keys the live
 * candidates ask for; `Run` computes each entry once on the pool,
 * workers claiming keys in the order they were first asked for off an
 * atomic counter. The index holds views of the canonical strings,
 * which the run's `CandidateKeys` own and never modify once built.
 */
template <typename Entry>
class KeyedStage
{
  public:
    void Want(const store::StoreKey& key, size_t candidate, size_t unit)
    {
        if (index_.try_emplace(key.canonical, slots_.size()).second) {
            slots_.push_back({Exemplar{candidate, unit}, Entry{}});
        }
    }

    /** Calls `body(exemplar, entry)` once per wanted key. */
    template <typename Body>
    void Run(int num_threads, const Body& body)
    {
        const auto n = static_cast<std::int64_t>(slots_.size());
        std::atomic<std::int64_t> next{0};
        RunWorkers(num_threads, n, [&]() {
            for (;;) {
                const std::int64_t t =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (t >= n) {
                    return;
                }
                body(slots_[t].exemplar, slots_[t].entry);
            }
        });
    }

    const Entry& at(const store::StoreKey& key) const
    {
        return slots_[index_.at(key.canonical)].entry;
    }

  private:
    struct Slot
    {
        Exemplar exemplar;
        Entry entry;
    };
    std::map<std::string_view, size_t> index_;
    std::vector<Slot> slots_;
};

/** How far a candidate got before its first failure. The outcome
 *  carries the artifacts of every stage before that point. */
enum class FailedAt : std::uint8_t
{
    kNowhere,
    /** Malformed candidate: stub compile artifacts only. */
    kInput,
    /** A compile, compile validation or annotate of some unit: the
     *  primary unit's compile artifacts, no metrics. */
    kCompile,
    /** The experiment + DEM build: compile metrics, no sim artifacts. */
    kSimBuild,
    /** Sim validation, certification or the Monte-Carlo run: compile
     *  metrics and sim artifacts. */
    kSimUse,
};

struct Failure
{
    FailedAt at = FailedAt::kNowhere;
    std::string error;
};

/** The message of a captured exception (a Monte-Carlo shard failure). */
std::string
ErrorText(const std::exception_ptr& error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

/** Why a candidate cannot enter the chain at all, or empty. */
std::string
InvalidReason(const SweepCandidate& c)
{
    if (!c.code) {
        return "candidate has no code";
    }
    if (c.compile_rounds < 1) {
        return "compile_rounds must be >= 1";
    }
    if (c.options.rounds != -1 && c.options.rounds < 1) {
        return "rounds must be -1 (the code distance) or >= 1, got " +
               std::to_string(c.options.rounds);
    }
    if (c.compile_rounds != 1 && !c.options.compile_only) {
        return "multi-round compilation is compile-only (the noise "
               "annotator requires a one-round schedule)";
    }
    return CheckProgramCandidate(*c.code, c.options.workload);
}

}  // namespace

SweepRunner::SweepRunner(const SweepRunnerOptions& options)
    : options_(options)
{
}

std::vector<SweepOutcome>
SweepRunner::RunDetailed(const std::vector<SweepCandidate>& candidates)
{
    const int threads = ResolveWorkerThreads(options_.num_threads);
    const size_t n = candidates.size();
    std::vector<SweepOutcome> outcomes(n);

    // Per-run work accounting. Stage executions are counted at the
    // compute sites (a cache or store hit performs none); store probe
    // outcomes come from diffing the store's monotonic counters around
    // the run.
    last_run_stats_ = SweepRunStats{};
    std::atomic<std::int64_t> num_compiles{0};
    std::atomic<std::int64_t> num_annotates{0};
    std::atomic<std::int64_t> num_sim_builds{0};
    std::atomic<std::int64_t> num_decoder_builds{0};
    std::atomic<std::int64_t> num_validations{0};
    std::atomic<std::int64_t> num_validation_failures{0};
    std::atomic<std::int64_t> num_certifies{0};
    std::atomic<std::int64_t> num_certify_failures{0};
    const store::ArtifactStore* astore = options_.store.get();
    const store::ArtifactStore::Counters store_before =
        astore != nullptr ? astore->counters()
                          : store::ArtifactStore::Counters{};

    // Every candidate holds one first-failure slot. Malformed ones fail
    // here; each stage below runs for the candidates still live, and
    // then records the first error a live candidate meets, so failure
    // precedence is stage order (and unit order within a stage)
    // whatever order the pool ran the keys in.
    std::vector<Failure> failed(n);
    std::vector<CandidateKeys> keys(n);
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        if (std::string reason = InvalidReason(c); !reason.empty()) {
            failed[i] = {FailedAt::kInput, std::move(reason)};
            continue;
        }
        const workloads::WorkloadSpec& spec = c.options.workload;
        CandidateKeys& k = keys[i];
        k.units = UnitCodesFor(*c.code, spec);
        for (const qec::StabilizerCode* unit : k.units) {
            k.compile.push_back(store::CompileStoreKey(
                *unit, c.arch, c.compile_rounds, c.device.get()));
            k.noise.push_back(store::NoiseStoreKey(k.compile.back(),
                                                   c.arch.gate_improvement));
        }
        if (spec.program != nullptr) {
            k.primary = static_cast<size_t>(spec.program->primary_index());
        }
        k.rounds = c.options.rounds > 0 ? c.options.rounds
                                        : c.code->distance();
        k.sim = store::SimStoreKey(k.noise[k.primary], k.rounds, spec);
        k.graph = {"graph", "graph|correlated=" +
                                std::to_string(c.options.correlated ? 1 : 0) +
                                "|" + k.sim.canonical};
    }
    const auto live = [&](size_t i) {
        return failed[i].at == FailedAt::kNowhere;
    };
    const auto simulates = [&](size_t i) {
        return live(i) && !candidates[i].options.compile_only;
    };
    // Candidates ask for keys largest first (qubits x rounds), so the
    // pool claims the longest compiles and DEM builds before the short
    // ones instead of letting them trail the batch.
    std::vector<size_t> by_size;
    for (size_t i = 0; i < n; ++i) {
        if (live(i)) {
            by_size.push_back(i);
        }
    }
    const auto size_of = [&](size_t i) {
        return std::int64_t{candidates[i].code->num_qubits()} * keys[i].rounds;
    };
    std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
        return size_of(a) > size_of(b);
    });

    using Keys = std::span<const store::StoreKey>;
    // Every stage runs the same way: each live candidate `wants` picks
    // asks for its keys (`keys_of`: one per unit, or its one sim key),
    // each distinct key is computed once on `width` workers, and the
    // candidate then fails at `at` with the first of its entries that
    // `error_of` flags.
    const auto run_stage = [&](auto& stage, FailedAt at, const auto& keys_of,
                               const auto& wants, const auto& body,
                               const auto& error_of, int width) {
        for (const size_t i : by_size) {
            if (wants(i)) {
                const Keys ks = keys_of(i);
                for (size_t u = 0; u < ks.size(); ++u) {
                    stage.Want(ks[u], i, u);
                }
            }
        }
        stage.Run(width, body);
        for (size_t i = 0; i < n; ++i) {
            if (wants(i)) {
                for (const store::StoreKey& key : keys_of(i)) {
                    if (const std::string* error = error_of(stage.at(key))) {
                        failed[i] = {at, *error};
                        break;
                    }
                }
            }
        }
    };
    const auto compile_keys = [&](size_t i) { return Keys(keys[i].compile); };
    const auto noise_keys = [&](size_t i) { return Keys(keys[i].noise); };
    const auto sim_key = [&](size_t i) { return Keys(&keys[i].sim, 1); };
    const auto graph_key = [&](size_t i) { return Keys(&keys[i].graph, 1); };
    const auto error_text = [](const std::string& error) {
        return error.empty() ? nullptr : &error;
    };
    const auto entry_error = [](const auto& entry) {
        return entry.ok ? nullptr : &entry.error;
    };

    // ---- Stage 1: compile once per unique key. With a store attached,
    // each unique compile probes the store under its key first: a hit
    // skips the compiler entirely, a corrupt artifact isolates the
    // candidate with the store's diagnostic (exactly like a compile
    // error), and a miss compiles and persists the successful bundle.
    KeyedStage<CompileEntry> compile;
    run_stage(
        compile, FailedAt::kCompile, compile_keys, live,
        [&](const Exemplar& ex, CompileEntry& entry) {
            const SweepCandidate& c = candidates[ex.candidate];
            const CandidateKeys& k = keys[ex.candidate];
            const qec::StabilizerCode& unit = *k.units[ex.unit];
            CompileArtifacts& arts = *entry.arts;
            if (astore != nullptr) {
                std::string err;
                const store::LoadStatus status = astore->LoadCompile(
                    k.compile[ex.unit], unit, c.arch, c.compile_rounds,
                    c.device.get(), &arts, &err);
                if (status == store::LoadStatus::kHit) {
                    return;
                }
                if (status == store::LoadStatus::kCorrupt) {
                    arts = CompileArtifacts{};
                    arts.error = err;
                    return;
                }
            }
            arts = CompileCandidate(unit, c.arch, c.compile_rounds,
                                    c.device.get());
            num_compiles.fetch_add(1, std::memory_order_relaxed);
            if (astore != nullptr && arts.ok) {
                astore->StoreCompile(k.compile[ex.unit], arts);
            }
        },
        [](const CompileEntry& entry) {
            return entry.arts->ok ? nullptr : &entry.arts->error;
        },
        threads);

    // ---- Stage 1b: artifact validation once per compile key that any
    // validating candidate references. A failure gates only candidates
    // with validate_artifacts set (the cached artifacts stay shared), and
    // its formatted diagnostics flow through failure isolation exactly
    // like a compile error.
    KeyedStage<std::string> compile_check;
    run_stage(
        compile_check, FailedAt::kCompile, compile_keys,
        [&](size_t i) {
            return live(i) && candidates[i].options.validate_artifacts;
        },
        [&](const Exemplar& ex, std::string& error) {
            const CompileArtifacts& arts =
                *compile.at(keys[ex.candidate].compile[ex.unit]).arts;
            const std::vector<analysis::Diagnostic> diags =
                analysis::ValidateCompiledArtifacts(
                    arts.compiled, arts.graph, arts.timing,
                    candidates[ex.candidate].arch.wiring ==
                        WiringKind::kWise);
            num_validations.fetch_add(1, std::memory_order_relaxed);
            if (!diags.empty()) {
                num_validation_failures.fetch_add(1,
                                                  std::memory_order_relaxed);
                error = analysis::FormatDiagnostics(
                    analysis::kCompiledSubject, diags);
            }
        },
        error_text,
        threads);

    // ---- Stage 2: annotate once per unique noise scenario (per unit).
    // Multi-round compile-only candidates have no noise profile.
    KeyedStage<NoiseEntry> noise;
    run_stage(
        noise, FailedAt::kCompile, noise_keys,
        [&](size_t i) {
            return live(i) && candidates[i].compile_rounds == 1;
        },
        [&](const Exemplar& ex, NoiseEntry& entry) {
            const SweepCandidate& c = candidates[ex.candidate];
            const CandidateKeys& k = keys[ex.candidate];
            const qec::StabilizerCode& unit = *k.units[ex.unit];
            const CompileArtifacts& arts = *compile.at(k.compile[ex.unit]).arts;
            if (astore != nullptr) {
                std::string err;
                const store::LoadStatus status = astore->LoadNoise(
                    k.noise[ex.unit], arts.compiled.qec_circuit.size(),
                    unit.num_qubits(), &entry.profile, &err);
                if (status == store::LoadStatus::kHit) {
                    entry.ok = true;
                    return;
                }
                if (status == store::LoadStatus::kCorrupt) {
                    entry.error = err;
                    return;
                }
            }
            try {
                entry.profile = AnnotateCandidate(unit, c.arch, arts);
                num_annotates.fetch_add(1, std::memory_order_relaxed);
                entry.ok = true;
                if (astore != nullptr) {
                    astore->StoreNoise(k.noise[ex.unit], entry.profile);
                }
            } catch (const std::exception& e) {
                entry.error = e.what();
            }
        },
        entry_error,
        threads);

    // ---- Stage 3: experiment + DEM once per unique experiment shape.
    // The primary unit's noise key leads the sim key; a program
    // candidate additionally needs every phase unit's artifacts, which
    // the exemplar's candidate keys recover.
    KeyedStage<SimEntry> sim;
    run_stage(
        sim, FailedAt::kSimBuild, sim_key, simulates,
        [&](const Exemplar& ex, SimEntry& entry) {
            const SweepCandidate& c = candidates[ex.candidate];
            const CandidateKeys& k = keys[ex.candidate];
            const workloads::WorkloadSpec& spec = c.options.workload;
            if (astore != nullptr) {
                std::string err;
                const store::LoadStatus status =
                    astore->LoadSim(k.sim, entry.arts.get(), &err);
                if (status == store::LoadStatus::kHit) {
                    entry.ok = true;
                    return;
                }
                if (status == store::LoadStatus::kCorrupt) {
                    entry.error = err;
                    return;
                }
            }
            try {
                if (spec.program != nullptr) {
                    std::vector<ProgramUnit> punits;
                    punits.reserve(k.units.size());
                    for (size_t u = 0; u < k.units.size(); ++u) {
                        punits.push_back(ProgramUnit{
                            k.units[u], compile.at(k.compile[u]).arts.get(),
                            &noise.at(k.noise[u]).profile});
                    }
                    *entry.arts = BuildProgramSimArtifacts(
                        *spec.program, punits, c.arch, k.rounds);
                } else {
                    *entry.arts = BuildSimArtifacts(
                        *c.code, *compile.at(k.compile[k.primary]).arts,
                        noise.at(k.noise[k.primary]).profile, c.arch,
                        k.rounds, spec);
                }
                num_sim_builds.fetch_add(1, std::memory_order_relaxed);
                entry.ok = true;
                if (astore != nullptr) {
                    astore->StoreSim(k.sim, *entry.arts);
                }
            } catch (const std::exception& e) {
                entry.error = e.what();
            }
        },
        entry_error,
        threads);

    // ---- Stages 3b and 3c: validate the simulation artifacts (circuit
    // + DEM rules, plus the workload-aware unreferenced-record check),
    // then certify the effective fault distance, each once per sim key
    // any opted-in candidate references. Candidates sharing a sim key
    // share the code content and workload, so the exemplar's options are
    // the key's options. A failure isolates the candidate exactly like
    // a compile error.
    const auto check_sim = [&](bool EvaluationOptions::*opt_in,
                               const auto& check, std::string_view subject,
                               std::atomic<std::int64_t>& runs,
                               std::atomic<std::int64_t>& failures) {
        KeyedStage<std::string> stage;
        run_stage(
            stage, FailedAt::kSimUse, sim_key,
            [&](size_t i) {
                return simulates(i) && candidates[i].options.*opt_in;
            },
            [&](const Exemplar& ex, std::string& error) {
                const std::vector<analysis::Diagnostic> diags =
                    check(candidates[ex.candidate],
                          *sim.at(keys[ex.candidate].sim).arts);
                runs.fetch_add(1, std::memory_order_relaxed);
                if (!diags.empty()) {
                    failures.fetch_add(1, std::memory_order_relaxed);
                    error = analysis::FormatDiagnostics(subject, diags);
                }
            },
            error_text,
        threads);
    };
    check_sim(
        &EvaluationOptions::validate_artifacts,
        [](const SweepCandidate& c, const SimArtifacts& arts) {
            return analysis::ValidateSimArtifacts(
                arts.experiment, arts.dem,
                analysis::SimValidationOptionsFor(*c.code,
                                                  c.options.workload));
        },
        analysis::kSimSubject, num_validations, num_validation_failures);
    check_sim(
        &EvaluationOptions::certify_distance,
        [](const SweepCandidate& c, const SimArtifacts& arts) {
            return analysis::CheckDistance(arts.dem, c.code->distance());
        },
        analysis::kCertifySubject, num_certifies, num_certify_failures);

    // ---- Stage 3d: the decoding graph once per (sim key, correlated)
    // any sampling candidate references. Its Monte-Carlo workers share
    // it read-only; each brings only its own decode scratch. The graphs
    // are built on this thread. Built on pool workers, their sort
    // scratch left the workers' malloc arenas holding freed memory, and
    // a warm design sweep's peak RSS rose 10-23%; one thread costs ~0.1
    // s of its batch wall time (the 49 graphs take ~125 ms serially).
    const auto samples = [&](size_t i) {
        return simulates(i) && candidates[i].options.max_shots > 0;
    };
    KeyedStage<GraphEntry> graphs;
    run_stage(
        graphs, FailedAt::kSimUse, graph_key, samples,
        [&](const Exemplar& ex, GraphEntry& entry) {
            try {
                entry.graph = std::make_shared<const decoder::DecodingGraph>(
                    sim.at(keys[ex.candidate].sim).arts->dem,
                    decoder::DecodingGraph::Options{
                        candidates[ex.candidate].options.correlated});
                num_decoder_builds.fetch_add(1, std::memory_order_relaxed);
            } catch (const std::exception& e) {
                entry.error = e.what();
            }
        },
        [](const GraphEntry& entry) {
            return entry.graph ? nullptr : &entry.error;
        },
        1);

    // ---- Stage 4: every candidate's Monte-Carlo shards on the shared
    // pool through the one driver, sim::RunLerShards. Each run's shard
    // streams and in-order commit are its own, so the totals are
    // bit-identical to a one-candidate run at every pool width, and a
    // decode failure isolates only its candidate.
    std::vector<std::unique_ptr<sim::LerShardRun>> runs(n);
    std::vector<sim::LerShardRun*> active;
    for (size_t i = 0; i < n; ++i) {
        if (!samples(i)) {
            continue;
        }
        const SweepCandidate& c = candidates[i];
        sim::ParallelSamplerOptions sopts;
        sopts.seed = c.options.seed;
        sopts.shard_shots = c.options.shard_shots;
        sopts.decode_path = c.options.decode_path;
        try {
            runs[i] = std::make_unique<sim::LerShardRun>(
                sim.at(keys[i].sim).arts->experiment,
                graphs.at(keys[i].graph).graph, sopts, c.options.max_shots,
                c.options.target_logical_errors);
            active.push_back(runs[i].get());
        } catch (const std::exception& e) {
            failed[i] = {FailedAt::kSimUse, e.what()};
        }
    }
    sim::RunLerShards(threads, active);
    for (size_t i = 0; i < n; ++i) {
        if (runs[i] && runs[i]->failure()) {
            failed[i] = {FailedAt::kSimUse, ErrorText(runs[i]->failure())};
        }
    }

    // ---- Assemble outcomes in candidate order. The reported compile
    // artifacts are the candidate's *primary* unit's.
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        const Failure& failure = failed[i];
        SweepOutcome& out = outcomes[i];
        out.label = c.label;
        Metrics& metrics = out.metrics;
        metrics.error = failure.error;
        if (failure.at == FailedAt::kInput) {
            auto stub = std::make_shared<CompileArtifacts>();
            stub->error = failure.error;
            out.compile = std::move(stub);
            continue;
        }
        const CandidateKeys& k = keys[i];
        out.compile = compile.at(k.compile[k.primary]).arts;
        if (failure.at == FailedAt::kCompile) {
            continue;
        }
        FillCompileMetrics(*c.code, c.arch, *out.compile,
                           c.compile_rounds == 1
                               ? &noise.at(k.noise[k.primary]).profile
                               : nullptr,
                           k.rounds, metrics);
        if (failure.at == FailedAt::kSimBuild) {
            continue;
        }
        if (c.options.compile_only) {
            metrics.ok = true;
            continue;
        }
        out.sim = sim.at(k.sim).arts;
        if (failure.at == FailedAt::kSimUse) {
            continue;
        }
        // A non-positive budget samples nothing but still reports an
        // (empty) estimate; the sim artifacts are built, validated, and
        // reported on.
        sim::LogicalErrorEstimate run;
        if (runs[i]) {
            run = runs[i]->Finish();
        }
        const LerEstimate ler = FinishLerEstimate(
            run.shots, run.logical_errors, run.per_observable_errors,
            run.shards, run.early_stopped, k.rounds);
        metrics.shots = ler.shots;
        metrics.logical_errors = ler.logical_errors;
        metrics.ler_per_shot = ler.ler_per_shot;
        metrics.ler_per_round = ler.ler_per_round;
        metrics.per_observable_errors = ler.per_observable_errors;
        metrics.per_observable_ler = ler.per_observable_ler;
        const sim::DetectorErrorModel& dem = out.sim->dem;
        metrics.dem_hyperedges = dem.num_hyperedges;
        metrics.dem_undecomposable = dem.num_undecomposable;
        metrics.dem_dropped_probability = dem.dropped_probability;
        metrics.dem_undecomposable_probability =
            dem.undecomposable_probability;
        metrics.ok = true;
    }
    last_run_stats_.compiles = num_compiles.load();
    last_run_stats_.annotates = num_annotates.load();
    last_run_stats_.sim_builds = num_sim_builds.load();
    last_run_stats_.decoder_builds = num_decoder_builds.load();
    last_run_stats_.validations = num_validations.load();
    last_run_stats_.validation_failures = num_validation_failures.load();
    last_run_stats_.certifies = num_certifies.load();
    last_run_stats_.certify_failures = num_certify_failures.load();
    if (astore != nullptr) {
        const store::ArtifactStore::Counters after = astore->counters();
        last_run_stats_.store_hits = after.hits - store_before.hits;
        last_run_stats_.store_misses = after.misses - store_before.misses;
        last_run_stats_.store_corrupt = after.corrupt - store_before.corrupt;
        last_run_stats_.store_writes = after.writes - store_before.writes;
        last_run_stats_.store_validated =
            after.validated - store_before.validated;
    }
    return outcomes;
}

std::vector<Metrics>
SweepRunner::Run(const std::vector<SweepCandidate>& candidates)
{
    std::vector<SweepOutcome> outcomes = RunDetailed(candidates);
    std::vector<Metrics> metrics;
    metrics.reserve(outcomes.size());
    for (auto& outcome : outcomes) {
        metrics.push_back(std::move(outcome.metrics));
    }
    return metrics;
}

}  // namespace tiqec::core
