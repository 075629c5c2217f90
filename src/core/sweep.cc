#include "core/sweep.h"

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "common/worker_pool.h"
#include "sim/parallel_sampler.h"
#include "store/artifact_store.h"
#include "store/keys.h"

namespace tiqec::core {

namespace {

/** Everything the compile stage depends on. The unit code and device
 *  enter by object identity: two (candidate, unit) pairs share a
 *  compile iff they share the unit-code object (and any device
 *  override). For a program candidate the units are the program's
 *  phase codes (`UnitCodesFor`); everything else has one unit, the
 *  candidate's own code. */
using CompileKey = std::tuple<const void*, const void*, int /*topology*/,
                              int /*capacity*/, int /*wiring*/,
                              int /*compile_rounds*/>;
/** + the noise scenario (the profile depends on the improvement factor
 *  and, through the compile key's wiring, on WISE cooling). */
using NoiseKey = std::tuple<CompileKey, double /*gate_improvement*/>;
/** + the experiment shape. The workload joins `rounds` and `basis` in
 *  the key (not the compile/noise keys): a memory, a stability, and a
 *  surgery candidate on the same merged code and device share the
 *  compiled schedule and noise profile and differ only here. The
 *  leading NoiseKey is the candidate's *primary* unit; the trailing
 *  pointer is the bound program's identity (null for every other
 *  workload), so two candidates share a stitched program circuit iff
 *  they share the program object. */
using SimKey = std::tuple<NoiseKey, int /*rounds*/, int /*basis*/,
                          int /*workload*/, const void* /*program*/>;

SimKey
SimKeyOf(const NoiseKey& primary_nk, const workloads::WorkloadSpec& spec,
         int rounds)
{
    // Only the memory workload reads the basis; normalising it out of
    // the key for surgery/stability/program keeps basis-varying
    // candidate lists sharing one experiment/DEM entry.
    const int basis = spec.kind == workloads::WorkloadKind::kMemory
                          ? static_cast<int>(spec.basis)
                          : 0;
    return {primary_nk, rounds, basis, static_cast<int>(spec.kind),
            static_cast<const void*>(spec.program.get())};
}

/** A candidate's stage keys, computed once: one noise key per unit (in
 *  `UnitCodesFor` order; its leading element is the unit's compile
 *  key) and the sim key of its primary unit. */
struct CandidateKeys
{
    std::vector<const qec::StabilizerCode*> units;
    std::vector<NoiseKey> unit_keys;
    size_t primary = 0;
    int rounds = 0;
    SimKey sim;
};

struct CompileEntry
{
    /** Shared with every outcome that reads this entry. */
    std::shared_ptr<CompileArtifacts> arts =
        std::make_shared<CompileArtifacts>();
    /** Content-addressed store key (set only with a store attached);
     *  the noise and sim store keys chain off it. */
    store::StoreKey store_key;
};

struct NoiseEntry
{
    bool ok = false;
    std::string error;
    noise::RoundNoiseProfile profile;
    store::StoreKey store_key;
};

struct SimEntry
{
    bool ok = false;
    std::string error;
    /** Shared with every outcome that reads this entry. */
    std::shared_ptr<SimArtifacts> arts = std::make_shared<SimArtifacts>();
};

/** The first (candidate, unit) that asked for a key, in candidate
 *  order. A stage body reads its inputs off this exemplar, so which
 *  worker runs a key never changes what it computes. */
struct Exemplar
{
    size_t candidate = 0;
    size_t unit = 0;
};

/**
 * One stage's keyed cache. `Want` collects the distinct keys the live
 * candidates ask for; `Run` computes each entry once on the pool,
 * workers claiming keys in key order off an atomic counter.
 */
template <typename Key, typename Entry>
class KeyedStage
{
  public:
    void Want(const Key& key, size_t candidate, size_t unit = 0)
    {
        const auto [it, inserted] = slots_.try_emplace(key);
        if (inserted) {
            it->second.exemplar = Exemplar{candidate, unit};
        }
    }

    /** Calls `body(key, exemplar, entry)` once per wanted key. */
    template <typename Body>
    void Run(int num_threads, const Body& body)
    {
        std::vector<std::pair<const Key, Slot>*> tasks;
        tasks.reserve(slots_.size());
        for (auto& slot : slots_) {
            tasks.push_back(&slot);
        }
        const auto n = static_cast<std::int64_t>(tasks.size());
        std::atomic<std::int64_t> next{0};
        RunWorkers(num_threads, n, [&]() {
            for (;;) {
                const std::int64_t t =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (t >= n) {
                    return;
                }
                body(tasks[t]->first, tasks[t]->second.exemplar,
                     tasks[t]->second.entry);
            }
        });
    }

    const Entry& at(const Key& key) const { return slots_.at(key).entry; }

  private:
    struct Slot
    {
        Exemplar exemplar;
        Entry entry;
    };
    std::map<Key, Slot> slots_;
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
    // `gate` then records the first error a live candidate meets, so
    // failure precedence is stage order (and unit order within a
    // stage) whatever order the pool ran the keys in.
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
            const CompileKey ck{static_cast<const void*>(unit),
                                static_cast<const void*>(c.device.get()),
                                static_cast<int>(c.arch.topology),
                                c.arch.trap_capacity,
                                static_cast<int>(c.arch.wiring),
                                c.compile_rounds};
            k.unit_keys.emplace_back(ck, c.arch.gate_improvement);
        }
        if (spec.program != nullptr) {
            k.primary = static_cast<size_t>(spec.program->primary_index());
        }
        k.rounds = c.options.rounds > 0 ? c.options.rounds
                                        : c.code->distance();
        k.sim = SimKeyOf(k.unit_keys[k.primary], spec, k.rounds);
    }
    const auto live = [&](size_t i) {
        return failed[i].at == FailedAt::kNowhere;
    };
    const auto simulates = [&](size_t i) {
        return live(i) && !candidates[i].options.compile_only;
    };
    const auto gate = [&](FailedAt at, const auto& error_of) {
        for (size_t i = 0; i < n; ++i) {
            if (live(i)) {
                if (const std::string* error = error_of(i)) {
                    failed[i] = {at, *error};
                }
            }
        }
    };
    const auto compile_key = [](const NoiseKey& nk) -> const CompileKey& {
        return std::get<0>(nk);
    };

    // ---- Stage 1: compile once per unique key. With a store attached,
    // each unique compile probes the store first: a hit skips the
    // compiler entirely, a corrupt artifact isolates the candidate with
    // the store's diagnostic (exactly like a compile error), and a miss
    // compiles and persists the successful bundle.
    KeyedStage<CompileKey, CompileEntry> compile;
    for (size_t i = 0; i < n; ++i) {
        if (live(i)) {
            for (size_t u = 0; u < keys[i].units.size(); ++u) {
                compile.Want(compile_key(keys[i].unit_keys[u]), i, u);
            }
        }
    }
    compile.Run(threads, [&](const CompileKey&, const Exemplar& ex,
                             CompileEntry& entry) {
        const SweepCandidate& c = candidates[ex.candidate];
        const qec::StabilizerCode& unit = *keys[ex.candidate].units[ex.unit];
        CompileArtifacts& arts = *entry.arts;
        if (astore != nullptr) {
            entry.store_key = store::CompileStoreKey(
                unit, c.arch, c.compile_rounds, c.device.get());
            std::string err;
            const store::LoadStatus status = astore->LoadCompile(
                entry.store_key, unit, c.arch, c.compile_rounds,
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
            astore->StoreCompile(entry.store_key, arts);
        }
    });
    gate(FailedAt::kCompile, [&](size_t i) -> const std::string* {
        for (const NoiseKey& nk : keys[i].unit_keys) {
            const CompileArtifacts& arts = *compile.at(compile_key(nk)).arts;
            if (!arts.ok) {
                return &arts.error;
            }
        }
        return nullptr;
    });

    // ---- Stage 1b: artifact validation once per compile key that any
    // validating candidate references. A failure gates only candidates
    // with validate_artifacts set (the cached artifacts stay shared), and
    // its formatted diagnostics flow through failure isolation exactly
    // like a compile error.
    KeyedStage<CompileKey, std::string> compile_check;
    for (size_t i = 0; i < n; ++i) {
        if (live(i) && candidates[i].options.validate_artifacts) {
            for (size_t u = 0; u < keys[i].units.size(); ++u) {
                compile_check.Want(compile_key(keys[i].unit_keys[u]), i, u);
            }
        }
    }
    compile_check.Run(threads, [&](const CompileKey& ck, const Exemplar& ex,
                                   std::string& error) {
        const CompileArtifacts& arts = *compile.at(ck).arts;
        const std::vector<analysis::Diagnostic> diags =
            analysis::ValidateCompiledArtifacts(
                arts.compiled, arts.graph, arts.timing,
                candidates[ex.candidate].arch.wiring == WiringKind::kWise);
        num_validations.fetch_add(1, std::memory_order_relaxed);
        if (!diags.empty()) {
            num_validation_failures.fetch_add(1, std::memory_order_relaxed);
            error = analysis::FormatDiagnostics(analysis::kCompiledSubject,
                                                diags);
        }
    });
    gate(FailedAt::kCompile, [&](size_t i) -> const std::string* {
        if (candidates[i].options.validate_artifacts) {
            for (const NoiseKey& nk : keys[i].unit_keys) {
                const std::string& error = compile_check.at(compile_key(nk));
                if (!error.empty()) {
                    return &error;
                }
            }
        }
        return nullptr;
    });

    // ---- Stage 2: annotate once per unique noise scenario (per unit).
    // Multi-round compile-only candidates have no noise profile.
    const auto annotated = [&](size_t i) {
        return live(i) && candidates[i].compile_rounds == 1;
    };
    KeyedStage<NoiseKey, NoiseEntry> noise;
    for (size_t i = 0; i < n; ++i) {
        if (annotated(i)) {
            for (size_t u = 0; u < keys[i].units.size(); ++u) {
                noise.Want(keys[i].unit_keys[u], i, u);
            }
        }
    }
    noise.Run(threads, [&](const NoiseKey& nk, const Exemplar& ex,
                           NoiseEntry& entry) {
        const SweepCandidate& c = candidates[ex.candidate];
        const qec::StabilizerCode& unit = *keys[ex.candidate].units[ex.unit];
        const CompileEntry& comp = compile.at(compile_key(nk));
        if (astore != nullptr) {
            entry.store_key = store::NoiseStoreKey(comp.store_key,
                                                   c.arch.gate_improvement);
            std::string err;
            const store::LoadStatus status = astore->LoadNoise(
                entry.store_key, comp.arts->compiled.qec_circuit.size(),
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
            entry.profile = AnnotateCandidate(unit, c.arch, *comp.arts);
            num_annotates.fetch_add(1, std::memory_order_relaxed);
            entry.ok = true;
            if (astore != nullptr) {
                astore->StoreNoise(entry.store_key, entry.profile);
            }
        } catch (const std::exception& e) {
            entry.error = e.what();
        }
    });
    gate(FailedAt::kCompile, [&](size_t i) -> const std::string* {
        if (annotated(i)) {
            for (const NoiseKey& nk : keys[i].unit_keys) {
                const NoiseEntry& entry = noise.at(nk);
                if (!entry.ok) {
                    return &entry.error;
                }
            }
        }
        return nullptr;
    });

    // ---- Stage 3: experiment + DEM once per unique experiment shape.
    // The primary unit's noise key leads the sim key; a program
    // candidate additionally needs every phase unit's artifacts, which
    // the exemplar's candidate keys recover.
    KeyedStage<SimKey, SimEntry> sim;
    for (size_t i = 0; i < n; ++i) {
        if (simulates(i)) {
            sim.Want(keys[i].sim, i);
        }
    }
    sim.Run(threads, [&](const SimKey& sk, const Exemplar& ex,
                         SimEntry& entry) {
        const SweepCandidate& c = candidates[ex.candidate];
        const CandidateKeys& k = keys[ex.candidate];
        const workloads::WorkloadSpec& spec = c.options.workload;
        const NoiseKey& primary_nk = k.unit_keys[k.primary];
        store::StoreKey skey;
        if (astore != nullptr) {
            // Rounds/basis/workload come off the (normalised) in-memory
            // key so the store shares exactly what the in-memory cache
            // shares; a program workload contributes its canonical text
            // (content identity, where the in-memory key uses object
            // identity).
            skey = store::SimStoreKey(
                noise.at(primary_nk).store_key, std::get<1>(sk),
                std::get<2>(sk), std::get<3>(sk),
                spec.program != nullptr ? spec.program->canonical_text()
                                        : std::string());
            std::string err;
            const store::LoadStatus status =
                astore->LoadSim(skey, entry.arts.get(), &err);
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
                        k.units[u],
                        compile.at(compile_key(k.unit_keys[u])).arts.get(),
                        &noise.at(k.unit_keys[u]).profile});
                }
                *entry.arts = BuildProgramSimArtifacts(*spec.program, punits,
                                                       c.arch, k.rounds);
            } else {
                *entry.arts = BuildSimArtifacts(
                    *c.code, *compile.at(compile_key(primary_nk)).arts,
                    noise.at(primary_nk).profile, c.arch, k.rounds, spec);
            }
            num_sim_builds.fetch_add(1, std::memory_order_relaxed);
            entry.ok = true;
            if (astore != nullptr) {
                astore->StoreSim(skey, *entry.arts);
            }
        } catch (const std::exception& e) {
            entry.error = e.what();
        }
    });
    gate(FailedAt::kSimBuild, [&](size_t i) -> const std::string* {
        if (simulates(i)) {
            const SimEntry& entry = sim.at(keys[i].sim);
            if (!entry.ok) {
                return &entry.error;
            }
        }
        return nullptr;
    });

    // ---- Stages 3b and 3c: validate the simulation artifacts (circuit
    // + DEM rules, plus the workload-aware unreferenced-record check),
    // then certify the effective fault distance, each once per sim key
    // any opted-in candidate references. Candidates sharing a sim key
    // share the code object and workload, so the exemplar's options are
    // the key's options. A failure isolates the candidate exactly like
    // a compile error.
    const auto check_sim = [&](bool EvaluationOptions::*opt_in,
                               const auto& check, std::string_view subject,
                               std::atomic<std::int64_t>& runs,
                               std::atomic<std::int64_t>& failures) {
        KeyedStage<SimKey, std::string> stage;
        for (size_t i = 0; i < n; ++i) {
            if (simulates(i) && candidates[i].options.*opt_in) {
                stage.Want(keys[i].sim, i);
            }
        }
        stage.Run(threads, [&](const SimKey& sk, const Exemplar& ex,
                               std::string& error) {
            const std::vector<analysis::Diagnostic> diags =
                check(candidates[ex.candidate], *sim.at(sk).arts);
            runs.fetch_add(1, std::memory_order_relaxed);
            if (!diags.empty()) {
                failures.fetch_add(1, std::memory_order_relaxed);
                error = analysis::FormatDiagnostics(subject, diags);
            }
        });
        gate(FailedAt::kSimUse, [&](size_t i) -> const std::string* {
            if (simulates(i) && candidates[i].options.*opt_in) {
                const std::string& error = stage.at(keys[i].sim);
                if (!error.empty()) {
                    return &error;
                }
            }
            return nullptr;
        });
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

    // ---- Stage 4: every candidate's Monte-Carlo shards on the shared
    // pool through the one driver, sim::RunLerShards. Each run's shard
    // streams and in-order commit are its own, so the totals are
    // bit-identical to a one-candidate run at every pool width, and a
    // decode failure isolates only its candidate.
    std::vector<std::unique_ptr<sim::LerShardRun>> runs(n);
    std::vector<sim::LerShardRun*> active;
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        if (!simulates(i) || c.options.max_shots <= 0) {
            continue;
        }
        const SimArtifacts& arts = *sim.at(keys[i].sim).arts;
        sim::ParallelSamplerOptions sopts;
        sopts.seed = c.options.seed;
        sopts.shard_shots = c.options.shard_shots;
        sopts.decode_path = c.options.decode_path;
        sopts.correlated = c.options.correlated;
        try {
            runs[i] = std::make_unique<sim::LerShardRun>(
                arts.experiment, arts.dem, sopts, c.options.max_shots,
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
        const NoiseKey& primary_nk = k.unit_keys[k.primary];
        out.compile = compile.at(compile_key(primary_nk)).arts;
        if (failure.at == FailedAt::kCompile) {
            continue;
        }
        FillCompileMetrics(*c.code, c.arch, *out.compile,
                           c.compile_rounds == 1
                               ? &noise.at(primary_nk).profile
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
