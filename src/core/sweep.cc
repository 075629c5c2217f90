#include "core/sweep.h"

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

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

CompileKey
CompileKeyOf(const SweepCandidate& c, const qec::StabilizerCode* unit)
{
    return {static_cast<const void*>(unit),
            static_cast<const void*>(c.device.get()),
            static_cast<int>(c.arch.topology), c.arch.trap_capacity,
            static_cast<int>(c.arch.wiring), c.compile_rounds};
}

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

/** Claims indices [0, n) off an atomic counter across the pool. */
template <typename Fn>
void
ParallelForIndex(int num_threads, std::int64_t n, const Fn& fn)
{
    std::atomic<std::int64_t> next{0};
    RunWorkers(num_threads, n, [&]() {
        for (;;) {
            const std::int64_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) {
                return;
            }
            fn(i);
        }
    });
}

int
RoundsOf(const SweepCandidate& c)
{
    return c.options.rounds > 0 ? c.options.rounds : c.code->distance();
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

    // Reject malformed candidates up front; everything else flows through
    // the staged cache. `invalid[i]` short-circuits the later phases.
    std::vector<std::string> invalid(n);
    std::vector<workloads::WorkloadSpec> specs(n);
    std::vector<std::vector<const qec::StabilizerCode*>> units(n);
    std::vector<size_t> primary(n, 0);
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        if (!c.code) {
            invalid[i] = "candidate has no code";
            continue;
        }
        if (c.compile_rounds < 1) {
            invalid[i] = "compile_rounds must be >= 1";
            continue;
        }
        if (c.options.rounds != -1 && c.options.rounds < 1) {
            invalid[i] = "rounds must be -1 (the code distance) or >= 1, "
                         "got " +
                         std::to_string(c.options.rounds);
            continue;
        }
        if (c.compile_rounds != 1 && !c.options.compile_only) {
            invalid[i] = "multi-round compilation is compile-only (the "
                         "noise annotator requires a one-round schedule)";
            continue;
        }
        specs[i] = c.options.workload;
        invalid[i] = CheckProgramCandidate(*c.code, specs[i]);
        if (!invalid[i].empty()) {
            continue;
        }
        units[i] = UnitCodesFor(*c.code, specs[i]);
        if (specs[i].program != nullptr) {
            primary[i] =
                static_cast<size_t>(specs[i].program->primary_index());
        }
    }

    // ---- Stage 1: compile once per unique key, pool-parallel. With a
    // store attached, each unique compile probes the store first: a hit
    // skips the compiler entirely, a corrupt artifact isolates the
    // candidate with the store's diagnostic (exactly like a compile
    // error), and a miss compiles and persists the successful bundle.
    using UnitExemplar =
        std::pair<const SweepCandidate*, const qec::StabilizerCode*>;
    std::map<CompileKey, std::shared_ptr<CompileArtifacts>> compile_cache;
    for (size_t i = 0; i < n; ++i) {
        if (invalid[i].empty()) {
            for (const qec::StabilizerCode* unit : units[i]) {
                compile_cache.try_emplace(
                    CompileKeyOf(candidates[i], unit),
                    std::make_shared<CompileArtifacts>());
            }
        }
    }
    // Content-addressed store keys, resolved once per unique compile
    // (CodeFingerprint serialises the whole code; no need to redo that
    // in the noise/sim stages).
    std::map<CompileKey, store::StoreKey> store_keys;
    {
        std::vector<std::pair<const CompileKey*, CompileArtifacts*>> tasks;
        tasks.reserve(compile_cache.size());
        std::map<CompileKey, UnitExemplar> exemplar;
        for (size_t i = 0; i < n; ++i) {
            if (invalid[i].empty()) {
                for (const qec::StabilizerCode* unit : units[i]) {
                    exemplar.try_emplace(CompileKeyOf(candidates[i], unit),
                                         UnitExemplar{&candidates[i], unit});
                }
            }
        }
        if (astore != nullptr) {
            for (const auto& [key, ex] : exemplar) {
                store_keys.try_emplace(
                    key, store::CompileStoreKey(
                             *ex.second, ex.first->arch,
                             ex.first->compile_rounds,
                             ex.first->device.get()));
            }
        }
        for (auto& [key, arts] : compile_cache) {
            tasks.emplace_back(&key, arts.get());
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const auto& [candidate, unit] = exemplar.at(*tasks[t].first);
                const SweepCandidate& c = *candidate;
                CompileArtifacts& arts = *tasks[t].second;
                if (astore != nullptr) {
                    const store::StoreKey& skey =
                        store_keys.at(*tasks[t].first);
                    std::string err;
                    const store::LoadStatus status = astore->LoadCompile(
                        skey, *unit, c.arch, c.compile_rounds,
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
                arts = CompileCandidate(*unit, c.arch, c.compile_rounds,
                                        c.device.get());
                num_compiles.fetch_add(1, std::memory_order_relaxed);
                if (astore != nullptr && arts.ok) {
                    astore->StoreCompile(store_keys.at(*tasks[t].first),
                                         arts);
                }
            });
    }

    // ---- Stage 1b: artifact validation once per compile key that any
    // validating candidate references. A failure gates only candidates
    // with validate_artifacts set (the cached artifacts stay shared), and
    // its formatted diagnostics flow through failure isolation exactly
    // like a compile error.
    std::map<CompileKey, std::string> compile_validation;
    {
        std::map<CompileKey, const SweepCandidate*> exemplar;
        for (size_t i = 0; i < n; ++i) {
            const SweepCandidate& c = candidates[i];
            if (invalid[i].empty() && c.options.validate_artifacts) {
                for (const qec::StabilizerCode* unit : units[i]) {
                    const CompileKey ck = CompileKeyOf(c, unit);
                    if (compile_cache.at(ck)->ok) {
                        compile_validation.try_emplace(ck);
                        exemplar.try_emplace(ck, &c);
                    }
                }
            }
        }
        std::vector<std::pair<const CompileKey*, std::string*>> tasks;
        tasks.reserve(compile_validation.size());
        for (auto& [key, error] : compile_validation) {
            tasks.emplace_back(&key, &error);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const SweepCandidate& c = *exemplar.at(*tasks[t].first);
                const CompileArtifacts& arts =
                    *compile_cache.at(*tasks[t].first);
                const std::vector<analysis::Diagnostic> diags =
                    analysis::ValidateCompiledArtifacts(
                        arts.compiled, arts.graph, arts.timing,
                        c.arch.wiring == WiringKind::kWise);
                num_validations.fetch_add(1, std::memory_order_relaxed);
                if (!diags.empty()) {
                    num_validation_failures.fetch_add(
                        1, std::memory_order_relaxed);
                    *tasks[t].second = analysis::FormatDiagnostics(
                        analysis::kCompiledSubject, diags);
                }
            });
    }
    // Per-candidate gates over every unit, in `UnitCodesFor` order, so
    // the first failing unit decides the reported error text whatever
    // order the pool ran the units in. Single-unit candidates reduce to
    // one-key checks.
    const auto unit_compile_error = [&](size_t i) -> const std::string* {
        const SweepCandidate& c = candidates[i];
        for (const qec::StabilizerCode* unit : units[i]) {
            const CompileArtifacts& arts =
                *compile_cache.at(CompileKeyOf(c, unit));
            if (!arts.ok) {
                return &arts.error;
            }
        }
        return nullptr;
    };
    const auto unit_validation_error = [&](size_t i) -> const std::string* {
        const SweepCandidate& c = candidates[i];
        if (!c.options.validate_artifacts) {
            return nullptr;
        }
        for (const qec::StabilizerCode* unit : units[i]) {
            const auto it = compile_validation.find(CompileKeyOf(c, unit));
            if (it != compile_validation.end() && !it->second.empty()) {
                return &it->second;
            }
        }
        return nullptr;
    };

    // ---- Stage 2: annotate once per unique noise scenario (per unit).
    std::map<NoiseKey, NoiseEntry> noise_cache;
    {
        std::map<NoiseKey, UnitExemplar> exemplar;
        for (size_t i = 0; i < n; ++i) {
            const SweepCandidate& c = candidates[i];
            if (!invalid[i].empty() || c.compile_rounds != 1) {
                continue;
            }
            if (unit_compile_error(i) != nullptr ||
                unit_validation_error(i) != nullptr) {
                continue;
            }
            for (const qec::StabilizerCode* unit : units[i]) {
                const NoiseKey nk{CompileKeyOf(c, unit),
                                  c.arch.gate_improvement};
                noise_cache.try_emplace(nk);
                exemplar.try_emplace(nk, UnitExemplar{&c, unit});
            }
        }
        std::vector<std::pair<const NoiseKey*, NoiseEntry*>> tasks;
        tasks.reserve(noise_cache.size());
        for (auto& [key, entry] : noise_cache) {
            tasks.emplace_back(&key, &entry);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const auto& [candidate, unit] = exemplar.at(*tasks[t].first);
                const SweepCandidate& c = *candidate;
                NoiseEntry& entry = *tasks[t].second;
                const CompileKey ck = CompileKeyOf(c, unit);
                const CompileArtifacts& comp = *compile_cache.at(ck);
                store::StoreKey nkey;
                if (astore != nullptr) {
                    nkey = store::NoiseStoreKey(store_keys.at(ck),
                                                c.arch.gate_improvement);
                    std::string err;
                    const store::LoadStatus status = astore->LoadNoise(
                        nkey, comp.compiled.qec_circuit.size(),
                        unit->num_qubits(), &entry.profile, &err);
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
                    entry.profile = AnnotateCandidate(*unit, c.arch, comp);
                    num_annotates.fetch_add(1, std::memory_order_relaxed);
                    entry.ok = true;
                    if (astore != nullptr) {
                        astore->StoreNoise(nkey, entry.profile);
                    }
                } catch (const std::exception& e) {
                    entry.error = e.what();
                }
            });
    }
    const auto unit_noise_error = [&](size_t i) -> const std::string* {
        const SweepCandidate& c = candidates[i];
        for (const qec::StabilizerCode* unit : units[i]) {
            const NoiseEntry& entry = noise_cache.at(
                NoiseKey{CompileKeyOf(c, unit), c.arch.gate_improvement});
            if (!entry.ok) {
                return &entry.error;
            }
        }
        return nullptr;
    };

    // ---- Stage 3: experiment + DEM once per unique experiment shape.
    // The primary unit's noise key leads the sim key; a program
    // candidate additionally needs every phase unit's artifacts, which
    // the exemplar's candidate index recovers.
    const auto primary_nk_of = [&](size_t i) {
        const SweepCandidate& c = candidates[i];
        return NoiseKey{CompileKeyOf(c, units[i][primary[i]]),
                        c.arch.gate_improvement};
    };
    std::map<SimKey, SimEntry> sim_cache;
    {
        std::map<SimKey, size_t> exemplar;
        for (size_t i = 0; i < n; ++i) {
            const SweepCandidate& c = candidates[i];
            if (!invalid[i].empty() || c.options.compile_only ||
                c.compile_rounds != 1) {
                continue;
            }
            if (unit_compile_error(i) != nullptr ||
                unit_validation_error(i) != nullptr ||
                unit_noise_error(i) != nullptr) {
                continue;
            }
            const SimKey sk =
                SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
            sim_cache.try_emplace(sk);
            exemplar.try_emplace(sk, i);
        }
        std::vector<std::pair<const SimKey*, SimEntry*>> tasks;
        tasks.reserve(sim_cache.size());
        for (auto& [key, entry] : sim_cache) {
            tasks.emplace_back(&key, &entry);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const SimKey& sk = *tasks[t].first;
                const size_t i = exemplar.at(sk);
                const SweepCandidate& c = candidates[i];
                SimEntry& entry = *tasks[t].second;
                const CompileKey ck = CompileKeyOf(c, units[i][primary[i]]);
                const NoiseKey nk{ck, c.arch.gate_improvement};
                store::StoreKey skey;
                if (astore != nullptr) {
                    // Rounds/basis/workload come off the (normalised)
                    // in-memory key so the store shares exactly what
                    // the in-memory cache shares; a program workload
                    // contributes its canonical text (content identity,
                    // where the in-memory key uses object identity).
                    skey = store::SimStoreKey(
                        store::NoiseStoreKey(store_keys.at(ck),
                                             c.arch.gate_improvement),
                        std::get<1>(sk), std::get<2>(sk), std::get<3>(sk),
                        specs[i].program != nullptr
                            ? specs[i].program->canonical_text()
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
                    if (specs[i].program != nullptr) {
                        std::vector<ProgramUnit> punits;
                        punits.reserve(units[i].size());
                        for (const qec::StabilizerCode* unit : units[i]) {
                            const CompileKey uck = CompileKeyOf(c, unit);
                            punits.push_back(ProgramUnit{
                                unit, compile_cache.at(uck).get(),
                                &noise_cache
                                     .at(NoiseKey{uck,
                                                  c.arch.gate_improvement})
                                     .profile});
                        }
                        *entry.arts = BuildProgramSimArtifacts(
                            *specs[i].program, punits, c.arch, RoundsOf(c));
                    } else {
                        *entry.arts = BuildSimArtifacts(
                            *c.code, *compile_cache.at(ck),
                            noise_cache.at(nk).profile, c.arch, RoundsOf(c),
                            specs[i]);
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
    }

    // ---- Stage 3b: validate the simulation artifacts once per sim key
    // any validating candidate references (circuit + DEM rules, plus the
    // workload-aware unreferenced-record check). Candidates sharing a
    // sim key share the code object and workload, so the exemplar's
    // validation options are the key's options.
    std::map<SimKey, std::string> sim_validation;
    {
        std::map<SimKey, size_t> exemplar;
        for (size_t i = 0; i < n; ++i) {
            const SweepCandidate& c = candidates[i];
            if (!invalid[i].empty() || c.options.compile_only ||
                c.compile_rounds != 1 || !c.options.validate_artifacts) {
                continue;
            }
            if (unit_compile_error(i) != nullptr ||
                unit_validation_error(i) != nullptr ||
                unit_noise_error(i) != nullptr) {
                continue;
            }
            const SimKey sk =
                SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
            if (sim_cache.at(sk).ok) {
                sim_validation.try_emplace(sk);
                exemplar.try_emplace(sk, i);
            }
        }
        std::vector<std::pair<const SimKey*, std::string*>> tasks;
        tasks.reserve(sim_validation.size());
        for (auto& [key, error] : sim_validation) {
            tasks.emplace_back(&key, &error);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const size_t i = exemplar.at(*tasks[t].first);
                const SweepCandidate& c = candidates[i];
                const SimEntry& entry = sim_cache.at(*tasks[t].first);
                const std::vector<analysis::Diagnostic> diags =
                    analysis::ValidateSimArtifacts(
                        entry.arts->experiment, entry.arts->dem,
                        analysis::SimValidationOptionsFor(*c.code,
                                                          specs[i]));
                num_validations.fetch_add(1, std::memory_order_relaxed);
                if (!diags.empty()) {
                    num_validation_failures.fetch_add(
                        1, std::memory_order_relaxed);
                    *tasks[t].second = analysis::FormatDiagnostics(
                        analysis::kSimSubject, diags);
                }
            });
    }
    const auto sim_invalidated = [&](const SweepCandidate& c,
                                     const SimKey& sk) {
        if (!c.options.validate_artifacts) {
            return false;
        }
        const auto it = sim_validation.find(sk);
        return it != sim_validation.end() && !it->second.empty();
    };

    // ---- Stage 3c: certify the effective fault distance once per sim
    // key any certifying candidate references. A sub-distance (or
    // uncertifiable) result isolates the candidate exactly like a
    // compile error.
    std::map<SimKey, std::string> sim_certification;
    {
        std::map<SimKey, size_t> exemplar;
        for (size_t i = 0; i < n; ++i) {
            const SweepCandidate& c = candidates[i];
            if (!invalid[i].empty() || c.options.compile_only ||
                c.compile_rounds != 1 || !c.options.certify_distance) {
                continue;
            }
            if (unit_compile_error(i) != nullptr ||
                unit_validation_error(i) != nullptr ||
                unit_noise_error(i) != nullptr) {
                continue;
            }
            const SimKey sk =
                SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
            if (sim_cache.at(sk).ok && !sim_invalidated(c, sk)) {
                sim_certification.try_emplace(sk);
                exemplar.try_emplace(sk, i);
            }
        }
        std::vector<std::pair<const SimKey*, std::string*>> tasks;
        tasks.reserve(sim_certification.size());
        for (auto& [key, error] : sim_certification) {
            tasks.emplace_back(&key, &error);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const SweepCandidate& c =
                    candidates[exemplar.at(*tasks[t].first)];
                const SimEntry& entry = sim_cache.at(*tasks[t].first);
                const std::vector<analysis::Diagnostic> diags =
                    analysis::CheckDistance(entry.arts->dem,
                                            c.code->distance());
                num_certifies.fetch_add(1, std::memory_order_relaxed);
                if (!diags.empty()) {
                    num_certify_failures.fetch_add(
                        1, std::memory_order_relaxed);
                    *tasks[t].second = analysis::FormatDiagnostics(
                        analysis::kCertifySubject, diags);
                }
            });
    }
    const auto certify_failed = [&](const SweepCandidate& c,
                                    const SimKey& sk) {
        if (!c.options.certify_distance) {
            return false;
        }
        const auto it = sim_certification.find(sk);
        return it != sim_certification.end() && !it->second.empty();
    };

    // ---- Stage 4: every candidate's Monte-Carlo shards on the shared
    // pool through the one driver, sim::RunLerShards. Each run's shard
    // streams and in-order commit are its own, so the totals are
    // bit-identical to a one-candidate run at every pool width, and a
    // decode failure isolates only its candidate.
    std::vector<std::unique_ptr<sim::LerShardRun>> runs(n);
    std::vector<std::string> run_errors(n);
    std::vector<sim::LerShardRun*> active;
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        if (!invalid[i].empty() || c.options.compile_only ||
            c.compile_rounds != 1 || c.options.max_shots <= 0) {
            continue;
        }
        if (unit_compile_error(i) != nullptr ||
            unit_validation_error(i) != nullptr ||
            unit_noise_error(i) != nullptr) {
            continue;
        }
        const SimKey sk = SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
        const SimEntry& sim_entry = sim_cache.at(sk);
        if (!sim_entry.ok || sim_invalidated(c, sk) ||
            certify_failed(c, sk)) {
            continue;
        }
        sim::ParallelSamplerOptions sopts;
        sopts.seed = c.options.seed;
        sopts.shard_shots = c.options.shard_shots;
        sopts.decode_path = c.options.decode_path;
        sopts.correlated = c.options.correlated;
        try {
            runs[i] = std::make_unique<sim::LerShardRun>(
                sim_entry.arts->experiment, sim_entry.arts->dem, sopts,
                c.options.max_shots, c.options.target_logical_errors);
            active.push_back(runs[i].get());
        } catch (const std::exception& e) {
            run_errors[i] = e.what();
        }
    }
    sim::RunLerShards(threads, active);

    // ---- Assemble outcomes in candidate order.
    auto failed_stub = [](const std::string& error) {
        auto stub = std::make_shared<CompileArtifacts>();
        stub->error = error;
        return stub;
    };
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        SweepOutcome& out = outcomes[i];
        out.label = c.label;
        Metrics& metrics = out.metrics;
        if (!invalid[i].empty()) {
            metrics.error = invalid[i];
            out.compile = failed_stub(invalid[i]);
            continue;
        }
        // The candidate's reported compile artifacts are its *primary*
        // unit's; failure texts follow unit order within a phase, and
        // compile before validation before noise across phases.
        const CompileKey pck = CompileKeyOf(c, units[i][primary[i]]);
        out.compile = compile_cache.at(pck);
        if (const std::string* err = unit_compile_error(i)) {
            metrics.error = *err;
            continue;
        }
        if (const std::string* err = unit_validation_error(i)) {
            metrics.error = *err;
            continue;
        }
        const noise::RoundNoiseProfile* profile = nullptr;
        if (c.compile_rounds == 1) {
            if (const std::string* err = unit_noise_error(i)) {
                metrics.error = *err;
                continue;
            }
            profile = &noise_cache
                           .at(NoiseKey{pck, c.arch.gate_improvement})
                           .profile;
        }
        FillCompileMetrics(*c.code, c.arch, *out.compile, profile,
                           RoundsOf(c), metrics);
        if (c.options.compile_only) {
            metrics.ok = true;
            continue;
        }
        const SimKey sk = SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
        const SimEntry& sim_entry = sim_cache.at(sk);
        if (!sim_entry.ok) {
            metrics.error = sim_entry.error;
            continue;
        }
        out.sim = sim_entry.arts;
        if (sim_invalidated(c, sk)) {
            metrics.error = sim_validation.at(sk);
            continue;
        }
        if (certify_failed(c, sk)) {
            metrics.error = sim_certification.at(sk);
            continue;
        }
        // A non-positive budget samples nothing but still reports an
        // (empty) estimate; the sim artifacts are built, validated, and
        // reported on.
        sim::LogicalErrorEstimate run;
        if (c.options.max_shots > 0) {
            if (!runs[i]) {
                metrics.error = run_errors[i];
                continue;
            }
            if (runs[i]->failure()) {
                metrics.error = ErrorText(runs[i]->failure());
                continue;
            }
            run = runs[i]->Finish();
        }
        const LerEstimate ler = FinishLerEstimate(
            run.shots, run.logical_errors, run.per_observable_errors,
            run.shards, run.early_stopped, RoundsOf(c));
        metrics.shots = ler.shots;
        metrics.logical_errors = ler.logical_errors;
        metrics.ler_per_shot = ler.ler_per_shot;
        metrics.ler_per_round = ler.ler_per_round;
        metrics.per_observable_errors = ler.per_observable_errors;
        metrics.per_observable_ler = ler.per_observable_ler;
        const sim::DetectorErrorModel& dem = sim_entry.arts->dem;
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
