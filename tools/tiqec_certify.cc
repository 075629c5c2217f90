/**
 * @file
 * Standalone distance certification driver (DESIGN.md §6.5): request
 * file in (same `key=value` line format as the sweep service), JSONL
 * certification report out, JSON run summary on stdout.
 *
 *   tiqec_certify <request-file> <output-jsonl> \
 *       [--store DIR] [--reference] [--max-weight W]
 *
 * By default every request's experiment + DEM comes from one
 * `core::SweepRunner` run over the whole batch — with `--store DIR`
 * read through and written through the artifact store, so a warm
 * store performs zero compiles — and the tool then runs the static
 * distance certifier on each DEM and reports the per-observable
 * effective distance and witness. The summary carries the runner's
 * stage and store counts. `--reference` compiles fresh through the
 * paper-faithful reference pipeline instead, the oracle the fast
 * compiler is checked against; it bypasses `--store` because store
 * keys deliberately do not encode the pipeline choice.
 *
 * Exit status: 0 when every request certified at its expected distance;
 * 2 on usage or I/O errors; 1 otherwise (the JSONL still carries every
 * per-request diagnostic).
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/distance_certifier.h"
#include "common/atomic_file.h"
#include "common/json.h"
#include "common/text_format.h"
#include "compiler/compiler.h"
#include "core/pipeline.h"
#include "core/request.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "store/artifact_store.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace {

int
Usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <request-file> <output-jsonl> [--store DIR] "
                 "[--reference] [--max-weight W]\n"
                 "  <output-jsonl> may be '-' for stdout\n",
                 argv0);
    return 2;
}

struct CertifyConfig
{
    std::shared_ptr<const tiqec::store::ArtifactStore> store;
    bool reference = false;
    tiqec::analysis::DistanceCertifierOptions certifier;
};

/** Simulated rounds of a request: `rounds=`, or the code distance. */
int
RoundsOf(const tiqec::core::SweepCandidate& c)
{
    return c.options.rounds > 0 ? c.options.rounds : c.code->distance();
}

/** The `--reference` oracle chain: every unit (`core::UnitCodesFor`)
 *  compiled fresh through the reference compiler pipeline, annotated,
 *  and built into the experiment + DEM. Throws with the failing stage's
 *  message. */
tiqec::core::SimArtifacts
BuildReferenceArtifacts(const tiqec::core::SweepCandidate& c)
{
    using namespace tiqec;
    const workloads::WorkloadSpec& spec = c.options.workload;
    if (const std::string err = core::CheckProgramCandidate(*c.code, spec);
        !err.empty()) {
        throw std::invalid_argument(err);
    }
    const std::vector<const qec::StabilizerCode*> units =
        core::UnitCodesFor(*c.code, spec);
    std::vector<core::CompileArtifacts> arts(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
        // CompileCandidate does not expose the reference pipeline;
        // replicate it here with `reference_pipeline = true`.
        arts[u].graph = compiler::MakeDeviceFor(*units[u], c.arch.topology,
                                                c.arch.trap_capacity);
        compiler::CompilerOptions copts;
        copts.wise = c.arch.wiring == core::WiringKind::kWise;
        if (copts.wise) {
            copts.cooling_per_two_qubit_gate =
                arts[u].timing.cooling_per_two_qubit_gate;
        }
        copts.reference_pipeline = true;
        arts[u].compiled = compiler::CompileParityCheckRounds(
            *units[u], 1, arts[u].graph, arts[u].timing, copts);
        arts[u].ok = arts[u].compiled.ok;
        if (!arts[u].ok) {
            throw std::runtime_error(arts[u].compiled.error);
        }
    }
    std::vector<noise::RoundNoiseProfile> profiles;
    profiles.reserve(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
        profiles.push_back(
            core::AnnotateCandidate(*units[u], c.arch, arts[u]));
    }
    if (spec.program == nullptr) {
        return core::BuildSimArtifacts(*c.code, arts[0], profiles[0],
                                       c.arch, RoundsOf(c), spec);
    }
    std::vector<core::ProgramUnit> punits;
    punits.reserve(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
        punits.push_back(core::ProgramUnit{units[u], &arts[u], &profiles[u]});
    }
    return core::BuildProgramSimArtifacts(*spec.program, punits, c.arch,
                                          RoundsOf(c));
}

/** Certifies one request's DEM into a report line (`sim` null: the
 *  build failed with `error`); returns whether it certified clean at
 *  the expected distance. */
bool
CertifyRequest(const std::string& line,
               const tiqec::core::SweepCandidate& c,
               const CertifyConfig& config,
               const tiqec::core::SimArtifacts* sim, const std::string& error,
               std::string* report_line)
{
    using namespace tiqec;
    common::JsonRecord r;
    r.Add("label", c.label);
    r.Add("request", line);
    r.Add("pipeline", config.reference ? "reference" : "fast");
    if (sim == nullptr) {
        r.Add("ok", false);
        r.Add("error", error);
        *report_line = r.Object();
        return false;
    }

    const int expected = c.code->distance();
    analysis::DistanceCertificate cert;
    const std::vector<analysis::Diagnostic> diags = analysis::CheckDistance(
        sim->dem, expected, config.certifier, &cert);
    r.Add("ok", true);
    r.Add("expected_distance", expected);
    r.Add("rounds", RoundsOf(c));
    r.Add("num_detectors", sim->dem.num_detectors);
    r.Add("num_observables", sim->dem.num_observables);
    r.Add("num_mechanisms",
          static_cast<std::int64_t>(cert.mechanisms.size()));
    r.Add("dem_undecomposable", sim->dem.num_undecomposable);
    r.Add("graph_like", cert.graph_like);
    r.Add("searched_weight", cert.searched_weight);

    std::vector<std::int64_t> distances;
    std::vector<std::int64_t> exact;
    std::int64_t effective = -1;
    const analysis::ObservableDistance* min_obs = nullptr;
    for (const analysis::ObservableDistance& od : cert.observables) {
        distances.push_back(od.found ? od.distance : -1);
        exact.push_back(od.exact ? 1 : 0);
        if (od.found && (effective < 0 || od.distance < effective)) {
            effective = od.distance;
            min_obs = &od;
        }
    }
    r.Add("per_observable_distance", distances);
    r.Add("per_observable_exact", exact);
    r.Add("effective_distance", effective);
    if (min_obs != nullptr) {
        r.Add("witness", analysis::FormatWitness(cert, min_obs->witness));
    }
    const bool certified = diags.empty();
    r.Add("certified", certified);
    if (!certified) {
        r.Add("error", analysis::FormatDiagnostics(
                           analysis::kCertifySubject, diags));
    }
    *report_line = r.Object();
    return certified;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string request_path;
    std::string output_path;
    std::string store_dir;
    CertifyConfig config;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
            store_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--reference") == 0) {
            config.reference = true;
        } else if (std::strcmp(argv[i], "--max-weight") == 0 &&
                   i + 1 < argc) {
            try {
                config.certifier.max_search_weight =
                    tiqec::text::ParseInt32(argv[i + 1], "--max-weight");
            } catch (const std::exception& e) {
                std::fprintf(stderr, "%s\n", e.what());
                return Usage(argv[0]);
            }
            ++i;
        } else if (request_path.empty()) {
            request_path = argv[i];
        } else if (output_path.empty()) {
            output_path = argv[i];
        } else {
            return Usage(argv[0]);
        }
    }
    if (request_path.empty() || output_path.empty()) {
        return Usage(argv[0]);
    }

    std::string request_text;
    std::string error;
    if (!tiqec::common::ReadFile(request_path, &request_text, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    if (!store_dir.empty() && !config.reference) {
        config.store =
            std::make_shared<tiqec::store::ArtifactStore>(store_dir);
    }

    // Parse every line; a malformed one gets its report now and never
    // reaches the pipeline.
    std::vector<std::string> lines;
    std::vector<std::string> reports;
    std::vector<tiqec::core::SweepCandidate> candidates;
    std::vector<size_t> slots;
    std::istringstream stream(request_text);
    std::string line;
    while (std::getline(stream, line)) {
        tiqec::text::StripCr(line);
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') {
            continue;
        }
        tiqec::core::SweepCandidate candidate;
        std::string parse_error;
        if (tiqec::core::ParseRequestCandidate(line, &candidate,
                                               &parse_error)) {
            // Certification needs exactly the experiment + DEM: one
            // compiled round, no Monte-Carlo shots, and the certifier
            // runs here with this tool's options, not in the runner.
            candidate.compile_rounds = 1;
            candidate.options.compile_only = false;
            candidate.options.max_shots = 0;
            candidate.options.certify_distance = false;
            candidates.push_back(std::move(candidate));
            slots.push_back(lines.size());
            reports.emplace_back();
        } else {
            reports.push_back(
                tiqec::core::ParseErrorRecord(line, parse_error));
        }
        lines.push_back(line);
    }

    int num_certified = 0;
    const auto certify = [&](size_t j, const tiqec::core::SimArtifacts* sim,
                             const std::string& build_error) {
        const size_t slot = slots[j];
        if (CertifyRequest(lines[slot], candidates[j], config, sim,
                           build_error, &reports[slot])) {
            ++num_certified;
        }
    };
    tiqec::core::SweepRunStats stats;
    if (config.reference) {
        for (size_t j = 0; j < candidates.size(); ++j) {
            std::optional<tiqec::core::SimArtifacts> sim;
            std::string build_error;
            try {
                sim = BuildReferenceArtifacts(candidates[j]);
            } catch (const std::exception& e) {
                build_error = e.what();
            }
            certify(j, sim ? &*sim : nullptr, build_error);
        }
    } else {
        tiqec::core::SweepRunnerOptions runner_options;
        runner_options.store = config.store;
        tiqec::core::SweepRunner runner(runner_options);
        const std::vector<tiqec::core::SweepOutcome> outcomes =
            runner.RunDetailed(candidates);
        for (size_t j = 0; j < candidates.size(); ++j) {
            const tiqec::core::SweepOutcome& outcome = outcomes[j];
            certify(j, outcome.metrics.ok ? outcome.sim.get() : nullptr,
                    outcome.metrics.error);
        }
        stats = runner.last_run_stats();
    }
    std::string jsonl;
    for (const std::string& report : reports) {
        jsonl += report;
        jsonl += '\n';
    }

    if (output_path == "-") {
        std::fputs(jsonl.c_str(), stdout);
    } else if (!tiqec::common::AtomicWriteFile(output_path, jsonl,
                                               &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }

    const int num_requests = static_cast<int>(lines.size());
    tiqec::common::JsonRecord summary;
    summary.Add("summary", true);
    summary.Add("requests", num_requests);
    summary.Add("certified", num_certified);
    summary.Add("pipeline", config.reference ? "reference" : "fast");
    if (!config.reference) {
        summary.Add("compiles", stats.compiles);
        summary.Add("annotates", stats.annotates);
        summary.Add("sim_builds", stats.sim_builds);
    }
    if (config.store != nullptr) {
        summary.Add("store_hits", stats.store_hits);
        summary.Add("store_misses", stats.store_misses);
        summary.Add("store_corrupt", stats.store_corrupt);
        summary.Add("store_writes", stats.store_writes);
        summary.Add("store_validated", stats.store_validated);
        summary.Add("store_root", config.store->root());
    }
    std::printf("%s\n", summary.Object().c_str());
    return num_certified == num_requests ? 0 : 1;
}
