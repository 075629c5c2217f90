#include "store/service.h"

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "common/text_format.h"
#include "core/request.h"

namespace tiqec::store {

namespace {

/** Flattens one outcome into a result line. Every field is a pure
 *  deterministic function of the request (the engine's bit-identity
 *  contract), so repeated service runs emit byte-identical lines. */
std::string
ResultLine(const std::string& request, const core::SweepOutcome& outcome)
{
    common::JsonRecord r;
    r.Add("label", outcome.label);
    r.Add("request", request);
    const core::Metrics& m = outcome.metrics;
    r.Add("ok", m.ok);
    if (!m.ok) {
        r.Add("error", m.error);
        return r.Object();
    }
    r.Add("round_time_us", m.round_time);
    r.Add("shot_time_us", m.shot_time);
    r.Add("movement_ops_per_round", m.movement_ops_per_round);
    r.Add("movement_time_per_round_us", m.movement_time_per_round);
    r.Add("num_traps_used", m.num_traps_used);
    r.Add("mean_two_qubit_error", m.mean_two_qubit_error);
    r.Add("max_two_qubit_error", m.max_two_qubit_error);
    if (m.shots > 0) {
        r.Add("shots", m.shots);
        r.Add("logical_errors", m.logical_errors);
        r.Add("ler_per_shot", m.ler_per_shot.rate);
        r.Add("ler_per_round", m.ler_per_round);
        r.Add("per_observable_errors", m.per_observable_errors);
        r.Add("dem_hyperedges", m.dem_hyperedges);
        r.Add("dem_undecomposable", m.dem_undecomposable);
        r.Add("dem_dropped_probability", m.dem_dropped_probability);
        r.Add("dem_undecomposable_probability",
              m.dem_undecomposable_probability);
    }
    return r.Object();
}

}  // namespace

SweepServiceResult
RunSweepService(const std::string& request_text,
                const SweepServiceOptions& options)
{
    SweepServiceResult result;

    // Parse the batch. A malformed line becomes a placeholder result
    // (ok=false + the parse error) and never reaches the engine.
    struct Request
    {
        std::string line;
        std::string parse_error;  // empty = parsed
        size_t candidate_index = 0;
    };
    std::vector<Request> requests;
    std::vector<core::SweepCandidate> candidates;
    std::istringstream stream(request_text);
    std::string line;
    while (std::getline(stream, line)) {
        text::StripCr(line);
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') {
            continue;
        }
        Request req;
        req.line = line;
        core::SweepCandidate candidate;
        if (core::ParseRequestCandidate(line, &candidate,
                                        &req.parse_error)) {
            req.candidate_index = candidates.size();
            candidates.push_back(std::move(candidate));
        }
        requests.push_back(std::move(req));
    }
    result.num_requests = static_cast<int>(requests.size());

    core::SweepRunnerOptions ropts;
    ropts.num_threads = options.num_threads;
    ropts.store = options.store;
    core::SweepRunner runner(ropts);
    const std::vector<core::SweepOutcome> outcomes =
        runner.RunDetailed(candidates);
    result.stats = runner.last_run_stats();

    result.result_lines.reserve(requests.size());
    for (const Request& req : requests) {
        if (!req.parse_error.empty()) {
            result.result_lines.push_back(
                core::ParseErrorRecord(req.line, req.parse_error));
            continue;
        }
        const core::SweepOutcome& outcome =
            outcomes[req.candidate_index];
        if (outcome.metrics.ok) {
            ++result.num_ok;
        }
        result.result_lines.push_back(ResultLine(req.line, outcome));
    }

    common::JsonRecord summary;
    summary.Add("summary", true);
    summary.Add("requests", result.num_requests);
    summary.Add("ok", result.num_ok);
    summary.Add("compiles", result.stats.compiles);
    summary.Add("annotates", result.stats.annotates);
    summary.Add("sim_builds", result.stats.sim_builds);
    summary.Add("store_hits", result.stats.store_hits);
    summary.Add("store_misses", result.stats.store_misses);
    summary.Add("store_corrupt", result.stats.store_corrupt);
    summary.Add("store_writes", result.stats.store_writes);
    summary.Add("validations", result.stats.validations);
    summary.Add("validation_failures", result.stats.validation_failures);
    summary.Add("certifies", result.stats.certifies);
    summary.Add("certify_failures", result.stats.certify_failures);
    summary.Add("store_validated", result.stats.store_validated);
    if (options.store != nullptr) {
        summary.Add("store_root", options.store->root());
    }
    result.summary_line = summary.Object();
    return result;
}

}  // namespace tiqec::store
