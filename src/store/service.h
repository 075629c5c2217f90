/**
 * @file
 * Minimal batch sweep service (DESIGN.md §7.4): a request file in, one
 * JSON result line per request out, plus a JSON run summary carrying
 * the sweep engine's work/store accounting. The service is the
 * cross-process face of the artifact store: any number of service
 * invocations sharing one store directory compile each unique candidate
 * once ever, and the CI warm-cache gate is literally "run the same
 * request file twice, assert the second summary reports zero compiles
 * and the result lines are byte-identical".
 *
 * Request format — one candidate per line, `key=value` tokens separated
 * by whitespace; blank lines and `#` comments are skipped:
 *
 *   family=rotated distance=3 capacity=2 shots=4096 seed=7 label=a
 *   workload=program program=cnot distance=3 certify=1
 *
 * The line grammar (keys, numeric discipline, error format) is defined
 * once in `core::ParseRequestLine` (core/request.h) and shared with the
 * `tiqec_certify` driver; see there for the key list. A malformed line
 * isolates that request (its result line carries ok=false and the parse
 * error); the rest of the batch proceeds.
 */
#ifndef TIQEC_STORE_SERVICE_H
#define TIQEC_STORE_SERVICE_H

#include <memory>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "store/artifact_store.h"

namespace tiqec::store {

struct SweepServiceOptions
{
    /** Optional shared artifact store (read-through/write-through). */
    std::shared_ptr<const ArtifactStore> store;
    /** Worker pool width; <= 0 means hardware concurrency. */
    int num_threads = 0;
};

struct SweepServiceResult
{
    /** One JSON object per request line, in request order (the JSONL
     *  stream). Deterministic: repeated runs of the same request file
     *  through the same binary produce byte-identical lines. */
    std::vector<std::string> result_lines;
    /** JSON run summary: request counts plus `core::SweepRunStats`. */
    std::string summary_line;
    int num_requests = 0;
    int num_ok = 0;
    core::SweepRunStats stats;
};

/** Runs every request in `request_text` through one `core::SweepRunner`
 *  over `options.store`. Never throws on malformed requests or failed
 *  candidates — both isolate into their result line. */
SweepServiceResult RunSweepService(const std::string& request_text,
                                   const SweepServiceOptions& options);

}  // namespace tiqec::store

#endif  // TIQEC_STORE_SERVICE_H
