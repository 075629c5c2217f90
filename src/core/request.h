/**
 * @file
 * The one `key=value` request-line parser (DESIGN.md §7.4): the sweep
 * service, the `tiqec_certify` driver, and anything else that turns
 * text lines into `core::SweepCandidate`s all parse through here, so
 * field names, the `std::from_chars` numeric discipline, and the error
 * message format are defined exactly once.
 *
 * Line format — one candidate per line, `key=value` tokens separated by
 * whitespace:
 *
 *   family=rotated distance=3 capacity=2 shots=4096 seed=7 label=a
 *   workload=program program=cnot distance=3 certify=1
 *
 * Keys: family (required unless workload=program; qec::MakeCode name),
 * distance (required), program (canonical program name,
 * workloads/program.h; requires workload=program, which in turn forbids
 * family), topology (linear|grid|switch), capacity, wiring
 * (standard|wise), improvement, rounds, compile_rounds, shots,
 * target_errors, seed, basis (z|x), workload
 * (memory|stability|surgery|program), compile_only (0|1), validate
 * (0|1), certify (0|1), label. Unknown keys are an error.
 */
#ifndef TIQEC_CORE_REQUEST_H
#define TIQEC_CORE_REQUEST_H

#include <string>

#include "core/architecture.h"
#include "core/sweep.h"
#include "core/toolflow.h"

namespace tiqec::core {

/**
 * A parsed request line, before any code object is built. `family` and
 * `program` are mutually exclusive (`workload.kind` selects which);
 * everything else lands directly in the embedded architecture/options.
 */
struct RequestSpec
{
    /** qec::MakeCode family (every workload except program). */
    std::string family;
    /** Canonical program name (workload=program only). */
    std::string program;
    int distance = 0;
    ArchitectureConfig arch;
    EvaluationOptions options;
    int compile_rounds = 1;
    std::string label;
};

/** Parses one request line into a spec. Returns false with a message on
 *  malformed input; `*out` is untouched on failure. Purely syntactic —
 *  no code or program objects are built yet. */
bool ParseRequestLine(const std::string& line, RequestSpec* out,
                      std::string* error);

/**
 * Realises a parsed spec as a sweep candidate: `qec::MakeCode` for a
 * family request, or `workloads::CanonicalProgram` +
 * `workloads::BoundProgram::Bind` for a program request (the candidate's
 * code is the program's primary phase code, aliased to the bound
 * program's lifetime, and `options.workload` carries the program spec).
 * Applies the default label (`<family>_d<distance>` /
 * `<program>_d<distance>`). Throws std::invalid_argument on an unknown
 * family or program, or a program that fails validation.
 */
SweepCandidate MakeSweepCandidate(const RequestSpec& spec);

/** `ParseRequestLine` + `MakeSweepCandidate` with every failure — parse
 *  or build — reported through `*error`. */
bool ParseRequestCandidate(const std::string& line, SweepCandidate* out,
                           std::string* error);

/**
 * The JSON result line for a request that `ParseRequestCandidate`
 * rejected with `error`: label, request, ok=false, and the error
 * prefixed "request parse: ". The label is the line's last `label=`
 * token — the one a successful parse would have kept — or empty.
 * Shared by the sweep service and `tiqec_certify`.
 */
std::string ParseErrorRecord(const std::string& line,
                             const std::string& error);

}  // namespace tiqec::core

#endif  // TIQEC_CORE_REQUEST_H
