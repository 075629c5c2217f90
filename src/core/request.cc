#include "core/request.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "common/text_format.h"
#include "qec/code.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace tiqec::core {

namespace {

/** The result line of a request that did not parse (see
 *  `RequestBatch::parse_errors`). */
std::string
ParseErrorRecord(const std::string& line, const std::string& error)
{
    std::string label;
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
        if (token.rfind("label=", 0) == 0) {
            label = token.substr(6);
        }
    }
    common::JsonRecord r;
    r.Add("label", label);
    r.Add("request", line);
    r.Add("ok", false);
    r.Add("error", "request parse: " + error);
    return r.Object();
}

qccd::TopologyKind
ParseTopology(const std::string& value)
{
    if (value == "linear") {
        return qccd::TopologyKind::kLinear;
    }
    if (value == "grid") {
        return qccd::TopologyKind::kGrid;
    }
    if (value == "switch") {
        return qccd::TopologyKind::kSwitch;
    }
    throw std::invalid_argument("unknown topology '" + value +
                                "' (linear|grid|switch)");
}

WiringKind
ParseWiring(const std::string& value)
{
    if (value == "standard") {
        return WiringKind::kStandard;
    }
    if (value == "wise") {
        return WiringKind::kWise;
    }
    throw std::invalid_argument("unknown wiring '" + value +
                                "' (standard|wise)");
}

sim::MemoryBasis
ParseBasis(const std::string& value)
{
    if (value == "z") {
        return sim::MemoryBasis::kZ;
    }
    if (value == "x") {
        return sim::MemoryBasis::kX;
    }
    throw std::invalid_argument("unknown basis '" + value + "' (z|x)");
}

bool
ParseBool01(const std::string& value, const std::string& key)
{
    if (value == "0") {
        return false;
    }
    if (value == "1") {
        return true;
    }
    throw std::invalid_argument(key + " must be 0 or 1, got '" + value +
                                "'");
}

/** A Monte-Carlo budget (`shots`, `target_errors`); negative is an error. */
std::int64_t
ParseBudget(const std::string& value, const std::string& key)
{
    const std::int64_t budget = text::ParseInt64(value, key);
    if (budget < 0) {
        throw std::invalid_argument(key + " must be >= 0, got '" + value +
                                    "'");
    }
    return budget;
}

}  // namespace

bool
ParseRequestLine(const std::string& line, RequestSpec* out,
                 std::string* error)
{
    RequestSpec spec;
    try {
        std::istringstream tokens(line);
        std::string token;
        while (tokens >> token) {
            const size_t eq = token.find('=');
            if (eq == std::string::npos || eq == 0) {
                throw std::invalid_argument("token '" + token +
                                            "' is not key=value");
            }
            const std::string key = token.substr(0, eq);
            const std::string value = token.substr(eq + 1);
            if (key == "family") {
                spec.family = value;
            } else if (key == "program") {
                spec.program = value;
            } else if (key == "distance") {
                spec.distance = text::ParseInt32(value, "distance");
            } else if (key == "topology") {
                spec.arch.topology = ParseTopology(value);
            } else if (key == "capacity") {
                spec.arch.trap_capacity =
                    text::ParseInt32(value, "capacity");
            } else if (key == "wiring") {
                spec.arch.wiring = ParseWiring(value);
            } else if (key == "improvement") {
                // 0 would put every two-qubit gate at p=1, a negative
                // factor gives a noiseless run and NaN null errors.
                const double improvement =
                    text::ParseDouble(value, "improvement");
                if (!std::isfinite(improvement) || improvement <= 0.0) {
                    throw std::invalid_argument(
                        "improvement must be finite and > 0, got '" +
                        value + "'");
                }
                spec.arch.gate_improvement = improvement;
            } else if (key == "rounds") {
                // Omitting the key selects the code distance; an
                // explicit count must be positive.
                spec.options.rounds = text::ParseInt32(value, "rounds");
                if (spec.options.rounds < 1) {
                    throw std::invalid_argument(
                        "rounds must be >= 1, got '" + value + "'");
                }
            } else if (key == "compile_rounds") {
                spec.compile_rounds =
                    text::ParseInt32(value, "compile_rounds");
                if (spec.compile_rounds < 1) {
                    throw std::invalid_argument(
                        "compile_rounds must be >= 1, got '" + value + "'");
                }
            } else if (key == "shots") {
                spec.options.max_shots = ParseBudget(value, key);
            } else if (key == "target_errors") {
                spec.options.target_logical_errors = ParseBudget(value, key);
            } else if (key == "seed") {
                spec.options.seed = static_cast<std::uint64_t>(
                    text::ParseInt64(value, "seed"));
            } else if (key == "basis") {
                spec.options.workload.basis = ParseBasis(value);
            } else if (key == "workload") {
                spec.options.workload.kind =
                    workloads::ParseWorkloadKind(value);
            } else if (key == "compile_only") {
                spec.options.compile_only = ParseBool01(value, key);
            } else if (key == "validate") {
                spec.options.validate_artifacts = ParseBool01(value, key);
            } else if (key == "certify") {
                spec.options.certify_distance = ParseBool01(value, key);
            } else if (key == "label") {
                spec.label = value;
            } else {
                throw std::invalid_argument("unknown key '" + key + "'");
            }
        }
        if (spec.options.workload.kind ==
            workloads::WorkloadKind::kProgram) {
            if (!spec.family.empty()) {
                throw std::invalid_argument(
                    "key 'family' does not apply to workload=program");
            }
            if (spec.program.empty()) {
                throw std::invalid_argument(
                    "missing required key 'program'");
            }
        } else {
            if (!spec.program.empty()) {
                throw std::invalid_argument(
                    "key 'program' requires workload=program");
            }
            if (spec.family.empty()) {
                throw std::invalid_argument(
                    "missing required key 'family'");
            }
        }
        if (spec.distance <= 0) {
            throw std::invalid_argument(
                "missing or non-positive required key 'distance'");
        }
    } catch (const std::exception& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        return false;
    }
    *out = std::move(spec);
    return true;
}

SweepCandidate
MakeSweepCandidate(const RequestSpec& spec)
{
    SweepCandidate c;
    c.arch = spec.arch;
    c.options = spec.options;
    c.compile_rounds = spec.compile_rounds;
    c.label = spec.label;
    if (spec.options.workload.kind == workloads::WorkloadKind::kProgram) {
        std::shared_ptr<const workloads::BoundProgram> bound =
            workloads::BoundProgram::Bind(
                workloads::CanonicalProgram(spec.program), spec.distance);
        // The candidate's code is the program's primary phase code,
        // aliased so the bound program owns it for as long as the
        // candidate lives.
        c.code = std::shared_ptr<const qec::StabilizerCode>(
            bound, bound->primary_code());
        c.options.workload = workloads::WorkloadSpec::Program(bound);
        if (c.label.empty()) {
            c.label = spec.program + "_d" + std::to_string(spec.distance);
        }
        return c;
    }
    c.code = qec::MakeCode(spec.family, spec.distance);
    if (c.label.empty()) {
        c.label = spec.family + "_d" + std::to_string(spec.distance);
    }
    return c;
}

bool
ParseRequestCandidate(const std::string& line, SweepCandidate* out,
                      std::string* error)
{
    RequestSpec spec;
    if (!ParseRequestLine(line, &spec, error)) {
        return false;
    }
    try {
        *out = MakeSweepCandidate(spec);
    } catch (const std::exception& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        return false;
    }
    return true;
}

RequestBatch
ParseRequestBatch(const std::string& request_text)
{
    RequestBatch batch;
    std::istringstream stream(request_text);
    std::string line;
    while (std::getline(stream, line)) {
        text::StripCr(line);
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') {
            continue;
        }
        SweepCandidate candidate;
        std::string error;
        if (ParseRequestCandidate(line, &candidate, &error)) {
            batch.parse_errors.emplace_back();
            batch.candidate_lines.push_back(batch.lines.size());
            batch.candidates.push_back(std::move(candidate));
        } else {
            batch.parse_errors.push_back(ParseErrorRecord(line, error));
        }
        batch.lines.push_back(std::move(line));
    }
    return batch;
}

}  // namespace tiqec::core
