#include "noise/profile_io.h"

#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/text_format.h"

namespace tiqec::noise {

namespace {

constexpr char kHeader[] = "tiqec-noise v1";

// Line grammar (space-separated, exact doubles):
//   tiqec-noise v1
//   round <round_time> <mean_two_qubit_error> <max_two_qubit_error>
//   gates <n>
//   g <p_pair> <p_q0> <p_q1>           (x n, indexed by QEC-IR gate id)
//   idle <n> <per-qubit z probabilities...>
//   swaps <n>
//   s <qubit a> <qubit b> <p> <after_qec_gate>   (x n; after may be -1)

}  // namespace

std::string
FormatNoiseProfile(const RoundNoiseProfile& profile)
{
    std::string out;
    out += kHeader;
    out += '\n';
    out += "round ";
    text::AppendExactDouble(out, profile.round_time);
    out += ' ';
    text::AppendExactDouble(out, profile.mean_two_qubit_error);
    out += ' ';
    text::AppendExactDouble(out, profile.max_two_qubit_error);
    out += '\n';
    out += "gates ";
    text::AppendInt(out, profile.gate_noise.size());
    out += '\n';
    for (const GateNoise& g : profile.gate_noise) {
        out += "g ";
        text::AppendExactDouble(out, g.p_pair);
        out += ' ';
        text::AppendExactDouble(out, g.p_q0);
        out += ' ';
        text::AppendExactDouble(out, g.p_q1);
        out += '\n';
    }
    out += "idle ";
    text::AppendInt(out, profile.idle_z.size());
    for (const double z : profile.idle_z) {
        out += ' ';
        text::AppendExactDouble(out, z);
    }
    out += '\n';
    out += "swaps ";
    text::AppendInt(out, profile.swaps.size());
    out += '\n';
    for (const SwapNoise& s : profile.swaps) {
        out += "s ";
        text::AppendInt(out, s.a.value);
        out += ' ';
        text::AppendInt(out, s.b.value);
        out += ' ';
        text::AppendExactDouble(out, s.p);
        out += ' ';
        text::AppendInt(out, s.after_qec_gate.value);
        out += '\n';
    }
    return out;
}

namespace {

void
ParseNoiseProfileImpl(std::string_view text_in, RoundNoiseProfile* profile)
{
    text::LineCursor in(text_in);
    std::string_view line;
    std::vector<std::string_view> fields;

    if (!in.Next(&line) || line != kHeader) {
        throw std::invalid_argument("missing 'tiqec-noise v1' header");
    }

    if (!in.Next(&line)) {
        throw std::invalid_argument("missing round line");
    }
    text::SplitFields(line, ' ', &fields);
    if (fields.size() != 4 || fields[0] != "round") {
        throw std::invalid_argument(
            text::Quoted("malformed round line", line));
    }
    profile->round_time = text::ParseDouble(fields[1], "round");
    profile->mean_two_qubit_error = text::ParseDouble(fields[2], "round");
    profile->max_two_qubit_error = text::ParseDouble(fields[3], "round");

    if (!in.Next(&line)) {
        throw std::invalid_argument("missing gates line");
    }
    text::SplitFields(line, ' ', &fields);
    if (fields.size() != 2 || fields[0] != "gates") {
        throw std::invalid_argument(
            text::Quoted("malformed gates line", line));
    }
    const std::int64_t num_gates = text::ParseInt64(fields[1], "gates");
    if (num_gates < 0) {
        throw std::invalid_argument("negative gate count");
    }
    profile->gate_noise.reserve(static_cast<size_t>(num_gates));
    for (std::int64_t i = 0; i < num_gates; ++i) {
        const text::Context context("gate", i);
        if (!in.Next(&line)) {
            throw std::invalid_argument("truncated: missing " +
                                        context.str());
        }
        text::SplitFields(line, ' ', &fields);
        if (fields.size() != 4 || fields[0] != "g") {
            throw std::invalid_argument(
                text::Quoted("malformed " + context.str(), line));
        }
        GateNoise g;
        g.p_pair = text::ParseDouble(fields[1], context);
        g.p_q0 = text::ParseDouble(fields[2], context);
        g.p_q1 = text::ParseDouble(fields[3], context);
        profile->gate_noise.push_back(g);
    }

    if (!in.Next(&line)) {
        throw std::invalid_argument("missing idle line");
    }
    text::SplitFields(line, ' ', &fields);
    if (fields.size() < 2 || fields[0] != "idle") {
        throw std::invalid_argument(
            text::Quoted("malformed idle line", line));
    }
    const std::int64_t num_idle = text::ParseInt64(fields[1], "idle");
    if (num_idle < 0 ||
        fields.size() != 2 + static_cast<size_t>(num_idle)) {
        throw std::invalid_argument("idle list truncated");
    }
    profile->idle_z.reserve(static_cast<size_t>(num_idle));
    for (std::int64_t i = 0; i < num_idle; ++i) {
        profile->idle_z.push_back(
            text::ParseDouble(fields[2 + i], "idle"));
    }

    if (!in.Next(&line)) {
        throw std::invalid_argument("missing swaps line");
    }
    text::SplitFields(line, ' ', &fields);
    if (fields.size() != 2 || fields[0] != "swaps") {
        throw std::invalid_argument(
            text::Quoted("malformed swaps line", line));
    }
    const std::int64_t num_swaps = text::ParseInt64(fields[1], "swaps");
    if (num_swaps < 0) {
        throw std::invalid_argument("negative swap count");
    }
    profile->swaps.reserve(static_cast<size_t>(num_swaps));
    for (std::int64_t i = 0; i < num_swaps; ++i) {
        const text::Context context("swap", i);
        if (!in.Next(&line)) {
            throw std::invalid_argument("truncated: missing " +
                                        context.str());
        }
        text::SplitFields(line, ' ', &fields);
        if (fields.size() != 5 || fields[0] != "s") {
            throw std::invalid_argument(
                text::Quoted("malformed " + context.str(), line));
        }
        SwapNoise s;
        s.a = QubitId{text::ParseInt32(fields[1], context)};
        s.b = QubitId{text::ParseInt32(fields[2], context)};
        s.p = text::ParseDouble(fields[3], context);
        s.after_qec_gate = GateId{text::ParseInt32(fields[4], context)};
        profile->swaps.push_back(s);
    }

    if (in.Next(&line) && !line.empty()) {
        throw std::invalid_argument(
            text::Quoted("trailing content after last swap", line));
    }
}

}  // namespace

bool
ParseNoiseProfile(std::string_view text, RoundNoiseProfile* profile,
                  std::string* error)
{
    *profile = RoundNoiseProfile{};
    try {
        ParseNoiseProfileImpl(text, profile);
    } catch (const std::invalid_argument& e) {
        if (error != nullptr) {
            *error = std::string("noise profile parse: ") + e.what();
        }
        return false;
    }
    return true;
}

}  // namespace tiqec::noise
