#include "sim/circuit_io.h"

#include <cmath>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/text_format.h"

namespace tiqec::sim {

namespace {

constexpr char kHeader[] = "tiqec-circuit v2";

// Line grammar (space-separated, exact doubles):
//   tiqec-circuit v2
//   qubits <num_qubits>
//   ops <instruction count>
//   H <q> | CX <c> <t> | SW <a> <b>
//   M <q> <p> | R <q> <p>
//   X <q> <p> | Z <q> <p> | D1 <q> <p> | D2 <q0> <q1> <p>
//   DET <coord.x> <coord.y> <round> <basis X|Z|-> <ntargets>
//       <record indices...>
//   OBS <observable> <ntargets> <record indices...>
//
// Zero-probability stochastic channels never appear: the Add* builders
// drop them, so a formatted stream replayed through the same builders
// reproduces the instruction list exactly (byte-stable round trip).

/** Appends " <value>". */
void
SpaceInt(std::string& out, std::int64_t value)
{
    out += ' ';
    text::AppendInt(out, value);
}

/** Appends " <value>" as an exact double. */
void
SpaceDouble(std::string& out, double value)
{
    out += ' ';
    text::AppendExactDouble(out, value);
}

void
AppendTargets(std::string& out, const std::vector<std::int32_t>& targets)
{
    SpaceInt(out, static_cast<std::int64_t>(targets.size()));
    for (const std::int32_t t : targets) {
        SpaceInt(out, t);
    }
}

/** The line mnemonic of a gate or channel op (not DET/OBS). */
const char*
Mnemonic(SimOp op)
{
    switch (op) {
      case SimOp::kH: return "H";
      case SimOp::kCnot: return "CX";
      case SimOp::kSwap: return "SW";
      case SimOp::kMeasure: return "M";
      case SimOp::kReset: return "R";
      case SimOp::kXError: return "X";
      case SimOp::kZError: return "Z";
      case SimOp::kDepolarize1: return "D1";
      case SimOp::kDepolarize2: return "D2";
      case SimOp::kDetector:
      case SimOp::kObservableInclude: break;
    }
    return "?";
}

}  // namespace

std::string
FormatNoisyCircuit(const NoisyCircuit& circuit)
{
    std::string out;
    out += kHeader;
    out += "\nqubits";
    SpaceInt(out, circuit.num_qubits());
    out += "\nops";
    SpaceInt(out, static_cast<std::int64_t>(circuit.instructions().size()));
    out += '\n';
    for (const SimInstruction& inst : circuit.instructions()) {
        if (inst.op == SimOp::kDetector) {
            const DetectorInfo& info =
                circuit.detectors()[static_cast<size_t>(inst.index)];
            out += "DET";
            SpaceDouble(out, info.coord.x);
            SpaceDouble(out, info.coord.y);
            SpaceInt(out, info.round);
            out += ' ';
            out += BasisChar(info.basis);
            AppendTargets(out, inst.targets);
        } else if (inst.op == SimOp::kObservableInclude) {
            out += "OBS";
            SpaceInt(out, inst.index);
            AppendTargets(out, inst.targets);
        } else {
            // "<op> <q0> [<q1>] [<p>]": the Clifford ops carry no
            // probability, the record ops and channels do.
            out += Mnemonic(inst.op);
            SpaceInt(out, inst.q0);
            if (inst.op == SimOp::kCnot || inst.op == SimOp::kSwap ||
                inst.op == SimOp::kDepolarize2) {
                SpaceInt(out, inst.q1);
            }
            if (inst.op != SimOp::kH && inst.op != SimOp::kCnot &&
                inst.op != SimOp::kSwap) {
                SpaceDouble(out, inst.p);
            }
        }
        out += '\n';
    }
    return out;
}

namespace {

using Fields = std::vector<std::string_view>;

// The replay builders assert on bad operands (debug builds abort), so a
// corrupt file is rejected here with a parse error before any Add* call.
class Replayer
{
  public:
    explicit Replayer(int num_qubits) : circuit_(num_qubits) {}

    void
    Apply(const Fields& f, const text::Context& context)
    {
        const std::string_view op = f[0];
        if (op == "H") {
            Expect(f, 2, context);
            circuit_.AddH(Qubit(f[1], context));
        } else if (op == "CX") {
            Expect(f, 3, context);
            const auto [a, b] = QubitPair(f[1], f[2], context);
            circuit_.AddCnot(a, b);
        } else if (op == "SW") {
            Expect(f, 3, context);
            const auto [a, b] = QubitPair(f[1], f[2], context);
            circuit_.AddSwap(a, b);
        } else if (op == "M") {
            Expect(f, 3, context);
            circuit_.AddMeasure(Qubit(f[1], context), Prob(f[2], context));
        } else if (op == "R") {
            Expect(f, 3, context);
            circuit_.AddReset(Qubit(f[1], context), Prob(f[2], context));
        } else if (op == "X" || op == "Z" || op == "D1") {
            Expect(f, 3, context);
            const int q = Qubit(f[1], context);
            const double p = Channel(f[2], context);
            if (op == "X") {
                circuit_.AddXError(q, p);
            } else if (op == "Z") {
                circuit_.AddZError(q, p);
            } else {
                circuit_.AddDepolarize1(q, p);
            }
        } else if (op == "D2") {
            Expect(f, 4, context);
            const auto [a, b] = QubitPair(f[1], f[2], context);
            circuit_.AddDepolarize2(a, b, Channel(f[3], context));
        } else if (op == "DET") {
            if (f.size() < 6) {
                throw std::invalid_argument("short DET line in " +
                                            context.str());
            }
            Coord coord;
            coord.x = text::ParseDouble(f[1], context);
            coord.y = text::ParseDouble(f[2], context);
            const int round = text::ParseInt32(f[3], context);
            DetectorBasis basis = DetectorBasis::kUnknown;
            if (f[4].size() != 1 || !ParseBasisChar(f[4][0], &basis)) {
                throw std::invalid_argument(
                    "detector basis out of range in " + context.str());
            }
            circuit_.AddDetector(Targets(f, 5, context), coord, round,
                                 basis);
        } else if (op == "OBS") {
            if (f.size() < 3) {
                throw std::invalid_argument("short OBS line in " +
                                            context.str());
            }
            const int obs = text::ParseInt32(f[1], context);
            if (obs < 0) {
                throw std::invalid_argument("negative observable in " +
                                            context.str());
            }
            circuit_.AddObservableInclude(obs, Targets(f, 2, context));
        } else {
            throw std::invalid_argument("unknown op '" + std::string(op) +
                                        "' in " + context.str());
        }
    }

    NoisyCircuit
    Take()
    {
        return std::move(circuit_);
    }

  private:
    static void
    Expect(const Fields& f, size_t n, const text::Context& context)
    {
        if (f.size() != n) {
            throw std::invalid_argument("wrong field count in " +
                                        context.str());
        }
    }

    int
    Qubit(std::string_view field, const text::Context& context) const
    {
        const int q = text::ParseInt32(field, context);
        if (q < 0 || q >= circuit_.num_qubits()) {
            throw std::invalid_argument("qubit out of range in " +
                                        context.str());
        }
        return q;
    }

    std::pair<int, int>
    QubitPair(std::string_view a, std::string_view b,
              const text::Context& context) const
    {
        const int qa = Qubit(a, context);
        const int qb = Qubit(b, context);
        if (qa == qb) {
            throw std::invalid_argument("repeated qubit operand in " +
                                        context.str());
        }
        return {qa, qb};
    }

    static double
    Prob(std::string_view field, const text::Context& context)
    {
        const double p = text::ParseDouble(field, context);
        if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
            throw std::invalid_argument("probability out of [0,1] in " +
                                        context.str());
        }
        return p;
    }

    /** Stochastic-channel probability: must be strictly positive, since
     *  the builders drop p == 0 and the round trip would not be
     *  byte-stable (and a p == 0 line can only come from a hand-edited
     *  or corrupt file). */
    static double
    Channel(std::string_view field, const text::Context& context)
    {
        const double p = Prob(field, context);
        if (p == 0.0) {
            throw std::invalid_argument("zero-probability channel in " +
                                        context.str());
        }
        return p;
    }

    std::vector<std::int32_t>
    Targets(const Fields& f, size_t pos, const text::Context& context) const
    {
        const std::int64_t n = text::ParseInt64(f[pos], context);
        if (n < 0 || f.size() != pos + 1 + static_cast<size_t>(n)) {
            throw std::invalid_argument("target list truncated in " +
                                        context.str());
        }
        std::vector<std::int32_t> targets;
        targets.reserve(static_cast<size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) {
            const int m = text::ParseInt32(f[pos + 1 + i], context);
            if (m < 0 || m >= circuit_.num_measurements()) {
                throw std::invalid_argument(
                    "measurement record out of range in " + context.str());
            }
            targets.push_back(m);
        }
        return targets;
    }

    NoisyCircuit circuit_;
};

NoisyCircuit
ParseNoisyCircuitImpl(std::string_view text_in)
{
    text::LineCursor in(text_in);
    std::string_view line;
    Fields fields;

    if (!in.Next(&line) || line != kHeader) {
        throw std::invalid_argument("missing 'tiqec-circuit v2' header");
    }
    if (!in.Next(&line)) {
        throw std::invalid_argument("missing qubits line");
    }
    text::SplitFields(line, ' ', &fields);
    if (fields.size() != 2 || fields[0] != "qubits") {
        throw std::invalid_argument(
            text::Quoted("malformed qubits line", line));
    }
    const int num_qubits = text::ParseInt32(fields[1], "qubits");
    if (num_qubits <= 0) {
        throw std::invalid_argument("non-positive qubit count");
    }
    if (!in.Next(&line)) {
        throw std::invalid_argument("missing ops line");
    }
    text::SplitFields(line, ' ', &fields);
    if (fields.size() != 2 || fields[0] != "ops") {
        throw std::invalid_argument(
            text::Quoted("malformed ops line", line));
    }
    const std::int64_t num_ops = text::ParseInt64(fields[1], "ops");
    if (num_ops < 0) {
        throw std::invalid_argument("negative op count");
    }

    Replayer replayer(num_qubits);
    for (std::int64_t i = 0; i < num_ops; ++i) {
        const text::Context context("op", i);
        if (!in.Next(&line)) {
            throw std::invalid_argument("truncated: missing " +
                                        context.str());
        }
        text::SplitFields(line, ' ', &fields);
        if (fields[0].empty()) {
            throw std::invalid_argument("empty " + context.str());
        }
        replayer.Apply(fields, context);
    }
    if (in.Next(&line) && !line.empty()) {
        throw std::invalid_argument(
            text::Quoted("trailing content after last op", line));
    }
    return replayer.Take();
}

}  // namespace

std::optional<NoisyCircuit>
ParseNoisyCircuit(std::string_view text, std::string* error)
{
    try {
        return ParseNoisyCircuitImpl(text);
    } catch (const std::invalid_argument& e) {
        if (error != nullptr) {
            *error = std::string("circuit parse: ") + e.what();
        }
        return std::nullopt;
    }
}

}  // namespace tiqec::sim
