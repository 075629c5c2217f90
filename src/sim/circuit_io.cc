#include "sim/circuit_io.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

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

void
AppendTargets(std::string& out, const std::vector<std::int32_t>& targets)
{
    out += ' ';
    out += std::to_string(targets.size());
    for (const std::int32_t t : targets) {
        out += ' ';
        out += std::to_string(t);
    }
}

}  // namespace

std::string
FormatNoisyCircuit(const NoisyCircuit& circuit)
{
    std::string out;
    out += kHeader;
    out += '\n';
    out += "qubits ";
    out += std::to_string(circuit.num_qubits());
    out += '\n';
    out += "ops ";
    out += std::to_string(circuit.instructions().size());
    out += '\n';
    for (const SimInstruction& inst : circuit.instructions()) {
        switch (inst.op) {
          case SimOp::kH:
            out += "H " + std::to_string(inst.q0);
            break;
          case SimOp::kCnot:
            out += "CX " + std::to_string(inst.q0) + ' ' +
                   std::to_string(inst.q1);
            break;
          case SimOp::kSwap:
            out += "SW " + std::to_string(inst.q0) + ' ' +
                   std::to_string(inst.q1);
            break;
          case SimOp::kMeasure:
            out += "M " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kReset:
            out += "R " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kXError:
            out += "X " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kZError:
            out += "Z " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kDepolarize1:
            out += "D1 " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kDepolarize2:
            out += "D2 " + std::to_string(inst.q0) + ' ' +
                   std::to_string(inst.q1) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kDetector: {
            const DetectorInfo& info =
                circuit.detectors()[static_cast<size_t>(inst.index)];
            out += "DET " + text::ExactDouble(info.coord.x) + ' ' +
                   text::ExactDouble(info.coord.y) + ' ' +
                   std::to_string(info.round) + ' ' +
                   BasisChar(info.basis);
            AppendTargets(out, inst.targets);
            break;
          }
          case SimOp::kObservableInclude:
            out += "OBS " + std::to_string(inst.index);
            AppendTargets(out, inst.targets);
            break;
        }
        out += '\n';
    }
    return out;
}

namespace {

// The replay builders assert on bad operands (debug builds abort), so a
// corrupt file is rejected here with a parse error before any Add* call.
class Replayer
{
  public:
    explicit Replayer(int num_qubits) : circuit_(num_qubits) {}

    void
    Apply(const std::vector<std::string>& f, const std::string& context)
    {
        const std::string& op = f[0];
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
                throw std::invalid_argument("short DET line in " + context);
            }
            Coord coord;
            coord.x = text::ParseDouble(f[1], context);
            coord.y = text::ParseDouble(f[2], context);
            const int round = text::ParseInt32(f[3], context);
            DetectorBasis basis = DetectorBasis::kUnknown;
            if (f[4].size() != 1 || !ParseBasisChar(f[4][0], &basis)) {
                throw std::invalid_argument(
                    "detector basis out of range in " + context);
            }
            circuit_.AddDetector(Targets(f, 5, context), coord, round,
                                 basis);
        } else if (op == "OBS") {
            if (f.size() < 3) {
                throw std::invalid_argument("short OBS line in " + context);
            }
            const int obs = text::ParseInt32(f[1], context);
            if (obs < 0) {
                throw std::invalid_argument("negative observable in " +
                                            context);
            }
            circuit_.AddObservableInclude(obs, Targets(f, 2, context));
        } else {
            throw std::invalid_argument("unknown op '" + op + "' in " +
                                        context);
        }
    }

    NoisyCircuit
    Take()
    {
        return std::move(circuit_);
    }

  private:
    static void
    Expect(const std::vector<std::string>& f, size_t n,
           const std::string& context)
    {
        if (f.size() != n) {
            throw std::invalid_argument("wrong field count in " + context);
        }
    }

    int
    Qubit(const std::string& field, const std::string& context) const
    {
        const int q = text::ParseInt32(field, context);
        if (q < 0 || q >= circuit_.num_qubits()) {
            throw std::invalid_argument("qubit out of range in " + context);
        }
        return q;
    }

    std::pair<int, int>
    QubitPair(const std::string& a, const std::string& b,
              const std::string& context) const
    {
        const int qa = Qubit(a, context);
        const int qb = Qubit(b, context);
        if (qa == qb) {
            throw std::invalid_argument("repeated qubit operand in " +
                                        context);
        }
        return {qa, qb};
    }

    static double
    Prob(const std::string& field, const std::string& context)
    {
        const double p = text::ParseDouble(field, context);
        if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
            throw std::invalid_argument("probability out of [0,1] in " +
                                        context);
        }
        return p;
    }

    /** Stochastic-channel probability: must be strictly positive, since
     *  the builders drop p == 0 and the round trip would not be
     *  byte-stable (and a p == 0 line can only come from a hand-edited
     *  or corrupt file). */
    static double
    Channel(const std::string& field, const std::string& context)
    {
        const double p = Prob(field, context);
        if (p == 0.0) {
            throw std::invalid_argument("zero-probability channel in " +
                                        context);
        }
        return p;
    }

    std::vector<std::int32_t>
    Targets(const std::vector<std::string>& f, size_t pos,
            const std::string& context) const
    {
        const std::int64_t n = text::ParseInt64(f[pos], context);
        if (n < 0 || f.size() != pos + 1 + static_cast<size_t>(n)) {
            throw std::invalid_argument("target list truncated in " +
                                        context);
        }
        std::vector<std::int32_t> targets;
        targets.reserve(static_cast<size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) {
            const int m = text::ParseInt32(f[pos + 1 + i], context);
            if (m < 0 || m >= circuit_.num_measurements()) {
                throw std::invalid_argument(
                    "measurement record out of range in " + context);
            }
            targets.push_back(m);
        }
        return targets;
    }

    NoisyCircuit circuit_;
};

NoisyCircuit
ParseNoisyCircuitImpl(const std::string& text_in)
{
    std::istringstream in(text_in);
    std::string line;
    auto next = [&in, &line]() -> bool {
        if (!std::getline(in, line)) {
            return false;
        }
        text::StripCr(line);
        return true;
    };

    if (!next() || line != kHeader) {
        throw std::invalid_argument("missing 'tiqec-circuit v2' header");
    }
    if (!next()) {
        throw std::invalid_argument("missing qubits line");
    }
    auto fields = text::SplitFields(line, ' ');
    if (fields.size() != 2 || fields[0] != "qubits") {
        throw std::invalid_argument("malformed qubits line: '" + line + "'");
    }
    const int num_qubits = text::ParseInt32(fields[1], "qubits");
    if (num_qubits <= 0) {
        throw std::invalid_argument("non-positive qubit count");
    }
    if (!next()) {
        throw std::invalid_argument("missing ops line");
    }
    fields = text::SplitFields(line, ' ');
    if (fields.size() != 2 || fields[0] != "ops") {
        throw std::invalid_argument("malformed ops line: '" + line + "'");
    }
    const std::int64_t num_ops = text::ParseInt64(fields[1], "ops");
    if (num_ops < 0) {
        throw std::invalid_argument("negative op count");
    }

    Replayer replayer(num_qubits);
    for (std::int64_t i = 0; i < num_ops; ++i) {
        const std::string context = "op " + std::to_string(i);
        if (!next()) {
            throw std::invalid_argument("truncated: missing " + context);
        }
        fields = text::SplitFields(line, ' ');
        if (fields.empty() || fields[0].empty()) {
            throw std::invalid_argument("empty " + context);
        }
        replayer.Apply(fields, context);
    }
    if (next() && !line.empty()) {
        throw std::invalid_argument("trailing content after last op: '" +
                                    line + "'");
    }
    return replayer.Take();
}

}  // namespace

std::optional<NoisyCircuit>
ParseNoisyCircuit(const std::string& text, std::string* error)
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
