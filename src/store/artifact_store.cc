#include "store/artifact_store.h"

#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/analysis.h"
#include "circuit/native_translation.h"
#include "common/atomic_file.h"
#include "common/text_format.h"
#include "compiler/schedule_io.h"
#include "noise/profile_io.h"
#include "qec/parity_check.h"
#include "sim/circuit_io.h"
#include "sim/dem_io.h"

namespace tiqec::store {

namespace {

constexpr char kMagic[] = "tiqec-artifact v1";

/** Line-oriented reader over an artifact payload (which must outlive
 *  it); throws std::invalid_argument with context on any shortfall. */
class LineReader
{
  public:
    explicit LineReader(std::string_view text) : in_(text), text_(text) {}

    std::string_view
    Line(const text::Context& context)
    {
        std::string_view line;
        if (!in_.Next(&line)) {
            throw std::invalid_argument("truncated artifact: missing " +
                                        context.str());
        }
        return line;
    }

    /** A line split on spaces, with the expected tag and field count. */
    std::vector<std::string_view>
    Tagged(const std::string& tag, size_t num_fields)
    {
        const std::string context = tag + " line";
        const std::string_view line = Line(context);
        std::vector<std::string_view> fields;
        text::SplitFields(line, ' ', &fields);
        if (fields.size() != num_fields || fields[0] != tag) {
            throw std::invalid_argument(
                text::Quoted("malformed " + context, line));
        }
        return fields;
    }

    /**
     * The next `n` lines as one embedded sub-document (the schedule CSV,
     * the circuit or the DEM text), viewed in place. A sub-parser reads
     * the view exactly as it would the lines rejoined with '\n' after
     * this reader dropped one trailing '\r' from each, unless a line
     * ends in a doubled "\r\r" (the sub-parser would keep one '\r'):
     * only then is that rejoined copy built, in `*scratch`.
     */
    std::string_view
    Block(std::int64_t n, const char* what, std::string* scratch)
    {
        const size_t begin = in_.position();
        const std::string label = std::string(what) + " line";
        bool doubled_cr = false;
        for (std::int64_t i = 0; i < n; ++i) {
            const std::string_view line = Line(text::Context(label, i));
            doubled_cr = doubled_cr || (!line.empty() && line.back() == '\r');
        }
        const std::string_view block =
            text_.substr(begin, in_.position() - begin);
        if (!doubled_cr) {
            return block;
        }
        scratch->clear();
        text::LineCursor lines(block);
        std::string_view line;
        while (lines.Next(&line)) {
            *scratch += line;
            *scratch += '\n';
        }
        return *scratch;
    }

    void
    ExpectEnd()
    {
        std::string_view line;
        if (in_.Next(&line) && !line.empty()) {
            throw std::invalid_argument(
                text::Quoted("trailing content in artifact", line));
        }
    }

  private:
    text::LineCursor in_;
    std::string_view text_;
};

std::int64_t
CountLines(const std::string& text)
{
    std::int64_t n = 0;
    for (const char c : text) {
        n += c == '\n' ? 1 : 0;
    }
    return n;
}

void
AppendIntList(std::string& out, const std::string& tag, size_t n,
              const std::function<std::int32_t(size_t)>& value)
{
    out += tag;
    for (size_t i = 0; i < n; ++i) {
        out += ' ';
        out += std::to_string(value(i));
    }
    out += '\n';
}

std::vector<std::int32_t>
ParseIntList(const std::vector<std::string_view>& fields, size_t expected,
             const char* context)
{
    if (fields.size() != expected + 1) {
        throw std::invalid_argument(std::string("wrong element count in ") +
                                    context);
    }
    std::vector<std::int32_t> values;
    values.reserve(expected);
    for (size_t i = 1; i < fields.size(); ++i) {
        values.push_back(text::ParseInt32(fields[i], context));
    }
    return values;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {}

std::string
ArtifactStore::PathFor(const StoreKey& key) const
{
    return root_ + "/" + key.kind + "/" + key.FileName();
}

ArtifactStore::Counters
ArtifactStore::counters() const
{
    Counters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.corrupt = corrupt_.load(std::memory_order_relaxed);
    c.writes = writes_.load(std::memory_order_relaxed);
    c.validated = validated_.load(std::memory_order_relaxed);
    return c;
}

LoadStatus
ArtifactStore::Count(LoadStatus status) const
{
    switch (status) {
      case LoadStatus::kHit:
        hits_.fetch_add(1, std::memory_order_relaxed);
        break;
      case LoadStatus::kMiss:
        misses_.fetch_add(1, std::memory_order_relaxed);
        break;
      case LoadStatus::kCorrupt:
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return status;
}

LoadStatus
ArtifactStore::ReadPayload(const StoreKey& key, std::string* content,
                           std::string_view* payload,
                           std::string* error) const
{
    const std::string path = PathFor(key);
    if (!common::ReadFile(path, content)) {
        // Unreadable covers both "never written" and genuine I/O
        // failure; either way the caller recomputes, so it is a miss.
        return LoadStatus::kMiss;
    }
    const std::string_view file(*content);
    const size_t first_nl = file.find('\n');
    if (first_nl == std::string_view::npos) {
        *error = "artifact store: truncated header in " + path;
        return LoadStatus::kCorrupt;
    }
    const std::string_view magic = text::StripCr(file.substr(0, first_nl));
    if (magic != std::string(kMagic) + " " + key.kind) {
        *error = "artifact store: bad magic in " + path + ": '" +
                 std::string(magic) + "'";
        return LoadStatus::kCorrupt;
    }
    const size_t second_nl = file.find('\n', first_nl + 1);
    if (second_nl == std::string_view::npos) {
        *error = "artifact store: missing key line in " + path;
        return LoadStatus::kCorrupt;
    }
    const std::string_view key_line = text::StripCr(
        file.substr(first_nl + 1, second_nl - first_nl - 1));
    if (key_line.substr(0, 4) != "key ") {
        *error = "artifact store: malformed key line in " + path;
        return LoadStatus::kCorrupt;
    }
    if (key_line.substr(4) != key.canonical) {
        // A different canonical key hashed to this file name (collision)
        // or the file predates a key-schema change: not our artifact.
        return LoadStatus::kMiss;
    }
    *payload = file.substr(second_nl + 1);
    return LoadStatus::kHit;
}

bool
ArtifactStore::WritePayload(const StoreKey& key, const std::string& payload,
                            std::string* error) const
{
    const std::string path = PathFor(key);
    std::error_code ec;
    std::filesystem::create_directories(root_ + "/" + key.kind, ec);
    if (ec) {
        if (error != nullptr) {
            *error = "artifact store: cannot create " + root_ + "/" +
                     key.kind + ": " + ec.message();
        }
        return false;
    }
    std::string content = std::string(kMagic) + " " + key.kind + "\n" +
                          "key " + key.canonical + "\n" + payload;
    if (!common::AtomicWriteFile(path, content, error)) {
        return false;
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

// ---- Compile bundles ----------------------------------------------------

LoadStatus
ArtifactStore::LoadCompile(const StoreKey& key,
                           const qec::StabilizerCode& code,
                           const core::ArchitectureConfig& arch,
                           int compile_rounds,
                           const qccd::DeviceGraph* device,
                           core::CompileArtifacts* arts,
                           std::string* error) const
{
    std::string content;
    std::string_view payload;
    const LoadStatus read = ReadPayload(key, &content, &payload, error);
    if (read != LoadStatus::kHit) {
        return Count(read);
    }
    *arts = core::CompileArtifacts{};
    try {
        LineReader reader(payload);
        auto fields = reader.Tagged("rounds", 2);
        if (text::ParseInt32(fields[1], "rounds") != compile_rounds) {
            throw std::invalid_argument(
                "stored compile_rounds does not match the key");
        }
        arts->compile_rounds = compile_rounds;

        const size_t nq = static_cast<size_t>(code.num_qubits());
        compiler::CompilationResult& c = arts->compiled;

        fields = reader.Tagged("partition", 5);
        c.partition.num_clusters =
            text::ParseInt32(fields[1], "partition");
        c.partition.max_cluster_size =
            text::ParseInt32(fields[2], "partition");
        c.partition.min_cluster_size =
            text::ParseInt32(fields[3], "partition");
        if (text::ParseInt64(fields[4], "partition") !=
            static_cast<std::int64_t>(nq)) {
            throw std::invalid_argument(
                "partition size does not match the code");
        }
        c.partition.cluster_of = [&] {
            const auto cl = ParseIntList(
                reader.Tagged("cl", nq + 1), nq, "cluster list");
            return std::vector<int>(cl.begin(), cl.end());
        }();

        fields = reader.Tagged("placement", 3);
        if (text::ParseInt64(fields[1], "placement") !=
                static_cast<std::int64_t>(nq) ||
            text::ParseInt32(fields[2], "placement") !=
                c.partition.num_clusters) {
            throw std::invalid_argument(
                "placement shape does not match the code/partition");
        }
        for (const std::int32_t v : ParseIntList(
                 reader.Tagged("qt", nq + 1), nq, "qubit_trap list")) {
            c.placement.qubit_trap.push_back(NodeId(v));
        }
        const size_t ncl = static_cast<size_t>(c.partition.num_clusters);
        for (const std::int32_t v :
             ParseIntList(reader.Tagged("ct", ncl + 1), ncl,
                          "cluster_trap list")) {
            c.placement.cluster_trap.push_back(NodeId(v));
        }
        c.placement.cost = text::ParseDouble(reader.Tagged("cost", 2)[1],
                                             "placement cost");

        fields = reader.Tagged("routing", 3);
        c.routing.ok = true;
        c.routing.num_passes = text::ParseInt32(fields[1], "routing");
        c.routing.num_movement_ops =
            text::ParseInt32(fields[2], "routing");

        fields = reader.Tagged("schedule", 2);
        const std::int64_t csv_lines =
            text::ParseInt64(fields[1], "schedule");
        if (csv_lines < 1) {
            throw std::invalid_argument("schedule block is empty");
        }
        std::string scratch;
        c.schedule = compiler::ParseScheduleCsv(
            reader.Block(csv_lines, "schedule", &scratch));
        // The compiler takes num_passes from the router, not from the
        // pass column (a trailing gate-only pass has no movement rows);
        // mirror that here so the reconstruction is field-exact.
        c.schedule.num_passes = c.routing.num_passes;
        reader.ExpectEnd();

        // Cheap pure re-derivations (same builders the compiler runs).
        arts->graph = device != nullptr
                          ? *device
                          : compiler::MakeDeviceFor(code, arch.topology,
                                                    arch.trap_capacity);
        c.qec_circuit = qec::BuildParityCheckRounds(code, compile_rounds);
        c.native = circuit::TranslateToNative(c.qec_circuit);
        c.ok = true;
        arts->ok = true;
    } catch (const std::exception& e) {
        *arts = core::CompileArtifacts{};
        *error = "artifact store: compile bundle " + PathFor(key) + ": " +
                 e.what();
        return Count(LoadStatus::kCorrupt);
    }

    // Validate-on-load contract: a loaded bundle passes the same
    // schedule rules a freshly compiled one would, or it is isolated.
    validated_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<analysis::Diagnostic> diags =
        analysis::ValidateCompiledArtifacts(
            arts->compiled, arts->graph, arts->timing,
            arch.wiring == core::WiringKind::kWise);
    if (!diags.empty()) {
        *error = "artifact store: compile bundle " + PathFor(key) + ": " +
                 analysis::FormatDiagnostics(analysis::kCompiledSubject,
                                             diags);
        *arts = core::CompileArtifacts{};
        return Count(LoadStatus::kCorrupt);
    }
    return Count(LoadStatus::kHit);
}

bool
ArtifactStore::StoreCompile(const StoreKey& key,
                            const core::CompileArtifacts& arts,
                            std::string* error) const
{
    if (!arts.ok) {
        if (error != nullptr) {
            *error = "artifact store: refusing to store a failed compile";
        }
        return false;
    }
    const compiler::CompilationResult& c = arts.compiled;
    std::string payload;
    payload += "rounds " + std::to_string(arts.compile_rounds) + '\n';
    payload += "partition " + std::to_string(c.partition.num_clusters) +
               ' ' + std::to_string(c.partition.max_cluster_size) + ' ' +
               std::to_string(c.partition.min_cluster_size) + ' ' +
               std::to_string(c.partition.cluster_of.size()) + '\n';
    AppendIntList(payload, "cl", c.partition.cluster_of.size(),
                  [&](size_t i) { return c.partition.cluster_of[i]; });
    payload += "placement " + std::to_string(c.placement.qubit_trap.size()) +
               ' ' + std::to_string(c.placement.cluster_trap.size()) +
               '\n';
    AppendIntList(payload, "qt", c.placement.qubit_trap.size(),
                  [&](size_t i) { return c.placement.qubit_trap[i].value; });
    AppendIntList(payload, "ct", c.placement.cluster_trap.size(), [&](size_t i) {
        return c.placement.cluster_trap[i].value;
    });
    payload += "cost " + text::ExactDouble(c.placement.cost) + '\n';
    payload += "routing " + std::to_string(c.routing.num_passes) + ' ' +
               std::to_string(c.routing.num_movement_ops) + '\n';
    const std::string csv = compiler::ScheduleCsv(c.schedule);
    payload += "schedule " + std::to_string(CountLines(csv)) + '\n';
    payload += csv;
    return WritePayload(key, payload, error);
}

// ---- Noise profiles -----------------------------------------------------

LoadStatus
ArtifactStore::LoadNoise(const StoreKey& key, size_t expected_gates,
                         size_t expected_qubits,
                         noise::RoundNoiseProfile* profile,
                         std::string* error) const
{
    std::string content;
    std::string_view payload;
    const LoadStatus read = ReadPayload(key, &content, &payload, error);
    if (read != LoadStatus::kHit) {
        return Count(read);
    }
    std::string parse_error;
    if (!noise::ParseNoiseProfile(payload, profile, &parse_error)) {
        *error = "artifact store: noise profile " + PathFor(key) + ": " +
                 parse_error;
        return Count(LoadStatus::kCorrupt);
    }
    if (profile->gate_noise.size() != expected_gates ||
        profile->idle_z.size() != expected_qubits) {
        *error = "artifact store: noise profile " + PathFor(key) +
                 ": shape mismatch (profile covers " +
                 std::to_string(profile->gate_noise.size()) + " gates / " +
                 std::to_string(profile->idle_z.size()) +
                 " qubits, compile bundle has " +
                 std::to_string(expected_gates) + " / " +
                 std::to_string(expected_qubits) + ")";
        *profile = noise::RoundNoiseProfile{};
        return Count(LoadStatus::kCorrupt);
    }
    return Count(LoadStatus::kHit);
}

bool
ArtifactStore::StoreNoise(const StoreKey& key,
                          const noise::RoundNoiseProfile& profile,
                          std::string* error) const
{
    return WritePayload(key, noise::FormatNoiseProfile(profile), error);
}

// ---- Experiment + DEM bundles -------------------------------------------

LoadStatus
ArtifactStore::LoadSim(const StoreKey& key, core::SimArtifacts* arts,
                       std::string* error) const
{
    std::string content;
    std::string_view payload;
    const LoadStatus read = ReadPayload(key, &content, &payload, error);
    if (read != LoadStatus::kHit) {
        return Count(read);
    }
    try {
        LineReader reader(payload);
        auto fields = reader.Tagged("circuit", 2);
        std::string circuit_scratch;
        const std::string_view circuit_text =
            reader.Block(text::ParseInt64(fields[1], "circuit"), "circuit",
                         &circuit_scratch);
        fields = reader.Tagged("dem", 2);
        std::string dem_scratch;
        const std::string_view dem_text = reader.Block(
            text::ParseInt64(fields[1], "dem"), "dem", &dem_scratch);
        reader.ExpectEnd();

        std::string parse_error;
        std::optional<sim::NoisyCircuit> circuit =
            sim::ParseNoisyCircuit(circuit_text, &parse_error);
        if (!circuit.has_value()) {
            throw std::invalid_argument(parse_error);
        }
        sim::DetectorErrorModel dem;
        if (!sim::ParseDem(dem_text, &dem, &parse_error)) {
            throw std::invalid_argument(parse_error);
        }
        arts->experiment = std::move(*circuit);
        arts->dem = std::move(dem);
    } catch (const std::exception& e) {
        *error = "artifact store: sim bundle " + PathFor(key) + ": " +
                 e.what();
        return Count(LoadStatus::kCorrupt);
    }

    // Validate-on-load, workload-blind: the store key does not identify
    // the code/workload pair, so the unreferenced-record check (which
    // needs it) stays with the sweep's own validation stage.
    validated_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<analysis::Diagnostic> diags =
        analysis::ValidateSimArtifacts(arts->experiment, arts->dem);
    if (!diags.empty()) {
        *error = "artifact store: sim bundle " + PathFor(key) + ": " +
                 analysis::FormatDiagnostics(analysis::kSimSubject, diags);
        return Count(LoadStatus::kCorrupt);
    }
    return Count(LoadStatus::kHit);
}

bool
ArtifactStore::StoreSim(const StoreKey& key, const core::SimArtifacts& arts,
                        std::string* error) const
{
    const std::string circuit_text =
        sim::FormatNoisyCircuit(arts.experiment);
    const std::string dem_text = sim::FormatDem(arts.dem);
    std::string payload;
    payload.reserve(circuit_text.size() + dem_text.size() + 64);
    payload += "circuit " + std::to_string(CountLines(circuit_text)) + '\n';
    payload += circuit_text;
    payload += "dem " + std::to_string(CountLines(dem_text)) + '\n';
    payload += dem_text;
    return WritePayload(key, payload, error);
}

}  // namespace tiqec::store
