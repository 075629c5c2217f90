// Pinned corrupt-artifact corpus for the store serializers (DESIGN.md
// §7.2): seeded truncations, byte flips, line splices and line-ending
// variants of a real d=3 memory sim bundle, its DEM, its noisy circuit
// and its noise profile. Every input's outcome — parsed (with a digest
// of what it re-formats to and the validator's diagnostics) or the exact
// error text — is folded into one FNV-1a digest per document and pinned,
// so a parser or validator rewrite must keep every accept/reject
// decision and every error byte. The clean documents are part of the
// pin, so a compiler, noise or DEM-builder change that alters their bytes
// must re-pin here. Set TIQEC_CORPUS_DUMP=<dir> to write the full
// per-input listing of each document for a diff.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "common/atomic_file.h"
#include "core/pipeline.h"
#include "core/request.h"
#include "core/sweep.h"
#include "noise/profile_io.h"
#include "qec/code.h"
#include "sim/circuit_io.h"
#include "sim/dem_io.h"
#include "store/artifact_store.h"
#include "store/keys.h"
#include "workloads/experiment.h"

namespace tiqec {
namespace {

/** The four documents of one real d=3 rotated memory pipeline run (grid,
 *  capacity 2, 3 rounds), formatted once. */
struct Documents
{
    std::string dem;
    std::string circuit;
    std::string profile;
    std::string bundle;  ///< sim-bundle payload, as StoreSim writes it
};

const Documents&
Docs()
{
    static const Documents* docs = [] {
        const auto code = qec::MakeCode("rotated", 3);
        const core::ArchitectureConfig arch;
        const core::CompileArtifacts compile =
            core::CompileCandidate(*code, arch, 1, nullptr);
        EXPECT_TRUE(compile.ok) << compile.error;
        const noise::RoundNoiseProfile profile =
            core::AnnotateCandidate(*code, arch, compile);
        const core::SimArtifacts sim = core::BuildSimArtifacts(
            *code, compile, profile, arch, 3, workloads::WorkloadSpec{});
        auto* d = new Documents();
        d->dem = sim::FormatDem(sim.dem);
        d->circuit = sim::FormatNoisyCircuit(sim.experiment);
        d->profile = noise::FormatNoiseProfile(profile);

        const std::string root = ::testing::TempDir() + "tiqec_corpus_src";
        std::filesystem::remove_all(root);
        const store::ArtifactStore store(root);
        const store::StoreKey key{"sim", "corpus"};
        std::string error;
        EXPECT_TRUE(store.StoreSim(key, sim, &error)) << error;
        std::string content;
        EXPECT_TRUE(common::ReadFile(store.PathFor(key), &content, &error));
        // Drop the store's magic and key lines: the payload follows them.
        const size_t payload = content.find('\n', content.find('\n') + 1);
        d->bundle = content.substr(payload + 1);
        std::filesystem::remove_all(root);
        return d;
    }();
    return *docs;
}

struct Variant
{
    std::string id;
    std::string text;
};

/** Lines with their '\n' kept (the last may lack it). */
std::vector<std::string>
LinesWithEnds(const std::string& text)
{
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < text.size()) {
        const size_t nl = text.find('\n', begin);
        const size_t end = nl == std::string::npos ? text.size() : nl + 1;
        lines.push_back(text.substr(begin, end - begin));
        begin = end;
    }
    return lines;
}

std::string
Join(const std::vector<std::string>& lines)
{
    std::string out;
    for (const std::string& line : lines) {
        out += line;
    }
    return out;
}

std::string
ReplaceAll(std::string text, const std::string& from, const std::string& to)
{
    for (size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size())) {
        text.replace(at, from.size(), to);
    }
    return text;
}

/**
 * The seeded corpus over one document. Raw std::mt19937_64 output (its
 * sequence is fixed by the standard) with modulo reduction, never a
 * std:: distribution (implementation-defined), so the corpus is the same
 * on every platform.
 */
std::vector<Variant>
Corpus(const std::string& text, std::uint64_t seed)
{
    std::vector<Variant> out;
    const std::vector<std::string> lines = LinesWithEnds(text);
    const size_t n = lines.size();

    // Truncation at every line boundary and in the middle of every line.
    for (size_t k = 0; k < n; ++k) {
        const std::vector<std::string> head(lines.begin(),
                                            lines.begin() + k);
        out.push_back({"trunc-line " + std::to_string(k), Join(head)});
        if (lines[k].size() >= 3) {
            out.push_back({"trunc-mid " + std::to_string(k),
                           Join(head) + lines[k].substr(
                                            0, lines[k].size() / 2)});
        }
    }

    std::mt19937_64 rng(seed);
    // Single-byte replacements from an alphabet of grammar-relevant
    // characters (digits, signs, exponent, separators, line endings,
    // basis/tag letters, NUL).
    static const char kAlphabet[] = "0123456789-+.eE xXZh\n\r\t";
    const size_t alphabet = sizeof(kAlphabet) - 1;  // drop the terminator
    for (int i = 0; i < 300; ++i) {
        const size_t pos = rng() % text.size();
        const std::uint64_t pick = rng() % (alphabet + 1);
        char c = pick == alphabet ? '\0' : kAlphabet[pick];
        if (c == text[pos]) {
            c = static_cast<char>(text[pos] ^ 1);
        }
        std::string mutated = text;
        mutated[pos] = c;
        out.push_back({"flip " + std::to_string(pos) + " " +
                           std::to_string(static_cast<unsigned char>(c)),
                       std::move(mutated)});
    }

    // Line splices: delete, duplicate, swap, overwrite.
    static const char* const kSplice[] = {"delete", "dup", "swap", "over"};
    for (int i = 0; i < 200; ++i) {
        const int op = static_cast<int>(rng() % 4);
        const size_t a = rng() % n;
        const size_t b = rng() % n;
        std::vector<std::string> mutated = lines;
        switch (op) {
          case 0: mutated.erase(mutated.begin() + a); break;
          case 1: mutated.insert(mutated.begin() + a, lines[a]); break;
          case 2: std::swap(mutated[a], mutated[b]); break;
          default: mutated[a] = lines[b]; break;
        }
        // Keep every line newline-terminated except, at most, the last.
        for (size_t j = 0; j + 1 < mutated.size(); ++j) {
            if (mutated[j].empty() || mutated[j].back() != '\n') {
                mutated[j] += '\n';
            }
        }
        out.push_back({std::string("splice ") + kSplice[op] + " " +
                           std::to_string(a) + " " + std::to_string(b),
                       Join(mutated)});
    }

    // Line endings: CRLF, doubled '\r' everywhere and on single lines,
    // an empty trailing line, no final newline, trailing garbage.
    out.push_back({"crlf", ReplaceAll(text, "\n", "\r\n")});
    out.push_back({"crcr", ReplaceAll(text, "\n", "\r\r\n")});
    for (int i = 0; i < 80; ++i) {
        const size_t k = i < 8 ? static_cast<size_t>(i) % n : rng() % n;
        std::vector<std::string> mutated = lines;
        std::string& line = mutated[k];
        const bool ends = !line.empty() && line.back() == '\n';
        if (ends) {
            line.pop_back();
        }
        line += i % 2 == 0 ? "\r\r" : "\r";
        if (ends) {
            line += '\n';
        }
        out.push_back({std::string(i % 2 == 0 ? "crcr-line " : "cr-line ") +
                           std::to_string(k),
                       Join(mutated)});
    }
    out.push_back({"trailing-empty", text + "\n"});
    out.push_back({"trailing-empty-crlf", text + "\r\n"});
    out.push_back({"trailing-empty-twice", text + "\n\n"});
    out.push_back({"no-final-newline", text.substr(0, text.size() - 1)});
    out.push_back({"trailing-garbage", text + "x\n"});
    out.push_back({"leading-empty", "\n" + text});
    out.push_back({"empty", ""});
    out.push_back({"clean", text});
    return out;
}

std::string
Hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
Diags(const std::vector<analysis::Diagnostic>& diags)
{
    std::string out;
    for (const analysis::Diagnostic& d : diags) {
        out += " [" + d.rule + " @ " + d.location + ": " + d.message + "]";
    }
    return out;
}

std::string
DemOutcome(const std::string& text)
{
    sim::DetectorErrorModel dem;
    std::string error;
    if (!sim::ParseDem(text, &dem, &error)) {
        return "err " + error;
    }
    return "ok " + Hex(store::Fnv1a64(sim::FormatDem(dem))) +
           Diags(analysis::ValidateDem(dem));
}

std::string
CircuitOutcome(const std::string& text)
{
    std::string error;
    const std::optional<sim::NoisyCircuit> circuit =
        sim::ParseNoisyCircuit(text, &error);
    if (!circuit.has_value()) {
        return "err " + error;
    }
    return "ok " + Hex(store::Fnv1a64(sim::FormatNoisyCircuit(*circuit))) +
           Diags(analysis::ValidateCircuit(*circuit));
}

std::string
ProfileOutcome(const std::string& text)
{
    noise::RoundNoiseProfile profile;
    std::string error;
    if (!noise::ParseNoiseProfile(text, &profile, &error)) {
        return "err " + error;
    }
    return "ok " + Hex(store::Fnv1a64(noise::FormatNoiseProfile(profile)));
}

/** LoadSim on the payload behind an intact magic and key line; the
 *  store root is masked so the text does not depend on the temp dir. */
class BundleLoader
{
  public:
    BundleLoader()
        : root_(::testing::TempDir() + "tiqec_corpus_bundle"),
          store_(root_),
          key_{"sim", "corpus"}
    {
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_ + "/sim");
    }

    ~BundleLoader() { std::filesystem::remove_all(root_); }

    std::string
    operator()(const std::string& payload) const
    {
        std::string error;
        EXPECT_TRUE(common::AtomicWriteFile(
            store_.PathFor(key_),
            "tiqec-artifact v1 sim\nkey corpus\n" + payload, &error))
            << error;
        core::SimArtifacts arts;
        error.clear();
        const store::LoadStatus status = store_.LoadSim(key_, &arts, &error);
        switch (status) {
          case store::LoadStatus::kMiss:
            return "miss";
          case store::LoadStatus::kCorrupt:
            return "corrupt " + ReplaceAll(error, root_, "<store>");
          case store::LoadStatus::kHit:
            break;
        }
        return "hit " +
               Hex(store::Fnv1a64(sim::FormatNoisyCircuit(arts.experiment) +
                                  sim::FormatDem(arts.dem)));
    }

  private:
    std::string root_;
    store::ArtifactStore store_;
    store::StoreKey key_;
};

struct Pin
{
    size_t inputs;
    size_t accepted;  ///< outcomes starting "ok" / "hit"
    const char* digest;
};

/** Runs the corpus, checks the pin, and returns outcome by id. */
std::map<std::string, std::string>
RunCorpus(const char* name, const std::string& text, std::uint64_t seed,
          const std::function<std::string(const std::string&)>& outcome,
          const Pin& pin)
{
    std::map<std::string, std::string> by_id;
    std::string listing;
    size_t accepted = 0;
    const std::vector<Variant> corpus = Corpus(text, seed);
    for (const Variant& v : corpus) {
        const std::string result = outcome(v.text);
        accepted += result.rfind("ok", 0) == 0 || result.rfind("hit", 0) == 0;
        listing += v.id + "\t" + result + "\n";
        by_id[v.id] = result;
    }
    if (const char* dir = std::getenv("TIQEC_CORPUS_DUMP")) {
        std::ofstream(std::string(dir) + "/" + name + ".txt") << listing;
    }
    EXPECT_EQ(corpus.size(), pin.inputs) << name;
    EXPECT_EQ(accepted, pin.accepted) << name;
    EXPECT_EQ(Hex(store::Fnv1a64(listing)), pin.digest)
        << name << ": some input's outcome changed; set TIQEC_CORPUS_DUMP "
        << "to list every outcome";
    return by_id;
}

TEST(ArtifactCorpusTest, DemOutcomesArePinned)
{
    const auto by_id = RunCorpus("dem", Docs().dem, 0xD3A1, DemOutcome,
                                 {1898, 227, "2a74389dabfc8348"});
    EXPECT_EQ(by_id.at("clean"), "ok 1a8dd98bf160e741");
    EXPECT_EQ(by_id.at("crlf"), by_id.at("clean"));
    EXPECT_EQ(by_id.at("trailing-empty"), by_id.at("clean"));
    EXPECT_EQ(by_id.at("no-final-newline"), by_id.at("clean"));
    EXPECT_EQ(by_id.at("trunc-line 3"), "err dem parse: missing mass line");
    EXPECT_EQ(by_id.at("crcr"),
              "err dem parse: missing 'tiqec-dem v2' header");
    EXPECT_EQ(by_id.at("crcr-line 4"),
              "err dem parse: bases line has 25 tags for 24 detectors");
    EXPECT_EQ(by_id.at("crcr-line 6"),
              "err dem parse: bad integer '0\r' in edge 1");
    EXPECT_EQ(by_id.at("trailing-garbage"),
              "err dem parse: trailing content after last element: 'x'");
    EXPECT_EQ(by_id.at("flip 4189 52"),
              "ok 798adb6df853aa1d [dem.hyperedge_edges @ hyperedge 18: "
              "decomposition is not a sorted list of existing elementary "
              "edges partitioning the detector signature]");
}

TEST(ArtifactCorpusTest, CircuitOutcomesArePinned)
{
    const auto by_id = RunCorpus("circuit", Docs().circuit, 0xC1C1,
                                 CircuitOutcome,
                                 {1552, 231, "596c53be88b4f62b"});
    EXPECT_EQ(by_id.at("clean"), "ok 39e53db1b4df54f2");
    EXPECT_EQ(by_id.at("crlf"), by_id.at("clean"));
    EXPECT_EQ(by_id.at("trunc-line 3"),
              "err circuit parse: truncated: missing op 0");
    EXPECT_EQ(by_id.at("crcr"),
              "err circuit parse: missing 'tiqec-circuit v2' header");
    EXPECT_EQ(by_id.at("trailing-garbage"),
              "err circuit parse: trailing content after last op: 'x'");
}

TEST(ArtifactCorpusTest, ProfileOutcomesArePinned)
{
    const auto by_id = RunCorpus("profile", Docs().profile, 0x9F0F,
                                 ProfileOutcome,
                                 {696, 256, "50f1dfb6940c4555"});
    EXPECT_EQ(by_id.at("clean"), "ok d0f914645d5dd8d8");
    EXPECT_EQ(by_id.at("crlf"), by_id.at("clean"));
    EXPECT_EQ(by_id.at("trunc-line 3"),
              "err noise profile parse: truncated: missing gate 0");
    EXPECT_EQ(by_id.at("trailing-garbage"),
              "err noise profile parse: trailing content after last swap: "
              "'x'");
}

TEST(ArtifactCorpusTest, SimBundleOutcomesArePinned)
{
    const BundleLoader load;
    const auto by_id = RunCorpus(
        "bundle", Docs().bundle, 0xB0D1,
        [&load](const std::string& payload) { return load(payload); },
        {2864, 139, "6311820cfa476d9d"});
    const std::string corrupt =
        "corrupt artifact store: sim bundle "
        "<store>/sim/9b7506db4fe588a1.art: ";
    EXPECT_EQ(by_id.at("clean"), "hit 383da5cfb61cdca6");
    EXPECT_EQ(by_id.at("crlf"), by_id.at("clean"));
    EXPECT_EQ(by_id.at("trailing-empty"), by_id.at("clean"));
    EXPECT_EQ(by_id.at("trunc-line 3"),
              corrupt + "truncated artifact: missing circuit line 2");
    EXPECT_EQ(by_id.at("empty"),
              corrupt + "truncated artifact: missing circuit line");
    EXPECT_EQ(by_id.at("crcr"), corrupt + "bad integer '481\r' in circuit");
    // A doubled '\r' on a line inside an embedded sub-document is
    // absorbed: the bundle reader strips one, the sub-parser the other.
    EXPECT_EQ(by_id.at("crcr-line 2"), by_id.at("clean"));
    EXPECT_EQ(by_id.at("crcr-line 1000"), by_id.at("clean"));
}

/** Format -> parse -> format is byte-identical for the sim pair of a
 *  service request line, the validators say exactly the same about the
 *  parsed pair as about the built one, and the pair loads back from a
 *  store as a hit. */
void
ExpectLargeRoundTrip(const std::string& line, size_t expected_variants)
{
    SCOPED_TRACE(line);
    core::SweepCandidate candidate;
    std::string error;
    ASSERT_TRUE(core::ParseRequestCandidate(line + " shots=0", &candidate,
                                            &error))
        << error;
    core::SweepRunnerOptions opts;
    opts.num_threads = 1;
    const std::vector<core::SweepOutcome> outcomes =
        core::SweepRunner(opts).RunDetailed({candidate});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_NE(outcomes[0].sim, nullptr) << outcomes[0].metrics.error;
    const core::SimArtifacts& built = *outcomes[0].sim;
    EXPECT_EQ(built.dem.hyperedges.size(), expected_variants);

    const std::string dem_text = sim::FormatDem(built.dem);
    const std::string circuit_text = sim::FormatNoisyCircuit(built.experiment);
    core::SimArtifacts parsed;
    ASSERT_TRUE(sim::ParseDem(dem_text, &parsed.dem, &error)) << error;
    std::optional<sim::NoisyCircuit> circuit =
        sim::ParseNoisyCircuit(circuit_text, &error);
    ASSERT_TRUE(circuit.has_value()) << error;
    parsed.experiment = std::move(*circuit);
    EXPECT_TRUE(sim::FormatDem(parsed.dem) == dem_text);
    EXPECT_TRUE(sim::FormatNoisyCircuit(parsed.experiment) == circuit_text);
    EXPECT_EQ(Diags(analysis::ValidateSimArtifacts(parsed.experiment,
                                                   parsed.dem)),
              Diags(analysis::ValidateSimArtifacts(built.experiment,
                                                   built.dem)));

    const std::string root = ::testing::TempDir() + "tiqec_corpus_large";
    std::filesystem::remove_all(root);
    const store::ArtifactStore store(root);
    const store::StoreKey key{"sim", "large"};
    ASSERT_TRUE(store.StoreSim(key, built, &error)) << error;
    core::SimArtifacts loaded;
    EXPECT_EQ(store.LoadSim(key, &loaded, &error), store::LoadStatus::kHit)
        << error;
    EXPECT_TRUE(sim::FormatDem(loaded.dem) == dem_text);
    EXPECT_TRUE(sim::FormatNoisyCircuit(loaded.experiment) == circuit_text);
    std::filesystem::remove_all(root);
}

TEST(ArtifactCorpusTest, LargeArtifactsRoundTripByteIdentically)
{
    // The densest DEM the sweeps load (d=5 linear capacity 2), and the
    // longest (d=3 grid at 800 rounds).
    ExpectLargeRoundTrip(
        "family=rotated distance=5 topology=linear capacity=2", 129047);
    ExpectLargeRoundTrip(
        "family=rotated distance=3 topology=grid capacity=2 rounds=800",
        260365);
}

}  // namespace
}  // namespace tiqec
