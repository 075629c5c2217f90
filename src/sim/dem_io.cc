#include "sim/dem_io.h"

#include <sstream>
#include <stdexcept>

#include "common/text_format.h"

namespace tiqec::sim {

namespace {

constexpr char kHeader[] = "tiqec-dem v2";

// Line grammar (space-separated, exact doubles):
//   tiqec-dem v2
//   counts <num_detectors> <num_observables> <num_edges> <num_hyperedges>
//   diag <num_components> <num_decomposed> <num_hyperedge_groups>
//        <num_undecomposable>
//   mass <hyperedge_probability> <undecomposable_probability>
//        <dropped_probability>
//   bases <n> <one X|Z|- per detector>   (n = 0 or num_detectors; the
//                                          tag string is absent at 0)
//   e <d0> <d1> <p> <obs_mask>                       (x num_edges)
//   h <mechanism> <p> <obs_mask> <ndets> <dets...>
//        <nedges> <edge indices...>                  (x num_hyperedges)

void
AppendEdge(std::string& out, const DemEdge& e)
{
    out += "e ";
    out += std::to_string(e.d0);
    out += ' ';
    out += std::to_string(e.d1);
    out += ' ';
    out += text::ExactDouble(e.p);
    out += ' ';
    out += std::to_string(e.obs_mask);
    out += '\n';
}

void
AppendHyperedge(std::string& out, const DemHyperedge& h)
{
    out += "h ";
    out += std::to_string(h.mechanism);
    out += ' ';
    out += text::ExactDouble(h.p);
    out += ' ';
    out += std::to_string(h.obs_mask);
    out += ' ';
    out += std::to_string(h.dets.size());
    for (const int d : h.dets) {
        out += ' ';
        out += std::to_string(d);
    }
    out += ' ';
    out += std::to_string(h.edges.size());
    for (const int e : h.edges) {
        out += ' ';
        out += std::to_string(e);
    }
    out += '\n';
}

}  // namespace

std::string
FormatDem(const DetectorErrorModel& dem)
{
    std::string out;
    out += kHeader;
    out += '\n';
    out += "counts ";
    out += std::to_string(dem.num_detectors);
    out += ' ';
    out += std::to_string(dem.num_observables);
    out += ' ';
    out += std::to_string(dem.edges.size());
    out += ' ';
    out += std::to_string(dem.hyperedges.size());
    out += '\n';
    out += "diag ";
    out += std::to_string(dem.num_components);
    out += ' ';
    out += std::to_string(dem.num_decomposed);
    out += ' ';
    out += std::to_string(dem.num_hyperedges);
    out += ' ';
    out += std::to_string(dem.num_undecomposable);
    out += '\n';
    out += "mass ";
    out += text::ExactDouble(dem.hyperedge_probability);
    out += ' ';
    out += text::ExactDouble(dem.undecomposable_probability);
    out += ' ';
    out += text::ExactDouble(dem.dropped_probability);
    out += '\n';
    out += "bases ";
    out += std::to_string(dem.detector_basis.size());
    if (!dem.detector_basis.empty()) {
        out += ' ';
        for (const DetectorBasis b : dem.detector_basis) {
            out += BasisChar(b);
        }
    }
    out += '\n';
    for (const DemEdge& e : dem.edges) {
        AppendEdge(out, e);
    }
    for (const DemHyperedge& h : dem.hyperedges) {
        AppendHyperedge(out, h);
    }
    return out;
}

namespace {

std::uint32_t
ParseMask(const std::string& field, const std::string& context)
{
    const std::int64_t v = text::ParseInt64(field, context);
    if (v < 0 || v > 0xffffffffll) {
        throw std::invalid_argument("obs_mask out of range in " + context);
    }
    return static_cast<std::uint32_t>(v);
}

bool
NextLine(std::istringstream& in, std::string* line)
{
    if (!std::getline(in, *line)) {
        return false;
    }
    text::StripCr(*line);
    return true;
}

void
ParseDemImpl(const std::string& text_in, DetectorErrorModel* dem)
{
    std::istringstream in(text_in);
    std::string line;
    if (!NextLine(in, &line) || line != kHeader) {
        throw std::invalid_argument("missing 'tiqec-dem v2' header");
    }

    if (!NextLine(in, &line)) {
        throw std::invalid_argument("missing counts line");
    }
    auto fields = text::SplitFields(line, ' ');
    if (fields.size() != 5 || fields[0] != "counts") {
        throw std::invalid_argument("malformed counts line: '" + line + "'");
    }
    dem->num_detectors = text::ParseInt32(fields[1], "counts");
    dem->num_observables = text::ParseInt32(fields[2], "counts");
    const std::int64_t num_edges = text::ParseInt64(fields[3], "counts");
    const std::int64_t num_hyper = text::ParseInt64(fields[4], "counts");
    if (num_edges < 0 || num_hyper < 0) {
        throw std::invalid_argument("negative element count");
    }

    if (!NextLine(in, &line)) {
        throw std::invalid_argument("missing diag line");
    }
    fields = text::SplitFields(line, ' ');
    if (fields.size() != 5 || fields[0] != "diag") {
        throw std::invalid_argument("malformed diag line: '" + line + "'");
    }
    dem->num_components = text::ParseInt32(fields[1], "diag");
    dem->num_decomposed = text::ParseInt32(fields[2], "diag");
    dem->num_hyperedges = text::ParseInt32(fields[3], "diag");
    dem->num_undecomposable = text::ParseInt32(fields[4], "diag");

    if (!NextLine(in, &line)) {
        throw std::invalid_argument("missing mass line");
    }
    fields = text::SplitFields(line, ' ');
    if (fields.size() != 4 || fields[0] != "mass") {
        throw std::invalid_argument("malformed mass line: '" + line + "'");
    }
    dem->hyperedge_probability = text::ParseDouble(fields[1], "mass");
    dem->undecomposable_probability = text::ParseDouble(fields[2], "mass");
    dem->dropped_probability = text::ParseDouble(fields[3], "mass");

    if (!NextLine(in, &line)) {
        throw std::invalid_argument("missing bases line");
    }
    fields = text::SplitFields(line, ' ');
    if (fields.size() < 2 || fields[0] != "bases") {
        throw std::invalid_argument("malformed bases line: '" + line + "'");
    }
    const std::int64_t num_bases = text::ParseInt64(fields[1], "bases");
    if (fields.size() != (num_bases == 0 ? 2u : 3u)) {
        throw std::invalid_argument("malformed bases line: '" + line + "'");
    }
    const std::string tags = num_bases == 0 ? "" : fields[2];
    if ((num_bases != 0 && num_bases != dem->num_detectors) ||
        static_cast<std::int64_t>(tags.size()) != num_bases) {
        throw std::invalid_argument(
            "bases line has " + std::to_string(tags.size()) +
            " tags for " + std::to_string(dem->num_detectors) +
            " detectors");
    }
    dem->detector_basis.resize(tags.size());
    for (size_t d = 0; d < tags.size(); ++d) {
        if (!ParseBasisChar(tags[d], &dem->detector_basis[d])) {
            throw std::invalid_argument("detector basis out of range in "
                                        "bases line");
        }
    }

    dem->edges.reserve(static_cast<size_t>(num_edges));
    for (std::int64_t i = 0; i < num_edges; ++i) {
        const std::string context = "edge " + std::to_string(i);
        if (!NextLine(in, &line)) {
            throw std::invalid_argument("truncated: missing " + context);
        }
        fields = text::SplitFields(line, ' ');
        if (fields.size() != 5 || fields[0] != "e") {
            throw std::invalid_argument("malformed " + context + ": '" +
                                        line + "'");
        }
        DemEdge e;
        e.d0 = text::ParseInt32(fields[1], context);
        e.d1 = text::ParseInt32(fields[2], context);
        e.p = text::ParseDouble(fields[3], context);
        e.obs_mask = ParseMask(fields[4], context);
        dem->edges.push_back(e);
    }

    dem->hyperedges.reserve(static_cast<size_t>(num_hyper));
    for (std::int64_t i = 0; i < num_hyper; ++i) {
        const std::string context = "hyperedge " + std::to_string(i);
        if (!NextLine(in, &line)) {
            throw std::invalid_argument("truncated: missing " + context);
        }
        fields = text::SplitFields(line, ' ');
        if (fields.size() < 5 || fields[0] != "h") {
            throw std::invalid_argument("malformed " + context + ": '" +
                                        line + "'");
        }
        DemHyperedge h;
        h.mechanism = text::ParseInt32(fields[1], context);
        h.p = text::ParseDouble(fields[2], context);
        h.obs_mask = ParseMask(fields[3], context);
        size_t pos = 4;
        const std::int64_t ndets = text::ParseInt64(fields[pos++], context);
        if (ndets < 0 ||
            fields.size() < pos + static_cast<size_t>(ndets) + 1) {
            throw std::invalid_argument("detector list truncated in " +
                                        context);
        }
        h.dets.reserve(static_cast<size_t>(ndets));
        for (std::int64_t d = 0; d < ndets; ++d) {
            h.dets.push_back(text::ParseInt32(fields[pos++], context));
        }
        const std::int64_t nedges = text::ParseInt64(fields[pos++], context);
        if (nedges < 0 ||
            fields.size() != pos + static_cast<size_t>(nedges)) {
            throw std::invalid_argument("edge list truncated in " + context);
        }
        h.edges.reserve(static_cast<size_t>(nedges));
        for (std::int64_t e = 0; e < nedges; ++e) {
            const int idx = text::ParseInt32(fields[pos++], context);
            if (idx < 0 || idx >= static_cast<int>(dem->edges.size())) {
                throw std::invalid_argument(
                    "edge index out of range in " + context);
            }
            h.edges.push_back(idx);
        }
        dem->hyperedges.push_back(std::move(h));
    }

    if (NextLine(in, &line) && !line.empty()) {
        throw std::invalid_argument("trailing content after last element: '" +
                                    line + "'");
    }
}

}  // namespace

bool
ParseDem(const std::string& text, DetectorErrorModel* dem, std::string* error)
{
    *dem = DetectorErrorModel{};
    try {
        ParseDemImpl(text, dem);
    } catch (const std::invalid_argument& e) {
        if (error != nullptr) {
            *error = std::string("dem parse: ") + e.what();
        }
        return false;
    }
    return true;
}

}  // namespace tiqec::sim
