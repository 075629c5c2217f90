#include "decoder/decoding_graph.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <numeric>
#include <unordered_map>

namespace tiqec::decoder {

namespace {

/** A hyperedge variant that won its edge set's arbitration with a
 *  non-zero residual observable action. */
struct Winner
{
    std::int32_t variant;
    std::uint32_t residual;
};

/** The stage-2 winners of `dem` in priority order. */
std::vector<Winner>
Arbitrate(const sim::DetectorErrorModel& dem)
{
    // Competing interpretations of one realised edge set: the
    // independent-edges baseline (residual 0) versus every mechanism
    // variant that decomposes onto exactly that set. The most probable
    // interpretation wins statically; only winners whose observable
    // action differs from the edge XOR need a runtime entry (a winning
    // consistent interpretation vetoes nothing but corrects nothing).
    //
    // Each variant's sorted edge set is one slice of a flat key array,
    // with a hash. One sort of (hash, variant) items by (hash, set,
    // variant) puts equal sets next to each other in variant order;
    // comparing the hashes first keeps the sort cheap.
    const size_t num_variants = dem.hyperedges.size();
    const auto odds_of = [](double p) {
        return p < 1.0 ? p / (1.0 - p) : 1e300;
    };
    std::vector<std::int32_t> key_off(num_variants + 1, 0);
    for (size_t i = 0; i < num_variants; ++i) {
        key_off[i + 1] = key_off[i] + static_cast<std::int32_t>(
                                          dem.hyperedges[i].edges.size());
    }
    std::vector<std::int32_t> keys(key_off.back());
    struct Item
    {
        std::uint64_t hash;
        std::int32_t variant;
    };
    std::vector<Item> items(num_variants);
    std::vector<double> odds(num_variants);
    for (size_t i = 0; i < num_variants; ++i) {
        const auto& edges = dem.hyperedges[i].edges;
        const auto begin = keys.begin() + key_off[i];
        const auto end = keys.begin() + key_off[i + 1];
        std::copy(edges.begin(), edges.end(), begin);
        std::sort(begin, end);
        std::uint64_t h = 0xCBF29CE484222325ULL;
        for (auto it = begin; it != end; ++it) {
            h = (h ^ static_cast<std::uint32_t>(*it)) * 0x100000001B3ULL;
        }
        items[i] = {h, static_cast<std::int32_t>(i)};
        odds[i] = odds_of(dem.hyperedges[i].p);
    }
    const auto key = [&](std::int32_t i) {
        return std::span<const std::int32_t>(keys.data() + key_off[i],
                                             keys.data() + key_off[i + 1]);
    };
    const auto key_order = [&](std::int32_t a, std::int32_t b) {
        const auto ka = key(a);
        const auto kb = key(b);
        return std::lexicographical_compare_three_way(ka.begin(), ka.end(),
                                                      kb.begin(), kb.end());
    };
    std::sort(items.begin(), items.end(), [&](const Item& a, const Item& b) {
        if (a.hash != b.hash) {
            return a.hash < b.hash;
        }
        const auto c = key_order(a.variant, b.variant);
        return c != 0 ? c < 0 : a.variant < b.variant;
    });

    std::vector<Winner> winners;
    for (size_t g = 0; g < num_variants;) {
        const auto edge_set = key(items[g].variant);
        size_t end = g + 1;
        while (end < num_variants && items[end].hash == items[g].hash &&
               std::ranges::equal(key(items[end].variant), edge_set)) {
            ++end;
        }
        double baseline = 1.0;
        std::uint32_t edge_obs = 0;
        for (const std::int32_t ei : edge_set) {
            baseline *= odds_of(dem.edges[ei].p);
            edge_obs ^= dem.edges[ei].obs_mask;
        }
        double best_odds = baseline;
        std::int32_t best = -1;
        for (size_t j = g; j < end; ++j) {
            if (odds[items[j].variant] > best_odds) {
                best_odds = odds[items[j].variant];
                best = items[j].variant;
            }
        }
        g = end;
        if (best < 0) {
            continue;  // independent-edges interpretation wins
        }
        const std::uint32_t residual =
            dem.hyperedges[best].obs_mask ^ edge_obs;
        if (residual != 0) {
            winners.push_back({best, residual});
        }
    }
    // Priority: descending probability, ties by edge set (each winner's
    // set is distinct, so the order is total).
    std::sort(winners.begin(), winners.end(),
              [&](const Winner& a, const Winner& b) {
                  const double pa = dem.hyperedges[a.variant].p;
                  const double pb = dem.hyperedges[b.variant].p;
                  if (pa != pb) {
                      return pa > pb;
                  }
                  return key_order(a.variant, b.variant) < 0;
              });
    return winners;
}

}  // namespace

DecodingGraph::DecodingGraph(const sim::DetectorErrorModel& dem,
                             const Options& options)
    : num_detectors_(dem.num_detectors), weighted_(options.correlated)
{
    edges_.reserve(dem.edges.size());
    incident_off_.assign(num_detectors_ + 1, 0);
    for (const auto& e : dem.edges) {
        const std::int32_t v =
            e.d1 == sim::DemEdge::kBoundary ? BoundaryNode() : e.d1;
        edges_.push_back({e.d0, v, e.obs_mask});
        ++incident_off_[e.d0 + 1];
        if (v != BoundaryNode()) {
            ++incident_off_[v + 1];
        }
    }
    for (int i = 0; i < num_detectors_; ++i) {
        incident_off_[i + 1] += incident_off_[i];
    }
    // Filled in edge order, so every node lists its arcs in DEM order.
    incident_.resize(incident_off_.back());
    std::vector<std::int32_t> fill(incident_off_.begin(),
                                   incident_off_.end() - 1);
    for (size_t i = 0; i < edges_.size(); ++i) {
        const Edge& e = edges_[i];
        const auto ei = static_cast<std::int32_t>(i);
        incident_[fill[e.u]++] = {e.v, ei};
        if (e.v != BoundaryNode()) {
            incident_[fill[e.v]++] = {e.u, ei};
        }
    }

    if (!weighted_) {
        return;
    }
    edge_weight_.reserve(edges_.size());
    for (const auto& e : dem.edges) {
        edge_weight_.push_back(-std::log(std::clamp(e.p, 1e-15, 1.0)));
    }
    if (dem.hyperedges.empty()) {
        return;
    }

    const std::vector<Winner> winners = Arbitrate(dem);
    std::unordered_map<int, std::int32_t> dense_mech;
    hyper_off_.push_back(0);
    edge_hyper_off_.assign(edges_.size() + 1, 0);
    for (const Winner& w : winners) {
        const auto& edges = dem.hyperedges[w.variant].edges;
        hyper_edge_list_.insert(hyper_edge_list_.end(), edges.begin(),
                                edges.end());
        std::sort(hyper_edge_list_.end() - std::ssize(edges),
                  hyper_edge_list_.end());
        for (const int ei : edges) {
            ++edge_hyper_off_[ei + 1];
        }
        hyper_off_.push_back(
            static_cast<std::int32_t>(hyper_edge_list_.size()));
        hyper_residual_.push_back(w.residual);
        const auto [it, inserted] = dense_mech.emplace(
            dem.hyperedges[w.variant].mechanism,
            static_cast<std::int32_t>(dense_mech.size()));
        hyper_mech_.push_back(it->second);
    }
    num_mechanisms_ = static_cast<int>(dense_mech.size());
    std::partial_sum(edge_hyper_off_.begin(), edge_hyper_off_.end(),
                     edge_hyper_off_.begin());
    edge_hyper_.resize(hyper_edge_list_.size());
    std::vector<std::int32_t> cursor(edge_hyper_off_.begin(),
                                     edge_hyper_off_.end() - 1);
    for (int hi = 0; hi < num_active_hyperedges(); ++hi) {
        for (const std::int32_t ei : EdgesOf(hi)) {
            edge_hyper_[cursor[ei]++] = hi;
        }
    }
}

}  // namespace tiqec::decoder
