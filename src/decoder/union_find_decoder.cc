#include "decoder/union_find_decoder.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

namespace tiqec::decoder {

UnionFindDecoder::UnionFindDecoder(const sim::DetectorErrorModel& dem,
                                   const Options& options)
    : UnionFindDecoder(std::make_shared<const DecodingGraph>(dem, options))
{
}

UnionFindDecoder::UnionFindDecoder(std::shared_ptr<const DecodingGraph> graph)
    : graph_(std::move(graph)), stage2_(graph_->num_active_hyperedges() > 0)
{
    const DecodingGraph& g = *graph_;
    const int n = g.num_detectors() + 1;
    parent_.resize(n);
    for (int i = 0; i < n; ++i) {
        parent_[i] = i;
    }
    defect_.assign(n, 0);
    in_cluster_.assign(n, 0);
    edge_grown_.assign(g.num_edges(), 0);
    cluster_of_root_.assign(n, -1);
    grown_degree_.assign(n, 0);
    grown_begin_.assign(n, 0);
    parent_edge_.assign(n, -1);
    visited_.assign(n, 0);
    best_dist_.assign(n, 0.0);
    best_pe_.assign(n, 0);
    best_search_.assign(n, 0);
    if (stage2_) {
        edge_used_.assign(g.num_edges(), 0);
        edge_claimed_.assign(g.num_edges(), 0);
        entry_hits_.assign(g.num_active_hyperedges(), 0);
        mech_claimed_.assign(g.num_mechanisms_, 0);
    }
}

int
UnionFindDecoder::Find(int x)
{
    while (parent_[x] != x) {
        parent_[x] = parent_[parent_[x]];
        x = parent_[x];
    }
    return x;
}

void
UnionFindDecoder::ResetScratch()
{
    for (const std::int32_t node : touched_nodes_) {
        parent_[node] = node;
        defect_[node] = 0;
        in_cluster_[node] = 0;
        cluster_of_root_[node] = -1;
        parent_edge_[node] = -1;
        visited_[node] = 0;
        grown_degree_[node] = 0;
        best_search_[node] = 0;
    }
    search_ = 0;
    for (const std::int32_t ei : grown_edges_) {
        edge_grown_[ei] = 0;
    }
    touched_nodes_.clear();
    grown_edges_.clear();
    order_.clear();
    if (stage2_) {
        for (const std::int32_t ei : used_edges_) {
            edge_used_[ei] = 0;
            edge_claimed_[ei] = 0;
            for (const std::int32_t hi : graph_->EntriesOf(ei)) {
                entry_hits_[hi] = 0;
            }
        }
        used_edges_.clear();
        covered_.clear();
        for (const std::int32_t m : mechs_claimed_) {
            mech_claimed_[m] = 0;
        }
        mechs_claimed_.clear();
    }
}

void
UnionFindDecoder::BuildGrownAdjacency()
{
    // Every endpoint of a grown edge is touched (growth only absorbs
    // edges at cluster nodes and touches what lies across), so the CSR
    // spans the touched nodes; the fill keeps grown_edges_ order.
    const DecodingGraph& g = *graph_;
    for (const std::int32_t ei : grown_edges_) {
        const DecodingGraph::Edge& e = g.edges_[ei];
        ++grown_degree_[e.u];
        if (e.v != BoundaryNode()) {
            ++grown_degree_[e.v];
        }
    }
    std::int32_t next = 0;
    for (const std::int32_t node : touched_nodes_) {
        grown_begin_[node] = next;
        next += grown_degree_[node];
    }
    grown_arcs_.resize(static_cast<size_t>(next));
    for (const std::int32_t ei : grown_edges_) {
        const DecodingGraph::Edge& e = g.edges_[ei];
        grown_arcs_[grown_begin_[e.u]++] = {e.v, ei};
        if (e.v != BoundaryNode()) {
            grown_arcs_[grown_begin_[e.v]++] = {e.u, ei};
        }
    }
    // The fill advanced each begin past its node's arcs.
    for (const std::int32_t node : touched_nodes_) {
        grown_begin_[node] -= grown_degree_[node];
    }
}

void
UnionFindDecoder::BuildBfsForest()
{
    // order_ doubles as the BFS queue (nodes are appended once and
    // scanned once), so no per-decode queue allocation.
    auto bfs_from = [&](std::int32_t start) {
        size_t head = order_.size();
        order_.push_back(start);
        while (head < order_.size()) {
            const std::int32_t node = order_[head++];
            for (const Arc& arc : GrownArcs(node)) {
                if (arc.other == BoundaryNode() || visited_[arc.other]) {
                    continue;
                }
                visited_[arc.other] = 1;
                parent_edge_[arc.other] = arc.edge;
                order_.push_back(arc.other);
            }
        }
    };
    const DecodingGraph& g = *graph_;
    for (const std::int32_t ei : grown_edges_) {
        const DecodingGraph::Edge& e = g.edges_[ei];
        if (e.v == BoundaryNode() && !visited_[e.u]) {
            visited_[e.u] = 1;
            parent_edge_[e.u] = ei;  // parent is the boundary
            bfs_from(e.u);
        }
    }
    for (const std::int32_t node : touched_nodes_) {
        if (!visited_[node]) {
            visited_[node] = 1;
            parent_edge_[node] = -1;  // interior forest root
            bfs_from(node);
        }
    }
}

void
UnionFindDecoder::BuildWeightedForest(std::span<const int> syndrome)
{
    // Multi-source Dijkstra under w = -log p: every node's parent edge
    // lies on its most probable path to the boundary (or to the cluster
    // root), so the peel drains defects along likely error strings
    // instead of arbitrary BFS trees. Lazy deletion: stale heap entries
    // are skipped via visited_. Ties break on (node, edge) so decodes
    // are deterministic for any probability assignment.
    //
    // The peel only flips tree edges with a defect beneath them, so each
    // search settles just the nodes that can lie on such a path
    // (DESIGN.md §3.6):
    //  - a non-defect node with one grown edge is never pushed: no path
    //    runs through it and nothing lies beneath it;
    //  - a search stops once its last defect has settled. Dijkstra
    //    settles a parent before its children, so every parent edge a
    //    defect's path uses is already final, and the unsettled rest
    //    holds no defect.
    // A push whose (dist, edge) is not below the node's best entry in
    // the current search is dropped: the heap's total order would pop it
    // after that entry, by which time the node is settled, so the
    // settled sequence is unchanged.
    const DecodingGraph& g = *graph_;
    auto greater = [](const HeapEntry& a, const HeapEntry& b) {
        if (a.dist != b.dist) {
            return a.dist > b.dist;
        }
        if (a.node != b.node) {
            return a.node > b.node;
        }
        return a.pe > b.pe;
    };
    auto push = [&](double dist, std::int32_t node, std::int32_t pe) {
        if (best_search_[node] == search_ &&
            (dist > best_dist_[node] ||
             (dist == best_dist_[node] && pe >= best_pe_[node]))) {
            return;
        }
        best_search_[node] = search_;
        best_dist_[node] = dist;
        best_pe_[node] = pe;
        heap_.push_back({dist, node, pe});
        std::push_heap(heap_.begin(), heap_.end(), greater);
    };
    auto dead_leaf = [&](int node) {
        return !defect_[node] && grown_degree_[node] == 1;
    };
    auto run = [&](int defects) {
        while (defects > 0 && !heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), greater);
            const HeapEntry top = heap_.back();
            heap_.pop_back();
            if (visited_[top.node]) {
                continue;
            }
            visited_[top.node] = 1;
            parent_edge_[top.node] = top.pe;
            order_.push_back(top.node);
            defects -= defect_[top.node];
            for (const Arc& arc : GrownArcs(top.node)) {
                if (arc.other == BoundaryNode() || visited_[arc.other] ||
                    dead_leaf(arc.other)) {
                    continue;
                }
                push(top.dist + g.edge_weight_[arc.edge], arc.other,
                     arc.edge);
            }
        }
        heap_.clear();
    };
    // Every defect of a boundary-touching cluster drains towards the
    // boundary: one multi-source search from all grown boundary edges.
    // (A boundary-seeded node is never a dead leaf: it is a defect, or
    // growth reached it over a second grown edge.)
    int boundary_defects = 0;
    for (size_t ci = 0; ci < syndrome.size(); ++ci) {
        if (clusters_[ci].boundary &&
            cluster_of_root_[Find(syndrome[ci])] ==
                static_cast<std::int32_t>(ci)) {
            boundary_defects += clusters_[ci].parity;
        }
    }
    if (boundary_defects > 0) {
        ++search_;
        for (const std::int32_t ei : grown_edges_) {
            const DecodingGraph::Edge& e = g.edges_[ei];
            if (e.v == BoundaryNode()) {
                push(g.edge_weight_[ei], e.u, ei);
            }
        }
        run(boundary_defects);
    }
    // Each remaining (even, boundary-less) cluster roots at its first
    // defect in syndrome order.
    for (const int d : syndrome) {
        if (!visited_[d]) {
            ++search_;
            push(0.0, d, -1);  // interior forest root
            run(clusters_[cluster_of_root_[Find(d)]].parity);
        }
    }
}

std::uint32_t
UnionFindDecoder::ApplyStage2()
{
    // Each used edge counts a hit on every entry it belongs to; an entry
    // is a candidate only once all its decomposition edges are used.
    // Candidates then claim in priority order (entry index), at most one
    // per mechanism and each edge at most once, and re-apply their
    // residual observable action — the part of the mechanism's true
    // effect the elementary edge XOR got wrong.
    const DecodingGraph& g = *graph_;
    for (const std::int32_t ei : used_edges_) {
        for (const std::int32_t hi : g.EntriesOf(ei)) {
            if (++entry_hits_[hi] ==
                g.hyper_off_[hi + 1] - g.hyper_off_[hi]) {
                covered_.push_back(hi);
            }
        }
    }
    std::sort(covered_.begin(), covered_.end());
    std::uint32_t residual = 0;
    for (const std::int32_t hi : covered_) {
        const std::int32_t mech = g.hyper_mech_[hi];
        if (mech_claimed_[mech]) {
            continue;
        }
        const auto edges = g.EdgesOf(hi);
        if (std::any_of(edges.begin(), edges.end(), [&](std::int32_t ei) {
                return edge_claimed_[ei] != 0;
            })) {
            continue;
        }
        for (const std::int32_t ei : edges) {
            edge_claimed_[ei] = 1;
        }
        mech_claimed_[mech] = 1;
        mechs_claimed_.push_back(mech);
        residual ^= g.hyper_residual_[hi];
        ++work_stage2_claims_;
    }
    return residual;
}

std::uint32_t
UnionFindDecoder::Decode(std::span<const int> syndrome)
{
    if (syndrome.empty()) {
        return 0;
    }
    const DecodingGraph& g = *graph_;
    const int num_detectors = g.num_detectors();
    if (clusters_.size() < syndrome.size()) {
        clusters_.resize(syndrome.size());
    }

    auto touch = [&](int node) {
        if (!in_cluster_[node]) {
            in_cluster_[node] = 1;
            touched_nodes_.push_back(node);
        }
    };

    for (size_t i = 0; i < syndrome.size(); ++i) {
        const int d = syndrome[i];
        const bool in_range = d >= 0 && d < num_detectors;
        if (!in_range || in_cluster_[d]) {
            // A repeated detector has even parity, not a defect, and the
            // forest's per-cluster defect counts assume distinct seeds.
            ResetScratch();
            throw std::invalid_argument(
                "UnionFindDecoder: syndrome detector " +
                std::to_string(d) +
                (in_range ? " is listed twice"
                          : " is out of range [0, " +
                                std::to_string(num_detectors) + ")"));
        }
        touch(d);
        defect_[d] = 1;
        Cluster& c = clusters_[i];
        c.parity = 1;
        c.boundary = false;
        c.frontier.clear();
        c.frontier.push_back(d);
        cluster_of_root_[d] = static_cast<std::int32_t>(i);
    }

    // ---- Growth ----------------------------------------------------------
    bool any_odd = true;
    while (any_odd) {
        any_odd = false;
        const size_t grown_before = grown_edges_.size();
        for (size_t ci = 0; ci < syndrome.size(); ++ci) {
            // Find the live cluster record for this seed.
            const int root = Find(syndrome[ci]);
            const std::int32_t live = cluster_of_root_[root];
            if (live != static_cast<std::int32_t>(ci)) {
                continue;  // merged into another cluster
            }
            Cluster& c = clusters_[ci];
            if (c.parity % 2 == 0 || c.boundary) {
                continue;
            }
            frontier_scratch_.clear();
            frontier_scratch_.swap(c.frontier);
            for (const std::int32_t node : frontier_scratch_) {
                for (const Arc& arc : g.Incident(node)) {
                    if (edge_grown_[arc.edge]) {
                        continue;
                    }
                    edge_grown_[arc.edge] = 1;
                    grown_edges_.push_back(arc.edge);
                    const int other = arc.other;
                    if (other == BoundaryNode()) {
                        c.boundary = true;
                        continue;
                    }
                    if (!in_cluster_[other]) {
                        touch(other);
                        parent_[other] = root;
                        c.frontier.push_back(other);
                        continue;
                    }
                    const int other_root = Find(other);
                    if (other_root == root) {
                        continue;
                    }
                    // Merge the other cluster into this one.
                    const std::int32_t oc = cluster_of_root_[other_root];
                    if (oc >= 0) {
                        Cluster& o = clusters_[oc];
                        c.parity += o.parity;
                        c.boundary = c.boundary || o.boundary;
                        c.frontier.insert(c.frontier.end(),
                                          o.frontier.begin(),
                                          o.frontier.end());
                        o.frontier.clear();
                        cluster_of_root_[other_root] = -1;
                    }
                    parent_[other_root] = root;
                }
            }
            // The union operations above may have moved the root.
            const int new_root = Find(root);
            if (new_root != root) {
                cluster_of_root_[root] = -1;
            }
            cluster_of_root_[new_root] = static_cast<std::int32_t>(ci);
            if (c.parity % 2 != 0 && !c.boundary) {
                any_odd = true;  // still unsettled after this round
            }
        }
        if (any_odd && grown_edges_.size() == grown_before) {
            // Every remaining odd cluster has an exhausted frontier and
            // no boundary: its DEM component has no boundary edge and
            // the syndrome can never settle. Fail loudly instead of
            // returning a partial correction.
            ResetScratch();
            throw std::runtime_error(
                "UnionFindDecoder: odd cluster cannot reach a boundary "
                "(DEM component has no boundary edge)");
        }
    }

    // ---- Peeling ---------------------------------------------------------
    // Spanning forest over grown edges; boundary-touching clusters root at
    // the boundary so leftover defects can drain into it.
    std::uint32_t correction = 0;
    BuildGrownAdjacency();
    // Trees must root at the boundary where possible, so each search runs
    // to exhaustion before any new root is seeded; otherwise every cluster
    // node would become its own parentless root and defects could never
    // drain along tree edges.
    if (g.weighted_) {
        BuildWeightedForest(syndrome);
    } else {
        BuildBfsForest();
    }
    // Peel from the leaves (reverse BFS order).
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        const std::int32_t node = *it;
        if (!defect_[node]) {
            continue;
        }
        const std::int32_t ei = parent_edge_[node];
        if (ei < 0) {
            // Root of an even (non-boundary) cluster: parity guarantees
            // the defect was consumed before the root is peeled, so this
            // is unreachable (odd boundary-less clusters throw in the
            // growth loop above).
            continue;
        }
        const DecodingGraph::Edge& e = g.edges_[ei];
        correction ^= e.obs_mask;
        if (stage2_ && !edge_used_[ei]) {
            edge_used_[ei] = 1;
            used_edges_.push_back(ei);
        }
        defect_[node] = 0;
        const int other = e.u == node ? e.v : e.u;
        if (other != BoundaryNode()) {
            defect_[other] ^= 1;
        }
    }

    // ---- Correlated stage 2 ---------------------------------------------
    if (stage2_ && !used_edges_.empty()) {
        correction ^= ApplyStage2();
    }

    work_grown_edges_ += static_cast<std::int64_t>(grown_edges_.size());
    work_forest_nodes_ += static_cast<std::int64_t>(order_.size());
    ResetScratch();
    return correction;
}

UnionFindDecoder::BatchOutcome
UnionFindDecoder::DecodeBatch(const sim::SampleBatch& batch,
                              std::vector<std::uint64_t>& predictions,
                              const std::function<bool()>& cancelled)
{
    if (batch.num_detectors() != graph_->num_detectors()) {
        throw std::invalid_argument(
            "UnionFindDecoder::DecodeBatch: batch detector count does "
            "not match the decoding graph");
    }
    BatchOutcome out;
    const int words = batch.words();
    const int num_obs = batch.num_observables();
    predictions.assign(static_cast<size_t>(num_obs) * words, 0);
    batch.ExtractSyndromes(syndromes_scratch_, &mask_scratch_);
    const std::uint32_t obs_limit =
        num_obs >= 32 ? ~0u : (1u << num_obs) - 1;
    work_grown_edges_ = 0;
    work_forest_nodes_ = 0;
    work_stage2_claims_ = 0;
    out.completed = true;
    for (int w = 0; w < words; ++w) {
        if (cancelled && cancelled()) {
            out.completed = false;
            break;
        }
        std::uint64_t live = mask_scratch_[w];
        while (live) {
            const int bit = std::countr_zero(live);
            live &= live - 1;
            const int s = w * 64 + bit;
            const std::int64_t begin = syndromes_scratch_.offsets[s];
            const std::int64_t len =
                syndromes_scratch_.offsets[s + 1] - begin;
            const std::uint32_t pred =
                Decode(std::span<const int>(
                    syndromes_scratch_.fired.data() + begin,
                    static_cast<size_t>(len))) &
                obs_limit;
            ++out.decoded_shots;
            std::uint32_t remaining = pred;
            while (remaining) {
                const int o = std::countr_zero(remaining);
                remaining &= remaining - 1;
                predictions[static_cast<size_t>(o) * words + w] |=
                    1ULL << bit;
            }
        }
    }
    out.grown_edges = work_grown_edges_;
    out.forest_nodes = work_forest_nodes_;
    out.stage2_claims = work_stage2_claims_;
    return out;
}

}  // namespace tiqec::decoder
