/**
 * @file
 * Union-find decoder (Delfosse-Nickerson style) over a detector error
 * model graph.
 *
 * Decoding proceeds in two stages:
 *  1. Cluster growth: clusters seeded at fired detectors grow by
 *     absorbing incident edges until every cluster contains an even
 *     number of defects or touches the boundary.
 *  2. Peeling: within each grown cluster, a spanning forest is peeled
 *     from the leaves; a leaf edge joins the correction iff its leaf node
 *     carries a defect, and the defect parity is pushed to the parent.
 *
 * The decoder reads an immutable `DecodingGraph` (decoder/decoding_graph.h:
 * edges, incidence, weights, arbitrated stage-2 tables) and owns only the
 * per-decode scratch, so any number of decoders, one per worker, can
 * share one graph (DESIGN.md §3.4). The grown edges of each decode are
 * laid out as a CSR adjacency over the touched nodes, in growth order,
 * which both forest builders read.
 *
 * In the correlated mode the forest is a most-probable-path Dijkstra
 * search that settles only what the peel can use (DESIGN.md §3.6): a
 * non-defect node with a single grown edge is never pushed, a push no
 * better than the node's best entry in the current search is dropped,
 * the boundary search stops once every defect of a boundary-touching
 * cluster has settled, and each interior search roots at its cluster's
 * first defect and stops at the cluster's last. Parents settle before
 * children, so the parent edges above every defect, and hence the
 * predictions, are those of the exhaustive search.
 *
 * The predicted logical-observable flip is the XOR of the observable
 * masks of the correction edges. This is the standard almost-linear-time
 * surface-code decoder; its threshold is slightly below matching (MWPM)
 * but it exhibits the same exponential logical-error suppression, which
 * is the property the paper's evaluation depends on. Decoder runtime is
 * not the bottleneck for trapped-ion systems (paper §8), but it is the
 * bottleneck of every Monte-Carlo LER estimate, so all per-decode
 * scratch persists across calls and whole batches decode through
 * `DecodeBatch` (see DESIGN.md §3.4 and bench/bench_decode_throughput).
 *
 * A correlated second stage (DESIGN.md §3.6) repairs the observable
 * action of multi-detector mechanisms the elementary graph mislabels.
 * The graph keeps the hyperedge variants that win arbitration against
 * the independent-edges interpretation of their decomposition edge set
 * and carry a non-zero residual observable action. After peeling, each
 * used edge counts a hit on the entries it belongs to; the entries whose
 * decomposition edges were all used then claim them (at most one
 * interpretation per mechanism, highest-probability first) and XOR their
 * residual into the prediction.
 */
#ifndef TIQEC_DECODER_UNION_FIND_DECODER_H
#define TIQEC_DECODER_UNION_FIND_DECODER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "decoder/decoding_graph.h"
#include "sim/dem.h"
#include "sim/frame_simulator.h"

namespace tiqec::decoder {

class UnionFindDecoder
{
  public:
    using Options = DecodingGraph::Options;

    /** Builds a private decoding graph from a DEM. */
    explicit UnionFindDecoder(const sim::DetectorErrorModel& dem)
        : UnionFindDecoder(dem, Options())
    {
    }
    UnionFindDecoder(const sim::DetectorErrorModel& dem,
                     const Options& options);
    /** Decodes on a shared graph; the decoder owns only its scratch. */
    explicit UnionFindDecoder(std::shared_ptr<const DecodingGraph> graph);

    int num_detectors() const { return graph_->num_detectors(); }
    int num_edges() const { return graph_->num_edges(); }
    /** See DecodingGraph::num_active_hyperedges. */
    int num_active_hyperedges() const
    {
        return graph_->num_active_hyperedges();
    }

    /**
     * Decodes one syndrome (list of distinct fired detector indices).
     * @return bitmask of observables predicted to have flipped.
     * @throws std::invalid_argument if a detector index is out of range
     *   or listed twice.
     * @throws std::runtime_error if an odd cluster cannot reach a
     *   boundary (its DEM component has no boundary edge).
     * The decoder stays usable after either.
     */
    std::uint32_t Decode(std::span<const int> syndrome);
    std::uint32_t Decode(std::initializer_list<int> syndrome)
    {
        return Decode(std::span<const int>(syndrome.begin(),
                                           syndrome.size()));
    }

    /** Outcome of a DecodeBatch call. */
    struct BatchOutcome
    {
        /** Non-trivial shots actually decoded (trivial shots are
         *  skipped in 64-shot words; their prediction is 0). */
        std::int64_t decoded_shots = 0;
        /** Deterministic work counters summed over the decoded shots:
         *  edges absorbed by cluster growth, nodes the peeling forest
         *  settled, and stage-2 entries that claimed their edges. */
        std::int64_t grown_edges = 0;
        std::int64_t forest_nodes = 0;
        std::int64_t stage2_claims = 0;
        /** False iff the `cancelled` callback stopped the batch. */
        bool completed = false;
    };

    /**
     * Decodes every shot of `batch` through the word-parallel pipeline:
     * non-trivial-shot mask (all-zero 64-shot words are skipped
     * outright), transposed sparse syndrome extraction, and the same
     * per-shot decode core as `Decode` — so predictions are bit-exact
     * with the scalar SyndromeOf + Decode path.
     *
     * `predictions` is resized to batch.num_observables() packed planes
     * of batch.words() words each; bit `s` of plane `o` is the
     * predicted flip of observable `o` in shot `s`.
     *
     * `cancelled`, when set, is polled once per 64-shot word; returning
     * true abandons the batch (`completed == false`, predictions
     * partial).
     */
    BatchOutcome DecodeBatch(const sim::SampleBatch& batch,
                             std::vector<std::uint64_t>& predictions,
                             const std::function<bool()>& cancelled = {});

  private:
    using Arc = DecodingGraph::Arc;

    /** Live per-decode cluster state, keyed by current union-find root
     *  through cluster_of_root_. */
    struct Cluster
    {
        int parity = 0;
        bool boundary = false;
        std::vector<std::int32_t> frontier;
    };

    /** Lazy-deletion Dijkstra heap entry for the weighted forest. */
    struct HeapEntry
    {
        double dist;
        std::int32_t node;
        std::int32_t pe;  ///< parent edge (-1 for interior roots)
    };

    int BoundaryNode() const { return graph_->BoundaryNode(); }

    int Find(int x);

    /** Lays the grown edges out as the CSR adjacency grown_arcs_ over
     *  the touched nodes, each node's arcs in grown_edges_ order. */
    void BuildGrownAdjacency();

    /** Grown arcs at touched node `node`. */
    std::span<const Arc> GrownArcs(int node) const
    {
        return {grown_arcs_.data() + grown_begin_[node],
                static_cast<size_t>(grown_degree_[node])};
    }

    /** Spanning-forest builders over the grown edges: unweighted BFS
     *  over every touched node (the PR-5 baseline) or most-probable-path
     *  Dijkstra under w = -log p over the nodes the peel can use. Both
     *  root boundary-touching clusters at the boundary and append nodes
     *  to order_ parent-before-child for the peel. */
    void BuildBfsForest();
    void BuildWeightedForest(std::span<const int> syndrome);

    /** Correlated stage 2 over the peel's used edges; returns the XOR of
     *  the claiming entries' residuals. */
    std::uint32_t ApplyStage2();

    /** Restores all touched scratch to its idle state; called on every
     *  exit path of the decode core (including the throwing one). */
    void ResetScratch();

    std::shared_ptr<const DecodingGraph> graph_;
    bool stage2_ = false;

    // Scratch, reused across Decode/DecodeBatch calls. Everything is
    // reset via touched_nodes_ / grown_edges_, so a decode costs
    // O(cluster sizes), not O(graph).
    std::vector<std::int32_t> parent_;
    std::vector<char> defect_;
    std::vector<char> in_cluster_;
    std::vector<char> edge_grown_;
    std::vector<Cluster> clusters_;
    std::vector<std::int32_t> cluster_of_root_;
    std::vector<std::int32_t> touched_nodes_;
    std::vector<std::int32_t> grown_edges_;
    std::vector<std::int32_t> frontier_scratch_;
    /** Grown adjacency (CSR over touched nodes): node i's arcs are
     *  grown_arcs_[grown_begin_[i] .. + grown_degree_[i]). Boundary
     *  arcs count towards the degree. */
    std::vector<std::int32_t> grown_degree_;
    std::vector<std::int32_t> grown_begin_;
    std::vector<Arc> grown_arcs_;
    std::vector<std::int32_t> order_;
    std::vector<std::int32_t> parent_edge_;
    std::vector<char> visited_;
    /** BatchOutcome work counters, accumulated by every decode. */
    std::int64_t work_grown_edges_ = 0;
    std::int64_t work_forest_nodes_ = 0;
    std::int64_t work_stage2_claims_ = 0;

    // Weighted-forest scratch (unused when Options::correlated is false).
    // A node's best heap entry in the current search is valid while its
    // best_search_ equals search_ (searches count from 1 in each decode).
    std::vector<HeapEntry> heap_;
    std::vector<double> best_dist_;
    std::vector<std::int32_t> best_pe_;
    std::vector<std::int32_t> best_search_;
    std::int32_t search_ = 0;

    // Correlated stage-2 scratch, reset via used_edges_ / mechs_claimed_
    // in ResetScratch.
    std::vector<char> edge_used_;
    std::vector<char> edge_claimed_;
    std::vector<std::int32_t> used_edges_;
    std::vector<std::int32_t> entry_hits_;  ///< used edges per entry
    std::vector<std::int32_t> covered_;     ///< entries with every edge used
    std::vector<char> mech_claimed_;
    std::vector<std::int32_t> mechs_claimed_;

    // DecodeBatch scratch.
    std::vector<std::uint64_t> mask_scratch_;
    sim::SparseSyndromes syndromes_scratch_;
};

}  // namespace tiqec::decoder

#endif  // TIQEC_DECODER_UNION_FIND_DECODER_H
