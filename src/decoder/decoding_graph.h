/**
 * @file
 * The immutable decoding graph of one detector error model: everything
 * `UnionFindDecoder` reads but never writes (DESIGN.md §3.4, §3.6).
 *
 * It holds the elementary edges, their CSR incidence, the -log p edge
 * weights of the weighted peeling forest, and the correlated stage-2
 * tables arbitrated once at construction. It is a pure function of
 * (DEM, Options), so one graph serves every decoder of that DEM: the
 * sweep builds it once per (sim key, correlated) and its Monte-Carlo
 * workers share it read-only, each with its own `UnionFindDecoder`
 * scratch.
 *
 * Stage-2 arbitration: every DEM hyperedge variant competes with the
 * independent-edges interpretation of its decomposition edge set (odds
 * p/(1-p) against the product of the edges' odds); the winners with a
 * non-zero residual observable action become active entries, stored in
 * descending-probability order with ties broken by edge set, and indexed
 * by edge. The variants are grouped by one sort of their hashed, sorted
 * edge sets that keeps index order within a group, so the winner of a
 * tie is the first variant in DEM order.
 */
#ifndef TIQEC_DECODER_DECODING_GRAPH_H
#define TIQEC_DECODER_DECODING_GRAPH_H

#include <cstdint>
#include <span>
#include <vector>

#include "sim/dem.h"

namespace tiqec::decoder {

class DecodingGraph
{
  public:
    struct Options
    {
        /** Enables the probability-aware decode: the peeling forest
         *  follows most-probable paths (w = -log p, using the mass the
         *  decomposition pass folds into the elementary edges), and the
         *  correlated second stage re-applies hyperedge mechanisms'
         *  residual observable action when the realised correction
         *  matches their decomposition. Off gives the unweighted
         *  elementary-graph decoder (the PR-5 baseline). */
        bool correlated = true;
    };

    /** Builds the graph from a DEM. Edges with p == 0 are kept
     *  (zero-weight structure can still be used for decomposition). */
    DecodingGraph(const sim::DetectorErrorModel& dem, const Options& options);

    int num_detectors() const { return num_detectors_; }
    int num_edges() const { return static_cast<int>(edges_.size()); }
    /** Hyperedge interpretations that survived arbitration and carry a
     *  non-zero residual (0 when Options::correlated is false). */
    int num_active_hyperedges() const
    {
        return static_cast<int>(hyper_residual_.size());
    }

  private:
    friend class UnionFindDecoder;

    struct Edge
    {
        std::int32_t u;  ///< detector index
        std::int32_t v;  ///< detector index or the boundary node
        std::uint32_t obs_mask;
    };

    /** One end of an edge as seen from a node: the node across it and
     *  the edge's index. */
    struct Arc
    {
        std::int32_t other;
        std::int32_t edge;
    };

    int BoundaryNode() const { return num_detectors_; }

    /** Arcs at detector `node`, in DEM edge order. */
    std::span<const Arc> Incident(int node) const
    {
        return {incident_.data() + incident_off_[node],
                incident_.data() + incident_off_[node + 1]};
    }

    /** Active entries containing edge `ei` (an entry lists an edge as
     *  often as its decomposition does). */
    std::span<const std::int32_t> EntriesOf(int ei) const
    {
        return {edge_hyper_.data() + edge_hyper_off_[ei],
                edge_hyper_.data() + edge_hyper_off_[ei + 1]};
    }

    /** Decomposition edges of active entry `hi`, sorted. */
    std::span<const std::int32_t> EdgesOf(int hi) const
    {
        return {hyper_edge_list_.data() + hyper_off_[hi],
                hyper_edge_list_.data() + hyper_off_[hi + 1]};
    }

    int num_detectors_ = 0;
    std::vector<Edge> edges_;
    /** Incidence (CSR): detector i's arcs are
     *  incident_[incident_off_[i] .. incident_off_[i + 1]). */
    std::vector<std::int32_t> incident_off_;
    std::vector<Arc> incident_;

    /** Options::correlated: weighted forest and stage 2 on. */
    bool weighted_ = false;
    std::vector<double> edge_weight_;  ///< -log p, clamped (weighted only)

    // Stage-2 tables (empty when no entry wins arbitration). Entries are
    // in priority order: descending mechanism probability, ties broken
    // by decomposition edge set.
    std::vector<std::int32_t> hyper_off_;        ///< CSR into hyper_edge_list_
    std::vector<std::int32_t> hyper_edge_list_;  ///< sorted edge indices
    std::vector<std::uint32_t> hyper_residual_;  ///< obs XOR to re-apply
    std::vector<std::int32_t> hyper_mech_;       ///< dense mechanism id
    int num_mechanisms_ = 0;                     ///< distinct hyper_mech_
    /** Edge -> entry index (CSR over edges, entries ascending). */
    std::vector<std::int32_t> edge_hyper_off_;
    std::vector<std::int32_t> edge_hyper_;
};

}  // namespace tiqec::decoder

#endif  // TIQEC_DECODER_DECODING_GRAPH_H
