/**
 * @file
 * Static fault-distance certifier (DESIGN.md §6.5): finds the
 * minimum-weight undetectable logical error of a detector error model —
 * a set of error mechanisms whose detector symptoms cancel under GF(2)
 * XOR (hyperedge mechanisms included) but whose combined observable
 * action is nonzero — and reports the per-observable effective distance
 * with the witness mechanism set.
 *
 * Algorithm (deterministic; see DESIGN.md §6.5 for the full argument):
 *
 *  1. Sector projection bound. Restricting every syndrome to a subset S
 *     of the detectors maps an undetectable logical error onto one of
 *     the same weight and observable action (dropped symptoms cannot
 *     stop a cancelling set from cancelling), so the minimum of the
 *     projected problem is a lower bound on the true one for ANY S. The
 *     certifier projects onto each check-basis sector recorded in
 *     `DetectorErrorModel::detector_basis` (X and Z; untagged detectors
 *     join both). When every projected mechanism touches <= 2 sector
 *     detectors the projection is a graph and the shortest-odd-cycle
 *     search below solves it exactly; the larger sector minimum is the
 *     observable's lower bound. A wrong or missing tag can only make the
 *     bound weaker (slower), never wrong.
 *  2. Graphlike witness search. Every mechanism with <= 2 detectors is
 *     an edge of a multigraph over detectors plus one boundary vertex.
 *     For each observable the graph is doubled into observable-parity
 *     layers and a BFS from every `(vertex, even)` to its `(vertex, odd)`
 *     twin yields the shortest odd-parity closed walk — which
 *     XOR-reduces to a minimum-weight graphlike undetectable logical
 *     error, an upper bound. The start loop stops once the incumbent
 *     meets the lower bound. The observable is exact when lower bound
 *     and witness weight meet.
 *  3. Meet-in-the-middle fallback, run only while some observable is
 *     still open below the search cap and the index fits a size cap
 *     (otherwise the observable stays open). All mechanisms (correlated
 *     hyperedge groups included) are searched exhaustively for
 *     witnesses up to the cap: right halves (single mechanisms and
 *     detector-sharing pairs) are indexed by a 64-bit Zobrist syndrome
 *     hash, left halves (singles and arbitrary pairs) probe the index
 *     and verify the syndrome on a hit. Any minimal witness of weight
 *     w <= 4 splits into such halves (a zero-syndrome set always
 *     contains a detector-sharing pair), so every weight up to the cap
 *     is covered.
 *
 * The reported distance is the minimum of the witness searches; it is
 * `exact` when the proven lower bound reaches it (always the case for
 * purely graphlike models at any distance, and for the memory, surgery,
 * stability, bell and cnot workloads at every distance tried, 3..9).
 */
#ifndef TIQEC_ANALYSIS_DISTANCE_CERTIFIER_H
#define TIQEC_ANALYSIS_DISTANCE_CERTIFIER_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "sim/dem.h"

namespace tiqec::analysis {

/** One DEM error mechanism viewed as a GF(2) symptom/observable vector:
 *  an elementary edge or one correlated hyperedge mechanism group. */
struct DemMechanism
{
    /** Sorted detector signature (boundary edges contribute one). */
    std::vector<int> dets;
    std::uint32_t obs_mask = 0;
    /** True for a hyperedge mechanism group; false for an edge. */
    bool hyperedge = false;
    /** Edge index, or the hyperedge mechanism group id. */
    int index = 0;
};

/** Effective distance of one observable. */
struct ObservableDistance
{
    int observable = 0;
    /** An undetectable logical error was found within the search bound. */
    bool found = false;
    /** Its minimum weight (mechanism count); valid when `found`. */
    int distance = 0;
    /** `distance` is the true effective distance (when `found`), or no
     *  undetectable logical error flips this observable at any weight
     *  (when not). */
    bool exact = false;
    /** Proven lower bound on the weight of any undetectable logical
     *  error flipping this observable: `distance` when exact and found,
     *  the mechanism count + 1 when exact and not found. */
    int lower_bound = 0;
    /** Indices into `DistanceCertificate::mechanisms` of one
     *  minimum-weight witness, ascending; empty when not found. */
    std::vector<int> witness;
};

struct DistanceCertificate
{
    /** Flattened mechanism list the witnesses index into: all elementary
     *  edges in order, then one entry per hyperedge mechanism group. */
    std::vector<DemMechanism> mechanisms;
    std::vector<ObservableDistance> observables;
    /** Every weight <= this is proven witness-free for every
     *  observable: the smallest `lower_bound` minus one (the mechanism
     *  count when no observable bounds it). */
    int searched_weight = 0;
    /** Every mechanism has <= 2 detectors: the graphlike search alone is
     *  exact at any weight. */
    bool graph_like = false;

    // Deterministic work counters (states popped, pairs probed).
    /** BFS states expanded by the sector projection bound. */
    std::int64_t projection_states = 0;
    /** BFS states expanded by the graphlike witness search. */
    std::int64_t witness_states = 0;
    /** Left mechanism pairs probed by the meet-in-the-middle fallback
     *  (0 when it did not run). */
    std::int64_t mitm_pairs = 0;
};

/** Certifies the per-observable effective distance of `dem`. The
 *  exhaustive meet-in-the-middle witness search is capped at weight 4
 *  (the half-split argument covers weight 4) and skipped when its
 *  mechanism pairs exceed a size cap; the projection bound and the
 *  graphlike search are never capped. */
DistanceCertificate CertifyDistance(const sim::DetectorErrorModel& dem);

/** Has no fields: the certifier takes no options. It survives only as
 *  `CheckDistance`'s third parameter, which perfbench/request_bench.cc
 *  passes as `{}`; drop both with the next benchmark change. */
struct DistanceCertifierOptions
{
};

/** Renders a witness as "mechanism set {edge 3, hyperedge 12}" style
 *  text for diagnostics and reports. */
std::string FormatWitness(const DistanceCertificate& certificate,
                          const std::vector<int>& witness);

/**
 * The `dem.distance` rule: certifies `dem` and reports an error for
 * every observable whose effective distance is below
 * `expected_distance` (the witness mechanism set is spelled out in the
 * message), for models whose dropped/undecomposable mechanisms make
 * certification unsound, and for observables whose proven lower bound
 * stays below `expected_distance`. When
 * `certificate` is non-null the full certificate is copied out.
 */
std::vector<Diagnostic> CheckDistance(
    const sim::DetectorErrorModel& dem, int expected_distance,
    const DistanceCertifierOptions& options = {},
    DistanceCertificate* certificate = nullptr);

}  // namespace tiqec::analysis

#endif  // TIQEC_ANALYSIS_DISTANCE_CERTIFIER_H
