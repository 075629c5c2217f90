#include "analysis/distance_certifier.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/rng.h"

namespace tiqec::analysis {

namespace {

using sim::DemEdge;
using sim::DemHyperedge;
using sim::DetectorBasis;
using sim::DetectorErrorModel;

/** Weight bound meaning "no undetectable logical error at any weight". */
constexpr int kUnbounded = std::numeric_limits<int>::max();
/** Cap on the exhaustive meet-in-the-middle witness weight: the
 *  half-split argument covers weight 4. */
constexpr int kMaxSearchWeight = 4;
/** Cap on the meet-in-the-middle fallback's size: its right index holds
 *  one entry per detector-sharing mechanism pair and its left half
 *  probes every mechanism pair. The untagged d=5 surgery DEM has ~8.2M
 *  left pairs; a linear-device d=5 memory DEM has ~370M, whose index
 *  does not fit in memory. Past the cap the observable stays open. */
constexpr std::int64_t kMaxMitmPairs = std::int64_t{1} << 24;

/** Flattens the DEM into its mechanism list: every elementary edge, then
 *  one entry per hyperedge mechanism group (variants of one mechanism
 *  share detector signature and observable action, so the first variant
 *  represents the group). */
std::vector<DemMechanism>
CollectMechanisms(const DetectorErrorModel& dem)
{
    std::vector<DemMechanism> mechanisms;
    mechanisms.reserve(dem.edges.size() + dem.hyperedges.size());
    for (size_t i = 0; i < dem.edges.size(); ++i) {
        const DemEdge& e = dem.edges[i];
        DemMechanism m;
        m.dets.push_back(e.d0);
        if (e.d1 != DemEdge::kBoundary) {
            m.dets.push_back(e.d1);
        }
        m.obs_mask = e.obs_mask;
        m.hyperedge = false;
        m.index = static_cast<int>(i);
        mechanisms.push_back(std::move(m));
    }
    int last_mechanism = -1;
    for (const DemHyperedge& h : dem.hyperedges) {
        if (h.mechanism == last_mechanism) {
            continue;  // later variant of the same mechanism
        }
        last_mechanism = h.mechanism;
        DemMechanism m;
        m.dets = h.dets;
        m.obs_mask = h.obs_mask;
        m.hyperedge = true;
        m.index = h.mechanism;
        mechanisms.push_back(std::move(m));
    }
    return mechanisms;
}

/** Symmetric difference of two strictly ascending detector lists. */
std::vector<int>
XorSorted(const std::vector<int>& a, const std::vector<int>& b)
{
    std::vector<int> out;
    out.reserve(a.size() + b.size());
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            out.push_back(a[i++]);
        } else if (b[j] < a[i]) {
            out.push_back(b[j++]);
        } else {
            ++i;
            ++j;
        }
    }
    out.insert(out.end(), a.begin() + static_cast<long>(i), a.end());
    out.insert(out.end(), b.begin() + static_cast<long>(j), b.end());
    return out;
}

/** Whether the symmetric difference of ascending `a` and `b` equals
 *  ascending `c`, without materialising it. */
bool
XorEquals(const std::vector<int>& a, const std::vector<int>& b,
          const std::vector<int>& c)
{
    size_t i = 0;
    size_t j = 0;
    size_t k = 0;
    while (i < a.size() || j < b.size()) {
        int next;
        if (j == b.size() || (i < a.size() && a[i] < b[j])) {
            next = a[i++];
        } else if (i == a.size() || b[j] < a[i]) {
            next = b[j++];
        } else {
            ++i;
            ++j;
            continue;
        }
        if (k == c.size() || c[k++] != next) {
            return false;
        }
    }
    return k == c.size();
}

/** Per-observable best witness under construction. Updates are
 *  strict-improvement only and every candidate source enumerates in a
 *  fixed order, so the result is deterministic. */
struct BestWitness
{
    bool found = false;
    int weight = 0;
    std::vector<int> mechanisms;
};

class DistanceAccumulator
{
  public:
    explicit DistanceAccumulator(int num_observables)
        : best_(static_cast<size_t>(std::max(num_observables, 0)))
    {}

    void Offer(std::uint32_t obs_mask, int weight, std::vector<int> witness)
    {
        if (obs_mask == 0) {
            return;
        }
        std::sort(witness.begin(), witness.end());
        witness.erase(std::unique(witness.begin(), witness.end()),
                      witness.end());
        for (size_t o = 0; o < best_.size(); ++o) {
            if ((obs_mask >> o & 1u) == 0) {
                continue;
            }
            BestWitness& b = best_[o];
            if (!b.found || weight < b.weight) {
                b.found = true;
                b.weight = weight;
                b.mechanisms = witness;
            }
        }
    }

    const std::vector<BestWitness>& best() const { return best_; }

  private:
    std::vector<BestWitness> best_;
};

// -- Shortest odd cycle: the exact minimum of a graphlike problem, used
//    both for the projection bound and for the witness search. ----------

/** An undetectable logical error of a graphlike problem is a union of
 *  cycles of the multigraph over detectors plus one shared boundary
 *  vertex, with odd total observable parity; the minimum-weight one is
 *  a single simple cycle. Doubling the graph into observable-parity
 *  layers turns it into a shortest-path problem: the minimum odd closed
 *  walk through vertex `v` is the BFS distance from `(v, even)` to
 *  `(v, odd)`, and a shortest odd closed walk never repeats an edge (a
 *  repeat would XOR away into a shorter witness). It suffices to start
 *  from endpoints of odd-parity edges, since the optimal cycle passes
 *  through one. Edges are labelled; the witness lists the labels. */
class ParityGraph
{
  public:
    explicit ParityGraph(int num_detectors)
        : boundary_(num_detectors),
          adjacency_(static_cast<size_t>(num_detectors) + 1),
          dist_(2 * adjacency_.size(), -1),
          parent_state_(dist_.size(), -1),
          parent_label_(dist_.size(), -1)
    {
        queue_.reserve(dist_.size());
    }

    int boundary() const { return boundary_; }

    /** Adds edge `u`-`v` (`v` may be `boundary()`). Arcs keep insertion
     *  order per vertex, which fixes the BFS order. */
    void AddEdge(int u, int v, int label, std::uint32_t obs_mask)
    {
        adjacency_[static_cast<size_t>(u)].push_back({v, label, obs_mask});
        adjacency_[static_cast<size_t>(v)].push_back({u, label, obs_mask});
    }

    /**
     * Length of the shortest closed walk with odd parity on
     * `observable` (kUnbounded when none exists). The start loop stops
     * once the incumbent is <= `stop_at`, so the result is exact above
     * `stop_at` and otherwise only known to be <= it. Later starts only
     * replace the incumbent on strict improvement. `witness`, when
     * non-null, receives the incumbent walk's edge labels.
     */
    int ShortestOddCycle(int observable, int stop_at, std::int64_t* states,
                         std::vector<int>* witness)
    {
        int best = kUnbounded;
        for (size_t start = 0; start < adjacency_.size(); ++start) {
            if (best <= stop_at) {
                break;
            }
            if (std::none_of(adjacency_[start].begin(),
                             adjacency_[start].end(), [&](const Arc& a) {
                                 return a.obs_mask >> observable & 1u;
                             })) {
                continue;
            }
            const int source = 2 * static_cast<int>(start);
            const int target = source + 1;
            dist_[static_cast<size_t>(source)] = 0;
            parent_state_[static_cast<size_t>(source)] = -1;
            queue_.assign(1, source);
            for (size_t head = 0; head < queue_.size(); ++head) {
                const int state = queue_[head];
                ++*states;
                if (state == target) {
                    break;
                }
                const int d = dist_[static_cast<size_t>(state)];
                if (d + 1 >= best) {
                    continue;  // cannot improve on the incumbent
                }
                const int parity = state & 1;
                for (const Arc& arc :
                     adjacency_[static_cast<size_t>(state / 2)]) {
                    const int next =
                        2 * arc.to +
                        (parity ^
                         static_cast<int>(arc.obs_mask >> observable & 1u));
                    if (dist_[static_cast<size_t>(next)] >= 0) {
                        continue;
                    }
                    dist_[static_cast<size_t>(next)] = d + 1;
                    parent_state_[static_cast<size_t>(next)] = state;
                    parent_label_[static_cast<size_t>(next)] = arc.label;
                    queue_.push_back(next);
                }
            }
            const int reached = dist_[static_cast<size_t>(target)];
            if (reached >= 0 && reached < best) {
                best = reached;
                if (witness != nullptr) {
                    witness->clear();
                    for (int s = target;
                         parent_state_[static_cast<size_t>(s)] >= 0;
                         s = parent_state_[static_cast<size_t>(s)]) {
                        witness->push_back(
                            parent_label_[static_cast<size_t>(s)]);
                    }
                }
            }
            // Every state with a distance went through the queue.
            for (const int s : queue_) {
                dist_[static_cast<size_t>(s)] = -1;
            }
        }
        return best;
    }

  private:
    struct Arc
    {
        int to = 0;
        int label = 0;
        std::uint32_t obs_mask = 0;
    };

    int boundary_;
    std::vector<std::vector<Arc>> adjacency_;
    // BFS scratch, reset through the queue after every start.
    std::vector<int> dist_;
    std::vector<int> parent_state_;
    std::vector<int> parent_label_;
    std::vector<int> queue_;
};

/** The graphlike witness graph: every mechanism with 1 or 2 detectors,
 *  labelled by its mechanism index. */
ParityGraph
WitnessGraph(const std::vector<DemMechanism>& mechanisms, int num_detectors)
{
    ParityGraph graph(num_detectors);
    for (size_t i = 0; i < mechanisms.size(); ++i) {
        const DemMechanism& m = mechanisms[i];
        if (m.dets.empty() || m.dets.size() > 2) {
            continue;
        }
        graph.AddEdge(m.dets[0],
                      m.dets.size() == 2 ? m.dets[1] : graph.boundary(),
                      static_cast<int>(i), m.obs_mask);
    }
    return graph;
}

/**
 * Raises `lower[o]` to the minimum of every observable's problem
 * projected onto the detectors `in_sector` keeps, when that projection
 * is graphlike (every mechanism keeps <= 2 sector detectors). A
 * mechanism that keeps none is a weight-1 witness of the projection for
 * every observable it flips. Parallel projected edges with the same
 * observable action are interchangeable, so they are merged.
 */
void
RaiseBySectorProjection(const std::vector<DemMechanism>& mechanisms,
                        int num_detectors,
                        const std::vector<char>& in_sector,
                        std::vector<int>& lower, std::int64_t* states)
{
    const int boundary = num_detectors;
    std::uint32_t weight_one = 0;
    std::vector<std::tuple<int, int, std::uint32_t>> edges;
    edges.reserve(mechanisms.size());
    for (const DemMechanism& m : mechanisms) {
        int kept[2] = {boundary, boundary};
        int num_kept = 0;
        for (const int d : m.dets) {
            if (in_sector[static_cast<size_t>(d)] == 0) {
                continue;
            }
            if (num_kept == 2) {
                return;  // not graphlike in this sector
            }
            kept[num_kept++] = d;
        }
        if (num_kept == 0) {
            weight_one |= m.obs_mask;
        } else {
            edges.emplace_back(kept[0], kept[1], m.obs_mask);
        }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    ParityGraph graph(num_detectors);
    for (const auto& [u, v, mask] : edges) {
        graph.AddEdge(u, v, 0, mask);
    }
    for (size_t o = 0; o < lower.size(); ++o) {
        if (weight_one >> o & 1u) {
            continue;  // the projection proves only weight >= 1
        }
        // A sector minimum <= the bound already held cannot raise it.
        const int projected = graph.ShortestOddCycle(
            static_cast<int>(o), lower[o], states, nullptr);
        lower[o] = std::max(lower[o], projected);
    }
}

/** Per-observable lower bounds from the X and Z sector projections
 *  (1 where neither sector is graphlike). Untagged detectors join both
 *  sectors; a tag vector of the wrong length is ignored. */
std::vector<int>
SectorLowerBounds(const std::vector<DemMechanism>& mechanisms,
                  const DetectorErrorModel& dem, std::int64_t* states)
{
    std::vector<int> lower(
        static_cast<size_t>(std::max(dem.num_observables, 0)), 1);
    const size_t nd = static_cast<size_t>(std::max(dem.num_detectors, 0));
    if (dem.detector_basis.size() != nd || nd == 0) {
        return lower;
    }
    for (const DetectorBasis sector : {DetectorBasis::kX, DetectorBasis::kZ})
    {
        std::vector<char> in_sector(nd);
        for (size_t d = 0; d < nd; ++d) {
            in_sector[d] = dem.detector_basis[d] == sector ||
                           dem.detector_basis[d] == DetectorBasis::kUnknown;
        }
        RaiseBySectorProjection(mechanisms, dem.num_detectors, in_sector,
                                lower, states);
    }
    return lower;
}

// -- Meet-in-the-middle fallback: exhaustive over ALL mechanisms
//    (hyperedge groups included) up to the search weight. ---------------

/** One indexed right half: a single mechanism or a detector-sharing
 *  pair. Per (syndrome, observable-mask) only the lightest half is kept;
 *  if that half overlaps a left half the combined multiset XOR-reduces
 *  to a weight <= 2 witness that the exhaustive lower-weight coverage
 *  finds anyway, so dropping heavier duplicates never loses the
 *  minimum. */
struct RightHalf
{
    int weight = 0;
    std::uint32_t obs_mask = 0;
    int m0 = -1;
    int m1 = -1;
};

/** Right halves sharing one syndrome, in insertion order. */
struct Bucket
{
    std::uint64_t hash = 0;
    std::vector<int> syndrome;
    std::vector<RightHalf> halves;
};

/** Whether the fallback's right-index pairs (sum of C(deg, 2) over
 *  detectors) and left-pair probes (n(n-1)/2) both fit the cap. */
bool
MitmFits(const std::vector<DemMechanism>& mechanisms, int num_detectors)
{
    const auto n = static_cast<std::int64_t>(mechanisms.size());
    std::vector<std::int64_t> degree(
        static_cast<size_t>(std::max(num_detectors, 0)));
    std::int64_t right = 0;
    for (const DemMechanism& m : mechanisms) {
        for (const int d : m.dets) {
            // The k-th mechanism on a detector pairs with k-1 before it.
            right += degree[static_cast<size_t>(d)]++;
        }
    }
    return n * (n - 1) / 2 <= kMaxMitmPairs && right <= kMaxMitmPairs;
}

class MeetInTheMiddle
{
  public:
    MeetInTheMiddle(const std::vector<DemMechanism>& mechanisms,
                    int num_detectors, int search_weight)
        : mechanisms_(mechanisms), search_weight_(search_weight)
    {
        // Zobrist keys: a syndrome hashes to the XOR of its detectors'
        // keys, so a pair's hash is the XOR of its members' hashes.
        const size_t nd = static_cast<size_t>(std::max(num_detectors, 0));
        std::vector<std::uint64_t> keys(nd);
        Rng rng(0x5a0b215171a2b0c1ULL);
        for (std::uint64_t& key : keys) {
            key = rng.Next();
        }
        hashes_.reserve(mechanisms.size());
        for (const DemMechanism& m : mechanisms) {
            max_degree_ =
                std::max(max_degree_, static_cast<int>(m.dets.size()));
            std::uint64_t h = 0;
            for (const int d : m.dets) {
                h ^= keys[static_cast<size_t>(d)];
            }
            hashes_.push_back(h);
        }

        // Detector-sharing pairs, enumerated via the incidence lists so
        // the cost scales with detector degree, not mechanism count.
        std::vector<std::vector<int>> incident(nd);
        for (size_t i = 0; i < mechanisms.size(); ++i) {
            for (const int d : mechanisms[i].dets) {
                incident[static_cast<size_t>(d)].push_back(
                    static_cast<int>(i));
            }
        }
        std::vector<std::pair<int, int>> pairs;
        for (const std::vector<int>& on_det : incident) {
            for (size_t a = 0; a < on_det.size(); ++a) {
                for (size_t b = a + 1; b < on_det.size(); ++b) {
                    pairs.emplace_back(on_det[a], on_det[b]);
                }
            }
        }
        std::sort(pairs.begin(), pairs.end());
        pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

        size_t capacity = 16;
        while (capacity < 2 * (mechanisms.size() + pairs.size())) {
            capacity *= 2;
        }
        slots_.assign(capacity, -1);
        for (size_t i = 0; i < mechanisms.size(); ++i) {
            Insert(mechanisms[i].dets, hashes_[i], 1, mechanisms[i].obs_mask,
                   static_cast<int>(i), -1);
        }
        for (const auto& [a, b] : pairs) {
            const DemMechanism& ma = mechanisms[static_cast<size_t>(a)];
            const DemMechanism& mb = mechanisms[static_cast<size_t>(b)];
            Insert(XorSorted(ma.dets, mb.dets),
                   hashes_[static_cast<size_t>(a)] ^
                       hashes_[static_cast<size_t>(b)],
                   2, ma.obs_mask ^ mb.obs_mask, a, b);
        }
    }

    /** Offers every witness up to the search weight; returns the number
     *  of left pairs probed. */
    std::int64_t Search(DistanceAccumulator& accumulator) const
    {
        // Weight <= 2 witnesses: right halves whose syndrome already
        // cancels outright.
        if (const Bucket* b = Find(0, [](const Bucket& c) {
                return c.syndrome.empty();
            })) {
            for (const RightHalf& h : b->halves) {
                accumulator.Offer(h.obs_mask, h.weight, Witness(h, -1, -1));
            }
        }
        const size_t n = mechanisms_.size();
        // Left singles: total weight <= 3.
        if (search_weight_ >= 3) {
            for (size_t i = 0; i < n; ++i) {
                const std::vector<int>& dets = mechanisms_[i].dets;
                Combine(
                    hashes_[i],
                    [&dets](const Bucket& c) { return c.syndrome == dets; },
                    mechanisms_[i].obs_mask, 1, static_cast<int>(i), -1,
                    accumulator);
            }
        }
        // Left pairs (arbitrary): total weight <= 4. Any minimal witness
        // of weight 4 contains a detector-sharing pair (its syndrome
        // cancels), which the right index holds; the two leftover
        // mechanisms form the left pair.
        std::int64_t probed = 0;
        if (search_weight_ >= 4) {
            for (size_t i = 0; i < n; ++i) {
                const DemMechanism& mi = mechanisms_[i];
                for (size_t j = i + 1; j < n; ++j) {
                    const DemMechanism& mj = mechanisms_[j];
                    Combine(hashes_[i] ^ hashes_[j],
                            [&mi, &mj](const Bucket& c) {
                                return XorEquals(mi.dets, mj.dets,
                                                 c.syndrome);
                            },
                            mi.obs_mask ^ mj.obs_mask, 2,
                            static_cast<int>(i), static_cast<int>(j),
                            accumulator);
                }
                probed += static_cast<std::int64_t>(n - i - 1);
            }
        }
        return probed;
    }

  private:
    size_t Slot(std::uint64_t hash) const
    {
        // Zobrist hashes are uniform, so their low bits index directly.
        return static_cast<size_t>(hash) & (slots_.size() - 1);
    }

    /** The bucket whose hash is `hash` and whose syndrome satisfies
     *  `same`, or null. */
    template <typename Same>
    const Bucket* Find(std::uint64_t hash, const Same& same) const
    {
        for (size_t s = Slot(hash);; s = (s + 1) & (slots_.size() - 1)) {
            const int b = slots_[s];
            if (b < 0) {
                return nullptr;
            }
            const Bucket& bucket = buckets_[static_cast<size_t>(b)];
            if (bucket.hash == hash && same(bucket)) {
                return &bucket;
            }
        }
    }

    void Insert(const std::vector<int>& syndrome, std::uint64_t hash,
                int weight, std::uint32_t obs_mask, int m0, int m1)
    {
        size_t s = Slot(hash);
        for (; slots_[s] >= 0; s = (s + 1) & (slots_.size() - 1)) {
            Bucket& bucket = buckets_[static_cast<size_t>(slots_[s])];
            if (bucket.hash != hash || bucket.syndrome != syndrome) {
                continue;
            }
            for (RightHalf& h : bucket.halves) {
                if (h.obs_mask == obs_mask) {
                    if (weight < h.weight) {
                        h = {weight, obs_mask, m0, m1};
                    }
                    return;
                }
            }
            bucket.halves.push_back({weight, obs_mask, m0, m1});
            return;
        }
        slots_[s] = static_cast<int>(buckets_.size());
        buckets_.push_back({hash, syndrome, {{weight, obs_mask, m0, m1}}});
    }

    static std::vector<int>
    Witness(const RightHalf& h, int left0, int left1)
    {
        std::vector<int> witness;
        for (const int m : {left0, left1, h.m0, h.m1}) {
            if (m >= 0) {
                witness.push_back(m);
            }
        }
        return witness;
    }

    /** Completes the left half (`left0`, `left1`) with every indexed
     *  right half of the same syndrome. */
    template <typename Same>
    void Combine(std::uint64_t hash, const Same& same,
                 std::uint32_t obs_mask, int left_weight, int left0,
                 int left1, DistanceAccumulator& accumulator) const
    {
        // A*-style admissible cutoff, applied to the candidate bucket
        // before its syndrome is compared: at most two right mechanisms
        // of at most `max_degree_` detectors each remain to cancel it.
        const int remaining = search_weight_ - left_weight;
        const Bucket* bucket = Find(hash, [&](const Bucket& c) {
            return static_cast<int>(c.syndrome.size()) <=
                       remaining * max_degree_ &&
                   same(c);
        });
        if (bucket == nullptr) {
            return;
        }
        for (const RightHalf& h : bucket->halves) {
            if (left_weight + h.weight > search_weight_ ||
                h.m0 == left0 || h.m0 == left1 || h.m1 == left0 ||
                h.m1 == left1) {
                continue;
            }
            accumulator.Offer(obs_mask ^ h.obs_mask, left_weight + h.weight,
                              Witness(h, left0, left1));
        }
    }

    const std::vector<DemMechanism>& mechanisms_;
    int search_weight_;
    int max_degree_ = 1;
    std::vector<std::uint64_t> hashes_;
    std::vector<Bucket> buckets_;
    /** Open-addressing table of bucket indices (-1 empty). */
    std::vector<int> slots_;
};

}  // namespace

DistanceCertificate
CertifyDistance(const DetectorErrorModel& dem)
{
    DistanceCertificate certificate;
    certificate.mechanisms = CollectMechanisms(dem);
    const std::vector<DemMechanism>& mechanisms = certificate.mechanisms;
    certificate.graph_like = std::all_of(
        mechanisms.begin(), mechanisms.end(),
        [](const DemMechanism& m) { return m.dets.size() <= 2; });

    // A graphlike model's witness search is exact by itself.
    std::vector<int> lower =
        certificate.graph_like
            ? std::vector<int>(
                  static_cast<size_t>(std::max(dem.num_observables, 0)), 1)
            : SectorLowerBounds(mechanisms, dem,
                                &certificate.projection_states);

    DistanceAccumulator accumulator(dem.num_observables);
    ParityGraph graph = WitnessGraph(mechanisms, dem.num_detectors);
    std::vector<int> witness;
    for (size_t o = 0; o < lower.size(); ++o) {
        // Every graphlike witness has weight >= 2, and none can beat a
        // proven lower bound, so the search stops there.
        const int weight = graph.ShortestOddCycle(
            static_cast<int>(o), std::max(2, lower[o]),
            &certificate.witness_states, &witness);
        if (weight != kUnbounded) {
            accumulator.Offer(1u << o, weight, witness);
        }
    }
    // No witness is heavier than the mechanism count.
    const int none = static_cast<int>(mechanisms.size()) + 1;
    const std::vector<BestWitness>& best = accumulator.best();
    const auto closed = [&](size_t o) {
        return certificate.graph_like ||
               (best[o].found ? best[o].weight <= lower[o]
                              : lower[o] >= none);
    };

    // The fallback can only help an open observable whose bound leaves
    // room for a witness it can reach, and runs only within its size cap.
    bool run_mitm = false;
    for (size_t o = 0; o < lower.size(); ++o) {
        run_mitm |= !closed(o) && lower[o] <= kMaxSearchWeight;
    }
    if (run_mitm && MitmFits(mechanisms, dem.num_detectors)) {
        const MeetInTheMiddle mitm(mechanisms, dem.num_detectors,
                                   kMaxSearchWeight);
        certificate.mitm_pairs = mitm.Search(accumulator);
        // Exhaustive up to the cap: the minimum is either found within
        // it or lies above it.
        const int above = kMaxSearchWeight + 1;
        for (size_t o = 0; o < lower.size(); ++o) {
            lower[o] = std::max(
                lower[o],
                best[o].found ? std::min(best[o].weight, above) : above);
        }
    }

    certificate.searched_weight = none - 1;
    certificate.observables.reserve(lower.size());
    for (size_t o = 0; o < lower.size(); ++o) {
        const BestWitness& b = best[o];
        ObservableDistance od;
        od.observable = static_cast<int>(o);
        od.found = b.found;
        od.distance = b.weight;
        od.witness = b.mechanisms;
        od.exact = closed(o);
        od.lower_bound =
            od.exact ? (b.found ? b.weight : none) : lower[o];
        certificate.searched_weight =
            std::min(certificate.searched_weight, od.lower_bound - 1);
        certificate.observables.push_back(std::move(od));
    }
    return certificate;
}

std::string
FormatWitness(const DistanceCertificate& certificate,
              const std::vector<int>& witness)
{
    std::ostringstream os;
    os << "{";
    for (size_t k = 0; k < witness.size(); ++k) {
        const DemMechanism& m =
            certificate.mechanisms[static_cast<size_t>(witness[k])];
        os << (k == 0 ? "" : ", ")
           << (m.hyperedge ? "hyperedge mechanism " : "edge ") << m.index
           << " (dets";
        for (const int d : m.dets) {
            os << " " << d;
        }
        os << ", obs 0x" << std::hex << m.obs_mask << std::dec << ")";
    }
    os << "}";
    return os.str();
}

std::vector<Diagnostic>
CheckDistance(const DetectorErrorModel& dem, int expected_distance,
              const DistanceCertifierOptions& /*unused*/,
              DistanceCertificate* certificate)
{
    std::vector<Diagnostic> diagnostics;
    DistanceCertificate cert = CertifyDistance(dem);
    if (dem.num_undecomposable > 0) {
        std::ostringstream os;
        os << "cannot certify distance: " << dem.num_undecomposable
           << " undecomposable mechanisms (probability mass "
           << dem.undecomposable_probability
           << ") were dropped from the model and are invisible to the "
              "certifier";
        diagnostics.push_back({Severity::kError,
                               std::string(kRuleDemDistance), "dem",
                               os.str()});
    }
    for (const ObservableDistance& od : cert.observables) {
        std::ostringstream location;
        location << "observable " << od.observable;
        if (od.found && od.distance < expected_distance) {
            std::ostringstream os;
            os << "effective distance " << od.distance
               << " below expected " << expected_distance
               << "; witness mechanism set "
               << FormatWitness(cert, od.witness);
            diagnostics.push_back({Severity::kError,
                                   std::string(kRuleDemDistance),
                                   location.str(), os.str()});
        } else if (od.lower_bound < expected_distance) {
            std::ostringstream os;
            os << "distance below expected " << expected_distance
               << " cannot be ruled out: the model has correlated "
                  "hyperedge mechanisms and the lower-bound search covers "
                  "weight <= "
               << od.lower_bound - 1;
            diagnostics.push_back({Severity::kError,
                                   std::string(kRuleDemDistance),
                                   location.str(), os.str()});
        }
    }
    if (certificate != nullptr) {
        *certificate = std::move(cert);
    }
    return diagnostics;
}

}  // namespace tiqec::analysis
