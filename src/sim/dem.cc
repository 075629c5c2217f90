#include "sim/dem.h"

#include <algorithm>
#include <compare>
#include <numeric>
#include <sstream>
#include <utility>

namespace tiqec::sim {

namespace {

/** Sorted ids of what one error flips: detector d as d, observable o as
 *  num_detectors + o, so a set's detector ids form its prefix. */
using SensitivitySet = std::vector<int>;

/** `out` = a XOR b (symmetric difference of sorted sets). */
void
XorSets(const SensitivitySet& a, const SensitivitySet& b, SensitivitySet& out)
{
    out.clear();
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
    out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i),
               a.end());
    out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j),
               b.end());
}

/** a ^= b through `scratch`, whose capacity circulates between sets. */
void
XorAssign(SensitivitySet& a, const SensitivitySet& b,
          SensitivitySet& scratch)
{
    if (!b.empty()) {
        XorSets(a, b, scratch);
        a.swap(scratch);
    }
}

/** Flips the membership of `id` in sorted `s`. */
void
Toggle(SensitivitySet& s, int id)
{
    const auto it = std::lower_bound(s.begin(), s.end(), id);
    if (it != s.end() && *it == id) {
        s.erase(it);
    } else {
        s.insert(it, id);
    }
}

/** The error components one instruction injects; they share `p`. */
struct Channel
{
    int components = 0;
    double p = 0.0;
};

Channel
ChannelOf(const SimInstruction& inst)
{
    switch (inst.op) {
      case SimOp::kXError:
      case SimOp::kZError:
        return {1, inst.p};
      case SimOp::kDepolarize1:
        return {3, inst.p / 3.0};
      case SimOp::kDepolarize2:
        return {15, inst.p / 15.0};
      case SimOp::kMeasure:
      case SimOp::kReset:
        return {inst.p > 0.0 ? 1 : 0, inst.p};
      default:
        return {};
    }
}

/** Interns distinct non-empty signatures as dense group ids (open
 *  addressing over a flat arena). */
class SignatureTable
{
  public:
    int size() const { return static_cast<int>(hash_.size()); }
    const int* begin(int g) const { return arena_.data() + start_[g]; }
    const int* end(int g) const { return arena_.data() + start_[g + 1]; }

    /** Group id of sorted, non-empty `ids`; a new one when unseen. */
    int Intern(const SensitivitySet& ids)
    {
        std::uint64_t h = ids.size();
        for (const int id : ids) {
            h = (h ^ static_cast<std::uint32_t>(id)) * 0xff51afd7ed558ccdULL;
            h ^= h >> 29;
        }
        const size_t mask = slots_.size() - 1;
        size_t s = h & mask;
        for (; slots_[s] >= 0; s = (s + 1) & mask) {
            const int g = slots_[s];
            if (hash_[g] == h &&
                std::equal(begin(g), end(g), ids.begin(), ids.end())) {
                return g;
            }
        }
        const int g = size();
        slots_[s] = g;
        hash_.push_back(h);
        arena_.insert(arena_.end(), ids.begin(), ids.end());
        start_.push_back(arena_.size());
        if (hash_.size() * 2 > slots_.size()) {
            slots_.assign(slots_.size() * 2, -1);
            const size_t grown = slots_.size() - 1;
            for (int k = 0; k < size(); ++k) {
                size_t t = hash_[k] & grown;
                while (slots_[t] >= 0) {
                    t = (t + 1) & grown;
                }
                slots_[t] = k;
            }
        }
        return g;
    }

  private:
    std::vector<int> arena_;
    std::vector<size_t> start_{0};
    std::vector<std::uint64_t> hash_;
    std::vector<int> slots_ = std::vector<int>(1024, -1);
};

/**
 * Backtracking perfect-matching search of one composite signature over
 * the elementary edges, where any detector may take a boundary edge
 * instead of a partner. Canonical visit order (deterministic): the
 * smallest unmatched detector pairs with partners in ascending order
 * before its boundary option; a pair's edge variants in ascending index,
 * which is ascending obs order. Each signature position carries a `used`
 * flag, so the search allocates nothing once its buffers are warm.
 */
class Decomposer
{
  public:
    static constexpr int kMaxVariants = 8;
    static constexpr int kSearchBudget = 4096;

    /** `edges` are in (d0, d1) order with boundary edges first in each
     *  d0 row; `row_start[d]` is the first edge whose d0 is `d`. */
    Decomposer(const std::vector<DemEdge>& edges,
               const std::vector<int>& row_start)
        : edges_(edges), row_start_(row_start)
    {
    }

    /** Searches for a matching whose observable XOR equals `obs`; when
     *  one exists, `chosen()` lists its edges in visit order. */
    bool Exact(const int* dets, int n, std::uint32_t obs)
    {
        Start(dets, n, obs);
        return ExactFrom(0, n, 0);
    }
    const std::vector<int>& chosen() const { return chosen_; }

    /** Collects up to kMaxVariants distinct structural matchings over
     *  each pair's first variant, each as a sorted edge list. */
    std::vector<std::vector<int>> Enumerate(const int* dets, int n)
    {
        Start(dets, n, 0);
        variants_.clear();
        EnumerateFrom(0, n);
        return std::move(variants_);
    }

  private:
    void Start(const int* dets, int n, std::uint32_t obs)
    {
        dets_ = dets;
        obs_ = obs;
        budget_ = kSearchBudget;
        used_.assign(static_cast<size_t>(n), 0);
        chosen_.clear();
    }

    /** Edge index range of the (a, b) variants; b > a or the boundary. */
    std::pair<int, int> Variants(int a, int b) const
    {
        int lo = row_start_[a];
        const int end = row_start_[a + 1];
        while (lo < end && edges_[lo].d1 < b) {
            ++lo;
        }
        int hi = lo;
        while (hi < end && edges_[hi].d1 == b) {
            ++hi;
        }
        return {lo, hi};
    }

    int FirstFree(int from) const
    {
        while (used_[from]) {
            ++from;
        }
        return from;
    }

    bool ExactFrom(int from, int remaining, std::uint32_t acc)
    {
        if (remaining == 0) {
            return acc == obs_;
        }
        if (--budget_ < 0) {
            return false;
        }
        const int x = FirstFree(from);
        const int n = static_cast<int>(used_.size());
        used_[x] = 1;
        for (int j = x + 1; j < n; ++j) {
            if (used_[j]) {
                continue;
            }
            const auto [lo, hi] = Variants(dets_[x], dets_[j]);
            used_[j] = 1;
            for (int e = lo; e < hi; ++e) {
                chosen_.push_back(e);
                if (ExactFrom(x + 1, remaining - 2,
                              acc ^ edges_[e].obs_mask)) {
                    return true;
                }
                chosen_.pop_back();
            }
            used_[j] = 0;
        }
        const auto [lo, hi] = Variants(dets_[x], DemEdge::kBoundary);
        for (int e = lo; e < hi; ++e) {
            chosen_.push_back(e);
            if (ExactFrom(x + 1, remaining - 1, acc ^ edges_[e].obs_mask)) {
                return true;
            }
            chosen_.pop_back();
        }
        used_[x] = 0;
        return false;
    }

    void EnumerateFrom(int from, int remaining)
    {
        if (static_cast<int>(variants_.size()) >= kMaxVariants ||
            --budget_ < 0) {
            return;
        }
        if (remaining == 0) {
            sorted_ = chosen_;
            std::sort(sorted_.begin(), sorted_.end());
            if (std::find(variants_.begin(), variants_.end(), sorted_) ==
                variants_.end()) {
                variants_.push_back(sorted_);
            }
            return;
        }
        const int x = FirstFree(from);
        const int n = static_cast<int>(used_.size());
        used_[x] = 1;
        for (int j = x + 1; j < n; ++j) {
            if (used_[j]) {
                continue;
            }
            const auto [lo, hi] = Variants(dets_[x], dets_[j]);
            if (lo == hi) {
                continue;
            }
            used_[j] = 1;
            chosen_.push_back(lo);
            EnumerateFrom(x + 1, remaining - 2);
            chosen_.pop_back();
            used_[j] = 0;
        }
        const auto [lo, hi] = Variants(dets_[x], DemEdge::kBoundary);
        if (lo != hi) {
            chosen_.push_back(lo);
            EnumerateFrom(x + 1, remaining - 1);
            chosen_.pop_back();
        }
        used_[x] = 0;
    }

    const std::vector<DemEdge>& edges_;
    const std::vector<int>& row_start_;
    const int* dets_ = nullptr;
    std::uint32_t obs_ = 0;
    int budget_ = 0;
    std::vector<char> used_;
    std::vector<int> chosen_;
    std::vector<int> sorted_;
    std::vector<std::vector<int>> variants_;
};

}  // namespace

std::string
DetectorErrorModel::Stats() const
{
    std::ostringstream os;
    os << "detectors=" << num_detectors << " observables="
       << num_observables << " edges=" << edges.size()
       << " components=" << num_components
       << " decomposed=" << num_decomposed
       << " hyperedges=" << num_hyperedges << " (variants="
       << hyperedges.size() << ", p=" << hyperedge_probability << ")"
       << " undecomposable=" << num_undecomposable << " (p="
       << undecomposable_probability << ")"
       << " dropped_p=" << dropped_probability;
    return os.str();
}

DetectorErrorModel
BuildDem(const NoisyCircuit& circuit)
{
    DetectorErrorModel dem;
    dem.num_detectors = circuit.num_detectors();
    dem.num_observables = circuit.num_observables();
    for (const DetectorInfo& d : circuit.detectors()) {
        dem.detector_basis.push_back(d.basis);
    }

    const auto& instructions = circuit.instructions();
    int lanes = 0;
    for (const SimInstruction& inst : instructions) {
        lanes += ChannelOf(inst).components;
    }
    dem.num_components = lanes;
    if (lanes == 0) {
        return dem;
    }
    const int num_dets = circuit.num_detectors();

    // Backward walk. x[q] / z[q] hold what an X / Z error on q right
    // after the current instruction flips, and records[m] what a flip of
    // measurement record m flips. An instruction's components are
    // injected after its own action, so their signatures are read before
    // the sets are pulled back through it. `record` is the number of
    // measurements before the current instruction: records at or past
    // it are not yet taken at this point, so a detector reading one
    // reads nothing.
    std::vector<SensitivitySet> x(circuit.num_qubits());
    std::vector<SensitivitySet> z(circuit.num_qubits());
    std::vector<SensitivitySet> records(circuit.num_measurements());
    int record = circuit.num_measurements();
    SignatureTable table;
    std::vector<int> group_of(lanes);
    const SensitivitySet none;
    SensitivitySet scratch, sig, y0, y1;
    int lane = lanes;
    for (size_t i = instructions.size(); i-- > 0;) {
        const SimInstruction& inst = instructions[i];
        lane -= ChannelOf(inst).components;
        auto emit = [&](int k, const SensitivitySet& s) {
            group_of[lane + k] = s.empty() ? -1 : table.Intern(s);
        };
        switch (inst.op) {
          case SimOp::kH:
            x[inst.q0].swap(z[inst.q0]);
            break;
          case SimOp::kCnot:
            XorAssign(x[inst.q0], x[inst.q1], scratch);
            XorAssign(z[inst.q1], z[inst.q0], scratch);
            break;
          case SimOp::kSwap:
            x[inst.q0].swap(x[inst.q1]);
            z[inst.q0].swap(z[inst.q1]);
            break;
          case SimOp::kMeasure:
            --record;
            if (inst.p > 0.0) {
                emit(0, records[record]);
            }
            XorAssign(x[inst.q0], records[record], scratch);
            SensitivitySet().swap(records[record]);
            break;
          case SimOp::kReset:
            if (inst.p > 0.0) {
                emit(0, x[inst.q0]);
            }
            x[inst.q0].clear();
            z[inst.q0].clear();
            break;
          case SimOp::kXError:
            emit(0, x[inst.q0]);
            break;
          case SimOp::kZError:
            emit(0, z[inst.q0]);
            break;
          case SimOp::kDepolarize1:
            XorSets(x[inst.q0], z[inst.q0], y0);
            emit(0, x[inst.q0]);
            emit(1, z[inst.q0]);
            emit(2, y0);
            break;
          case SimOp::kDepolarize2: {
            // Component `which` flips X0, Z0, X1, Z1 by bits 1, 2, 4, 8.
            XorSets(x[inst.q0], z[inst.q0], y0);
            XorSets(x[inst.q1], z[inst.q1], y1);
            const SensitivitySet* on0[4] = {&none, &x[inst.q0], &z[inst.q0],
                                            &y0};
            const SensitivitySet* on1[4] = {&none, &x[inst.q1], &z[inst.q1],
                                            &y1};
            for (int which = 1; which < 16; ++which) {
                const SensitivitySet& a = *on0[which & 3];
                const SensitivitySet& b = *on1[which >> 2];
                if (a.empty() || b.empty()) {
                    emit(which - 1, a.empty() ? b : a);
                } else {
                    XorSets(a, b, sig);
                    emit(which - 1, sig);
                }
            }
            break;
          }
          case SimOp::kDetector:
          case SimOp::kObservableInclude: {
            const int id = inst.op == SimOp::kDetector
                               ? inst.index
                               : num_dets + inst.index;
            for (const auto m : inst.targets) {
                if (m < record) {
                    Toggle(records[m], id);
                }
            }
            break;
          }
        }
    }

    // Fold each group's probability in ascending component order, as the
    // forward builder did: the XOR fold is not associative in floating
    // point, so the order is part of the output.
    std::vector<double> group_p(static_cast<size_t>(table.size()), 0.0);
    lane = 0;
    for (const SimInstruction& inst : instructions) {
        const Channel ch = ChannelOf(inst);
        for (int k = 0; k < ch.components; ++k) {
            const int g = group_of[lane++];
            if (g >= 0) {
                double& p = group_p[g];
                p = p * (1.0 - ch.p) + ch.p * (1.0 - p);
            }
        }
    }
    std::vector<int>().swap(group_of);

    // Emit groups in (sorted detectors, obs mask) order.
    const int num_groups = table.size();
    std::vector<int> det_len(num_groups);
    std::vector<std::uint32_t> obs_of(num_groups, 0);
    for (int g = 0; g < num_groups; ++g) {
        const int* it = table.begin(g);
        while (it != table.end(g) && *it < num_dets) {
            ++it;
        }
        det_len[g] = static_cast<int>(it - table.begin(g));
        for (; it != table.end(g); ++it) {
            obs_of[g] |= 1u << (*it - num_dets);
        }
    }
    std::vector<int> order(num_groups);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const auto cmp = std::lexicographical_compare_three_way(
            table.begin(a), table.begin(a) + det_len[a], table.begin(b),
            table.begin(b) + det_len[b]);
        return cmp != 0 ? cmp < 0 : obs_of[a] < obs_of[b];
    });

    // First pass: elementary (<= 2 detector) mechanisms become edges
    // directly. Groups are distinct, so no two edges share (d0, d1, obs),
    // and the sorted order leaves the edges sorted by (d0, d1) with each
    // row's boundary edges first and a pair's variants in ascending obs
    // order: the row index below serves every pair lookup.
    std::vector<int> composite;
    for (const int g : order) {
        const int* dets = table.begin(g);
        if (det_len[g] == 0) {
            // Pure observable flip with no detector signature: invisible
            // to any decoder; drop it (counted).
            ++dem.num_undecomposable;
            dem.undecomposable_probability += group_p[g];
        } else if (det_len[g] == 1) {
            dem.edges.push_back(
                {dets[0], DemEdge::kBoundary, group_p[g], obs_of[g]});
        } else if (det_len[g] == 2) {
            dem.edges.push_back({dets[0], dets[1], group_p[g], obs_of[g]});
        } else {
            composite.push_back(g);
        }
    }
    std::vector<int> row_start(static_cast<size_t>(num_dets) + 1, 0);
    for (const DemEdge& e : dem.edges) {
        ++row_start[e.d0 + 1];
    }
    for (int d = 0; d < num_dets; ++d) {
        row_start[d + 1] += row_start[d];
    }

    // Second pass: decompose composite mechanisms onto existing
    // elementary edges (Decomposer). A matching whose total observable
    // action equals the mechanism's folds the probability into its
    // edges; every composite mechanism additionally records its
    // structural matchings as hyperedge variants for the decoder's
    // correlated second stage, whether or not an exact matching existed:
    // the peeling forest may realise ANY matching of the signature, and
    // consistent variants must be present too, so a more probable
    // consistent interpretation can veto a correction (the decoder
    // arbitrates per edge set). A fabricated edge would poison the
    // decoding graph, so signatures with no matching at all are dropped
    // (`num_undecomposable`).
    Decomposer decomposer(dem.edges, row_start);
    for (const int g : composite) {
        const int* dets = table.begin(g);
        const double p = group_p[g];
        const int n = det_len[g];
        const bool exact_found = decomposer.Exact(dets, n, obs_of[g]);
        if (exact_found) {
            for (const int e : decomposer.chosen()) {
                double& q = dem.edges[e].p;
                q = q * (1.0 - p) + p * (1.0 - q);
            }
            ++dem.num_decomposed;
        }
        std::vector<std::vector<int>> variants =
            decomposer.Enumerate(dets, n);
        if (variants.empty()) {
            if (!exact_found) {
                ++dem.num_undecomposable;
                dem.undecomposable_probability += p;
            }
            continue;
        }
        const int mech = dem.num_hyperedges++;
        dem.hyperedge_probability += p;
        for (std::vector<int>& v : variants) {
            dem.hyperedges.push_back({std::vector<int>(dets, dets + n),
                                      std::move(v), p, obs_of[g], mech});
        }
    }

    // Final pass: parallel edges with conflicting observable masks cannot
    // be told apart by a syndrome decoder; keep the most probable one
    // (exactly what weighted matching would effectively do) and demote
    // the rest to single-edge hyperedges shadowing the kept edge, so the
    // conflicting mass stays represented and reported instead of
    // silently vanishing. A pair's variants are adjacent, and the first
    // one takes the slot. Hyperedge decompositions are remapped onto the
    // surviving edge indices.
    std::vector<DemEdge> kept;
    std::vector<int> remap(dem.edges.size(), 0);
    struct Loser
    {
        DemEdge edge;
        int slot;
    };
    std::vector<Loser> losers;
    for (size_t i = 0; i < dem.edges.size(); ++i) {
        const DemEdge& e = dem.edges[i];
        if (kept.empty() || kept.back().d0 != e.d0 ||
            kept.back().d1 != e.d1) {
            remap[i] = static_cast<int>(kept.size());
            kept.push_back(e);
            continue;
        }
        const int slot = static_cast<int>(kept.size()) - 1;
        remap[i] = slot;
        DemEdge& winner = kept.back();
        const DemEdge loser_edge = e.p > winner.p ? winner : e;
        if (e.p > winner.p) {
            winner = e;
        }
        dem.dropped_probability += loser_edge.p;
        losers.push_back({loser_edge, slot});
    }
    dem.edges = std::move(kept);
    for (DemHyperedge& h : dem.hyperedges) {
        for (int& e : h.edges) {
            e = remap[static_cast<size_t>(e)];
        }
        std::sort(h.edges.begin(), h.edges.end());
    }
    for (const Loser& l : losers) {
        std::vector<int> dets = {l.edge.d0};
        if (l.edge.d1 != DemEdge::kBoundary) {
            dets.push_back(l.edge.d1);
        }
        dem.hyperedges.push_back({std::move(dets),
                                  {l.slot},
                                  l.edge.p,
                                  l.edge.obs_mask,
                                  dem.num_hyperedges++});
        dem.hyperedge_probability += l.edge.p;
    }
    return dem;
}

}  // namespace tiqec::sim
