/**
 * @file
 * Sharded multi-threaded Monte-Carlo sampling engine (see DESIGN.md §3.4).
 *
 * The total shot budget is cut into fixed-size shards. Shard k is always
 * simulated with the RNG stream `Rng(seed, k)` — a pure function of the
 * master seed and the shard index — so the bits produced for a given
 * shard do not depend on which worker thread runs it, when it runs, or
 * how many threads exist. This gives the determinism contract:
 *
 *   For a fixed (circuit, seed, shard_shots, shot budget), `Sample` is
 *   byte-identical and `EstimateLogicalErrors` returns identical
 *   (shots, logical_errors) for every `num_threads` >= 1.
 *
 * Early stopping is also deterministic. Shard outcomes are committed in
 * shard-index order (a commit pointer advances over buffered
 * out-of-order results); the sampler stops at the first committed prefix
 * whose cumulative logical-error count reaches the target. Workers that
 * raced ahead into shards beyond the stop point have their results
 * discarded, so the reported totals are always the same contiguous
 * shard prefix regardless of scheduling.
 *
 * One driver, `RunLerShards`, runs the shards of any number of runs
 * on one pool; it is the only code that spawns Monte-Carlo workers.
 * `core::SweepRunner` passes every candidate's run at once, and
 * `ParallelSampler::EstimateLogicalErrors` is a one-run call.
 */
#ifndef TIQEC_SIM_PARALLEL_SAMPLER_H
#define TIQEC_SIM_PARALLEL_SAMPLER_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <vector>

#include "sim/dem.h"
#include "sim/frame_simulator.h"
#include "sim/noisy_circuit.h"

namespace tiqec::decoder {
class UnionFindDecoder;
}  // namespace tiqec::decoder

namespace tiqec::sim {

/** Decode strategy for EstimateLogicalErrors (see DESIGN.md §3.4).
 *  Both paths are bit-identical; kBatch is strictly faster. */
enum class DecodePath
{
    /** Word-parallel pipeline: non-trivial-shot mask, transposed sparse
     *  syndrome extraction, UnionFindDecoder::DecodeBatch. */
    kBatch,
    /** Per-shot SyndromeOf + Decode; the reference implementation the
     *  batch path is pinned against (and the benchmark baseline). */
    kScalar,
};

struct ParallelSamplerOptions
{
    std::uint64_t seed = 0x5EED;
    /** Worker threads; values <= 0 mean
     *  std::thread::hardware_concurrency(). */
    int num_threads = 0;
    /** Shots per shard (the determinism unit). Clamped to [64, INT_MAX]
     *  and rounded up to a multiple of 64 so shard planes pack into
     *  whole words of a merged batch. */
    int shard_shots = 1 << 12;
    /** Decode pipeline used by EstimateLogicalErrors. */
    DecodePath decode_path = DecodePath::kBatch;
    /** Probability-aware decoding (weighted peeling forest + correlated
     *  hyperedge stage, decoder::UnionFindDecoder::Options). Off gives
     *  the unweighted elementary-graph baseline. */
    bool correlated = true;
};

/** Outcome of a sharded sample-and-decode run. */
struct LogicalErrorEstimate
{
    std::int64_t shots = 0;
    /** Shots where the prediction mismatched ANY tracked observable. */
    std::int64_t logical_errors = 0;
    /** Mismatch count per tracked observable over the same committed
     *  shard prefix (empty for a zero-shot budget). Invariants:
     *  max(per_observable_errors) <= logical_errors <=
     *  sum(per_observable_errors). */
    std::vector<std::int64_t> per_observable_errors;
    /** Number of committed shards (the contiguous prefix counted). */
    std::int64_t shards = 0;
    bool early_stopped = false;
};

class LerShardRun;

/**
 * The one Monte-Carlo driver: runs every shard of every run in `runs`
 * on a single fork/join region of `num_threads` workers (<= 0 means
 * std::thread::hardware_concurrency()). A worker sticks with a run
 * while it has claimable shards, then rotates on, so the shards of
 * many runs interleave on one pool (the no-nested-pools rule,
 * DESIGN.md §4.3). Each run's totals are bit-identical to running it
 * alone at any width: its shard streams and in-order commit are its
 * own. A shard exception (e.g. a decode failure) is recorded on its
 * run (`LerShardRun::failure`), which stops claiming shards; the other
 * runs proceed. Returns once every run is finished or failed.
 */
void RunLerShards(int num_threads, const std::vector<LerShardRun*>& runs);

/**
 * Shard-level state of one logical-error-rate run: the claim counter,
 * stop flag, and in-order commit buffer behind the determinism contract
 * above, decoupled from thread ownership so `RunLerShards` can drive
 * the shards of many runs on one pool.
 */
class LerShardRun
{
  public:
    /**
     * @param circuit Noisy experiment; must outlive the run and have at
     *   least one logical observable (throws std::invalid_argument).
     * @param dem Detector error model of `circuit`; must outlive the
     *   run. The driver's decoders are built from it.
     * @param options Sampler options; `num_threads` is ignored (the
     *   driver owns the threads), the rest define the shard streams
     *   exactly as in `ParallelSampler`.
     */
    LerShardRun(const NoisyCircuit& circuit, const DetectorErrorModel& dem,
                const ParallelSamplerOptions& options,
                std::int64_t max_shots, std::int64_t target_logical_errors);

    std::int64_t num_shards() const { return num_shards_; }

    /** The first exception a shard of this run threw, or null. Call
     *  only after `RunLerShards` returned; a failed run's totals are
     *  meaningless. */
    std::exception_ptr failure() const { return failure_; }

    /** Totals of the committed contiguous shard prefix. Call only after
     *  `RunLerShards` returned. */
    LogicalErrorEstimate Finish() const;

  private:
    friend void RunLerShards(int num_threads,
                             const std::vector<LerShardRun*>& runs);

    /** One shard's decode outcome, buffered until its turn to commit. */
    struct ShardOutcome
    {
        std::int64_t shots = 0;
        std::int64_t errors = 0;
        std::vector<std::int64_t> per_obs;
    };

    /** False once every shard has been claimed or the stop flag is set
     *  (target reached or run failed) — i.e. a worker visiting this run
     *  would find nothing to do. Claimed shards may still be in flight
     *  on other workers. Safe to call concurrently. */
    bool HasClaimableWork() const;

    /**
     * Claims the next shard and runs it to its commit: simulate with the
     * shard's counter-based RNG stream, decode with `decoder` (built
     * from `dem_`; per-worker, so decode scratch never crosses threads),
     * and fold the outcome into the in-order commit state. Safe to call
     * concurrently.
     * @return false if nothing was claimable (budget exhausted, target
     *   reached or run failed); true if a shard was claimed (even one
     *   abandoned by the cooperative stop flag).
     */
    bool RunOneShard(decoder::UnionFindDecoder& decoder);

    /** Keeps the first failure and stops the run. */
    void Fail(std::exception_ptr error);

    const NoisyCircuit* circuit_;
    const DetectorErrorModel* dem_;
    std::uint64_t seed_;
    int shard_shots_;
    DecodePath decode_path_;
    bool correlated_;
    std::int64_t max_shots_;
    std::int64_t target_logical_errors_;
    bool has_target_;
    std::int64_t num_shards_;

    std::atomic<std::int64_t> next_shard_{0};
    std::atomic<bool> stop_{false};

    // Commit state: shard outcomes land here (possibly out of order) and
    // are folded into the totals strictly in shard-index order. Only the
    // committed contiguous prefix is ever reported, so the totals cannot
    // depend on worker scheduling.
    std::mutex mu_;
    std::map<std::int64_t, ShardOutcome> pending_;
    std::int64_t next_commit_ = 0;
    std::int64_t committed_shots_ = 0;
    std::int64_t committed_errors_ = 0;
    std::vector<std::int64_t> committed_per_obs_;
    bool target_reached_ = false;
    std::exception_ptr failure_;  // guarded by mu_
};

class ParallelSampler
{
  public:
    explicit ParallelSampler(const NoisyCircuit& circuit,
                             const ParallelSamplerOptions& options = {});

    int num_threads() const { return options_.num_threads; }
    int shard_shots() const { return options_.shard_shots; }

    /**
     * Samples exactly `shots` shots into one merged batch.
     * Byte-identical for every thread count (shard k occupies bit range
     * [k * shard_shots, ...) of the output planes).
     */
    SampleBatch Sample(std::int64_t shots);

    /**
     * Samples shards and decodes each with a per-worker
     * decoder::UnionFindDecoder built from `dem`, until the committed
     * shard prefix reaches `target_logical_errors` or the shot budget
     * `max_shots` is exhausted, whichever comes first. A non-positive
     * target disables early stopping (the full budget is sampled).
     * Decoding runs the word-parallel batch pipeline unless the options
     * selected DecodePath::kScalar; the counts are bit-identical either
     * way. A one-run `RunLerShards` call: a shard exception (e.g. a
     * decode failure) is rethrown on the calling thread after all
     * workers have joined.
     */
    LogicalErrorEstimate EstimateLogicalErrors(
        const DetectorErrorModel& dem, std::int64_t max_shots,
        std::int64_t target_logical_errors);

  private:
    /** Shots in shard `shard` of a `budget`-shot run (full shards
     *  except possibly the tail). */
    int ShardSize(std::int64_t shard, std::int64_t budget) const;

    /** The simulator for shard `shard`: always stream `Rng(seed, shard)`,
     *  so Sample and EstimateLogicalErrors see identical shard bits. */
    FrameSimulator ShardSimulator(std::int64_t shard) const;

    const NoisyCircuit* circuit_;
    /** The constructor's options with `num_threads` and `shard_shots`
     *  resolved. */
    ParallelSamplerOptions options_;
};

}  // namespace tiqec::sim

#endif  // TIQEC_SIM_PARALLEL_SAMPLER_H
