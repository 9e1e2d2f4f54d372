// Verifiable sharded aggregation — the §7 "Proof parallelization" design,
// made sound end to end.
//
// Naively partitioning NetFlow records across shard provers breaks the
// commitment check: routers committed to whole batches, not sub-batches. We
// close that gap with a *split proof*: a zkVM guest that
//   1. verifies the original batch against its published commitment,
//   2. deterministically partitions its records by flow hash into K
//      sub-batches,
//   3. publishes the K sub-batch hashes (+ counts) in its journal.
//
// Each shard then runs the ordinary Algorithm-1 aggregation chain over its
// sub-batches, treating the split journal's hashes as its commitments, and
// the round's K shard receipts fold through a tree of join guests into ONE
// seal (see core/join.h) — so the verifier checks split receipts (against
// the board) plus one tree seal per round instead of O(K) receipts. Shards
// prove in parallel on common::ThreadPool, which is exactly the §7 speedup;
// the fold is log-depth and pool-parallel too.
//
// A round decomposes into stage -> commit_staged -> prove_shards ->
// fold_round so ProviderPipeline can overlap windows: stage() is const and
// thread-safe (window i+1 stages on a worker while window i proves), and
// fold_round() only reads the round's receipts (window i folds while window
// i+1 proves). aggregate() runs all four for callers that don't pipeline.
#pragma once

#include <map>
#include <memory>
#include <tuple>

#include "core/auditor.h"
#include "core/chain_snapshot.h"
#include "core/fold.h"
#include "core/service.h"

namespace zkt::core {

/// One sub-batch reference produced by a split proof.
struct ShardRef {
  u32 shard_id = 0;
  Digest32 sub_batch_hash;
  u64 record_count = 0;

  friend bool operator==(const ShardRef&, const ShardRef&) = default;
};

/// Public journal of a split proof.
struct SplitJournal {
  CommitmentRef source;  ///< the original (board-published) commitment
  u32 shard_count = 0;
  std::vector<ShardRef> shards;

  void write(Writer& w) const;
  static Result<SplitJournal> parse(BytesView journal);
};

/// The split guest's image (registered on first use).
zvm::ImageID shard_split_image();

/// Deterministic shard assignment for a flow (shared by host, guest and
/// tests): FlowKeyHasher(key) % shard_count.
u32 shard_of(const netflow::FlowKey& key, u32 shard_count);

/// The canonical serialization of shard `shard_id`'s sub-batch of `batch`.
netflow::RLogBatch sub_batch_for(const netflow::RLogBatch& batch,
                                 u32 shard_id, u32 shard_count);

/// Construction-time knobs for the sharded proving path, per the repo's
/// options-struct convention (PipelineOptions / AggregationOptions /
/// AuditorOptions). One struct configures the whole path: the service's
/// shard fan-out and fold shape here, and — via PipelineOptions — how many
/// windows ProviderPipeline keeps in flight.
/// Clamp + watermarks for adaptive shard-count advice (ROADMAP item 3
/// headroom: feed the imbalance gauge back into the fan-out choice).
struct AdaptiveShardOptions {
  u32 min_shards = 1;
  u32 max_shards = 16;
  /// Double the recommendation when imbalance (max shard wall / mean) sits
  /// at or above this for `patience` consecutive rounds — hash % K
  /// re-partitions, so a hot bucket under K usually splits under 2K.
  double split_above = 1.5;
  /// Halve it when imbalance sits at or below this for `patience` rounds:
  /// the round is already balanced, and fewer, fatter shards shrink the
  /// split + join-fold overhead per record.
  double merge_below = 1.05;
  /// Consecutive rounds beyond a watermark before the advice moves
  /// (hysteresis against one-off stragglers). Clamped to >= 1.
  u32 patience = 2;
};

/// Halve/double recommendation machine over per-round imbalance readings.
/// Deterministic: the recommendation is a pure function of the observation
/// sequence (clamped to [min_shards, max_shards], watermarked, with
/// `patience` hysteresis), so replaying the same rounds yields the same
/// advice. It only ever *advises* — the live fan-out is pinned per window
/// and applied where a chain legitimately starts (see
/// ShardedOptions::adaptive_shards for why mid-chain resharding is unsound).
class AdaptiveShardController {
 public:
  AdaptiveShardController(u32 current, AdaptiveShardOptions options);

  /// Feed one round's imbalance reading (max shard wall / mean shard wall).
  void observe(double imbalance);

  u32 recommended() const { return recommended_; }
  u64 observations() const { return observations_; }

 private:
  AdaptiveShardOptions options_;
  u32 recommended_;
  u32 high_streak_ = 0;
  u32 low_streak_ = 0;
  u64 observations_ = 0;
};

struct ShardedOptions {
  /// Parallel proof chains per round (clamped to >= 1).
  u32 shard_count = 1;
  /// Adaptive shard counts: when set, every proven round feeds its
  /// `core.sharded.imbalance` reading into an AdaptiveShardController and
  /// the result is published as `core.sharded.recommended_shards` (also
  /// visible via recommended_shard_count()).
  ///
  /// Determinism note — receipts stay valid: the fan-out a window is proven
  /// with is pinned per window (recorded in RoundResult::shard_count and
  /// bound in-trace by every split journal's shard_count field) and NEVER
  /// changes on a live service. Shard chains link round i+1 onto round i
  /// and flows partition by FlowKeyHasher(key) % K, so resharding mid-chain
  /// would scatter one flow's history across shard states and double-count
  /// it in the merged view. The recommendation instead applies where a
  /// chain starts: a fresh service, the next deployment epoch, or recovery
  /// onto an empty store.
  std::optional<AdaptiveShardOptions> adaptive_shards = std::nullopt;
  /// Children per join node when folding a round's shard receipts into one
  /// tree seal; < 2 disables the fold (per-shard receipts are then the
  /// round's proof objects — the pre-tree behavior). Ignored when
  /// shard_count == 1: a single chain has nothing to fold.
  u32 join_fanout = 2;
  /// Windows kept in flight by ProviderPipeline when it drives this
  /// service: stage window i+1 (load + split-prove) and fold window i's
  /// tree while the current window's shards prove. 1 = fully sequential.
  /// The service itself is per-round; the knob lives here so one struct
  /// carries the sharded configuration end to end.
  u32 pipeline_depth = 1;
  /// Full-rebuild vs incremental-delta proving per shard chain.
  AggMode agg_mode = AggMode::auto_select;
  zvm::ProveOptions prove_options = {};
  /// Proof-carrying round sketch per shard chain (DESIGN.md §10); the fold
  /// then sums the shard sketches so the tree seal binds ONE round sketch.
  /// nullopt disables sketches on every shard.
  std::optional<netflow::SketchParams> sketch = netflow::SketchParams{};
};

/// Prover-side sharded pipeline.
class ShardedAggregationService {
 public:
  explicit ShardedAggregationService(const CommitmentBoard& board,
                                     ShardedOptions options = {});

  /// A staged-but-unpublished round: the split proofs for one window's
  /// batches plus the per-shard sub-batches and sub-commitments they
  /// attest. Produced by stage(), consumed by commit_staged() +
  /// prove_shards().
  struct StagedRound {
    std::vector<zvm::Receipt> split_receipts;  ///< one per source batch
    /// Sub-batches per shard: shard_batches[s][b] pairs with
    /// sub_commitments[s][b] (split output order = source batch order).
    std::vector<std::vector<netflow::RLogBatch>> shard_batches;
    std::vector<std::vector<Commitment>> sub_commitments;
    u64 split_cycles = 0;
    double split_ms = 0;
  };

  /// Split-prove every batch and derive the per-shard sub-batches and
  /// sub-commitments WITHOUT publishing them. Reads only construction-time
  /// state (the main board, the shard keys) — thread-safe against
  /// commit_staged/prove_shards/fold_round of OTHER windows, which is what
  /// lets the pipeline stage window i+1 on a pool worker.
  Result<StagedRound> stage(std::span<const netflow::RLogBatch> batches) const;

  /// Publish a staged round's sub-commitments to the shard boards. Serial
  /// (call from one thread, in window order).
  Status commit_staged(const StagedRound& staged);

  /// Prove one round over a committed stage: every shard chain advances one
  /// round, in parallel on the shared pool. Serial across windows (shard
  /// chains link round i+1 onto round i). Does NOT fold; the returned
  /// round's tree_seal is empty until fold_round().
  Result<RoundResult> prove_shards(StagedRound staged);

  /// Fold the round's shard receipts into round.tree_seal (no-op unless
  /// fold_enabled()). Reads only the receipts already in `round`, so the
  /// pipeline runs it on a worker while later windows stage and prove.
  Status fold_round(RoundResult& round) const;

  /// stage + commit_staged + prove_shards + fold_round, for callers that
  /// don't pipeline. Batches are borrowed, matching
  /// AggregationService::aggregate.
  Result<RoundResult> aggregate(std::span<const netflow::RLogBatch> batches);

  /// Convenience for literal batch lists: aggregate({a, b}).
  Result<RoundResult> aggregate(
      std::initializer_list<netflow::RLogBatch> batches) {
    return aggregate(
        std::span<const netflow::RLogBatch>(batches.begin(), batches.size()));
  }

  /// Adopt a recovered chain position: restore every shard chain from the
  /// bundle's per-shard snapshots and receipts. Only valid on a fresh
  /// service; snap.shard_count must match this service's.
  Status restore(const ShardedChainSnapshot& snap,
                 std::vector<zvm::Receipt> shard_receipts);

  /// Roll every shard chain forward over an ALREADY-PROVEN round recovered
  /// from storage: recompute each shard's sub-batches from the window's raw
  /// batches (sub_batch_for is deterministic) and replay them against the
  /// shard's stored receipt — verified, never re-proven (see
  /// AggregationService::replay_round).
  Status replay_round(std::span<const netflow::RLogBatch> batches,
                      std::span<const zvm::Receipt> shard_receipts);

  /// Whether rounds fold into a tree seal (>= 2 shards and a fanout).
  bool fold_enabled() const {
    return shard_count_ >= 2 && options_.join_fanout >= 2;
  }

  u32 shard_count() const { return shard_count_; }
  /// The adaptive controller's current advice; == shard_count() when
  /// adaptive mode is off. Advice only — applied at the next chain start,
  /// never mid-chain (see ShardedOptions::adaptive_shards).
  u32 recommended_shard_count() const {
    return adaptive_.has_value() ? adaptive_->recommended() : shard_count_;
  }
  u64 rounds_completed() const { return rounds_; }
  bool has_rounds() const { return rounds_ > 0; }
  const ShardedOptions& options() const { return options_; }
  const CLogState& shard_state(u32 shard) const {
    return shards_[shard]->state();
  }
  const AggregationService& shard_service(u32 shard) const {
    return *shards_[shard];
  }
  /// Total entries across all shard states.
  u64 total_entries() const;

 private:
  const CommitmentBoard* board_;
  ShardedOptions options_;
  u32 shard_count_;
  /// Per-shard boards holding the split-derived sub-commitments, and the
  /// per-shard aggregation chains on top of them.
  std::vector<std::unique_ptr<CommitmentBoard>> shard_boards_;
  // zkt-lint: shared(one chain per shard; parallel_for workers touch disjoint entries only)
  std::vector<std::unique_ptr<AggregationService>> shards_;
  std::vector<crypto::SchnorrKeyPair> shard_keys_;
  std::optional<AdaptiveShardController> adaptive_;
  u64 rounds_ = 0;
};

/// Verifier-side: checks split receipts against the real board and the
/// round's shard chains against the split outputs — through the round's
/// tree seal when present (one join receipt transitively verifies all K
/// shard chains; the journal's leaf links carry each shard's chain fields
/// in shard order), or per-shard receipts otherwise.
class ShardedAuditor {
 public:
  ShardedAuditor(const CommitmentBoard& board, u32 shard_count);

  Status accept_round(const RoundResult& round);

  u64 rounds_accepted() const { return rounds_; }
  /// Total entries across shard states after the last accepted round.
  u64 total_entries() const;
  /// Whether accepted rounds carry the proof-carrying sketch (meaningful
  /// once a round was accepted).
  bool has_sketch() const { return sketch_present_; }
  /// Shard `s`'s sketch digest after the last accepted round.
  const Digest32& shard_sketch_digest(u32 s) const {
    return shard_sketch_digests_[s];
  }
  /// Whether the last accepted round came with a tree seal binding a merged
  /// round sketch, and that sketch's digest.
  bool round_sketch_known() const { return round_sketch_known_; }
  const Digest32& round_sketch_digest() const { return round_sketch_digest_; }
  const netflow::SketchParams& sketch_params() const { return sketch_params_; }

 private:
  struct ShardChainFields;
  Status verify_splits(
      const RoundResult& round,
      std::map<std::tuple<u32, u64, u32>, ShardRef>& expected);
  Status accept_shard_link(u32 shard, const ShardChainFields& fields,
                           size_t source_batches,
                           const std::map<std::tuple<u32, u64, u32>, ShardRef>&
                               expected);

  const CommitmentBoard* board_;
  u32 shard_count_;
  // zkt-lint: shared(Verifier::verify is const and stateless; concurrent calls race nothing)
  zvm::Verifier verifier_;
  /// Pooled fan-out for the round's independent receipts (split proofs and
  /// per-shard aggregation receipts); decisions match the sequential walk.
  BatchVerifier batch_;
  u64 rounds_ = 0;
  /// Chain state per shard.
  std::vector<Digest32> last_claims_;
  std::vector<Digest32> roots_;
  std::vector<u64> entry_counts_;
  std::vector<bool> genesis_done_;
  /// Sketch continuity per shard (chained like prev_root) plus the merged
  /// round-sketch digest bound by the last tree seal.
  bool sketch_present_ = false;
  netflow::SketchParams sketch_params_;
  std::vector<Digest32> shard_sketch_digests_;
  bool round_sketch_known_ = false;
  Digest32 round_sketch_digest_;
};

}  // namespace zkt::core
