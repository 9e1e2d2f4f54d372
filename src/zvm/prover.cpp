#include "zvm/prover.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>

#include "common/thread_pool.h"
#include "crypto/sha256_backend.h"
#include "crypto/transcript.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "zvm/verifier.h"

namespace zkt::zvm {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Rows hashed per MerkleTree::hash_leaves() batch. Bounds the batch's
/// per-lane scratch state per worker while still keeping the SIMD lanes of
/// the batched SHA-256 backends full.
constexpr u64 kLeafBatchRows = 512;

/// crypto cannot depend on obs (layer DAG), so backend/pool activity is
/// published into the metrics registry here, by the caller.
void publish_hash_metrics(obs::Registry& metrics) {
  for (u8 b = 0; b < crypto::kSha256BackendCount; ++b) {
    const auto backend = static_cast<crypto::Sha256Backend>(b);
    const auto stats = crypto::sha256_backend_stats(backend);
    if (stats.batches == 0) continue;
    const std::string name = crypto::sha256_backend_name(backend);
    metrics.gauge("crypto.sha256.blocks." + name)
        .set(static_cast<double>(stats.blocks));
    metrics.gauge("crypto.sha256.batches." + name)
        .set(static_cast<double>(stats.batches));
  }
  const auto& pool = common::ThreadPool::shared();
  metrics.gauge("common.pool.threads")
      .set(static_cast<double>(pool.thread_count()));
  metrics.gauge("common.pool.queue_depth")
      .set(static_cast<double>(pool.queue_depth()));
  metrics.gauge("common.pool.tasks_executed")
      .set(static_cast<double>(pool.tasks_executed()));
}

}  // namespace

std::vector<u64> derive_query_indices(const Digest32& claim_digest,
                                      const Digest32& roots_digest,
                                      u64 segment_index,
                                      const Digest32& segment_root,
                                      u64 row_count, u32 num_queries) {
  const u64 count = std::min<u64>(num_queries, row_count);
  std::vector<u64> indices;
  indices.reserve(count);
  crypto::Transcript transcript("zkt.zvm.seal.v2");
  transcript.absorb("claim", claim_digest);
  transcript.absorb("roots", roots_digest);
  transcript.absorb_u64("segment", segment_index);
  transcript.absorb("segment_root", segment_root);
  transcript.absorb_u64("rows", row_count);
  // Dedup against a sorted shadow vector (O(log n) membership) instead of a
  // linear std::find per candidate; `indices` itself keeps draw order so the
  // transcript-derived opening sequence — and thus receipt bytes — are
  // unchanged.
  std::vector<u64> sorted;
  sorted.reserve(count);
  while (indices.size() < count) {
    const u64 idx = transcript.challenge_index("query", row_count);
    const auto pos = std::lower_bound(sorted.begin(), sorted.end(), idx);
    if (pos != sorted.end() && *pos == idx) continue;
    sorted.insert(pos, idx);
    indices.push_back(idx);
  }
  return indices;
}

Result<Receipt> Prover::prove(const ImageID& image_id, BytesView input,
                              const ProveOptions& options,
                              ProveInfo* info) const {
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan prove_span("prove");
  std::optional<obs::ScopedSpan> phase;

  const Image* image = registry_->find(image_id);
  if (image == nullptr) {
    return Error{Errc::not_found, "unknown image id"};
  }
  if (options.max_segment_rows == 0) {
    return Error{Errc::invalid_argument, "max_segment_rows must be > 0"};
  }

  // Assumption receipts must themselves verify before the guest may rely on
  // them (mirrors RISC Zero resolving assumptions at prove time). The
  // prover's own policy follows its configured opening count, so chains
  // built with a consistent num_queries setting self-verify.
  Verifier verifier(options.num_queries);
  for (const auto& inner : options.assumptions) {
    ZKT_TRY(verifier.verify(inner, inner.claim.image_id));
  }

  phase.emplace("execute");
  Env env(input, options.assumptions);
  Claim claim;
  claim.image_id = image_id;
  claim.input_digest = env.bind_input();

  if (auto guest = image->fn(env); !guest.ok()) {
    metrics.counter("zvm.prover.guest_aborts").add(1);
    return guest.error();
  }
  env.end_region();  // close any region the guest left open

  claim.journal_digest = env.bind_journal();
  claim.cycle_count = env.cycles();
  claim.assumptions = env.assumptions();
  phase.reset();

  const double execute_ms = ms_since(start);
  const auto commit_start = std::chrono::steady_clock::now();
  phase.emplace("commit");

  const u64 sha_rows = env.sha_rows();

  // Split into segments and commit each on the shared bounded pool. Env
  // recorded the rows already serialized, so leaves are hashed from views
  // into its buffer, and openings are sliced out of the same buffer.
  const u64 total_rows = env.cycles();
  const u64 segment_count =
      std::max<u64>(1, (total_rows + options.max_segment_rows - 1) /
                           options.max_segment_rows);
  std::vector<crypto::MerkleTree> trees(segment_count);
  std::vector<u64> seg_start(segment_count), seg_rows(segment_count);
  {
    obs::Histogram& segment_commit_ms =
        metrics.histogram("zvm.prover.segment_commit_ms");
    obs::Histogram& leaf_batch_rows =
        metrics.histogram("zvm.prover.leaf_batch_rows");
    // zkt-lint: shared(only reads env's rows; writes only segment seg's disjoint slots of trees/seg_start/seg_rows; histogram records are atomic)
    auto build_segment = [&](u64 seg) {
      const auto seg_begin_time = std::chrono::steady_clock::now();
      const u64 begin = seg * options.max_segment_rows;
      const u64 end = std::min(total_rows, begin + options.max_segment_rows);
      seg_start[seg] = begin;
      seg_rows[seg] = end - begin;
      std::vector<Digest32> leaves;
      leaves.reserve(end - begin);
      std::vector<BytesView> views;
      for (u64 batch = begin; batch < end; batch += kLeafBatchRows) {
        const u64 batch_end = std::min(end, batch + kLeafBatchRows);
        views.clear();
        for (u64 i = batch; i < batch_end; ++i) {
          views.push_back(env.row_bytes(i));
        }
        auto digests = crypto::MerkleTree::hash_leaves(views);
        leaves.insert(leaves.end(), digests.begin(), digests.end());
        leaf_batch_rows.record(static_cast<double>(views.size()));
      }
      trees[seg] = crypto::MerkleTree(std::move(leaves));
      segment_commit_ms.record(ms_since(seg_begin_time));
    };
    if (segment_count > 1) {
      common::ThreadPool::shared().parallel_for(
          segment_count, 1,
          [&](size_t first, size_t last) {
            for (size_t seg = first; seg < last; ++seg) build_segment(seg);
          });
    } else {
      build_segment(0);
    }
  }

  Receipt receipt;
  receipt.claim = claim;
  receipt.journal = env.journal();
  receipt.seal_kind = SealKind::composite;
  receipt.assumption_receipts = options.assumptions;
  receipt.composite.segments.resize(segment_count);
  for (u64 seg = 0; seg < segment_count; ++seg) {
    receipt.composite.segments[seg].trace_root = trees[seg].root();
    receipt.composite.segments[seg].row_count = seg_rows[seg];
  }

  // Fiat–Shamir challenges bind the full root list, then open per segment.
  phase.reset();
  phase.emplace("fs_open");
  const auto fs_start = std::chrono::steady_clock::now();
  const Digest32 claim_digest = claim.digest();
  const Digest32 roots_digest = receipt.composite.roots_digest();
  for (u64 seg = 0; seg < segment_count; ++seg) {
    auto& segment = receipt.composite.segments[seg];
    const auto indices =
        derive_query_indices(claim_digest, roots_digest, seg,
                             segment.trace_root, segment.row_count,
                             options.num_queries);
    segment.openings.reserve(indices.size());
    for (u64 idx : indices) {
      SealOpening opening;
      opening.row_index = idx;
      const BytesView row = env.row_bytes(seg_start[seg] + idx);
      opening.row_bytes.assign(row.begin(), row.end());
      opening.proof = trees[seg].prove(idx);
      segment.openings.push_back(std::move(opening));
    }
  }
  metrics.histogram("zvm.prover.fs_derive_ms").record(ms_since(fs_start));
  phase.reset();

  if (options.seal_kind == SealKind::succinct) {
    phase.emplace("wrap");
    // Wrap: self-verify the composite receipt, then emit the constant-size
    // seal. Assumptions are resolved by this step (their receipts were
    // verified above and the wrapper attests to the whole tree).
    ZKT_TRY(verifier.verify(receipt, image_id));
    Receipt wrapped;
    wrapped.claim = receipt.claim;
    wrapped.journal = std::move(receipt.journal);
    wrapped.seal_kind = SealKind::succinct;
    wrapped.succinct = SuccinctSeal::wrap(claim_digest, roots_digest);
    receipt = std::move(wrapped);
    phase.reset();
  }

  metrics.counter("zvm.prover.proofs").add(1);
  metrics.counter("zvm.prover.cycles").add(claim.cycle_count);
  metrics.counter("zvm.prover.sha_rows").add(sha_rows);
  metrics.counter("zvm.prover.segments").add(segment_count);
  metrics.histogram("zvm.prover.execute_ms").record(execute_ms);
  metrics.histogram("zvm.prover.commit_ms").record(ms_since(commit_start));
  metrics.histogram("zvm.prover.total_ms").record(ms_since(start));
  publish_hash_metrics(metrics);

  if (info != nullptr) {
    info->cycles = claim.cycle_count;
    info->sha_rows = sha_rows;
    info->segments = segment_count;
    info->execute_ms = execute_ms;
    info->commit_ms = ms_since(commit_start);
    info->total_ms = ms_since(start);
    info->regions = env.region_cycles();
  }
  return receipt;
}

}  // namespace zkt::zvm
