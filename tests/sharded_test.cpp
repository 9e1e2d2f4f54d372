// Sharded aggregation tests: split-proof soundness, shard assignment,
// end-to-end sharded rounds, sharded audit acceptance, and tamper rejection.
#include <gtest/gtest.h>

#include "core/sharded.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

RLogBatch build_batch(u32 router, u64 window, u32 flows) {
  RLogBatch batch;
  batch.router_id = router;
  batch.window_id = window;
  for (u32 f = 0; f < flows; ++f) {
    FlowRecord record;
    PacketObservation pkt;
    pkt.key = {0x0A000000 + f * 7 + router, 0x09090909,
               static_cast<u16>(1000 + f), 443, 6};
    pkt.timestamp_ms = window * 5000 + f;
    pkt.bytes = 100 + f;
    pkt.hop_count = 5;
    record.observe(pkt);
    batch.records.push_back(std::move(record));
  }
  return batch;
}

struct Fixture {
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("shard-fix");

  RLogBatch committed(u32 router, u64 window, u32 flows) {
    auto batch = build_batch(router, window, flows);
    EXPECT_TRUE(
        board.publish(make_commitment(batch, key, window * 5000).value())
            .ok());
    return batch;
  }
};

TEST(ShardOf, DeterministicAndInRange) {
  for (u32 count : {1u, 2u, 4u, 16u}) {
    for (u32 f = 0; f < 50; ++f) {
      const netflow::FlowKey k{f, f * 3, static_cast<u16>(f), 443, 6};
      const u32 s = shard_of(k, count);
      EXPECT_LT(s, count);
      EXPECT_EQ(s, shard_of(k, count));
    }
  }
}

TEST(SubBatch, PartitionIsCompleteAndDisjoint) {
  const auto batch = build_batch(0, 1, 50);
  for (u32 count : {1u, 3u, 8u}) {
    u64 total = 0;
    for (u32 s = 0; s < count; ++s) {
      const auto sub = sub_batch_for(batch, s, count);
      EXPECT_EQ(sub.router_id, batch.router_id);
      EXPECT_EQ(sub.window_id, batch.window_id);
      for (const auto& rec : sub.records) {
        EXPECT_EQ(shard_of(rec.key, count), s);
      }
      total += sub.records.size();
    }
    EXPECT_EQ(total, batch.records.size());
  }
}

TEST(SplitJournalSchema, RoundTrip) {
  SplitJournal j;
  j.source = {1, 2, crypto::sha256(std::string_view("src")), 10};
  j.shard_count = 2;
  j.shards = {{0, crypto::sha256(std::string_view("s0")), 6},
              {1, crypto::sha256(std::string_view("s1")), 4}};
  Writer w;
  j.write(w);
  auto parsed = SplitJournal::parse(w.bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().source, j.source);
  EXPECT_EQ(parsed.value().shards, j.shards);
  EXPECT_EQ(parsed.value().shard_count, 2u);
}

class ShardedE2E : public ::testing::TestWithParam<u32> {};

TEST_P(ShardedE2E, RoundsAggregateAndAudit) {
  const u32 shard_count = GetParam();
  Fixture fx;
  ShardedAggregationService service(fx.board,
                                    ShardedOptions{.shard_count = shard_count});
  ShardedAuditor auditor(fx.board, shard_count);

  // Two rounds, two routers each, overlapping flows.
  for (u64 window = 1; window <= 2; ++window) {
    std::vector<RLogBatch> batches = {fx.committed(0, window, 20),
                                      fx.committed(1, window, 15)};
    auto round = service.aggregate(batches);
    ASSERT_TRUE(round.ok()) << round.error().to_string();
    EXPECT_EQ(round.value().split_receipts.size(), 2u);
    EXPECT_EQ(round.value().shard_rounds.size(), shard_count);
    // >= 2 shards fold into one tree seal; a single chain has nothing to
    // fold.
    EXPECT_EQ(round.value().tree_seal.has_value(), shard_count >= 2);
    auto accepted = auditor.accept_round(round.value());
    ASSERT_TRUE(accepted.ok()) << accepted.to_string();
  }
  EXPECT_EQ(auditor.rounds_accepted(), 2u);

  // Shards jointly hold every distinct flow exactly once.
  u64 expected_flows = 0;
  {
    std::set<netflow::FlowKey> keys;
    for (u64 window = 1; window <= 2; ++window) {
      for (u32 router = 0; router < 2; ++router) {
        const auto batch = build_batch(router, window, router == 0 ? 20 : 15);
        for (const auto& rec : batch.records) {
          keys.insert(rec.key);
        }
      }
    }
    expected_flows = keys.size();
  }
  EXPECT_EQ(auditor.total_entries(), expected_flows);

  u64 shard_total = 0;
  for (u32 s = 0; s < shard_count; ++s) {
    shard_total += service.shard_state(s).entry_count();
  }
  EXPECT_EQ(shard_total, expected_flows);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedE2E,
                         ::testing::Values(1, 2, 4));

TEST(Sharded, ShardedTotalsMatchUnsharded) {
  Fixture fx;
  auto batch = fx.committed(0, 1, 30);

  AggregationService plain(fx.board);
  ASSERT_TRUE(plain.aggregate({batch}).ok());
  const auto reference =
      evaluate_query(Query::sum(QField::bytes), plain.state().entries());

  Fixture fx2;
  auto batch2 = fx2.committed(0, 1, 30);
  ShardedAggregationService sharded(fx2.board, ShardedOptions{.shard_count = 4});
  ASSERT_TRUE(sharded.aggregate({batch2}).ok());
  u64 sharded_sum = 0;
  for (u32 s = 0; s < 4; ++s) {
    sharded_sum +=
        evaluate_query(Query::sum(QField::bytes),
                       sharded.shard_state(s).entries())
            .sum;
  }
  EXPECT_EQ(sharded_sum, reference.sum);
}

TEST(AdaptiveShards, ControllerDoublesHalvesAndClamps) {
  AdaptiveShardController ctl(
      4, AdaptiveShardOptions{.min_shards = 2,
                              .max_shards = 8,
                              .split_above = 1.5,
                              .merge_below = 1.05,
                              .patience = 2});
  EXPECT_EQ(ctl.recommended(), 4u);

  // One hot round is not enough (hysteresis)...
  ctl.observe(2.0);
  EXPECT_EQ(ctl.recommended(), 4u);
  // ...two consecutive hot rounds double the advice.
  ctl.observe(2.0);
  EXPECT_EQ(ctl.recommended(), 8u);
  // Clamped at max_shards even if the imbalance persists.
  ctl.observe(3.0);
  ctl.observe(3.0);
  EXPECT_EQ(ctl.recommended(), 8u);

  // A middling round resets both streaks.
  ctl.observe(1.2);
  ctl.observe(1.0);
  EXPECT_EQ(ctl.recommended(), 8u);
  // Balanced rounds halve, repeatedly, down to min_shards.
  ctl.observe(1.0);
  EXPECT_EQ(ctl.recommended(), 4u);
  ctl.observe(1.0);
  ctl.observe(1.0);
  EXPECT_EQ(ctl.recommended(), 2u);
  ctl.observe(1.0);
  ctl.observe(1.0);
  EXPECT_EQ(ctl.recommended(), 2u);
  EXPECT_EQ(ctl.observations(), 11u);
}

TEST(AdaptiveShards, ControllerClampsInitialAndDegenerateOptions) {
  // Initial fan-out outside the clamp is pulled inside; patience=0 behaves
  // like 1 (every round can move the advice).
  AdaptiveShardController ctl(32, AdaptiveShardOptions{.min_shards = 1,
                                                       .max_shards = 4,
                                                       .patience = 0});
  EXPECT_EQ(ctl.recommended(), 4u);
  ctl.observe(1.0);
  EXPECT_EQ(ctl.recommended(), 2u);
}

TEST(AdaptiveShards, ServicePinsFanOutPerWindowAndOnlyAdvises) {
  Fixture fx;
  ShardedAggregationService service(
      fx.board,
      ShardedOptions{.shard_count = 2,
                     .adaptive_shards = AdaptiveShardOptions{
                         .min_shards = 1, .max_shards = 4, .patience = 1}});
  EXPECT_EQ(service.recommended_shard_count(), 2u);

  auto round = service.aggregate({fx.committed(0, 1, 12)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();
  // The round records the fan-out it was actually proven with, and the live
  // service never reshards mid-chain regardless of the advice.
  EXPECT_EQ(round.value().shard_count, 2u);
  EXPECT_EQ(service.shard_count(), 2u);
  const u32 advised = service.recommended_shard_count();
  EXPECT_GE(advised, 1u);
  EXPECT_LE(advised, 4u);

  auto round2 = service.aggregate({fx.committed(0, 2, 12)});
  ASSERT_TRUE(round2.ok());
  EXPECT_EQ(round2.value().shard_count, 2u);
  EXPECT_EQ(service.shard_count(), 2u);

  // Without adaptive mode the accessor just mirrors the fixed fan-out.
  Fixture fx2;
  ShardedAggregationService fixed(fx2.board,
                                  ShardedOptions{.shard_count = 3});
  EXPECT_EQ(fixed.recommended_shard_count(), 3u);
}

TEST(Sharded, TamperedBatchFailsSplitProof) {
  Fixture fx;
  auto batch = fx.committed(0, 1, 10);
  batch.records[2].bytes += 1;  // post-commitment edit
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({batch});
  ASSERT_FALSE(round.ok());
  EXPECT_EQ(round.error().code, Errc::guest_abort);
}

TEST(Sharded, UncommittedBatchRejected) {
  Fixture fx;
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({build_batch(9, 9, 5)});
  ASSERT_FALSE(round.ok());
  EXPECT_EQ(round.error().code, Errc::commitment_missing);
}

TEST(Sharded, AuditorRejectsForeignSplit) {
  // A round proven against a different board must not be accepted.
  Fixture trusted;
  Fixture rogue;
  auto batch = rogue.committed(0, 1, 10);
  ShardedAggregationService service(rogue.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  ShardedAuditor auditor(trusted.board, 2);
  auto rejected = auditor.accept_round(round.value());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), Errc::commitment_missing);
}

TEST(Sharded, AuditorRejectsWrongShardCount) {
  Fixture fx;
  auto batch = fx.committed(0, 1, 10);
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  ShardedAuditor auditor(fx.board, 4);
  EXPECT_FALSE(auditor.accept_round(round.value()).ok());
}

TEST(Sharded, AuditorRejectsDroppedShardRound) {
  Fixture fx;
  auto batch = fx.committed(0, 1, 10);
  ShardedAggregationService service(
      fx.board, ShardedOptions{.shard_count = 2, .join_fanout = 0});
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  auto truncated = round.value();
  truncated.shard_rounds.pop_back();
  ShardedAuditor auditor(fx.board, 2);
  EXPECT_FALSE(auditor.accept_round(truncated).ok());
}

TEST(Sharded, AuditorRejectsCrossShardSwap) {
  // Swapping two shards' rounds breaks the split-output matching (each
  // shard's consumed hashes are shard-specific).
  Fixture fx;
  auto batch = fx.committed(0, 1, 20);
  ShardedAggregationService service(
      fx.board, ShardedOptions{.shard_count = 2, .join_fanout = 0});
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  auto swapped = round.value();
  std::swap(swapped.shard_rounds[0], swapped.shard_rounds[1]);
  ShardedAuditor auditor(fx.board, 2);
  EXPECT_FALSE(auditor.accept_round(swapped).ok());
}

}  // namespace
}  // namespace zkt::core
