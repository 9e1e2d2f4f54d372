// Golden receipts: the exact bytes of a small fixed chain are pinned.
//
// Receipts are a wire format that auditors hold on to, so a change to how
// the prover records, serializes or hashes its trace must leave every byte
// as it was unless a protocol version is bumped on purpose. The other suites
// check that receipts verify; this one checks that they did not move. The
// chain is a full round, a delta (incremental) round, one complete query and
// one selective query, all with composite seals so the opened trace rows are
// part of the pinned bytes. Every input is derived from fixed seeds.
//
// If a pinned value changes, the change altered receipt bytes: either undo
// that, or bump the affected image/seal version and re-pin here on purpose.
#include <gtest/gtest.h>

#include "core/zkt.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

RLogBatch batch_of(u32 router, u64 window, std::vector<u32> srcs) {
  RLogBatch batch;
  batch.router_id = router;
  batch.window_id = window;
  for (u32 src : srcs) {
    FlowRecord record;
    for (u32 p = 0; p < 1 + src % 3; ++p) {
      PacketObservation pkt;
      pkt.key = {src, 0x09090909, static_cast<u16>(1000 + src % 7), 443, 6};
      pkt.timestamp_ms = window * 5000 + p;
      pkt.bytes = 100 + src % 37;
      pkt.hop_count = static_cast<u8>(2 + src % 5);
      pkt.rtt_us = 20'000 + src;
      record.observe(pkt);
    }
    batch.records.push_back(std::move(record));
  }
  return batch;
}

zvm::ProveOptions composite() {
  zvm::ProveOptions options;
  options.seal_kind = zvm::SealKind::composite;
  return options;
}

struct Pinned {
  std::string receipt_sha256;
  std::string claim_digest;
};

Pinned pin(const zvm::Receipt& receipt) {
  return {crypto::sha256(receipt.to_bytes()).hex(),
          receipt.claim.digest().hex()};
}

TEST(GoldenReceipt, FixedChainReceiptBytesArePinned) {
  CommitmentBoard board;
  const crypto::SchnorrKeyPair key =
      crypto::schnorr_keygen_from_seed("golden-router");
  auto committed = [&](u64 window, std::vector<u32> srcs) {
    RLogBatch batch = batch_of(0, window, std::move(srcs));
    auto commitment = make_commitment(batch, key, window * 5000);
    EXPECT_TRUE(commitment.ok());
    EXPECT_TRUE(board.publish(commitment.value()).ok());
    return batch;
  };

  AggregationOptions options;
  options.prove_options = composite();
  options.mode = AggMode::incremental;  // genesis is full regardless
  AggregationService service(board, options);
  Auditor auditor(board);

  auto full = service.aggregate(
      {committed(1, {10, 20, 30, 40, 50, 60, 70, 80, 90})});
  ASSERT_TRUE(full.ok()) << full.error().to_string();
  ASSERT_EQ(full.value().journal.kind, RoundKind::full);
  ASSERT_TRUE(auditor.accept_round(full.value().receipt).ok());

  auto delta = service.aggregate({committed(2, {20, 55, 90})});
  ASSERT_TRUE(delta.ok()) << delta.error().to_string();
  ASSERT_EQ(delta.value().journal.kind, RoundKind::incremental);
  ASSERT_TRUE(auditor.accept_round(delta.value().receipt).ok());

  QueryService queries(service);
  const Query sum_hops = Query::sum(QField::hop_sum);
  auto complete = queries.run(
      sum_hops, {.mode = QueryMode::complete,
                 .prove_options_override = composite()});
  ASSERT_TRUE(complete.ok()) << complete.error().to_string();
  ASSERT_TRUE(auditor.verify_query(complete.value().receipt,
                                   {.expected_query = &sum_hops})
                  .ok());

  const Query selected =
      Query::sum(QField::packets).and_where(QField::src_ip, CmpOp::eq, 20);
  auto selective = queries.run(
      selected, {.mode = QueryMode::selective,
                 .prove_options_override = composite()});
  ASSERT_TRUE(selective.ok()) << selective.error().to_string();
  ASSERT_TRUE(auditor.verify_query(selective.value().receipt,
                                   {.expected_query = &selected})
                  .ok());
  EXPECT_EQ(selective.value().value, 2u * 3u);  // 3 packets in each window

  const Pinned got[] = {pin(full.value().receipt), pin(delta.value().receipt),
                        pin(complete.value().receipt),
                        pin(selective.value().receipt)};
  const Pinned want[] = {
      {"50c355a8ec9481040396eed43019e8859b8b72f22b31c4daaf7c6bd66b335a12",
       "5c7e4963354009959dc273393c5759db8627ace94b6a7e5a9e925a1dba88990b"},
      {"a798c12918d6959f9e9319d66b31aef4c636499df70f0e8313ae2db08566ecee",
       "cd4158d3845ffcbd6e80b3dda0a4f8c9bc7d76bd84a793173efff93588b9443a"},
      {"7cebcff29eb58b04857f1b25bed23dd5bceb3a07f21339731922cc37a006593d",
       "1e1ec3db2ff2ca2166416ee3ad22173eb15aa86b9c251a7500312d75a65c7cc4"},
      {"c1cd90642db8425b002e6ca8434fcf6ff821cafbb9c40b1e0d100174b5a3c747",
       "e9d7d4f6fa596c2e29fef47c2ec6e8f605c40d4ea3192d6f58fbed19ca3581bd"},
  };
  const char* names[] = {"full round", "delta round", "complete query",
                         "selective query"};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].receipt_sha256, want[i].receipt_sha256) << names[i];
    EXPECT_EQ(got[i].claim_digest, want[i].claim_digest) << names[i];
  }
}

}  // namespace
}  // namespace zkt::core
