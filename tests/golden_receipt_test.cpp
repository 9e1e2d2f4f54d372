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
  // Pinned under image domain "zkt.image.v2" (aggregate guest v2, one-
  // compression Merkle nodes from MerkleTree::node_iv()).
  const Pinned want[] = {
      {"78d230eaf0cc0626faada643de416fe46d41abe25f1d55c71687b27b5df5f99b",
       "8e810281bab7cf6671fe4764c442f2fcd36f4933ddde1b82242f52bf40cc0377"},
      {"e7a6df017bb20f647ede6d53774333e4bf5d83dea3f0b26bb5710f2a41851dac",
       "e01da7302c12c21494062d2702694b7ea8dd6ee2e426ec26566d2587c3a00676"},
      {"65f30f2a1c3e4ee731fc1ebd10db21224bea72a0f28d101a99da2fabc705e859",
       "710204cc292ab51780334f021e276d2d11efbca9f5d7a9c0fa23629632baadc7"},
      {"af5d5b3b9658e1cf36fa60ae13568a02f36c591ad3e3d93f7ba303d49d8e2820",
       "728e7f6d1c1cbd742d4ccc68e3ead9c8526f3e54fbdd46027124f73064b5685d"},
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
