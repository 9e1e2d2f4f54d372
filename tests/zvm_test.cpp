// zkVM tests: guest environment semantics, trace-row checking, prover/
// verifier round-trips, Fiat–Shamir binding, seal tampering, receipt
// serialization, and the assumption (receipt chaining) mechanism.
#include <gtest/gtest.h>

#include <set>

#include "crypto/sha256.h"
#include "zvm/env.h"
#include "zvm/image.h"
#include "zvm/prover.h"
#include "zvm/verifier.h"

namespace zkt::zvm {
namespace {

using crypto::Digest32;
using crypto::sha256;

// A test guest: reads two u64s and a blob, asserts a < b, hashes the blob,
// and commits results.
Status adder_guest(Env& env) {
  auto a = env.read_u64();
  if (!a.ok()) return a.error();
  auto b = env.read_u64();
  if (!b.ok()) return b.error();
  auto blob = env.read_blob();
  if (!blob.ok()) return blob.error();

  ZKT_TRY(env.assert_true(env.alu(AluOp::ltu, a.value(), b.value()) == 1,
                          "a < b"));
  const u64 sum = env.alu(AluOp::add, a.value(), b.value());
  const Digest32 digest = env.sha256(blob.value());
  env.commit_u64(sum);
  env.commit_digest(digest);
  return {};
}

ImageID register_adder() {
  static const ImageID id =
      ImageRegistry::instance().add("test.adder", 1, adder_guest);
  return id;
}

Bytes adder_input(u64 a, u64 b, std::string_view blob) {
  Writer w;
  w.u64v(a);
  w.u64v(b);
  w.blob(bytes_of(blob));
  return std::move(w).take();
}

// ---------------------------------------------------------------------------
// ALU semantics

struct AluCase {
  AluOp op;
  u64 a, b, expect;
};

class AluEval : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluEval, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(alu_eval(c.op, c.a, c.b), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluEval,
    ::testing::Values(
        AluCase{AluOp::add, 2, 3, 5}, AluCase{AluOp::add, ~0ULL, 1, 0},
        AluCase{AluOp::sub, 3, 5, ~0ULL - 1},
        AluCase{AluOp::mul, 1ULL << 32, 1ULL << 32, 0},
        AluCase{AluOp::divu, 17, 5, 3}, AluCase{AluOp::divu, 17, 0, 0},
        AluCase{AluOp::remu, 17, 5, 2}, AluCase{AluOp::remu, 17, 0, 17},
        AluCase{AluOp::and_, 0b1100, 0b1010, 0b1000},
        AluCase{AluOp::or_, 0b1100, 0b1010, 0b1110},
        AluCase{AluOp::xor_, 0b1100, 0b1010, 0b0110},
        AluCase{AluOp::shl, 1, 8, 256}, AluCase{AluOp::shl, 1, 64, 1},
        AluCase{AluOp::shr, 256, 8, 1}, AluCase{AluOp::shr, 1, 65, 0},
        AluCase{AluOp::eq, 7, 7, 1}, AluCase{AluOp::eq, 7, 8, 0},
        AluCase{AluOp::ltu, 7, 8, 1}, AluCase{AluOp::ltu, 8, 7, 0},
        AluCase{AluOp::ltu, 7, 7, 0}));

// ---------------------------------------------------------------------------
// Env semantics

TEST(Env, TracedSha256MatchesNative) {
  Env env({}, {});
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 200u}) {
    Bytes data(n, static_cast<u8>(n));
    EXPECT_EQ(env.sha256(data), sha256(data)) << n;
  }
}

TEST(Env, HashNodeMatchesMerkle) {
  Env env({}, {});
  const Digest32 a = sha256(std::string_view("a"));
  const Digest32 b = sha256(std::string_view("b"));
  EXPECT_EQ(env.hash_node(a, b), crypto::MerkleTree::hash_node(a, b));
  EXPECT_EQ(env.hash_leaf(bytes_of("x")),
            crypto::MerkleTree::hash_leaf(bytes_of("x")));
}

TEST(Env, CyclesCountRows) {
  Env env({}, {});
  EXPECT_EQ(env.cycles(), 0u);
  env.alu(AluOp::add, 1, 2);
  EXPECT_EQ(env.cycles(), 1u);
  env.sha256(Bytes(64, 0));  // 64 bytes -> 2 compressions
  EXPECT_EQ(env.cycles(), 3u);
}

TEST(Env, AssertFalseAborts) {
  Env env({}, {});
  const Status ok = env.assert_true(true, "fine");
  EXPECT_TRUE(ok.ok());
  const Status bad = env.assert_true(false, "nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::guest_abort);
}

TEST(Env, VerifyMerkleTracedAgreesWithNative) {
  std::vector<Digest32> leaves;
  for (int i = 0; i < 9; ++i) {
    leaves.push_back(crypto::MerkleTree::hash_leaf(as_bytes_view(i)));
  }
  crypto::MerkleTree tree(leaves);
  Env env({}, {});
  for (u64 i = 0; i < 9; ++i) {
    EXPECT_TRUE(env.verify_merkle(tree.root(), leaves[i], tree.prove(i)).ok());
  }
  // Wrong root aborts.
  Digest32 bad_root = tree.root();
  bad_root.bytes[5] ^= 1;
  EXPECT_FALSE(env.verify_merkle(bad_root, leaves[0], tree.prove(0)).ok());
}

TEST(Env, VerifyMerkleMultiTracedAgreesWithNative) {
  std::vector<Digest32> leaves;
  for (int i = 0; i < 11; ++i) {
    leaves.push_back(crypto::MerkleTree::hash_leaf(as_bytes_view(i)));
  }
  crypto::MerkleTree tree(leaves);
  const auto proof = tree.prove_multi(std::vector<u64>{1, 4, 5, 10});
  std::vector<std::pair<u64, Digest32>> opened;
  for (u64 i : proof.indices) opened.emplace_back(i, leaves[i]);

  Env env({}, {});
  EXPECT_TRUE(env.verify_merkle_multi(tree.root(), opened, proof).ok());
  EXPECT_GT(env.cycles(), 0u);

  // Wrong root aborts.
  Digest32 bad_root = tree.root();
  bad_root.bytes[0] ^= 1;
  Env env2({}, {});
  EXPECT_FALSE(env2.verify_merkle_multi(bad_root, opened, proof).ok());

  // Misaligned leaf set aborts.
  Env env3({}, {});
  auto shuffled = opened;
  std::swap(shuffled[0], shuffled[1]);
  EXPECT_FALSE(
      env3.verify_merkle_multi(tree.root(), shuffled, proof).ok());
}

TEST(Env, ReadPastEndFails) {
  Writer w;
  w.u64v(1);
  Env env(w.bytes(), {});
  EXPECT_TRUE(env.read_u64().ok());
  EXPECT_FALSE(env.read_u64().ok());
}

TEST(Env, JournalFraming) {
  Env env({}, {});
  env.commit_u64(7);
  env.commit_blob(bytes_of("abc"));
  env.commit_string("str");
  Reader r(env.journal());
  EXPECT_EQ(r.u64v().value(), 7u);
  EXPECT_EQ(r.blob().value(), bytes_of("abc"));
  EXPECT_EQ(r.str().value(), "str");
  EXPECT_TRUE(r.done());
}

TEST(Env, TracedHashesMatchNativeAtEveryPaddingEdge) {
  // Lengths 0..130 cross the 55/56/63/64-byte padding edges for both the
  // untagged and the one-byte-tagged message. The recorded SHA rows must be
  // exactly the padded blocks folded from the initial state.
  Bytes data(130);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 37);
  const auto check_rows = [](const Env& env, u64 first, u64 message_len,
                             const Digest32& digest) {
    ASSERT_EQ(env.cycles() - first,
              crypto::sha256_compression_count(message_len));
    crypto::Sha256State state = crypto::Sha256State::initial();
    for (u64 i = first; i < env.cycles(); ++i) {
      Reader r(env.row_bytes(i));
      auto row = TraceRow::deserialize(r);
      ASSERT_TRUE(row.ok());
      const auto& sha = std::get<RowSha256>(row.value().op);
      EXPECT_EQ(sha.state_in, state) << "row " << i;
      state = crypto::sha256_compress(state, sha.block);
      EXPECT_EQ(sha.state_out, state) << "row " << i;
    }
    EXPECT_EQ(state.to_digest(), digest);
  };
  for (size_t n = 0; n <= data.size(); ++n) {
    const BytesView msg(data.data(), n);
    Bytes tagged{0x00};
    tagged.insert(tagged.end(), msg.begin(), msg.end());

    Env env({}, {});
    const Digest32 plain = env.sha256(msg);
    EXPECT_EQ(plain, sha256(msg)) << n;
    check_rows(env, 0, n, plain);
    const u64 mark = env.cycles();
    const Digest32 leaf = env.hash_leaf(msg);
    EXPECT_EQ(leaf, sha256(tagged)) << n;
    check_rows(env, mark, n + 1, leaf);
    EXPECT_EQ(env.sha_rows(), env.cycles());
  }
  Env env({}, {});
  const Digest32 a = sha256(std::string_view("left"));
  const Digest32 b = sha256(std::string_view("right"));
  Bytes node{0x01};
  node.insert(node.end(), a.bytes.begin(), a.bytes.end());
  node.insert(node.end(), b.bytes.begin(), b.bytes.end());
  EXPECT_EQ(env.hash_node(a, b), sha256(node));
}

TEST(Env, RecordedRowsRoundTripThroughTraceRow) {
  // A prior receipt to assume, so every row kind gets recorded.
  Prover prover;
  auto inner = prover.prove(register_adder(), adder_input(1, 2, "in"));
  ASSERT_TRUE(inner.ok());
  const std::vector<Receipt> inners{inner.value()};

  Env env(adder_input(3, 9, "some blob longer than one sha block, to span "
                            "the padding of two compressions"),
          inners);
  env.bind_input();
  ASSERT_TRUE(adder_guest(env).ok());
  ASSERT_TRUE(env.assert_eq(sha256(std::string_view("x")),
                            sha256(std::string_view("x")), "eq")
                  .ok());
  ASSERT_TRUE(env.verify_assumption(inner.value().claim.image_id,
                                    inner.value().claim.digest())
                  .ok());
  env.hash_node(sha256(std::string_view("l")), sha256(std::string_view("r")));
  env.bind_journal();

  std::set<OpKind> kinds;
  u64 sha_rows = 0;
  for (u64 i = 0; i < env.cycles(); ++i) {
    const BytesView bytes = env.row_bytes(i);
    Reader r(bytes);
    auto row = TraceRow::deserialize(r);
    ASSERT_TRUE(row.ok()) << "row " << i;
    EXPECT_TRUE(r.done()) << "row " << i;
    Writer w;
    row.value().serialize(w);
    EXPECT_EQ(w.bytes(), Bytes(bytes.begin(), bytes.end())) << "row " << i;
    EXPECT_TRUE(row.value().check().ok()) << "row " << i;
    kinds.insert(row.value().kind());
    if (row.value().kind() == OpKind::sha256_compress) ++sha_rows;
  }
  EXPECT_EQ(kinds.size(), 6u);
  EXPECT_EQ(env.sha_rows(), sha_rows);
}

// ---------------------------------------------------------------------------
// Trace rows

TEST(TraceRow, SerializationRoundTripAllKinds) {
  std::vector<TraceRow> rows;
  RowSha256 sha;
  sha.state_in = crypto::Sha256State::initial();
  sha.block.fill(0x42);
  sha.state_out = crypto::sha256_compress(sha.state_in, sha.block);
  rows.push_back(TraceRow{sha});
  rows.push_back(TraceRow{RowAlu{AluOp::mul, 6, 7, 42}});
  rows.push_back(TraceRow{RowAssert{1, sha256(std::string_view("ctx"))}});
  rows.push_back(TraceRow{RowAssertEqDigest{sha256(std::string_view("a")),
                                            sha256(std::string_view("a"))}});
  rows.push_back(
      TraceRow{RowBindDigest{BindTarget::journal, sha256(std::string_view("j"))}});
  rows.push_back(TraceRow{RowAssume{sha256(std::string_view("img")),
                                    sha256(std::string_view("claim"))}});

  for (const auto& row : rows) {
    Writer w;
    row.serialize(w);
    Reader r(w.bytes());
    auto parsed = TraceRow::deserialize(r);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(r.done());
    EXPECT_EQ(parsed.value().kind(), row.kind());
    EXPECT_EQ(parsed.value().leaf_digest(), row.leaf_digest());
    EXPECT_TRUE(parsed.value().check().ok());
  }
}

TEST(TraceRow, CheckCatchesBadSemantics) {
  RowSha256 sha;
  sha.state_in = crypto::Sha256State::initial();
  sha.block.fill(0);
  sha.state_out = sha.state_in;  // wrong
  EXPECT_FALSE(TraceRow{sha}.check().ok());

  const TraceRow bad_alu{RowAlu{AluOp::add, 2, 2, 5}};
  EXPECT_FALSE(bad_alu.check().ok());
  const TraceRow bad_assert{RowAssert{0, {}}};
  EXPECT_FALSE(bad_assert.check().ok());
  const TraceRow bad_eq{RowAssertEqDigest{sha256(std::string_view("a")),
                                          sha256(std::string_view("b"))}};
  EXPECT_FALSE(bad_eq.check().ok());
}

TEST(TraceRow, DeserializeRejectsGarbage) {
  const Bytes junk = {99};
  Reader r(junk);
  EXPECT_FALSE(TraceRow::deserialize(r).ok());
  Reader empty({});
  EXPECT_FALSE(TraceRow::deserialize(empty).ok());
}

// ---------------------------------------------------------------------------
// Prover / Verifier

TEST(ProveVerify, SucceedsAndBindsJournal) {
  Prover prover;
  Verifier verifier;
  ProveInfo info;
  auto receipt = prover.prove(register_adder(), adder_input(2, 40, "data"),
                              {}, &info);
  ASSERT_TRUE(receipt.ok()) << receipt.error().to_string();
  EXPECT_TRUE(verifier.verify(receipt.value(), register_adder()).ok());
  EXPECT_GT(info.cycles, 0u);
  EXPECT_EQ(info.cycles, receipt.value().claim.cycle_count);

  Reader r(receipt.value().journal);
  EXPECT_EQ(r.u64v().value(), 42u);
  Digest32 digest;
  ASSERT_TRUE(r.fixed(digest.bytes).ok());
  EXPECT_EQ(digest, sha256(std::string_view("data")));
}

TEST(ProveVerify, GuestAbortFailsProving) {
  Prover prover;
  auto receipt = prover.prove(register_adder(), adder_input(40, 2, "x"));
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.error().code, Errc::guest_abort);
}

TEST(ProveVerify, UnknownImageFails) {
  Prover prover;
  const ImageID bogus = compute_image_id("does.not.exist", 1);
  EXPECT_FALSE(prover.prove(bogus, {}).ok());
}

TEST(ProveVerify, WrongExpectedImageRejected) {
  Prover prover;
  Verifier verifier;
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "x"));
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(
      verifier.verify(receipt.value(), compute_image_id("other", 1)).ok());
}

class SealKinds : public ::testing::TestWithParam<SealKind> {};

TEST_P(SealKinds, TamperedJournalRejected) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = GetParam();
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "x"),
                              options);
  ASSERT_TRUE(receipt.ok());
  auto tampered = receipt.value();
  tampered.journal[0] ^= 1;
  EXPECT_FALSE(verifier.verify(tampered, register_adder()).ok());
}

TEST_P(SealKinds, TamperedClaimRejected) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = GetParam();
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "x"),
                              options);
  ASSERT_TRUE(receipt.ok());
  auto tampered = receipt.value();
  tampered.claim.input_digest.bytes[0] ^= 1;
  EXPECT_FALSE(verifier.verify(tampered, register_adder()).ok());
  auto tampered2 = receipt.value();
  tampered2.claim.cycle_count += 1;
  EXPECT_FALSE(verifier.verify(tampered2, register_adder()).ok());
}

TEST_P(SealKinds, ReceiptSerializationRoundTrip) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = GetParam();
  auto receipt = prover.prove(register_adder(), adder_input(5, 6, "blob"),
                              options);
  ASSERT_TRUE(receipt.ok());
  const Bytes wire = receipt.value().to_bytes();
  auto parsed = Receipt::from_bytes(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(verifier.verify(parsed.value(), register_adder()).ok());
  EXPECT_EQ(parsed.value().claim.digest(), receipt.value().claim.digest());
  EXPECT_EQ(parsed.value().journal, receipt.value().journal);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SealKinds,
                         ::testing::Values(SealKind::composite,
                                           SealKind::succinct));

TEST(ProveVerify, SuccinctSealIsConstantSize) {
  Prover prover;
  for (int blob_size : {10, 1000, 50'000}) {
    auto receipt = prover.prove(
        register_adder(), adder_input(1, 2, std::string(blob_size, 'x')));
    ASSERT_TRUE(receipt.ok());
    EXPECT_EQ(receipt.value().proof_size_bytes(), kSuccinctSealSize);
  }
}

TEST(ProveVerify, SuccinctSealByteFlipsRejected) {
  Prover prover;
  Verifier verifier;
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "x"));
  ASSERT_TRUE(receipt.ok());
  for (size_t i = 0; i < kSuccinctSealSize; i += 17) {
    auto tampered = receipt.value();
    tampered.succinct.bytes[i] ^= 1;
    EXPECT_FALSE(verifier.verify(tampered, register_adder()).ok())
        << "byte " << i;
  }
}

TEST(ProveVerify, CompositeOpeningTamperRejected) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = SealKind::composite;
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "payload"),
                              options);
  ASSERT_TRUE(receipt.ok());
  ASSERT_EQ(receipt.value().composite.segments.size(), 1u);
  ASSERT_FALSE(receipt.value().composite.segments[0].openings.empty());

  // Tamper with an opened row's bytes.
  auto t1 = receipt.value();
  t1.composite.segments[0].openings[0].row_bytes[1] ^= 1;
  EXPECT_FALSE(verifier.verify(t1, register_adder()).ok());

  // Tamper with the trace root.
  auto t2 = receipt.value();
  t2.composite.segments[0].trace_root.bytes[0] ^= 1;
  EXPECT_FALSE(verifier.verify(t2, register_adder()).ok());

  // Claim a different row count.
  auto t3 = receipt.value();
  t3.composite.segments[0].row_count += 1;
  EXPECT_FALSE(verifier.verify(t3, register_adder()).ok());

  // Drop an opening.
  auto t4 = receipt.value();
  t4.composite.segments[0].openings.pop_back();
  EXPECT_FALSE(verifier.verify(t4, register_adder()).ok());

  // Drop a whole segment (with a multi-segment receipt).
  ProveOptions small_segments = options;
  small_segments.max_segment_rows = 4;
  auto multi = prover.prove(register_adder(), adder_input(1, 2, "payload"),
                            small_segments);
  ASSERT_TRUE(multi.ok());
  ASSERT_GT(multi.value().composite.segments.size(), 1u);
  EXPECT_TRUE(verifier.verify(multi.value(), register_adder()).ok());
  auto t5 = multi.value();
  t5.composite.segments.pop_back();
  EXPECT_FALSE(verifier.verify(t5, register_adder()).ok());

  // Swap two segments.
  auto t6 = multi.value();
  std::swap(t6.composite.segments[0], t6.composite.segments[1]);
  EXPECT_FALSE(verifier.verify(t6, register_adder()).ok());
}

TEST(Segments, SegmentedProofsVerifyAndMatchUnsegmented) {
  Prover prover;
  Verifier verifier;
  const Bytes input = adder_input(3, 5, std::string(500, 'q'));

  ProveOptions one_segment;
  one_segment.seal_kind = SealKind::composite;
  auto whole = prover.prove(register_adder(), input, one_segment);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().composite.segments.size(), 1u);

  for (u64 max_rows : {1ULL, 3ULL, 8ULL, 64ULL}) {
    ProveOptions options;
    options.seal_kind = SealKind::composite;
    options.max_segment_rows = max_rows;
    ProveInfo info;
    auto receipt = prover.prove(register_adder(), input, options, &info);
    ASSERT_TRUE(receipt.ok()) << max_rows;
    const u64 expect_segments =
        (info.cycles + max_rows - 1) / max_rows;
    EXPECT_EQ(info.segments, expect_segments);
    EXPECT_EQ(receipt.value().composite.segments.size(), expect_segments);
    EXPECT_TRUE(verifier.verify(receipt.value(), register_adder()).ok())
        << max_rows;
    // Same claim regardless of segmentation.
    EXPECT_EQ(receipt.value().claim.digest(), whole.value().claim.digest());
  }
}

TEST(Segments, SuccinctWrapCoversSegmentedSeal) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = SealKind::succinct;
  options.max_segment_rows = 8;
  auto receipt = prover.prove(register_adder(),
                              adder_input(1, 2, std::string(300, 'z')),
                              options);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.value().proof_size_bytes(), kSuccinctSealSize);
  EXPECT_TRUE(verifier.verify(receipt.value(), register_adder()).ok());
}

TEST(ProveVerify, SmallTraceOpensEverything) {
  // A guest with fewer rows than num_queries: all rows opened, still valid.
  static const ImageID tiny = ImageRegistry::instance().add(
      "test.tiny", 1, [](Env& env) -> Status {
        env.commit_u64(env.alu(AluOp::add, 1, 1));
        return {};
      });
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = SealKind::composite;
  options.num_queries = 1000;
  auto receipt = prover.prove(tiny, {}, options);
  ASSERT_TRUE(receipt.ok());
  ASSERT_EQ(receipt.value().composite.segments.size(), 1u);
  EXPECT_EQ(receipt.value().composite.segments[0].openings.size(),
            receipt.value().composite.segments[0].row_count);
  EXPECT_TRUE(verifier.verify(receipt.value(), tiny).ok());
}

TEST(QueryIndices, DeterministicAndDistinct) {
  const Digest32 claim = sha256(std::string_view("claim"));
  const Digest32 roots = sha256(std::string_view("roots"));
  const Digest32 root = sha256(std::string_view("root"));
  const auto a = derive_query_indices(claim, roots, 0, root, 1000, 32);
  const auto b = derive_query_indices(claim, roots, 0, root, 1000, 32);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 32u);
  std::set<u64> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
  for (u64 idx : a) EXPECT_LT(idx, 1000u);

  // Any change to the binding context changes the indices.
  EXPECT_NE(a, derive_query_indices(claim, roots, 0,
                                    sha256(std::string_view("r2")), 1000, 32));
  EXPECT_NE(a, derive_query_indices(claim, roots, 1, root, 1000, 32));
  EXPECT_NE(a, derive_query_indices(claim, sha256(std::string_view("other")),
                                    0, root, 1000, 32));
}

// ---------------------------------------------------------------------------
// Assumptions (receipt chaining)

Status chained_guest(Env& env) {
  auto image = env.read_digest();
  if (!image.ok()) return image.error();
  auto claim = env.read_digest();
  if (!claim.ok()) return claim.error();
  ZKT_TRY(env.verify_assumption(image.value(), claim.value()));
  env.commit_digest(claim.value());
  return {};
}

ImageID register_chained() {
  static const ImageID id =
      ImageRegistry::instance().add("test.chained", 1, chained_guest);
  return id;
}

TEST(Assumptions, ProveWithInnerReceipt) {
  Prover prover;
  Verifier verifier;
  auto inner = prover.prove(register_adder(), adder_input(1, 2, "inner"));
  ASSERT_TRUE(inner.ok());

  Writer w;
  w.fixed(register_adder().bytes);
  w.fixed(inner.value().claim.digest().bytes);
  ProveOptions options;
  options.assumptions.push_back(inner.value());
  auto outer = prover.prove(register_chained(), w.bytes(), options);
  ASSERT_TRUE(outer.ok()) << outer.error().to_string();
  EXPECT_EQ(outer.value().claim.assumptions.size(), 1u);
  EXPECT_TRUE(verifier.verify(outer.value(), register_chained()).ok());
}

TEST(Assumptions, MissingInnerReceiptFailsProving) {
  Prover prover;
  Writer w;
  w.fixed(register_adder().bytes);
  w.fixed(sha256(std::string_view("no such claim")).bytes);
  auto outer = prover.prove(register_chained(), w.bytes(), {});
  EXPECT_FALSE(outer.ok());
}

TEST(Assumptions, CompositeEmbedsAndChecksInner) {
  Prover prover;
  Verifier verifier;
  auto inner = prover.prove(register_adder(), adder_input(1, 2, "inner"));
  ASSERT_TRUE(inner.ok());

  Writer w;
  w.fixed(register_adder().bytes);
  w.fixed(inner.value().claim.digest().bytes);
  ProveOptions options;
  options.seal_kind = SealKind::composite;
  options.assumptions.push_back(inner.value());
  auto outer = prover.prove(register_chained(), w.bytes(), options);
  ASSERT_TRUE(outer.ok());
  ASSERT_EQ(outer.value().assumption_receipts.size(), 1u);
  EXPECT_TRUE(verifier.verify(outer.value(), register_chained()).ok());

  // Removing the embedded inner receipt breaks verification.
  auto stripped = outer.value();
  stripped.assumption_receipts.clear();
  EXPECT_FALSE(verifier.verify(stripped, register_chained()).ok());
}

TEST(Assumptions, InvalidInnerReceiptRejectedAtProveTime) {
  Prover prover;
  auto inner = prover.prove(register_adder(), adder_input(1, 2, "inner"));
  ASSERT_TRUE(inner.ok());
  auto corrupted = inner.value();
  corrupted.journal[0] ^= 1;

  Writer w;
  w.fixed(register_adder().bytes);
  w.fixed(corrupted.claim.digest().bytes);
  ProveOptions options;
  options.assumptions.push_back(corrupted);
  EXPECT_FALSE(prover.prove(register_chained(), w.bytes(), options).ok());
}

// ---------------------------------------------------------------------------
// Images

TEST(Images, IdsAreStableAndDistinct) {
  EXPECT_EQ(compute_image_id("a", 1), compute_image_id("a", 1));
  EXPECT_NE(compute_image_id("a", 1), compute_image_id("a", 2));
  EXPECT_NE(compute_image_id("a", 1), compute_image_id("b", 1));
}

TEST(Images, RegistryFinds) {
  const ImageID id = register_adder();
  const Image* image = ImageRegistry::instance().find(id);
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(image->name, "test.adder");
  EXPECT_EQ(ImageRegistry::instance().find(compute_image_id("nope", 9)),
            nullptr);
}

}  // namespace
}  // namespace zkt::zvm
