// Merkle tree tests: construction, proofs, updates, appends, adversarial
// proof manipulation, and serialization. Parameterized over tree sizes since
// padding/depth edge cases live at power-of-two boundaries.
#include <gtest/gtest.h>

#include "common/serial.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace zkt::crypto {
namespace {

std::vector<Digest32> make_leaves(u64 n, u64 seed = 0) {
  std::vector<Digest32> leaves;
  leaves.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    Writer w;
    w.u64v(seed);
    w.u64v(i);
    leaves.push_back(MerkleTree::hash_leaf(w.bytes()));
  }
  return leaves;
}

class MerkleSizes : public ::testing::TestWithParam<u64> {};

TEST_P(MerkleSizes, EveryLeafProves) {
  const u64 n = GetParam();
  MerkleTree tree(make_leaves(n));
  const Digest32 root = tree.root();
  EXPECT_EQ(tree.leaf_count(), n);
  for (u64 i = 0; i < n; ++i) {
    const auto proof = tree.prove(i);
    EXPECT_EQ(proof.leaf_index, i);
    EXPECT_EQ(proof.leaf_count, n);
    EXPECT_TRUE(MerkleTree::verify(root, tree.leaf(i), proof).ok())
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleSizes, WrongLeafFails) {
  const u64 n = GetParam();
  if (n == 0) return;
  MerkleTree tree(make_leaves(n));
  const auto proof = tree.prove(0);
  const Digest32 wrong = MerkleTree::hash_leaf(bytes_of("not a member"));
  EXPECT_FALSE(MerkleTree::verify(tree.root(), wrong, proof).ok());
}

TEST_P(MerkleSizes, TamperedSiblingFails) {
  const u64 n = GetParam();
  if (n < 2) return;
  MerkleTree tree(make_leaves(n));
  for (u64 i = 0; i < std::min<u64>(n, 4); ++i) {
    auto proof = tree.prove(i);
    for (size_t s = 0; s < proof.siblings.size(); ++s) {
      auto tampered = proof;
      tampered.siblings[s].bytes[0] ^= 1;
      EXPECT_FALSE(
          MerkleTree::verify(tree.root(), tree.leaf(i), tampered).ok())
          << "leaf " << i << " sibling " << s;
    }
  }
}

TEST_P(MerkleSizes, RebuildFromSameLeavesGivesSameRoot) {
  const u64 n = GetParam();
  MerkleTree a(make_leaves(n));
  MerkleTree b(make_leaves(n));
  MerkleTree c(make_leaves(n, /*seed=*/1));
  EXPECT_EQ(a.root(), b.root());
  if (n > 0) {
    EXPECT_NE(a.root(), c.root());
  }
}

TEST_P(MerkleSizes, AppendMatchesBulkBuild) {
  const u64 n = GetParam();
  const auto leaves = make_leaves(n);
  MerkleTree incremental;
  for (u64 i = 0; i < n; ++i) {
    EXPECT_EQ(incremental.append_leaf(leaves[i]), i);
    EXPECT_EQ(incremental.leaf_count(), i + 1);
  }
  MerkleTree bulk(leaves);
  EXPECT_EQ(incremental.root(), bulk.root());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizes,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 31, 33, 64, 100));

TEST(Merkle, EmptyTreeRootIsEmptyLeaf) {
  MerkleTree default_tree;
  MerkleTree from_empty{std::vector<Digest32>{}};
  EXPECT_EQ(default_tree.root(), MerkleTree::empty_leaf());
  EXPECT_EQ(from_empty.root(), MerkleTree::empty_leaf());
}

TEST(Merkle, SingleLeafRootIsLeaf) {
  const auto leaves = make_leaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), leaves[0]);
  const auto proof = tree.prove(0);
  EXPECT_TRUE(proof.siblings.empty());
  EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[0], proof).ok());
}

TEST(Merkle, UpdateLeafChangesOnlyExpectedRoot) {
  auto leaves = make_leaves(10);
  MerkleTree tree(leaves);
  const Digest32 new_leaf = MerkleTree::hash_leaf(bytes_of("updated"));
  const std::pair<u64, Digest32> update{3, new_leaf};
  tree.update_leaves({&update, 1});

  leaves[3] = new_leaf;
  MerkleTree rebuilt(leaves);
  EXPECT_EQ(tree.root(), rebuilt.root());

  // Proofs for all leaves still verify against the new root.
  for (u64 i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        MerkleTree::verify(tree.root(), tree.leaf(i), tree.prove(i)).ok());
  }
}

TEST(Merkle, UpdateLeavesMatchesFreshBuild) {
  // Batched refresh: repeated indices (last write wins), a 1-leaf tree and
  // non-power-of-two leaf counts; the root must equal a fresh build over
  // the final leaves.
  for (u64 n : {1u, 2u, 5u, 13u, 64u, 100u}) {
    auto leaves = make_leaves(n);
    MerkleTree tree(leaves);
    std::vector<std::pair<u64, Digest32>> updates;
    for (u64 i = 0; i < 3 * n; ++i) {
      const u64 index = (i * 7) % n;
      updates.emplace_back(index, MerkleTree::hash_leaf(as_bytes_view(i)));
      leaves[index] = updates.back().second;
    }
    updates.emplace_back(0, MerkleTree::hash_leaf(bytes_of("first")));
    updates.emplace_back(0, MerkleTree::hash_leaf(bytes_of("final")));
    leaves[0] = updates.back().second;
    tree.update_leaves(updates);
    EXPECT_EQ(tree.root(), MerkleTree(leaves).root()) << n;
    EXPECT_EQ(tree.leaf_count(), n);
    for (u64 i = 0; i < n; ++i) {
      EXPECT_TRUE(
          MerkleTree::verify(tree.root(), tree.leaf(i), tree.prove(i)).ok())
          << n << " leaf " << i;
    }
  }
  MerkleTree untouched(make_leaves(6));
  const Digest32 before = untouched.root();
  untouched.update_leaves({});
  EXPECT_EQ(untouched.root(), before);
}

TEST(Merkle, ProofBoundToPosition) {
  MerkleTree tree(make_leaves(8));
  auto proof = tree.prove(2);
  // Reusing leaf 2's proof for index 3 must fail even with leaf 3's digest.
  proof.leaf_index = 3;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), tree.leaf(3), proof).ok());
}

TEST(Merkle, WrongDepthProofRejected) {
  MerkleTree tree(make_leaves(8));
  auto proof = tree.prove(0);
  proof.siblings.pop_back();
  EXPECT_FALSE(MerkleTree::verify(tree.root(), tree.leaf(0), proof).ok());
  auto proof2 = tree.prove(0);
  proof2.siblings.push_back(MerkleTree::empty_leaf());
  EXPECT_FALSE(MerkleTree::verify(tree.root(), tree.leaf(0), proof2).ok());
}

TEST(Merkle, OutOfRangeIndexRejected) {
  MerkleTree tree(make_leaves(8));
  auto proof = tree.prove(0);
  proof.leaf_index = 8;  // beyond padded capacity
  EXPECT_FALSE(MerkleTree::verify(tree.root(), tree.leaf(0), proof).ok());
}

TEST(Merkle, LeafCountMismatchRejected) {
  MerkleTree tree(make_leaves(8));
  auto proof = tree.prove(0);
  proof.leaf_count = 16;  // implies a deeper tree
  EXPECT_FALSE(MerkleTree::verify(tree.root(), tree.leaf(0), proof).ok());
}

TEST(Merkle, LeafAndNodeDomainsSeparated) {
  // hash_leaf(x) != hash_node parts: a 64-byte "leaf" that spells two
  // digests must not collide with the internal node over those digests,
  // nor may the node equal a plain SHA-256 or a compression of the same 64
  // bytes from the standard IV (the node IV is what separates the domains).
  for (u64 i = 0; i < 16; ++i) {
    const Digest32 a = sha256(as_bytes_view(i));
    const Digest32 b = sha256(as_bytes_view(i + 1000));
    Bytes concat;
    append(concat, a.view());
    append(concat, b.view());
    ASSERT_EQ(concat.size(), 64u);
    std::array<u8, 64> block;
    std::copy(concat.begin(), concat.end(), block.begin());
    const Digest32 node = MerkleTree::hash_node(a, b);
    EXPECT_NE(MerkleTree::hash_leaf(concat), node) << i;
    EXPECT_NE(sha256(concat), node) << i;
    EXPECT_NE(sha256_compress(Sha256State::initial(), block).to_digest(),
              node)
        << i;
    EXPECT_EQ(sha256_compress(MerkleTree::node_iv(), block).to_digest(),
              node)
        << i;
  }
}

TEST(Merkle, NodeIvKnownAnswer) {
  // sha256_compress(IV, "zkt.merkle.node.v2" zero-padded to 64 bytes) and
  // one node over known children, both computed with an independent
  // SHA-256 compression implementation.
  EXPECT_EQ(MerkleTree::node_iv().to_digest().hex(),
            "648190fecb25ca392e1cb8c38a2d02f4f77a86755facb6f7311f04fdf7ee5382");
  EXPECT_EQ(MerkleTree::hash_node(sha256(std::string_view("a")),
                                  sha256(std::string_view("b")))
                .hex(),
            "cc19681ca15cd39c9f68de561211253d542406f014f3af95ba80447dd66be669");
}

TEST(Merkle, ProofSerializationRoundTrip) {
  MerkleTree tree(make_leaves(13));
  for (u64 i : {0ULL, 5ULL, 12ULL}) {
    const auto proof = tree.prove(i);
    Writer w;
    proof.serialize(w);
    EXPECT_EQ(w.size(), proof.byte_size());
    Reader r(w.bytes());
    auto parsed = MerkleProof::deserialize(r);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(r.done());
    EXPECT_EQ(parsed.value().leaf_index, proof.leaf_index);
    EXPECT_EQ(parsed.value().leaf_count, proof.leaf_count);
    EXPECT_EQ(parsed.value().siblings, proof.siblings);
    EXPECT_TRUE(
        MerkleTree::verify(tree.root(), tree.leaf(i), parsed.value()).ok());
  }
}

TEST(Merkle, ProofDeserializeRejectsGarbage) {
  Reader empty({});
  EXPECT_FALSE(MerkleProof::deserialize(empty).ok());

  Writer w;
  w.u64v(0);
  w.u64v(1);
  w.u16v(65);  // deeper than any 64-bit tree
  Reader r(w.bytes());
  EXPECT_FALSE(MerkleProof::deserialize(r).ok());
}

TEST(Merkle, BuildHashCount) {
  EXPECT_EQ(MerkleTree::build_hash_count(0), 0u);
  EXPECT_EQ(MerkleTree::build_hash_count(1), 0u);
  EXPECT_EQ(MerkleTree::build_hash_count(2), 1u);
  EXPECT_EQ(MerkleTree::build_hash_count(3), 3u);
  EXPECT_EQ(MerkleTree::build_hash_count(4), 3u);
  EXPECT_EQ(MerkleTree::build_hash_count(3000), 4095u);
}

// ---------------------------------------------------------------------------
// Multiproofs

struct MultiCase {
  u64 tree_size;
  std::vector<u64> indices;
};

class MerkleMulti : public ::testing::TestWithParam<MultiCase> {};

TEST_P(MerkleMulti, VerifiesAndIsSmallerThanSingles) {
  const auto& param = GetParam();
  MerkleTree tree(make_leaves(param.tree_size));
  const auto proof = tree.prove_multi(param.indices);

  std::vector<std::pair<u64, Digest32>> leaves;
  for (u64 i : proof.indices) leaves.emplace_back(i, tree.leaf(i));
  EXPECT_TRUE(MerkleTree::verify_multi(tree.root(), leaves, proof).ok());

  // Never more sibling digests than the individual proofs combined (the
  // hash payload dominates; framing overhead is a few bytes per index).
  size_t single_siblings = 0;
  for (u64 i : proof.indices) single_siblings += tree.prove(i).siblings.size();
  EXPECT_LE(proof.siblings.size(), single_siblings);
  if (proof.indices.size() > 1 && param.tree_size > 2) {
    EXPECT_LT(proof.siblings.size(), single_siblings);  // real sharing
  }

  // Serialization round-trip.
  Writer w;
  proof.serialize(w);
  Reader r(w.bytes());
  auto parsed = MerkleMultiProof::deserialize(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(MerkleTree::verify_multi(tree.root(), leaves,
                                       parsed.value()).ok());
}

TEST_P(MerkleMulti, TamperDetected) {
  const auto& param = GetParam();
  MerkleTree tree(make_leaves(param.tree_size));
  const auto proof = tree.prove_multi(param.indices);
  std::vector<std::pair<u64, Digest32>> leaves;
  for (u64 i : proof.indices) leaves.emplace_back(i, tree.leaf(i));

  // Any leaf digest flip fails.
  for (size_t l = 0; l < leaves.size(); ++l) {
    auto bad = leaves;
    bad[l].second.bytes[0] ^= 1;
    EXPECT_FALSE(MerkleTree::verify_multi(tree.root(), bad, proof).ok());
  }
  // Any sibling flip fails.
  for (size_t s = 0; s < proof.siblings.size(); ++s) {
    auto bad = proof;
    bad.siblings[s].bytes[0] ^= 1;
    EXPECT_FALSE(MerkleTree::verify_multi(tree.root(), leaves, bad).ok());
  }
  // Wrong root fails.
  Digest32 wrong = tree.root();
  wrong.bytes[3] ^= 1;
  EXPECT_FALSE(MerkleTree::verify_multi(wrong, leaves, proof).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MerkleMulti,
    ::testing::Values(MultiCase{1, {0}}, MultiCase{8, {3}},
                      MultiCase{8, {0, 1}}, MultiCase{8, {0, 7}},
                      MultiCase{8, {0, 1, 2, 3, 4, 5, 6, 7}},
                      MultiCase{16, {2, 3, 9}},
                      MultiCase{33, {0, 16, 31, 32}},
                      MultiCase{100, {5, 6, 7, 50, 99}},
                      MultiCase{100, {7, 5, 99, 6, 50, 7}}  /* dups/unsorted */
                      ));

TEST(MerkleMultiEdge, AllLeavesNeedsNoSiblingsBeyondPadding) {
  MerkleTree tree(make_leaves(8));
  std::vector<u64> all = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto proof = tree.prove_multi(all);
  EXPECT_TRUE(proof.siblings.empty());
}

TEST(MerkleMultiEdge, MismatchedLeafSetRejected) {
  MerkleTree tree(make_leaves(16));
  const auto proof = tree.prove_multi(std::vector<u64>{2, 5});
  std::vector<std::pair<u64, Digest32>> wrong_count = {{2, tree.leaf(2)}};
  EXPECT_FALSE(
      MerkleTree::verify_multi(tree.root(), wrong_count, proof).ok());
  std::vector<std::pair<u64, Digest32>> wrong_index = {{2, tree.leaf(2)},
                                                       {6, tree.leaf(6)}};
  EXPECT_FALSE(
      MerkleTree::verify_multi(tree.root(), wrong_index, proof).ok());
}

// ---------------------------------------------------------------------------
// Batched path verification (verify_batch)

TEST(MerkleBatch, AcceptsExactlyWhatVerifyAccepts) {
  MerkleTree tree(make_leaves(16));
  std::vector<MerkleProof> proofs;
  for (u64 i : {0ULL, 1ULL, 7ULL, 15ULL}) proofs.push_back(tree.prove(i));
  std::vector<Digest32> opened = {tree.leaf(0), tree.leaf(1), tree.leaf(7),
                                  tree.leaf(15)};
  std::vector<LeafProof> items;
  for (size_t i = 0; i < proofs.size(); ++i) {
    items.push_back(LeafProof{&opened[i], &proofs[i]});
  }
  PathBatchStats stats;
  EXPECT_TRUE(MerkleTree::verify_batch(tree.root(), items, &stats).ok());
  EXPECT_GT(stats.node_hashes, 0u);
}

TEST(MerkleBatch, AdjacentLeavesShareConvergingPaths) {
  // Leaves 0 and 1 share every path node above the first level; the batch
  // must compute those once.
  MerkleTree tree(make_leaves(32));
  const auto p0 = tree.prove(0);
  const auto p1 = tree.prove(1);
  const Digest32 l0 = tree.leaf(0);
  const Digest32 l1 = tree.leaf(1);
  const std::vector<LeafProof> items = {{&l0, &p0}, {&l1, &p1}};
  PathBatchStats stats;
  ASSERT_TRUE(MerkleTree::verify_batch(tree.root(), items, &stats).ok());
  EXPECT_GT(stats.node_hashes_shared, 0u);
  // Sequential cost would be 2 * depth hash_node applications.
  EXPECT_LT(stats.node_hashes, 2 * p0.siblings.size());
}

TEST(MerkleBatch, WrongRootOrTamperedItemRejected) {
  MerkleTree tree(make_leaves(8));
  const auto p2 = tree.prove(2);
  const auto p5 = tree.prove(5);
  const Digest32 l2 = tree.leaf(2);
  Digest32 l5 = tree.leaf(5);
  const std::vector<LeafProof> items = {{&l2, &p2}, {&l5, &p5}};
  Digest32 wrong = tree.root();
  wrong.bytes[0] ^= 1;
  EXPECT_FALSE(MerkleTree::verify_batch(wrong, items, nullptr).ok());
  // One bad leaf fails the batch even though the other item is intact.
  l5.bytes[0] ^= 1;
  EXPECT_FALSE(MerkleTree::verify_batch(tree.root(), items, nullptr).ok());
}

TEST(MerkleBatch, ShapeErrorsMatchSingleVerify) {
  MerkleTree tree(make_leaves(8));
  const Digest32 l0 = tree.leaf(0);

  auto too_shallow = tree.prove(0);
  too_shallow.siblings.pop_back();
  auto out_of_range = tree.prove(0);
  out_of_range.leaf_index = 8;

  for (const auto* bad : {&too_shallow, &out_of_range}) {
    const Status single = MerkleTree::verify(tree.root(), l0, *bad);
    const std::vector<LeafProof> items = {{&l0, bad}};
    const Status batched = MerkleTree::verify_batch(tree.root(), items);
    ASSERT_FALSE(single.ok());
    ASSERT_FALSE(batched.ok());
    EXPECT_EQ(batched.error().code, single.error().code);
  }
}

TEST(MerkleBatch, EmptyBatchIsOk) {
  MerkleTree tree(make_leaves(4));
  PathBatchStats stats;
  EXPECT_TRUE(
      MerkleTree::verify_batch(tree.root(), {}, &stats).ok());
  EXPECT_EQ(stats.node_hashes, 0u);
}

TEST(MerkleBatch, MatchesSingleVerifyOverManyShapes) {
  for (u64 n : {2ULL, 5ULL, 16ULL, 33ULL}) {
    MerkleTree tree(make_leaves(n));
    std::vector<MerkleProof> proofs;
    std::vector<Digest32> opened;
    for (u64 i = 0; i < n; i += 2) {
      proofs.push_back(tree.prove(i));
      opened.push_back(tree.leaf(i));
    }
    std::vector<LeafProof> items;
    for (size_t i = 0; i < proofs.size(); ++i) {
      items.push_back(LeafProof{&opened[i], &proofs[i]});
    }
    EXPECT_TRUE(MerkleTree::verify_batch(tree.root(), items).ok()) << n;
  }
}

TEST(Merkle, DepthGrowsLogarithmically) {
  EXPECT_EQ(MerkleTree(make_leaves(1)).depth(), 0u);
  EXPECT_EQ(MerkleTree(make_leaves(2)).depth(), 1u);
  EXPECT_EQ(MerkleTree(make_leaves(5)).depth(), 3u);
  EXPECT_EQ(MerkleTree(make_leaves(3000)).depth(), 12u);
}

TEST(Merkle, InsertLeafMatchesFreshBuildAtEveryPosition) {
  // insert_leaf(i) must equal rebuilding from scratch with the leaf spliced
  // in at i — including the capacity-doubling boundary.
  for (u64 n : {1u, 3u, 4u, 7u, 8u}) {
    auto leaves = make_leaves(n);
    const auto extra = MerkleTree::hash_leaf(Bytes{0xEE});
    for (u64 at = 0; at <= n; ++at) {
      MerkleTree incremental(leaves);
      incremental.insert_leaf(at, extra);
      auto spliced = leaves;
      spliced.insert(spliced.begin() + static_cast<ptrdiff_t>(at), extra);
      MerkleTree fresh(spliced);
      EXPECT_EQ(incremental.root(), fresh.root()) << n << " @ " << at;
      EXPECT_EQ(incremental.leaf_count(), n + 1);
    }
  }
}

TEST(Merkle, GrowCapacityKeepsLeafCountAndLiftsRootByEmptySubtrees) {
  // Padding a tree to a larger capacity maps root -> H(root, empty_subtree)
  // per doubling and must not disturb leaf_count or existing proofs.
  MerkleTree tree(make_leaves(8));
  const Digest32 root8 = tree.root();
  tree.grow_capacity(20);  // 8 -> 32: two doublings
  EXPECT_EQ(tree.leaf_count(), 8u);
  EXPECT_EQ(tree.capacity(), 32u);
  Digest32 lifted = root8;
  lifted = MerkleTree::hash_node(lifted, MerkleTree::empty_subtree_root(3));
  lifted = MerkleTree::hash_node(lifted, MerkleTree::empty_subtree_root(4));
  EXPECT_EQ(tree.root(), lifted);

  // Multiproofs over occupied + padded slots verify against the grown root.
  auto proof = tree.prove_multi(std::vector<u64>{2, 8, 9});
  std::vector<std::pair<u64, Digest32>> opened = {
      {2, tree.leaf(2)}, {8, MerkleTree::empty_leaf()},
      {9, MerkleTree::empty_leaf()}};
  // The proof's leaf_count reflects the 8 real leaves; verify against the
  // grown depth by lifting leaf_count to the padded width.
  auto grown_proof = proof;
  grown_proof.leaf_count = 32;
  EXPECT_TRUE(
      MerkleTree::verify_multi(tree.root(), opened, grown_proof).ok());
}

TEST(Merkle, EmptySubtreeRootMatchesBuiltEmptyTrees) {
  EXPECT_EQ(MerkleTree::empty_subtree_root(0), MerkleTree::empty_leaf());
  std::vector<Digest32> empties(8, MerkleTree::empty_leaf());
  EXPECT_EQ(MerkleTree::empty_subtree_root(3), MerkleTree(empties).root());
}

}  // namespace
}  // namespace zkt::crypto
