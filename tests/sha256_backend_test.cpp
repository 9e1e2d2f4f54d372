// Cross-backend equivalence for the SHA-256 layer: every compiled backend
// must produce digests bit-identical to the portable scalar compressor on
// randomized inputs, for single-block sha256_compress, across every batch
// API (compress_many, sha256_many, MerkleTree::hash_leaves / hash_pairs) and
// for full trees. Backends are pinned through the sha256_force_backend()
// test hook or the ZKT_SHA256_BACKEND environment variable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_backend.h"

using namespace zkt;
using namespace zkt::crypto;

namespace {

constexpr Sha256Backend kAllBackends[] = {
    Sha256Backend::scalar, Sha256Backend::shani, Sha256Backend::avx2};

/// Pins a backend for the scope of a test; restores auto-dispatch on exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(Sha256Backend backend) {
    forced_ = sha256_force_backend(backend);
  }
  ~ScopedBackend() { sha256_force_backend(std::nullopt); }
  bool forced() const { return forced_; }

 private:
  bool forced_ = false;
};

Bytes random_bytes(Xoshiro256& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<u8>(rng.uniform(256));
  return out;
}

Sha256State random_state(Xoshiro256& rng) {
  Sha256State s;
  for (auto& w : s.h) w = static_cast<u32>(rng.next());
  return s;
}

std::vector<Sha256Backend> available_backends() {
  std::vector<Sha256Backend> out;
  for (Sha256Backend b : kAllBackends) {
    if (sha256_backend_available(b)) out.push_back(b);
  }
  return out;
}

}  // namespace

TEST(Sha256BackendTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(sha256_backend_compiled(Sha256Backend::scalar));
  EXPECT_TRUE(sha256_backend_available(Sha256Backend::scalar));
}

TEST(Sha256BackendTest, NamesRoundTrip) {
  for (Sha256Backend b : kAllBackends) {
    auto parsed = sha256_backend_from_name(sha256_backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(sha256_backend_from_name("sha512").has_value());
}

TEST(Sha256BackendTest, ForceRejectsUnavailableBackend) {
  for (Sha256Backend b : kAllBackends) {
    if (sha256_backend_available(b)) continue;
    EXPECT_FALSE(sha256_force_backend(b))
        << "forcing unavailable backend " << sha256_backend_name(b);
    // Selection must be unchanged (still automatic).
    EXPECT_TRUE(sha256_backend_available(sha256_active_backend()));
  }
}

TEST(Sha256BackendTest, ForcePinsActiveBackend) {
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    EXPECT_EQ(sha256_active_backend(), b) << sha256_backend_name(b);
  }
  EXPECT_TRUE(sha256_backend_available(sha256_active_backend()));
}

TEST(Sha256BackendTest, CompressManyMatchesScalarPerLane) {
  Xoshiro256 rng(2024);
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    for (size_t lanes : {1u, 2u, 3u, 7u, 8u, 9u, 16u, 31u, 64u, 255u}) {
      std::vector<Sha256State> states;
      std::vector<std::array<u8, 64>> blocks(lanes);
      for (size_t i = 0; i < lanes; ++i) {
        states.push_back(random_state(rng));
        for (auto& byte : blocks[i]) byte = static_cast<u8>(rng.uniform(256));
      }
      std::vector<Sha256State> expected = states;
      for (size_t i = 0; i < lanes; ++i) {
        expected[i] = sha256_compress_scalar(expected[i], blocks[i]);
      }
      sha256_compress_many(states, blocks);
      for (size_t i = 0; i < lanes; ++i) {
        EXPECT_EQ(states[i].h, expected[i].h)
            << sha256_backend_name(b) << " lane " << i << " of " << lanes;
      }
    }
  }
}

TEST(Sha256BackendTest, SingleBlockFollowsPinnedBackend) {
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    // One block gains nothing from an 8-lane pass: only shani is used as is.
    EXPECT_EQ(sha256_single_block_backend(),
              b == Sha256Backend::shani ? Sha256Backend::shani
                                        : Sha256Backend::scalar)
        << sha256_backend_name(b);
  }
  ScopedBackend scalar(Sha256Backend::scalar);
  EXPECT_EQ(sha256_single_block_backend(), Sha256Backend::scalar);
}

TEST(Sha256BackendTest, EnvironmentPinAppliesToSingleBlock) {
  const char* env = std::getenv("ZKT_SHA256_BACKEND");
  if (env == nullptr) GTEST_SKIP() << "ZKT_SHA256_BACKEND is not set";
  const auto pinned = sha256_backend_from_name(env);
  if (!pinned.has_value() || !sha256_backend_available(*pinned)) {
    GTEST_SKIP() << "ZKT_SHA256_BACKEND=" << env << " is not available here";
  }
  // Holds at any point in the run: releasing a forced pin (ScopedBackend)
  // restores the environment's pin, not automatic selection.
  EXPECT_EQ(sha256_active_backend(), *pinned);
  if (*pinned == Sha256Backend::scalar) {
    EXPECT_EQ(sha256_single_block_backend(), Sha256Backend::scalar);
  }
  {
    ScopedBackend other(available_backends().back());
  }
  EXPECT_EQ(sha256_active_backend(), *pinned);
}

TEST(Sha256BackendTest, SingleBlockKnownAnswer) {
  // FIPS 180-4 example "abc": one padded block from the initial state.
  std::array<u8, 64> block{};
  block[0] = 'a';
  block[1] = 'b';
  block[2] = 'c';
  block[3] = 0x80;
  block[63] = 24;  // message length in bits
  const std::string want =
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  EXPECT_EQ(sha256_compress_scalar(Sha256State::initial(), block)
                .to_digest()
                .hex(),
            want);
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    EXPECT_EQ(sha256_compress(Sha256State::initial(), block).to_digest().hex(),
              want)
        << sha256_backend_name(b);
  }
}

TEST(Sha256BackendTest, SingleBlockMatchesScalar) {
  Xoshiro256 rng(515);
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    for (int trial = 0; trial < 200; ++trial) {
      const Sha256State state = random_state(rng);
      std::array<u8, 64> block;
      for (auto& byte : block) byte = static_cast<u8>(rng.uniform(256));
      EXPECT_EQ(sha256_compress(state, block).h,
                sha256_compress_scalar(state, block).h)
          << sha256_backend_name(b) << " trial " << trial;
    }
  }
}

TEST(Sha256BackendTest, Sha256ManyMatchesStreamingHasher) {
  Xoshiro256 rng(7);
  std::vector<Bytes> msgs;
  for (size_t len : {0u, 1u, 31u, 54u, 55u, 56u, 63u, 64u, 65u, 119u, 120u,
                     127u, 128u, 300u, 1000u}) {
    msgs.push_back(random_bytes(rng, len));
  }
  for (u64 i = 0; i < 40; ++i) {
    msgs.push_back(random_bytes(rng, rng.uniform(512)));
  }
  std::vector<BytesView> views(msgs.begin(), msgs.end());

  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    const auto untagged = sha256_many(views, std::nullopt);
    const auto tagged = sha256_many(views, u8{0x00});
    ASSERT_EQ(untagged.size(), msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(untagged[i], sha256(views[i]))
          << sha256_backend_name(b) << " msg " << i;
      EXPECT_EQ(tagged[i], MerkleTree::hash_leaf(views[i]))
          << sha256_backend_name(b) << " msg " << i;
    }
  }
}

TEST(Sha256BackendTest, HashPairsMatchesHashNode) {
  Xoshiro256 rng(99);
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    for (size_t pairs : {1u, 2u, 5u, 8u, 9u, 100u}) {
      std::vector<Digest32> nodes(2 * pairs);
      for (auto& d : nodes) {
        for (auto& byte : d.bytes) byte = static_cast<u8>(rng.uniform(256));
      }
      std::vector<Digest32> out(pairs);
      MerkleTree::hash_pairs(nodes, out);
      for (size_t i = 0; i < pairs; ++i) {
        EXPECT_EQ(out[i], MerkleTree::hash_node(nodes[2 * i], nodes[2 * i + 1]))
            << sha256_backend_name(b) << " pair " << i;
      }
    }
  }
}

TEST(Sha256BackendTest, MerkleRootIdenticalAcrossBackends) {
  Xoshiro256 rng(41);
  std::vector<Bytes> rows;
  for (u64 i = 0; i < 5000; ++i) {
    rows.push_back(random_bytes(rng, 40 + rng.uniform(80)));
  }
  std::vector<BytesView> views(rows.begin(), rows.end());

  std::optional<Digest32> reference;
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    MerkleTree tree(MerkleTree::hash_leaves(views));
    if (!reference.has_value()) {
      reference = tree.root();
    } else {
      EXPECT_EQ(tree.root(), *reference) << sha256_backend_name(b);
    }
    // Proofs from the batched-build tree verify exactly as before.
    auto proof = tree.prove(1234);
    EXPECT_TRUE(
        MerkleTree::verify(tree.root(), tree.leaf(1234), proof).ok());
  }
}

TEST(Sha256BackendTest, StatsAccumulate) {
  const Sha256Backend active = sha256_active_backend();
  const u64 before = sha256_backend_stats(active).blocks;
  std::vector<Sha256State> states(32, Sha256State::initial());
  std::vector<std::array<u8, 64>> blocks(32);
  sha256_compress_many(states, blocks);
  const auto after = sha256_backend_stats(active);
  EXPECT_GE(after.blocks, before + 32);
  EXPECT_GE(after.batches, 1u);
}
