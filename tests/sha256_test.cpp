// SHA-256 / HMAC / HKDF tests against official vectors (FIPS 180-4,
// RFC 4231, RFC 5869) plus the streaming properties the zkVM relies on
// (the traced padded-block fold is covered in zvm_test).
#include <gtest/gtest.h>

#include "crypto/sha256.h"

namespace zkt::crypto {
namespace {

struct Vector {
  std::string message;
  std::string digest_hex;
};

class Sha256Vectors : public ::testing::TestWithParam<Vector> {};

TEST_P(Sha256Vectors, OneShot) {
  const auto& v = GetParam();
  EXPECT_EQ(sha256(v.message).hex(), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Fips, Sha256Vectors,
    ::testing::Values(
        Vector{"",
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        Vector{"abc",
               "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        Vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
               "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        Vector{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
               "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
               "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
        // Exactly one block of 'a' minus padding boundary cases.
        Vector{std::string(55, 'a'),
               "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
        Vector{std::string(56, 'a'),
               "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
        Vector{std::string(64, 'a'),
               "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"}));

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShotAtEverySplit) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789.";
  const Digest32 expected = sha256(msg);
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finalize(), expected) << "split at " << split;
  }
}

TEST(Sha256, CompressionCountMatchesFormula) {
  for (size_t n : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 119u, 120u, 1000u}) {
    Sha256 h;
    h.update(Bytes(n, 0x5a));
    (void)h.finalize();
    EXPECT_EQ(h.compressions(), sha256_compression_count(n)) << n;
  }
}

TEST(Sha256, StateDigestRoundTrip) {
  const Digest32 d = sha256(std::string_view("state"));
  EXPECT_EQ(Sha256State::from_digest(d).to_digest(), d);
}

TEST(Sha256, PairDiffersFromConcatenationOrder) {
  const Digest32 a = sha256(std::string_view("a"));
  const Digest32 b = sha256(std::string_view("b"));
  EXPECT_NE(sha256_pair(a, b), sha256_pair(b, a));
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_sha256(key, bytes_of("Hi There")).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      hmac_sha256(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))
          .hex(),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hmac_sha256(key, bytes_of("Test Using Larger Than Block-Size Key - "
                                "Hash Key First"))
          .hex(),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 5869 HKDF-SHA256 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = hex_bytes("000102030405060708090a0b0c");
  const Bytes info = hex_bytes("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, LengthsAndDeterminism) {
  const Bytes ikm = bytes_of("input key material");
  for (size_t len : {1u, 31u, 32u, 33u, 64u, 100u}) {
    const Bytes a = hkdf_sha256(ikm, bytes_of("salt"), bytes_of("info"), len);
    const Bytes b = hkdf_sha256(ikm, bytes_of("salt"), bytes_of("info"), len);
    EXPECT_EQ(a.size(), len);
    EXPECT_EQ(a, b);
  }
  EXPECT_NE(hkdf_sha256(ikm, bytes_of("salt"), bytes_of("info1"), 32),
            hkdf_sha256(ikm, bytes_of("salt"), bytes_of("info2"), 32));
}

TEST(Digest32, HexAndZero) {
  Digest32 zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.hex(), std::string(64, '0'));
  const Digest32 d = sha256(std::string_view("x"));
  EXPECT_FALSE(d.is_zero());
  EXPECT_EQ(Digest32::from_hex(d.hex()), d);
}

}  // namespace
}  // namespace zkt::crypto
