// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Exposes both the streaming hasher and the raw compression function. The
// compression function matters here: the zkVM records guest hashing at
// compression-call granularity (mirroring RISC Zero's SHA-256 accelerator
// circuit), so trace rows carry (state_in, block) -> state_out triples that a
// verifier can recheck independently.
#pragma once

#include "common/bytes.h"
#include "crypto/digest.h"

namespace zkt::crypto {

/// SHA-256 chaining state: eight 32-bit words.
struct Sha256State {
  std::array<u32, 8> h;

  auto operator<=>(const Sha256State&) const = default;

  Digest32 to_digest() const;
  static Sha256State from_digest(const Digest32& d);
  static Sha256State initial();
};

/// One application of the SHA-256 compression function on a 64-byte block.
/// Dispatches at runtime (crypto/sha256_backend.h): SHA-NI when the CPU has
/// it and no other backend is pinned, else the portable compressor. Every
/// backend is bit-identical, so results never depend on the choice.
Sha256State sha256_compress(const Sha256State& state,
                            const std::array<u8, 64>& block);

/// Streaming SHA-256.
class Sha256 {
 public:
  Sha256() : state_(Sha256State::initial()) {}

  void update(BytesView data);
  void update(std::string_view s) {
    update(BytesView(reinterpret_cast<const u8*>(s.data()), s.size()));
  }

  /// Finalize and return the digest. The hasher must not be reused after.
  Digest32 finalize();

  /// Number of compression-function calls performed so far (including the
  /// padding block(s) only after finalize()).
  u64 compressions() const { return compressions_; }

 private:
  Sha256State state_;
  std::array<u8, 64> buffer_{};
  size_t buffer_len_ = 0;
  u64 total_len_ = 0;
  u64 compressions_ = 0;
};

/// One-shot SHA-256.
Digest32 sha256(BytesView data);
Digest32 sha256(std::string_view s);

/// Digest of the concatenation of two digests — the Merkle node hash.
Digest32 sha256_pair(const Digest32& left, const Digest32& right);

/// Number of compression calls a streaming SHA-256 of n bytes performs.
constexpr u64 sha256_compression_count(u64 n) {
  return (n + 8) / 64 + 1;  // message blocks + padding/length block
}

/// HMAC-SHA256 (RFC 2104).
Digest32 hmac_sha256(BytesView key, BytesView data);

/// HKDF-SHA256 expand-only step (RFC 5869), for deriving subkeys.
Bytes hkdf_sha256(BytesView ikm, BytesView salt, BytesView info, size_t len);

}  // namespace zkt::crypto
