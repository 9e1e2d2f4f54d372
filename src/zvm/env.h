// Env — the guest's window onto the zkVM, mirroring RISC Zero's guest env:
//
//   env::read / env::commit        -> Env::read_* / Env::commit_*
//   SHA-256 accelerator            -> Env::sha256 (one trace row per
//                                     compression call)
//   env::verify (assumptions)      -> Env::verify_assumption
//
// Every provable operation appends one trace row; the final trace is what
// the prover commits to and the verifier samples. Rows are recorded already
// serialized (byte-for-byte TraceRow::serialize) into one flat buffer, so
// the prover hashes leaves and slices openings straight out of it. Reads
// consume the private input stream (already bound to the claim by traced
// hashing); commits append to the public journal.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/merkle.h"
#include "zvm/op.h"
#include "zvm/receipt.h"

namespace zkt::zvm {

class Env {
 public:
  /// Host-side: construct over the guest input and the receipts backing any
  /// assumptions the guest will make.
  Env(BytesView input, std::span<const Receipt> assumption_receipts);

  // ---- Input (private) ----
  Result<u8> read_u8();
  Result<u32> read_u32();
  Result<u64> read_u64();
  Result<u64> read_varint();
  Result<Bytes> read_blob();
  Result<Bytes> read_bytes(size_t n);
  Result<Digest32> read_digest();
  Result<std::string> read_string();
  size_t input_remaining() const;

  // ---- Journal (public output) ----
  void commit_u8(u8 v);
  void commit_u32(u32 v);
  void commit_u64(u64 v);
  void commit_blob(BytesView data);
  void commit_digest(const Digest32& d);
  void commit_string(std::string_view s);
  /// Append pre-framed bytes verbatim (for canonical journal structs).
  void commit_raw(BytesView data);
  const Bytes& journal() const { return journal_.bytes(); }

  // ---- Provable computation ----
  /// SHA-256 with traced compression rows.
  Digest32 sha256(BytesView data);
  /// Traced Merkle node hash: one compression row from the node IV.
  Digest32 hash_node(const Digest32& left, const Digest32& right);
  /// Traced Merkle leaf hash.
  Digest32 hash_leaf(BytesView data);
  /// Traced ALU operation.
  u64 alu(AluOp op, u64 a, u64 b);
  /// Traced assertion; returns guest_abort if cond is false.
  Status assert_true(bool cond, std::string_view context);
  /// Traced digest equality assertion.
  Status assert_eq(const Digest32& a, const Digest32& b,
                   std::string_view context);
  /// Traced Merkle inclusion verification (lowering to hash + assert rows).
  Status verify_merkle(const Digest32& root, const Digest32& leaf,
                       const crypto::MerkleProof& proof);
  /// Traced batch inclusion verification (shared-path multiproof); `leaves`
  /// must be (index, digest) pairs sorted strictly ascending by index.
  Status verify_merkle_multi(
      const Digest32& root,
      std::span<const std::pair<u64, Digest32>> leaves,
      const crypto::MerkleMultiProof& proof);
  /// Record that this guest relies on an inner receipt with the given image
  /// and claim digest. The host must have supplied a matching (already
  /// proven) receipt, else this fails.
  Status verify_assumption(const Digest32& image_id,
                           const Digest32& claim_digest);

  /// Trace rows executed so far (the zvm's cycle counter).
  u64 cycles() const { return row_offsets_.size(); }
  /// How many of those rows are SHA-256 compression rows.
  u64 sha_rows() const { return sha_rows_; }
  /// Serialized bytes of row i (< cycles()), exactly as
  /// TraceRow::serialize writes them. Valid until the next traced call.
  BytesView row_bytes(u64 i) const;

  // ---- Profiling regions (host-side metadata, not part of the proof) ----
  /// Attribute subsequent cycles to a named region until end_region().
  /// Regions may repeat (cycles accumulate) but do not nest. This is how
  /// the guests expose the per-phase cost breakdown the paper profiles
  /// ("the majority of overhead stems from Merkle tree updates").
  void begin_region(std::string_view name);
  void end_region();
  /// Accumulated (region name -> cycles), in first-seen order.
  const std::vector<std::pair<std::string, u64>>& region_cycles() const {
    return regions_;
  }

  // ---- Host-side hooks (used by the Prover) ----
  /// Hash the full input with traced rows and a bind row; returns the digest.
  Digest32 bind_input();
  /// Hash the journal with traced rows and a bind row; returns the digest.
  Digest32 bind_journal();
  const std::vector<Assumption>& assumptions() const { return assumptions_; }

 private:
  /// SHA-256 of (tag || data) with one traced row per compression.
  Digest32 traced_sha256(std::optional<u8> tag, BytesView data);
  /// Append `row`, encoded in place, to the trace.
  template <typename Row>
  void record(const Row& row);

  Bytes input_;
  Reader reader_;
  Writer journal_;
  Bytes rows_;                    ///< every row, serialized, back to back
  std::vector<u64> row_offsets_;  ///< start of each row in rows_
  u64 sha_rows_ = 0;
  std::vector<Assumption> assumptions_;
  std::span<const Receipt> assumption_receipts_;
  std::vector<std::pair<std::string, u64>> regions_;
  std::optional<std::pair<std::string, u64>> open_region_;  // (name, start)
};

namespace guest {
/// Convenience wrapper: standard result pattern for guests that read a
/// (root, leaf, proof) triple from the input stream and verify inclusion.
Status read_and_verify_merkle(Env& env, const Digest32& root);
}  // namespace guest

}  // namespace zkt::zvm
