#include "zvm/env.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256.h"

namespace zkt::zvm {

Env::Env(BytesView input, std::span<const Receipt> assumption_receipts)
    : input_(input.begin(), input.end()),
      reader_(BytesView(input_.data(), input_.size())),
      assumption_receipts_(assumption_receipts) {}

Result<u8> Env::read_u8() { return reader_.u8v(); }
Result<u32> Env::read_u32() { return reader_.u32v(); }
Result<u64> Env::read_u64() { return reader_.u64v(); }
Result<u64> Env::read_varint() { return reader_.varint(); }
Result<Bytes> Env::read_blob() { return reader_.blob(); }
Result<Bytes> Env::read_bytes(size_t n) { return reader_.raw(n); }
Result<std::string> Env::read_string() { return reader_.str(); }

Result<Digest32> Env::read_digest() {
  Digest32 d;
  ZKT_TRY(reader_.fixed(d.bytes));
  return d;
}

size_t Env::input_remaining() const { return reader_.remaining(); }

void Env::commit_u8(u8 v) { journal_.u8v(v); }
void Env::commit_u32(u32 v) { journal_.u32v(v); }
void Env::commit_u64(u64 v) { journal_.u64v(v); }
void Env::commit_blob(BytesView data) { journal_.blob(data); }
void Env::commit_digest(const Digest32& d) { journal_.fixed(d.bytes); }
void Env::commit_string(std::string_view s) { journal_.str(s); }
void Env::commit_raw(BytesView data) { journal_.raw(data); }

template <typename Row>
void Env::record(const Row& row) {
  const u64 offset = rows_.size();
  row_offsets_.push_back(offset);
  rows_.resize(offset + Row::kBytes);
  row.encode(rows_.data() + offset);
}

BytesView Env::row_bytes(u64 i) const {
  const u64 end = i + 1 < row_offsets_.size() ? row_offsets_[i + 1]
                                              : rows_.size();
  return BytesView(rows_.data() + row_offsets_[i], end - row_offsets_[i]);
}

Digest32 Env::traced_sha256(std::optional<u8> tag, BytesView a, BytesView b) {
  // Each FIPS 180-4 padded block is assembled in `block` straight from the
  // message parts, then compressed and recorded as one row.
  RowSha256 row;
  row.state_out = crypto::Sha256State::initial();
  std::array<u8, 64>& block = row.block;
  size_t fill = 0;
  const auto compress = [&] {
    row.state_in = row.state_out;
    row.state_out = crypto::sha256_compress(row.state_in, block);
    record(row);
    ++sha_rows_;
  };
  const auto absorb = [&](BytesView part) {
    while (!part.empty()) {
      const size_t take = std::min(part.size(), 64 - fill);
      std::memcpy(block.data() + fill, part.data(), take);
      fill += take;
      part = part.subspan(take);
      if (fill == 64) {
        compress();
        fill = 0;
      }
    }
  };
  if (tag.has_value()) absorb(BytesView(&*tag, 1));
  absorb(a);
  absorb(b);

  const u64 bit_len = 8 * ((tag.has_value() ? 1 : 0) + a.size() + b.size());
  block[fill++] = 0x80;
  if (fill > 56) {
    std::memset(block.data() + fill, 0, 64 - fill);
    compress();
    fill = 0;
  }
  std::memset(block.data() + fill, 0, 56 - fill);
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  compress();
  return row.state_out.to_digest();
}

Digest32 Env::sha256(BytesView data) {
  return traced_sha256(std::nullopt, data, {});
}

Digest32 Env::hash_node(const Digest32& left, const Digest32& right) {
  return traced_sha256(u8{0x01}, left.view(), right.view());
}

Digest32 Env::hash_leaf(BytesView data) {
  return traced_sha256(u8{0x00}, data, {});
}

u64 Env::alu(AluOp op, u64 a, u64 b) {
  const RowAlu row{op, a, b, alu_eval(op, a, b)};
  record(row);
  return row.c;
}

Status Env::assert_true(bool cond, std::string_view context) {
  record(RowAssert{cond ? 1u : 0u, crypto::sha256(context)});
  if (!cond) {
    return Error{Errc::guest_abort, std::string("assertion failed: ") +
                                        std::string(context)};
  }
  return {};
}

Status Env::assert_eq(const Digest32& a, const Digest32& b,
                      std::string_view context) {
  record(RowAssertEqDigest{a, b});
  if (a != b) {
    return Error{Errc::guest_abort,
                 std::string("digest mismatch: ") + std::string(context)};
  }
  return {};
}

Status Env::verify_merkle(const Digest32& root, const Digest32& leaf,
                          const crypto::MerkleProof& proof) {
  // Same layout rules as crypto::MerkleTree::verify, but every hash and the
  // final comparison are traced so the check is part of the proven execution.
  const u64 padded = std::bit_ceil(std::max<u64>(proof.leaf_count, 1));
  const u32 expect_depth = static_cast<u32>(std::countr_zero(padded));
  ZKT_TRY(assert_true(proof.siblings.size() == expect_depth,
                      "merkle proof depth"));
  ZKT_TRY(assert_true(proof.leaf_index < padded, "merkle leaf index range"));
  Digest32 acc = leaf;
  u64 idx = proof.leaf_index;
  for (const auto& sibling : proof.siblings) {
    acc = (idx & 1) ? hash_node(sibling, acc) : hash_node(acc, sibling);
    idx >>= 1;
  }
  return assert_eq(acc, root, "merkle root");
}

Status Env::verify_merkle_multi(
    const Digest32& root, std::span<const std::pair<u64, Digest32>> leaves,
    const crypto::MerkleMultiProof& proof) {
  // Mirrors crypto::MerkleTree::verify_multi with traced hashing, so batch
  // openings are part of the proven execution.
  ZKT_TRY(assert_true(leaves.size() == proof.indices.size(),
                      "multiproof leaf count"));
  const u64 padded = std::bit_ceil(std::max<u64>(proof.leaf_count, 1));
  const u32 depth = static_cast<u32>(std::countr_zero(padded));
  ZKT_TRY(assert_true(!leaves.empty(), "multiproof must open something"));
  for (size_t i = 0; i < leaves.size(); ++i) {
    ZKT_TRY(assert_true(leaves[i].first == proof.indices[i],
                        "multiproof index alignment"));
    ZKT_TRY(assert_true(i == 0 || leaves[i].first > leaves[i - 1].first,
                        "multiproof indices ascending"));
    ZKT_TRY(assert_true(leaves[i].first < padded, "multiproof index range"));
  }

  std::vector<std::pair<u64, Digest32>> known(leaves.begin(), leaves.end());
  size_t next_sibling = 0;
  for (u32 level = 0; level < depth; ++level) {
    std::vector<std::pair<u64, Digest32>> parents;
    for (size_t i = 0; i < known.size(); ++i) {
      const u64 idx = known[i].first;
      const u64 sibling_idx = idx ^ 1;
      if (i + 1 < known.size() && known[i + 1].first == sibling_idx) {
        parents.emplace_back(idx >> 1,
                             hash_node(known[i].second, known[i + 1].second));
        ++i;
        continue;
      }
      ZKT_TRY(assert_true(next_sibling < proof.siblings.size(),
                          "multiproof sibling supply"));
      const Digest32& sibling = proof.siblings[next_sibling++];
      parents.emplace_back(idx >> 1,
                           (idx & 1) ? hash_node(sibling, known[i].second)
                                     : hash_node(known[i].second, sibling));
    }
    known = std::move(parents);
  }
  ZKT_TRY(assert_true(next_sibling == proof.siblings.size(),
                      "multiproof siblings all consumed"));
  ZKT_TRY(assert_true(known.size() == 1, "multiproof converges to root"));
  return assert_eq(known[0].second, root, "multiproof root");
}

Status Env::verify_assumption(const Digest32& image_id,
                              const Digest32& claim_digest) {
  for (const auto& receipt : assumption_receipts_) {
    if (receipt.claim.image_id == image_id &&
        receipt.claim.digest() == claim_digest) {
      record(RowAssume{image_id, claim_digest});
      assumptions_.push_back(Assumption{image_id, claim_digest});
      return {};
    }
  }
  return Error{Errc::proof_invalid,
               "no receipt supplied for required assumption"};
}

void Env::begin_region(std::string_view name) {
  end_region();
  open_region_ = std::make_pair(std::string(name), cycles());
}

void Env::end_region() {
  if (!open_region_.has_value()) return;
  const u64 spent = cycles() - open_region_->second;
  for (auto& [name, total] : regions_) {
    if (name == open_region_->first) {
      total += spent;
      open_region_.reset();
      return;
    }
  }
  regions_.emplace_back(std::move(open_region_->first), spent);
  open_region_.reset();
}

Digest32 Env::bind_input() {
  const Digest32 d = sha256(BytesView(input_.data(), input_.size()));
  record(RowBindDigest{BindTarget::input, d});
  return d;
}

Digest32 Env::bind_journal() {
  const Digest32 d = sha256(journal_.bytes());
  record(RowBindDigest{BindTarget::journal, d});
  return d;
}

namespace guest {

Status read_and_verify_merkle(Env& env, const Digest32& root) {
  auto leaf = env.read_digest();
  if (!leaf.ok()) return leaf.error();
  Bytes proof_bytes;
  {
    auto b = env.read_blob();
    if (!b.ok()) return b.error();
    proof_bytes = std::move(b.value());
  }
  Reader r(proof_bytes);
  auto proof = crypto::MerkleProof::deserialize(r);
  if (!proof.ok()) return proof.error();
  return env.verify_merkle(root, leaf.value(), proof.value());
}

}  // namespace guest

}  // namespace zkt::zvm
