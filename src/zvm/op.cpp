#include "zvm/op.h"

#include <cstring>

#include "crypto/merkle.h"

namespace zkt::zvm {

u64 alu_eval(AluOp op, u64 a, u64 b) {
  switch (op) {
    case AluOp::add: return a + b;
    case AluOp::sub: return a - b;
    case AluOp::mul: return a * b;
    case AluOp::divu: return b == 0 ? 0 : a / b;
    case AluOp::remu: return b == 0 ? a : a % b;
    case AluOp::and_: return a & b;
    case AluOp::or_: return a | b;
    case AluOp::xor_: return a ^ b;
    case AluOp::shl: return a << (b & 63);
    case AluOp::shr: return a >> (b & 63);
    case AluOp::eq: return a == b ? 1 : 0;
    case AluOp::ltu: return a < b ? 1 : 0;
  }
  return 0;
}

OpKind TraceRow::kind() const {
  return static_cast<OpKind>(op.index() + 1);
}

namespace {

u8* put_kind(u8* p, OpKind kind) {
  *p = static_cast<u8>(kind);
  return p + 1;
}

u8* put_u64(u8* p, u64 v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<u8>(v >> (8 * i));
  return p + 8;
}

u8* put_state(u8* p, const crypto::Sha256State& s) {
  for (u32 word : s.h) {
    for (int i = 0; i < 4; ++i) *p++ = static_cast<u8>(word >> (8 * i));
  }
  return p;
}

u8* put_digest(u8* p, const Digest32& d) {
  std::memcpy(p, d.bytes.data(), 32);
  return p + 32;
}

Result<crypto::Sha256State> read_state(Reader& r) {
  crypto::Sha256State s;
  for (auto& word : s.h) {
    auto v = r.u32v();
    if (!v.ok()) return v.error();
    word = v.value();
  }
  return s;
}

}  // namespace

void RowSha256::encode(u8* out) const {
  u8* p = put_state(put_kind(out, OpKind::sha256_compress), state_in);
  std::memcpy(p, block.data(), block.size());
  put_state(p + block.size(), state_out);
}

void RowAlu::encode(u8* out) const {
  u8* p = put_kind(out, OpKind::alu);
  *p++ = static_cast<u8>(op);
  put_u64(put_u64(put_u64(p, a), b), c);
}

void RowAssert::encode(u8* out) const {
  put_digest(put_u64(put_kind(out, OpKind::assert_true), cond), context);
}

void RowAssertEqDigest::encode(u8* out) const {
  put_digest(put_digest(put_kind(out, OpKind::assert_eq_digest), a), b);
}

void RowBindDigest::encode(u8* out) const {
  u8* p = put_kind(out, OpKind::bind_digest);
  *p++ = static_cast<u8>(target);
  put_digest(p, computed);
}

void RowAssume::encode(u8* out) const {
  put_digest(put_digest(put_kind(out, OpKind::assume), image_id),
             claim_digest);
}

void TraceRow::serialize(Writer& w) const {
  std::visit(
      [&w](const auto& row) {
        std::array<u8, std::decay_t<decltype(row)>::kBytes> bytes;
        row.encode(bytes.data());
        w.fixed(bytes);
      },
      op);
}

Result<TraceRow> TraceRow::deserialize(Reader& r) {
  auto kind_byte = r.u8v();
  if (!kind_byte.ok()) return kind_byte.error();
  TraceRow row;
  switch (static_cast<OpKind>(kind_byte.value())) {
    case OpKind::sha256_compress: {
      RowSha256 x;
      auto sin = read_state(r);
      if (!sin.ok()) return sin.error();
      x.state_in = sin.value();
      ZKT_TRY(r.fixed(x.block));
      auto sout = read_state(r);
      if (!sout.ok()) return sout.error();
      x.state_out = sout.value();
      row.op = x;
      return row;
    }
    case OpKind::alu: {
      RowAlu x;
      auto opb = r.u8v();
      if (!opb.ok()) return opb.error();
      x.op = static_cast<AluOp>(opb.value());
      if (opb.value() < 1 || opb.value() > static_cast<u8>(AluOp::ltu)) {
        return Error{Errc::parse_error, "bad alu op"};
      }
      auto a = r.u64v(), b = r.u64v(), c = r.u64v();
      if (!a.ok()) return a.error();
      if (!b.ok()) return b.error();
      if (!c.ok()) return c.error();
      x.a = a.value();
      x.b = b.value();
      x.c = c.value();
      row.op = x;
      return row;
    }
    case OpKind::assert_true: {
      RowAssert x;
      auto cond = r.u64v();
      if (!cond.ok()) return cond.error();
      x.cond = cond.value();
      ZKT_TRY(r.fixed(x.context.bytes));
      row.op = x;
      return row;
    }
    case OpKind::assert_eq_digest: {
      RowAssertEqDigest x;
      ZKT_TRY(r.fixed(x.a.bytes));
      ZKT_TRY(r.fixed(x.b.bytes));
      row.op = x;
      return row;
    }
    case OpKind::bind_digest: {
      RowBindDigest x;
      auto t = r.u8v();
      if (!t.ok()) return t.error();
      if (t.value() != 1 && t.value() != 2) {
        return Error{Errc::parse_error, "bad bind target"};
      }
      x.target = static_cast<BindTarget>(t.value());
      ZKT_TRY(r.fixed(x.computed.bytes));
      row.op = x;
      return row;
    }
    case OpKind::assume: {
      RowAssume x;
      ZKT_TRY(r.fixed(x.image_id.bytes));
      ZKT_TRY(r.fixed(x.claim_digest.bytes));
      row.op = x;
      return row;
    }
  }
  return Error{Errc::parse_error, "unknown trace row kind"};
}

Digest32 TraceRow::leaf_digest() const {
  Writer w;
  serialize(w);
  return crypto::MerkleTree::hash_leaf(w.bytes());
}

Status TraceRow::check() const {
  return std::visit(
      [](const auto& row) -> Status {
        using T = std::decay_t<decltype(row)>;
        if constexpr (std::is_same_v<T, RowSha256>) {
          if (crypto::sha256_compress(row.state_in, row.block) !=
              row.state_out) {
            return Error{Errc::proof_invalid, "sha256 row mismatch"};
          }
        } else if constexpr (std::is_same_v<T, RowAlu>) {
          if (alu_eval(row.op, row.a, row.b) != row.c) {
            return Error{Errc::proof_invalid, "alu row mismatch"};
          }
        } else if constexpr (std::is_same_v<T, RowAssert>) {
          if (row.cond == 0) {
            return Error{Errc::proof_invalid, "asserted condition is false"};
          }
        } else if constexpr (std::is_same_v<T, RowAssertEqDigest>) {
          if (row.a != row.b) {
            return Error{Errc::proof_invalid, "digest equality assert failed"};
          }
        }
        // bind_digest / assume rows carry claims checked by the verifier
        // against the receipt claim; internally they are always consistent.
        return Status::Ok();
      },
      op);
}

}  // namespace zkt::zvm
