// Runtime backend selection and the generic batched-hashing drivers.
//
// Build-time: sha256_shani.cpp / sha256_avx2.cpp are compiled (with their
// ISA flags) only when the toolchain supports them, and define
// ZKT_HAVE_SHA256_SHANI / ZKT_HAVE_SHA256_AVX2 for this TU. Runtime: CPUID
// gates which compiled backends may actually execute, so a portable binary
// carrying SIMD code still runs correctly on CPUs without it.
#include "crypto/sha256_backend.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define ZKT_SHA256_X86 1
#if defined(__GNUC__) || defined(__clang__)
#include <cpuid.h>
#endif
#endif

namespace zkt::crypto {

void sha256_compress_many_scalar(Sha256State* states,
                                 const std::array<u8, 64>* blocks, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    states[i] = sha256_compress_scalar(states[i], blocks[i]);
  }
}

#if defined(ZKT_HAVE_SHA256_SHANI)
void sha256_compress_many_shani(Sha256State* states,
                                const std::array<u8, 64>* blocks, size_t n);
#endif
#if defined(ZKT_HAVE_SHA256_AVX2)
void sha256_compress_many_avx2(Sha256State* states,
                               const std::array<u8, 64>* blocks, size_t n);
#endif

namespace {

struct CpuSupport {
  bool shani = false;
  bool avx2 = false;
};

#if defined(ZKT_SHA256_X86) && (defined(__GNUC__) || defined(__clang__))
CpuSupport detect_cpu() {
  CpuSupport support;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0, nullptr) < 7) return support;
  __cpuid_count(1, 0, eax, ebx, ecx, edx);
  const bool ssse3 = (ecx >> 9) & 1u;
  const bool sse41 = (ecx >> 19) & 1u;
  const bool osxsave = (ecx >> 27) & 1u;
  bool ymm_enabled = false;
  if (osxsave) {
    // XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled for ymm use.
    // Inline asm instead of _xgetbv: the intrinsic needs -mxsave, and this
    // TU must compile with portable flags.
    unsigned xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    ymm_enabled = (xcr0_lo & 0x6u) == 0x6u;
  }
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  const bool sha_ext = (ebx >> 29) & 1u;
  const bool avx2_ext = (ebx >> 5) & 1u;
  support.shani = sha_ext && ssse3 && sse41;
  support.avx2 = avx2_ext && ymm_enabled;
  return support;
}
#else
CpuSupport detect_cpu() { return {}; }
#endif

const CpuSupport& cpu_support() {
  static const CpuSupport support = detect_cpu();
  return support;
}

Sha256Backend automatic_backend() {
  // SHA-NI beats the 8-way AVX2 interleave per block on every CPU shipping
  // both, so prefer it even for wide batches.
  if (sha256_backend_available(Sha256Backend::shani)) {
    return Sha256Backend::shani;
  }
  if (sha256_backend_available(Sha256Backend::avx2)) {
    return Sha256Backend::avx2;
  }
  return Sha256Backend::scalar;
}

/// The process default: the ZKT_SHA256_BACKEND pin when it names an
/// available backend, else automatic_backend().
Sha256Backend default_backend() {
  static const Sha256Backend initial = [] {
    if (const char* env = std::getenv("ZKT_SHA256_BACKEND")) {
      if (auto parsed = sha256_backend_from_name(env);
          parsed.has_value() && sha256_backend_available(*parsed)) {
        return *parsed;
      }
    }
    return automatic_backend();
  }();
  return initial;
}

/// The resolved active backend. Kept resolved rather than recomputed per
/// call, because single-block sha256_compress() reads it on every block.
std::atomic<u8>& selected_backend() {
  static std::atomic<u8> selected{static_cast<u8>(default_backend())};
  return selected;
}

struct BackendCounters {
  std::atomic<u64> blocks{0};
  std::atomic<u64> batches{0};
};

BackendCounters& counters(Sha256Backend backend) {
  static BackendCounters all[kSha256BackendCount];
  return all[static_cast<size_t>(backend)];
}

/// Fill `block` with 64-byte block `index` of the FIPS 180-4 padded message
/// (tag ? tag || msg : msg), without materializing the padded message. Lane
/// drivers call this per active block step.
void padded_block_at(std::optional<u8> tag, BytesView msg, u64 index,
                     std::array<u8, 64>& block) {
  const u64 tag_len = tag.has_value() ? 1 : 0;
  const u64 msg_len = tag_len + msg.size();
  const u64 total_blocks = sha256_compression_count(msg_len);
  const u64 begin = index * 64;

  block.fill(0);
  // Message bytes overlapping [begin, begin + 64).
  if (begin < msg_len) {
    u64 pos = begin;
    u64 out = 0;
    if (tag.has_value() && pos == 0) {
      block[out++] = *tag;
      ++pos;
    }
    if (pos < msg_len) {
      const u64 take = std::min<u64>(64 - out, msg_len - pos);
      std::memcpy(block.data() + out, msg.data() + (pos - tag_len), take);
      out += take;
    }
    if (out < 64) block[out] = 0x80;  // padding starts in this block
  } else if (begin == msg_len) {
    block[0] = 0x80;  // message ended exactly on a block boundary
  }
  if (index + 1 == total_blocks) {
    const u64 bit_len = msg_len * 8;
    for (int i = 0; i < 8; ++i) {
      block[56 + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
    }
  }
}

}  // namespace

const char* sha256_backend_name(Sha256Backend backend) {
  switch (backend) {
    case Sha256Backend::scalar:
      return "scalar";
    case Sha256Backend::shani:
      return "shani";
    case Sha256Backend::avx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<Sha256Backend> sha256_backend_from_name(std::string_view name) {
  if (name == "scalar") return Sha256Backend::scalar;
  if (name == "shani") return Sha256Backend::shani;
  if (name == "avx2") return Sha256Backend::avx2;
  return std::nullopt;
}

bool sha256_backend_compiled(Sha256Backend backend) {
  switch (backend) {
    case Sha256Backend::scalar:
      return true;
    case Sha256Backend::shani:
#if defined(ZKT_HAVE_SHA256_SHANI)
      return true;
#else
      return false;
#endif
    case Sha256Backend::avx2:
#if defined(ZKT_HAVE_SHA256_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool sha256_backend_available(Sha256Backend backend) {
  if (!sha256_backend_compiled(backend)) return false;
  switch (backend) {
    case Sha256Backend::scalar:
      return true;
    case Sha256Backend::shani:
      return cpu_support().shani;
    case Sha256Backend::avx2:
      return cpu_support().avx2;
  }
  return false;
}

Sha256Backend sha256_active_backend() {
  return static_cast<Sha256Backend>(
      selected_backend().load(std::memory_order_relaxed));
}

bool sha256_force_backend(std::optional<Sha256Backend> backend) {
  if (backend.has_value() && !sha256_backend_available(*backend)) {
    return false;
  }
  selected_backend().store(
      static_cast<u8>(backend.value_or(default_backend())),
      std::memory_order_relaxed);
  return true;
}

Sha256Backend sha256_single_block_backend() {
  return sha256_active_backend() == Sha256Backend::shani
             ? Sha256Backend::shani
             : Sha256Backend::scalar;
}

Sha256BackendStats sha256_backend_stats(Sha256Backend backend) {
  const BackendCounters& c = counters(backend);
  return Sha256BackendStats{c.blocks.load(std::memory_order_relaxed),
                            c.batches.load(std::memory_order_relaxed)};
}

Sha256State sha256_compress(const Sha256State& state,
                            const std::array<u8, 64>& block) {
#if defined(ZKT_HAVE_SHA256_SHANI)
  if (sha256_single_block_backend() == Sha256Backend::shani) {
    Sha256State out = state;
    sha256_compress_many_shani(&out, &block, 1);
    return out;
  }
#endif
  return sha256_compress_scalar(state, block);
}

void sha256_compress_many(std::span<Sha256State> states,
                          std::span<const std::array<u8, 64>> blocks) {
  const size_t n = std::min(states.size(), blocks.size());
  if (n == 0) return;
  const Sha256Backend backend = sha256_active_backend();
  switch (backend) {
#if defined(ZKT_HAVE_SHA256_SHANI)
    case Sha256Backend::shani:
      sha256_compress_many_shani(states.data(), blocks.data(), n);
      break;
#endif
#if defined(ZKT_HAVE_SHA256_AVX2)
    case Sha256Backend::avx2:
      sha256_compress_many_avx2(states.data(), blocks.data(), n);
      break;
#endif
    default:
      sha256_compress_many_scalar(states.data(), blocks.data(), n);
      break;
  }
  BackendCounters& c = counters(backend);
  c.blocks.fetch_add(n, std::memory_order_relaxed);
  c.batches.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Digest32> sha256_many(std::span<const BytesView> msgs,
                                  std::optional<u8> tag) {
  const size_t n = msgs.size();
  std::vector<Digest32> out(n);
  if (n == 0) return out;

  const u64 tag_len = tag.has_value() ? 1 : 0;
  std::vector<Sha256State> states(n, Sha256State::initial());
  std::vector<u64> total_blocks(n);
  u64 max_blocks = 0;
  for (size_t i = 0; i < n; ++i) {
    total_blocks[i] = sha256_compression_count(tag_len + msgs[i].size());
    max_blocks = std::max(max_blocks, total_blocks[i]);
  }

  // Step block-by-block: at step j, every lane that still has a block j
  // compresses in one batch. Lanes chain their own state across steps; the
  // batch at each step is over *independent* lanes, which is exactly the
  // shape the SIMD backends want.
  std::vector<Sha256State> active_states;
  std::vector<std::array<u8, 64>> active_blocks;
  std::vector<size_t> active_lanes;
  active_states.reserve(n);
  active_blocks.reserve(n);
  active_lanes.reserve(n);
  for (u64 j = 0; j < max_blocks; ++j) {
    active_states.clear();
    active_blocks.clear();
    active_lanes.clear();
    for (size_t i = 0; i < n; ++i) {
      if (j >= total_blocks[i]) continue;
      active_lanes.push_back(i);
      active_states.push_back(states[i]);
      active_blocks.emplace_back();
      padded_block_at(tag, msgs[i], j, active_blocks.back());
    }
    sha256_compress_many(active_states, active_blocks);
    for (size_t k = 0; k < active_lanes.size(); ++k) {
      states[active_lanes[k]] = active_states[k];
    }
  }
  for (size_t i = 0; i < n; ++i) out[i] = states[i].to_digest();
  return out;
}

}  // namespace zkt::crypto
