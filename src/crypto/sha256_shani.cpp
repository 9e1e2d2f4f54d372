// x86 SHA-NI backend: hardware SHA-256 rounds, one 64-byte block per call.
//
// Structure follows the canonical public-domain SHA extensions flow: state
// is repacked into the ABEF/CDGH register layout _mm_sha256rnds2_epu32
// expects, the 64 rounds run as 16 four-round groups, and the message
// schedule is extended in-register with _mm_sha256msg1/msg2. This TU is
// compiled with -msha -msse4.1 -mssse3; it is only *called* when CPUID
// reports the extensions (crypto/sha256_dispatch.cpp), so the rest of the
// binary stays portable.
//
// Also serves single-block crypto::sha256_compress(), so guests' traced
// hashing runs here too. Guest determinism holds because the result is
// bit-identical to the portable compressor; only the speed differs (see
// .zkt-lint.toml guest-determinism excludes).
#include <immintrin.h>

#include "crypto/sha256_backend.h"

namespace zkt::crypto {

namespace {

alignas(16) constexpr u32 kRoundK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

void sha256_compress_many_shani(Sha256State* states,
                                const std::array<u8, 64>* blocks, size_t n) {
  // Big-endian 32-bit word swizzle for message loads.
  const __m128i kSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  for (size_t lane = 0; lane < n; ++lane) {
    const u8* block = blocks[lane].data();
    u32* h = states[lane].h.data();

    // Pack {a..h} into ABEF / CDGH.
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h));
    __m128i state1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
    state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
    __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);      // ABEF
    state1 = _mm_blend_epi16(state1, tmp, 0xF0);           // CDGH
    const __m128i abef_in = state0;
    const __m128i cdgh_in = state1;

    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
          kSwap);
    }

    // Sixteen 4-round groups. Group g consumes m[g & 3]; the schedule
    // extension (msg1 for groups 1..12, msg2+carry for groups 3..14)
    // regenerates each m slot just before its next use.
    for (int g = 0; g < 16; ++g) {
      const __m128i cur = m[g & 3];
      __m128i msg = _mm_add_epi32(
          cur,
          _mm_load_si128(reinterpret_cast<const __m128i*>(kRoundK + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (g >= 3 && g <= 14) {
        const __m128i carry = _mm_alignr_epi8(cur, m[(g + 3) & 3], 4);
        m[(g + 1) & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(m[(g + 1) & 3], carry), cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (g >= 1 && g <= 12) {
        m[(g + 3) & 3] = _mm_sha256msg1_epu32(m[(g + 3) & 3], cur);
      }
    }

    state0 = _mm_add_epi32(state0, abef_in);
    state1 = _mm_add_epi32(state1, cdgh_in);

    // Unpack ABEF / CDGH back to {a..h}.
    tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
    state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
    state0 = _mm_blend_epi16(tmp, state1, 0xF0);        // DCBA
    state1 = _mm_alignr_epi8(state1, tmp, 8);           // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i*>(h), state0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4), state1);
  }
}

}  // namespace zkt::crypto
