#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace fabricpp::crypto {

namespace {

constexpr uint32_t kK[64] = {
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

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH; each _mm_sha256rnds2_epu32 does two rounds, and msg1/msg2 compute
// the message schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  // Byte-swaps each 32-bit word: message words are big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    // w[g] holds schedule words 4g..4g+3 of the current group, rolling.
    __m128i w[4];
#pragma GCC unroll 4
    for (int g = 0; g < 4; ++g) {
      w[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at once;
        // w[g & 3] still holds group g-4 here.
        __m128i next = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(next, w[(g + 3) & 3]);
      }
      __m128i msg = _mm_add_epi32(
          w[g & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        &kK[4 * g])));
      // Two rounds into the vector that becomes the new ABEF, two more
      // back: after the pair the names hold ABEF and CDGH again.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));  // HGFE
}

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return ssse3 && sse41 && (ebx & bit_SHA) != 0;
}

#endif  // defined(__x86_64__)

struct Kernel {
  internal::CompressFn fn;
  const char* name;
};

Kernel SelectKernel() {
#if defined(__x86_64__)
  if (CpuHasShaNi()) return {&CompressShaNi, "sha-ni"};
#endif
  return {&internal::CompressPortable, "portable"};
}

// Constant-initialized to the portable kernel, so a Sha256 used by another
// translation unit's static initializer before this one runs is still
// correct; the CPUID probe below upgrades it before main().
Kernel g_kernel = {&internal::CompressPortable, "portable"};
[[maybe_unused]] const bool g_kernel_selected = [] {
  g_kernel = SelectKernel();
  return true;
}();

}  // namespace

namespace internal {

void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn ActiveCompress() { return g_kernel.fn; }

const char* ActiveKernelName() { return g_kernel.name; }

}  // namespace internal

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t size) {
  if (size == 0) return;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(size) * 8;
  const internal::CompressFn compress = g_kernel.fn;
  if (buffer_len_ > 0) {
    const size_t take = std::min(size, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    size -= take;
    if (buffer_len_ < sizeof(buffer_)) return;
    compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks go straight from the caller's buffer.
  const size_t blocks = size / 64;
  if (blocks > 0) {
    compress(state_, p, blocks);
    p += blocks * 64;
    size -= blocks * 64;
  }
  if (size > 0) {
    std::memcpy(buffer_, p, size);
    buffer_len_ = size;
  }
}

Digest Sha256::Finalize() {
  const internal::CompressFn compress = g_kernel.fn;
  // Padding: 0x80, zeros to 56 mod 64, 64-bit big-endian bit length. The
  // 0x80 byte always fits: buffer_len_ < 64 between calls.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  compress(state_, buffer_, 1);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::Hash(const void* data, size_t size) {
  Sha256 h;
  h.Update(data, size);
  return h.Finalize();
}

std::string DigestToHex(const Digest& d) {
  return HexEncode(d.data(), d.size());
}

}  // namespace fabricpp::crypto
