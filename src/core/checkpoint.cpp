#include "core/checkpoint.h"

#include <array>

// The PCLMUL fold and its runtime CPU probe are host-only. The firmware
// archive (ICGKIT_EMBEDDED, set by the icgkit_embedded target alone)
// ships the table walk as its only CRC path: no MCU has PCLMUL, and the
// probe alone links ~4.5 KiB of libgcc's CPU-feature detection.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(ICGKIT_EMBEDDED)
#define ICGKIT_CRC_CLMUL 1
#include <immintrin.h>
#endif

namespace icgkit::core {

namespace {

// Standard CRC-32 (IEEE 802.3, reflected 0xEDB88320), one table
// lookup per byte. On x86 hosts with PCLMUL every run of 64 bytes or
// more is folded by crc32_clmul below, so this walk only finishes tails
// and short sections. Elsewhere it does the whole job: a firmware
// verifies a blob rarely, and one 1 KiB table costs it 7 KiB less flash
// than slice-by-8's eight. constexpr so the table lives in .rodata
// (flash on the firmware profile) rather than eating the static-RAM
// budget as a runtime-initialised function-local static would.
constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

#if defined(ICGKIT_CRC_CLMUL)
// Carry-less-multiply CRC-32 (reflected IEEE 0xEDB88320) after the
// Intel folding method ("Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ", Gopal et al.): fold 64-byte blocks in four 128-bit
// lanes, collapse to one lane, then Barrett-reduce to 32 bits. The
// k-constants are x^(bits) mod P precomputed for the reflected IEEE
// polynomial — the same public values every PCLMUL CRC-32 uses.
// Requires len >= 64 and len % 16 == 0; `crc` is the running
// accumulator (pre-inversion domain), and the return value is too, so
// it chains with the table path for the tail bytes. Table-CRC parity
// is pinned by the golden checkpoint fixtures and a randomized
// cross-check in checkpoint_test.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    const std::uint8_t* data, std::size_t n, std::uint32_t crc) {
  alignas(16) static const std::uint64_t k1k2[2] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const std::uint64_t k3k4[2] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const std::uint64_t k5[2] = {0x0163cd6124, 0};
  alignas(16) static const std::uint64_t poly[2] = {0x01db710641, 0x01f7011641};

  const auto* p = reinterpret_cast<const __m128i*>(data);
  __m128i x1 = _mm_loadu_si128(p + 0);
  __m128i x2 = _mm_loadu_si128(p + 1);
  __m128i x3 = _mm_loadu_si128(p + 2);
  __m128i x4 = _mm_loadu_si128(p + 3);
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  p += 4;
  n -= 64;

  while (n >= 64) {
    const __m128i h1 = _mm_clmulepi64_si128(x1, k, 0x00);
    const __m128i h2 = _mm_clmulepi64_si128(x2, k, 0x00);
    const __m128i h3 = _mm_clmulepi64_si128(x3, k, 0x00);
    const __m128i h4 = _mm_clmulepi64_si128(x4, k, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, h1), _mm_loadu_si128(p + 0));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, h2), _mm_loadu_si128(p + 1));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, h3), _mm_loadu_si128(p + 2));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, h4), _mm_loadu_si128(p + 3));
    p += 4;
    n -= 64;
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  for (const __m128i* lane : {&x2, &x3, &x4}) {
    const __m128i h = _mm_clmulepi64_si128(x1, k, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, h), *lane);
  }
  while (n >= 16) {
    const __m128i h = _mm_clmulepi64_si128(x1, k, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, h), _mm_loadu_si128(p));
    ++p;
    n -= 16;
  }

  // 128 -> 64 bits, then Barrett reduction to the final 32-bit value.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i h = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), h);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5));
  h = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x00), h);
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  h = _mm_and_si128(x1, mask32);
  h = _mm_clmulepi64_si128(h, k, 0x10);
  h = _mm_and_si128(h, mask32);
  h = _mm_clmulepi64_si128(h, k, 0x00);
  x1 = _mm_xor_si128(x1, h);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool cpu_has_clmul() {
  static const bool ok =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return ok;
}
#endif  // ICGKIT_CRC_CLMUL

} // namespace

std::uint32_t checkpoint_crc32(const std::uint8_t* data, std::size_t n) {
  static constexpr auto t = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
#if defined(ICGKIT_CRC_CLMUL)
  // The folded kernel needs a 16-byte-multiple length of at least 64;
  // the table walk below finishes the tail.
  if (const std::size_t folded = n & ~std::size_t{15};
      folded >= 64 && cpu_has_clmul()) {
    crc = crc32_clmul(data, folded, crc);
    data += folded;
    n -= folded;
  }
#endif
  for (std::size_t i = 0; i < n; ++i)
    crc = t[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void StateReader::fail(std::string_view msg) {
  if (!ok_) return;
  ok_ = false;
  error_ = msg;
}

} // namespace icgkit::core
