#include "vbatt/util/wire.h"

#include <array>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VBATT_WIRE_CLMUL 1
#include <immintrin.h>
#else
#define VBATT_WIRE_CLMUL 0
#endif

namespace vbatt::util::wire {

namespace {

// kCrcTables[0] is the classic bytewise table for the reflected
// polynomial; kCrcTables[k][i] is the CRC of byte i followed by k zero
// bytes, which lets one step fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

#if VBATT_WIRE_CLMUL

#define VBATT_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

VBATT_CLMUL_TARGET inline __m128i load128(const char* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Fold `x` forward onto `next` by the distance whose x^n mod P constants
// `k` holds: (lo(x) * k_lo) ^ (hi(x) * k_hi) ^ next, carry-less.
VBATT_CLMUL_TARGET inline __m128i fold128(__m128i x, __m128i k,
                                          __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// bit-reflected constants for 0xEDB88320 that zlib's crc32_simd uses.
// `size` must be at least 64 and a multiple of 16; `state` is the inverted
// running CRC (seed ^ ~0) and so is the result.
VBATT_CLMUL_TARGET std::uint32_t crc32_clmul(const char* p, std::size_t size,
                                             std::uint32_t state) noexcept {
  alignas(16) static constexpr std::uint64_t k1k2[] = {0x0154442bd4,
                                                       0x01c6e41596};
  alignas(16) static constexpr std::uint64_t k3k4[] = {0x01751997d0,
                                                       0x00ccaa009e};
  alignas(16) static constexpr std::uint64_t k5k0[] = {0x0163cd6124, 0};
  alignas(16) static constexpr std::uint64_t barrett[] = {0x01db710641,
                                                          0x01f7011641};

  // Four lanes of 128 bits, each folded 512 bits ahead per 64-byte block.
  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  size -= 64;
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  for (; size >= 64; p += 64, size -= 64) {
    x1 = fold128(x1, k, load128(p));
    x2 = fold128(x2, k, load128(p + 16));
    x3 = fold128(x3, k, load128(p + 32));
    x4 = fold128(x4, k, load128(p + 48));
  }

  // The four lanes into one, then the remaining 16-byte blocks.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  x1 = fold128(x1, k, x2);
  x1 = fold128(x1, k, x3);
  x1 = fold128(x1, k, x4);
  for (; size >= 16; p += 16, size -= 16) {
    x1 = fold128(x1, k, load128(p));
  }

  // 128 bits to 64, then 64 to 32 (Barrett reduction).
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x00),
                     _mm_srli_si128(x1, 4));
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(barrett));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

// One CPUID probe per process, on the first CRC.
bool have_clmul() noexcept {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return have;
}

#undef VBATT_CLMUL_TARGET
#endif  // VBATT_WIRE_CLMUL

}  // namespace

namespace detail {

std::uint32_t crc32_portable(const void* data, std::size_t size,
                             std::uint32_t seed) noexcept {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = load_le<std::uint32_t>(p) ^ c;
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size != 0; ++p, --size) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
#if VBATT_WIRE_CLMUL
  if (size >= 64 && have_clmul()) {
    // The kernel takes every whole 16-byte block; the tail chains on.
    const auto* p = static_cast<const char*>(data);
    const std::size_t folded = size & ~std::size_t{15};
    const std::uint32_t head = ~crc32_clmul(p, folded, ~seed);
    return detail::crc32_portable(p + folded, size - folded, head);
  }
#endif
  return detail::crc32_portable(data, size, seed);
}

FrameTooLarge::FrameTooLarge(std::size_t size)
    : std::runtime_error{"wire: payload of " + std::to_string(size) +
                        " bytes exceeds the u32 frame length limit"} {}

std::uint32_t frame_length(std::size_t size) {
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw FrameTooLarge{size};
  }
  return static_cast<std::uint32_t>(size);
}

}  // namespace vbatt::util::wire
