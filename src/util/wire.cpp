#include "vbatt/util/wire.h"

#include <array>
#include <limits>

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

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
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
