// Portable binary (de)serialization for durable state.
//
// The event log and fleet snapshots must be byte-stable across runs and
// platforms: a recovered service proves itself by re-serializing to the
// exact bytes an uninterrupted run produces. Everything is therefore
// written little-endian with fixed widths — no struct dumps. Doubles
// travel as their IEEE-754 bit patterns, so values round-trip bit-exactly.
//
// The codec moves a machine word at a time: on a little-endian host a
// scalar is one memcpy and a double/int64 array is one bulk copy, which
// is byte-identical to the explicit per-byte encoding because the host
// order *is* the wire order. The byte-order choice is a compile-time
// branch inside store_le/load_le; a big-endian host takes the per-byte
// path and writes the same bytes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace vbatt::util::wire {

inline constexpr bool kHostIsWireOrder =
    std::endian::native == std::endian::little;

/// Write the unsigned integer `v` as sizeof(U) little-endian bytes at `dst`.
template <typename U>
void store_le(char* dst, U v) noexcept {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (kHostIsWireOrder) {
    std::memcpy(dst, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      dst[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
    }
  }
}

/// Read sizeof(U) little-endian bytes at `src` as an unsigned integer.
template <typename U>
U load_le(const char* src) noexcept {
  static_assert(std::is_unsigned_v<U>);
  U v = 0;
  if constexpr (kHostIsWireOrder) {
    std::memcpy(&v, src, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<unsigned char>(src[i])) << (8 * i);
    }
  }
  return v;
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `size` bytes,
/// chained from a previous `seed`. check("123456789") == 0xCBF43926.
/// On an x86-64 CPU with PCLMULQDQ (one cached CPUID check), inputs of
/// 64 B and more fold 64 bytes per step by carry-less multiplication and
/// hand the tail under 16 B to slicing-by-8; every other input and host
/// takes slicing-by-8 (eight bytes per step through compile-time tables)
/// throughout. Both paths return the same value for every input.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

namespace detail {
/// The slicing-by-8 path alone, on every host (so tests can hold both
/// paths to the bitwise definition).
std::uint32_t crc32_portable(const void* data, std::size_t size,
                             std::uint32_t seed = 0) noexcept;
}  // namespace detail

/// Thrown when a framed payload does not fit the u32 length field of the
/// event-log and snapshot frames.
class FrameTooLarge : public std::runtime_error {
 public:
  explicit FrameTooLarge(std::size_t size);
};

/// `size` as a frame's u32 length field; throws FrameTooLarge when it
/// would wrap (a >4 GiB payload must never get a valid-looking frame).
std::uint32_t frame_length(std::size_t size);

/// Append-only byte sink. All integers little-endian, fixed width.
class Writer {
 public:
  /// Reserve room for `n` bytes in total, so writes up to that size never
  /// regrow (and copy) the buffer.
  void reserve(std::size_t n) { out_.reserve(n); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw_le(v); }
  void u64(std::uint64_t v) { raw_le(v); }
  void i64(std::int64_t v) { raw_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { raw_le(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }

  void vec_f64(const std::vector<double>& v) { words(v); }
  void vec_i64(const std::vector<std::int64_t>& v) { words(v); }
  /// Index lists (site ids): each std::size_t as a u64.
  void vec_u64(const std::vector<std::size_t>& v) { words(v); }
  void vec_int(const std::vector<int>& v) {
    u64(v.size());
    for (const int x : v) i64(x);
  }
  void vec_u8(const std::vector<char>& v) {
    u64(v.size());
    out_.append(v.data(), v.size());
  }

  /// Overwrite 4 already-written bytes at `offset` (frame headers whose
  /// length and CRC are known only after the body is written).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    store_le(out_.data() + offset, v);
  }

  std::size_t size() const noexcept { return out_.size(); }
  const std::string& data() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  template <typename U>
  void raw_le(U v) {
    char buf[sizeof(U)];
    store_le(buf, v);
    out_.append(buf, sizeof buf);
  }
  // Length, then every element's 8-byte bit pattern.
  template <typename T>
  void words(const std::vector<T>& v) {
    static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
    u64(v.size());
    if constexpr (kHostIsWireOrder) {
      out_.append(reinterpret_cast<const char*>(v.data()), v.size() * 8);
    } else {
      for (const T& x : v) raw_le(std::bit_cast<std::uint64_t>(x));
    }
  }
  std::string out_;
};

/// Bounds-checked reader over a byte span. Throws std::runtime_error on
/// truncation — durable-state consumers turn that into a recovery decision
/// (drop the torn tail), never into UB.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_{data} {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return raw_le<std::uint32_t>(); }
  std::uint64_t u64() { return raw_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = checked_count(u64(), 1);
    return std::string{take(n)};
  }

  std::vector<double> vec_f64() { return words<double>(); }
  std::vector<std::int64_t> vec_i64() { return words<std::int64_t>(); }
  std::vector<std::size_t> vec_u64() { return words<std::size_t>(); }
  std::vector<int> vec_int() {
    const std::uint64_t n = checked_count(u64(), 8);
    std::vector<int> v(n);
    for (int& x : v) x = static_cast<int>(i64());
    return v;
  }
  std::vector<char> vec_u8() {
    const std::uint64_t n = checked_count(u64(), 1);
    const std::string_view s = take(n);
    return std::vector<char>{s.begin(), s.end()};
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }
  std::size_t position() const noexcept { return pos_; }

 private:
  std::string_view take(std::size_t n) {
    if (remaining() < n) {
      throw std::runtime_error{"wire::Reader: truncated input"};
    }
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  template <typename U>
  U raw_le() {
    return load_le<U>(take(sizeof(U)).data());
  }
  // A count of `n` elements of `width` bytes each must fit the remaining
  // input; checked by division so a hostile count cannot overflow n*width,
  // and before any allocation sized by it.
  std::uint64_t checked_count(std::uint64_t n, std::size_t width) {
    if (n > remaining() / width) {
      throw std::runtime_error{"wire::Reader: count exceeds input"};
    }
    return n;
  }
  template <typename T>
  std::vector<T> words() {
    static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
    const std::uint64_t n = checked_count(u64(), 8);
    std::vector<T> v(n);
    const std::string_view s = take(n * 8);
    if constexpr (kHostIsWireOrder) {
      if (n != 0) std::memcpy(v.data(), s.data(), n * 8);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = std::bit_cast<T>(load_le<std::uint64_t>(s.data() + 8 * i));
      }
    }
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace vbatt::util::wire
