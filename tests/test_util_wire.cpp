// util::wire: the word-at-a-time codec must write exactly the bytes of an
// explicit per-byte little-endian encoder, the slicing CRC must equal the
// bitwise CRC-32 definition, and the Reader must reject counts that do
// not fit the remaining input before it allocates anything.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "vbatt/util/wire.h"

namespace vbatt::util::wire {
namespace {

// --- test-local references -------------------------------------------------

std::uint32_t bitwise_crc32(const char* p, std::size_t n,
                            std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= static_cast<unsigned char>(p[i]);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

// One push_back per byte, least significant first.
struct RefWriter {
  std::string out;
  void le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    le(bits, 8);
  }
};

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Doubles whose bit patterns a value-based encoder could disturb.
std::vector<double> awkward_doubles() {
  return {0.0,
          -0.0,
          1.0,
          -1.5,
          3.141592653589793,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          from_bits(0x000FFFFFFFFFFFFFull),  // largest denormal
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          from_bits(0x7FF8000000000000ull),  // canonical quiet NaN
          from_bits(0x7FF0000000000001ull),  // signalling NaN payload
          from_bits(0xFFF8DEADBEEF1234ull),  // negative NaN with payload
          from_bits(0x0123456789ABCDEFull)};
}

std::string pattern(std::size_t n) {
  std::string s(n, '\0');
  std::uint32_t x = 0x9E3779B9u;
  for (char& c : s) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  return s;
}

// --- CRC-32 ----------------------------------------------------------------

TEST(WireCrc, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(WireCrc, SlicingMatchesBitwiseAtEveryLengthAndOffset) {
  const std::string data = pattern(1024 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const char* p = data.data() + offset;
      ASSERT_EQ(crc32(p, len), bitwise_crc32(p, len))
          << "offset " << offset << " len " << len;
      const std::uint32_t seed = 0xA5A5F00Du ^ static_cast<std::uint32_t>(len);
      ASSERT_EQ(crc32(p, len, seed), bitwise_crc32(p, len, seed))
          << "seeded, offset " << offset << " len " << len;
    }
  }
}

TEST(WireCrc, ChainingEqualsOneShot) {
  const std::string data = pattern(777);
  for (std::size_t split : {0u, 1u, 7u, 8u, 9u, 400u, 777u}) {
    const std::uint32_t head = crc32(data.data(), split);
    EXPECT_EQ(crc32(data.data() + split, data.size() - split, head),
              crc32(data.data(), data.size()))
        << "split " << split;
  }
}

// --- Writer bytes ----------------------------------------------------------

TEST(WireWriter, ScalarsMatchPerByteReference) {
  Writer w;
  RefWriter ref;
  for (std::uint8_t v : {0, 1, 0x7F, 0x80, 0xFF}) {
    w.u8(v);
    ref.le(v, 1);
  }
  for (std::uint32_t v : {0u, 1u, 0x01020304u, 0x80000000u, 0xFFFFFFFFu}) {
    w.u32(v);
    ref.le(v, 4);
  }
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{0x0102030405060708},
                          std::numeric_limits<std::uint64_t>::max()}) {
    w.u64(v);
    ref.le(v, 8);
  }
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    w.i64(v);
    ref.le(static_cast<std::uint64_t>(v), 8);
  }
  for (double v : awkward_doubles()) {
    w.f64(v);
    ref.f64(v);
  }
  EXPECT_EQ(w.data(), ref.out);
  EXPECT_EQ(w.size(), ref.out.size());
}

TEST(WireWriter, ContainersMatchPerByteReference) {
  const std::string text = std::string{"wire\0codec", 10};
  const std::vector<double> f = awkward_doubles();
  const std::vector<std::int64_t> i64s = {
      0, -1, 7, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  const std::vector<int> ints = {0, -1, 2, std::numeric_limits<int>::min(),
                                 std::numeric_limits<int>::max()};
  const std::vector<char> raw = {'\0', '\x7f', '\x80', '\xff'};

  Writer w;
  w.str(text);
  w.str("");
  w.vec_f64(f);
  w.vec_f64({});
  w.vec_i64(i64s);
  w.vec_int(ints);
  w.vec_u8(raw);

  RefWriter ref;
  ref.le(text.size(), 8);
  ref.out += text;
  ref.le(0, 8);
  ref.le(f.size(), 8);
  for (double v : f) ref.f64(v);
  ref.le(0, 8);
  ref.le(i64s.size(), 8);
  for (std::int64_t v : i64s) ref.le(static_cast<std::uint64_t>(v), 8);
  ref.le(ints.size(), 8);
  for (int v : ints) {
    ref.le(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)), 8);
  }
  ref.le(raw.size(), 8);
  ref.out.append(raw.data(), raw.size());

  EXPECT_EQ(w.data(), ref.out);
}

TEST(WireWriter, PatchOverwritesInPlace) {
  Writer w;
  w.u64(0);
  w.u8(9);
  w.patch_u32(0, 0xDEADBEEFu);
  w.patch_u32(4, 0x01020304u);
  RefWriter ref;
  ref.le(0xDEADBEEFu, 4);
  ref.le(0x01020304u, 4);
  ref.le(9, 1);
  EXPECT_EQ(w.data(), ref.out);
}

// --- Reader round trips ----------------------------------------------------

TEST(WireReader, RoundTripsEveryType) {
  const std::vector<double> f = awkward_doubles();
  const std::vector<std::int64_t> i64s = {
      -5, 0, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  const std::vector<int> ints = {-3, 0, std::numeric_limits<int>::min(),
                                 std::numeric_limits<int>::max()};
  const std::vector<char> raw = {'a', '\0', '\xff'};

  Writer w;
  w.u8(0xAB);
  w.u32(0xCAFEF00Du);
  w.u64(0x0102030405060708ull);
  w.i64(-1234567890123);
  for (double v : f) w.f64(v);
  w.str("hello");
  w.vec_f64(f);
  w.vec_i64(i64s);
  w.vec_int(ints);
  w.vec_u8(raw);
  w.vec_f64({});

  Reader r{w.data()};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xCAFEF00Du);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.i64(), -1234567890123);
  for (double v : f) EXPECT_EQ(to_bits(r.f64()), to_bits(v));
  EXPECT_EQ(r.str(), "hello");
  const std::vector<double> f_back = r.vec_f64();
  ASSERT_EQ(f_back.size(), f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(to_bits(f_back[i]), to_bits(f[i])) << i;
  }
  EXPECT_EQ(r.vec_i64(), i64s);
  EXPECT_EQ(r.vec_int(), ints);
  EXPECT_EQ(r.vec_u8(), raw);
  EXPECT_TRUE(r.vec_f64().empty());
  EXPECT_TRUE(r.done());
}

TEST(WireReader, TruncatedScalarThrows) {
  Writer w;
  w.u32(7);
  Reader r{std::string_view{w.data()}.substr(0, 3)};
  EXPECT_THROW(r.u32(), std::runtime_error);
}

// The error a Reader call throws, or "" when it returns.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// A vec_f64 count of n needs 8n bytes. A count just above remaining/8 is
// still far below `remaining`, so a check against the byte count alone
// would pass it and fail later on truncation; the exact check must reject
// the count itself, before anything is allocated.
TEST(WireReader, WordCountJustAboveRemainingIsRejected) {
  const std::string kCount = "wire::Reader: count exceeds input";
  for (std::size_t payload : {0u, 8u, 24u, 80u, 81u, 87u}) {
    Writer w;
    w.u64(payload / 8 + 1);
    w.bytes(std::string(payload, '\0').data(), payload);
    EXPECT_EQ(error_of([&] { Reader{w.data()}.vec_f64(); }), kCount)
        << payload;
    EXPECT_EQ(error_of([&] { Reader{w.data()}.vec_i64(); }), kCount)
        << payload;
    EXPECT_EQ(error_of([&] { Reader{w.data()}.vec_int(); }), kCount)
        << payload;
  }
  // Exactly enough bytes still decodes.
  Writer w;
  w.vec_f64({1.0, 2.0, 3.0});
  EXPECT_EQ(Reader{w.data()}.vec_f64().size(), 3u);
}

TEST(WireReader, HugeCountsCannotOverflowTheCheck) {
  for (std::uint64_t n : {std::numeric_limits<std::uint64_t>::max(),
                          std::numeric_limits<std::uint64_t>::max() / 8 + 1,
                          std::uint64_t{1} << 61}) {
    Writer w;
    w.u64(n);
    w.u64(0);
    Reader a{w.data()};
    EXPECT_THROW(a.vec_f64(), std::runtime_error);
    Reader b{w.data()};
    EXPECT_THROW(b.str(), std::runtime_error);
    Reader c{w.data()};
    EXPECT_THROW(c.vec_u8(), std::runtime_error);
  }
}

// --- frame length ----------------------------------------------------------

TEST(WireFrame, LengthFitsU32OrThrowsNamedError) {
  EXPECT_EQ(frame_length(0), 0u);
  EXPECT_EQ(frame_length(2494059), 2494059u);
  const std::size_t limit = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(frame_length(limit), 0xFFFFFFFFu);
  if constexpr (sizeof(std::size_t) > sizeof(std::uint32_t)) {
    EXPECT_THROW(frame_length(limit + 1), FrameTooLarge);
    EXPECT_THROW(frame_length(std::size_t{5} << 30), FrameTooLarge);
    try {
      frame_length(limit + 1);
    } catch (const FrameTooLarge& e) {
      EXPECT_NE(std::string{e.what()}.find("4294967296"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace vbatt::util::wire
