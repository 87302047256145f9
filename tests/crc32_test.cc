// CRC-32 (common/crc32): the sliced implementation must give exactly the
// values of the bytewise reference — every checksum already on disk
// depends on it — and Crc32Combine must splice two CRCs into the CRC of
// the concatenation.

#include "common/crc32.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crc32_reference.h"

namespace iim {
namespace {

using testing_util::ReferenceCrc32;

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(ReferenceCrc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  // Offsets 0..7 put the eight-byte steps at every alignment; lengths
  // 0..4096 cover every tail length many times over.
  std::vector<unsigned char> buf = RandomBytes(4096 + 8, 3);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, SeedChainingMatchesOneCall) {
  std::vector<unsigned char> buf = RandomBytes(1500, 5);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    size_t a = static_cast<size_t>(rng.UniformInt(0, 1500));
    size_t b = static_cast<size_t>(rng.UniformInt(0, 1500));
    if (a > b) std::swap(a, b);
    uint32_t c = Crc32(buf.data(), a);
    c = Crc32(buf.data() + a, b - a, c);
    c = Crc32(buf.data() + b, buf.size() - b, c);
    ASSERT_EQ(c, whole) << "splits " << a << ", " << b;
  }
}

TEST(Crc32Test, CombineEqualsCrcOfConcatenation) {
  std::vector<unsigned char> buf = RandomBytes(20000, 9);
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    size_t total = static_cast<size_t>(rng.UniformInt(0, 20000));
    size_t split = static_cast<size_t>(rng.UniformInt(0, total));
    // Every tenth trial pins an empty A or an empty B.
    if (trial % 10 == 0) split = 0;
    if (trial % 10 == 5) split = total;
    uint32_t a = Crc32(buf.data(), split);
    uint32_t b = Crc32(buf.data() + split, total - split);
    ASSERT_EQ(Crc32Combine(a, b, total - split), Crc32(buf.data(), total))
        << "total " << total << " split " << split;
  }
  EXPECT_EQ(Crc32Combine(0, 0, 0), 0u);
}

}  // namespace
}  // namespace iim
