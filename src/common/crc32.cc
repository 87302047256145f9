#include "common/crc32.h"

#include <cstring>

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the sliced CRC-32 loads 32-bit words little-endian"
#endif

namespace iim {

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

// entries[0] is the classic byte table; entries[k][b] is the CRC state
// after byte b followed by k zero bytes, which lets one step fold eight
// input bytes with eight independent lookups.
struct Crc32Tables {
  uint32_t entries[8][256];
  // x2n[k] = x^(2^k) modulo the polynomial (reflected), for Combine.
  uint32_t x2n[32];

  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    uint32_t p = 1u << 30;  // x^1
    for (int k = 0; k < 32; ++k) {
      x2n[k] = p;
      p = MultModP(p, p);
    }
  }

  // a(x) * b(x) modulo the polynomial, in the reflected bit order (the
  // x^0 coefficient is the top bit).
  static uint32_t MultModP(uint32_t a, uint32_t b) {
    uint32_t prod = 0;
    for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
      if (a & m) prod ^= b;
      b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
    }
    return prod;
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const Crc32Tables& t = Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; len -= 8, p += 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t.entries[7][lo & 0xFFu] ^ t.entries[6][(lo >> 8) & 0xFFu] ^
        t.entries[5][(lo >> 16) & 0xFFu] ^ t.entries[4][lo >> 24] ^
        t.entries[3][hi & 0xFFu] ^ t.entries[2][(hi >> 8) & 0xFFu] ^
        t.entries[1][(hi >> 16) & 0xFFu] ^ t.entries[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) {
    c = t.entries[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  // Appending len_b bytes multiplies A's remainder by x^(8·len_b); the
  // pre/post inversions cancel between the two halves, leaving the
  // shifted crc_a XOR crc_b.
  const Crc32Tables& t = Tables();
  uint32_t shift = 1u << 31;  // x^0
  for (int k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1u) shift = Crc32Tables::MultModP(t.x2n[k & 31], shift);
  }
  return Crc32Tables::MultModP(shift, crc_a) ^ crc_b;
}

}  // namespace iim
