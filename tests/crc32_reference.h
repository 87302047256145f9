// Bytewise CRC-32 reference for tests: the textbook one-table-lookup-
// per-byte loop over the reflected 0xEDB88320 polynomial, kept
// independent of the library's sliced implementation so the two can be
// compared value for value.

#ifndef IIM_TESTS_CRC32_REFERENCE_H_
#define IIM_TESTS_CRC32_REFERENCE_H_

#include <cstddef>
#include <cstdint>

namespace iim::testing_util {

inline uint32_t ReferenceCrc32(const void* data, size_t len,
                               uint32_t seed = 0) {
  static const struct Table {
    uint32_t v[256];
    Table() {
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
          c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        v[i] = c;
      }
    }
  } table;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table.v[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace iim::testing_util

#endif  // IIM_TESTS_CRC32_REFERENCE_H_
