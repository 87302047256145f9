// CRC-32 (IEEE 802.3 polynomial, reflected) for the durability layer's
// on-disk integrity checks: every write-ahead-log record and every
// snapshot section carries a checksum, so recovery can tell a torn or
// bit-flipped tail from valid data and stop at exactly the last good
// byte.
//
// Slicing-by-8: eight bytes per step through eight 256-entry tables
// derived from the same 0xEDB88320 polynomial, so every value equals the
// classic one-byte-per-lookup CRC (the on-disk format is unchanged).

#ifndef IIM_COMMON_CRC32_H_
#define IIM_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace iim {

// CRC of `len` bytes starting at `data`. `seed` chains incremental
// computations: Crc32(b, n1+n2) == Crc32(b + n1, n2, Crc32(b, n1)).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

// CRC of the concatenation A‖B from crc_a = Crc32(A), crc_b = Crc32(B)
// and len_b = |B|, without touching the bytes again: O(log len_b) work.
// Lets a container derive a whole-file checksum from the per-part
// checksums it computes anyway.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

}  // namespace iim

#endif  // IIM_COMMON_CRC32_H_
