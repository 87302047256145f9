// Versioned, checksummed, sectioned snapshot container for full engine
// state (src/stream/persist).
//
// Layout (all integers little-endian, the only byte order this library
// targets; doubles are raw IEEE-754 bits, which is what makes a restored
// engine BIT-identical to the one that wrote the snapshot):
//
//   header   "IIMSNP01" | u32 version | u64 ops_covered | u32 nsections
//            | u32 crc(preceding 24 bytes)
//   section  u32 tag | u64 len | payload[len] | u32 crc(payload)   (xN)
//   footer   u32 crc(every byte before the footer) | "IIMSNPFT"
//
// Parse validates everything — magic, header CRC, section bounds and
// CRCs, footer CRC — before a single payload byte is interpreted, so a
// truncated or bit-flipped snapshot file is rejected as a whole and
// recovery falls back to an older one (or a cold engine) instead of
// restoring half a relation. Within a section, payloads are columnar:
// whole arrays of like-typed values, written with PutDoubles/PutBytes.
//
// Each byte is checksummed once: Finish and Parse hash every payload for
// its section CRC and derive the footer CRC from those with Crc32Combine
// (plus the few header, tag/len and CRC bytes), so the footer costs no
// second pass over the image yet still covers every byte before it.

#ifndef IIM_STREAM_PERSIST_SNAPSHOT_H_
#define IIM_STREAM_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace iim::stream::persist {

// Section tags. An OnlineIim image holds kSecMeta, kSecEngine and
// kSecRows, the core's kSecCore* sections and, when monitoring,
// kSecQuality. Tags 4-6 and 16-17 belonged to retired layouts and are
// never reused, so an old image cannot be misread as a current one.
constexpr uint32_t kSecMeta = 1;         // config fingerprint
constexpr uint32_t kSecEngine = 2;       // counters + cursors
constexpr uint32_t kSecRows = 3;         // window rows, columnar
// Order-maintenance core (src/stream/order_core.h), written beside the
// engine's own sections.
constexpr uint32_t kSecCoreMeta = 32;    // cursors + counters (+ adaptive)
constexpr uint32_t kSecCoreRows = 33;    // gathered (F, Am) rows + slots
constexpr uint32_t kSecCoreOrders = 34;  // learning (+ validation) orders
constexpr uint32_t kSecCoreModels = 35;  // ridge U/V, models, costs
// Quality monitor (src/stream/quality.h): decayed error estimates, error
// rings, the champion and switch counters. Written only by engines with
// moo_sample_rate > 0; the challenger fits themselves are restreamed from
// the restored window instead of being serialized.
constexpr uint32_t kSecQuality = 48;

constexpr uint32_t kSnapshotVersion = 1;

// Serializes one snapshot: begin a section, put values, repeat, Finish.
// Everything is written straight into the one image Finish returns: a
// section's tag and length lead its payload in place (the length is
// patched when the section closes), so sealing copies nothing.
class SnapshotBuilder {
 public:
  // `capacity_hint`: the expected image size in bytes, reserved up front
  // so the image never regrows. `buffer`: storage to reuse (its contents
  // are discarded, its capacity kept), e.g. the previous image's.
  explicit SnapshotBuilder(uint64_t ops_covered, size_t capacity_hint = 0,
                           std::string buffer = std::string());

  // Starts a new section; every Put lands in the most recent one.
  void BeginSection(uint32_t tag);

  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutF64(double v);
  void PutDoubles(const double* p, size_t n);
  // Raw bytes (an array of fixed-layout records, written in one append).
  void PutBytes(const void* p, size_t n);
  // Capacity hint for the current section: at least `n` more bytes are
  // coming, so they land without regrowing the image.
  void Reserve(size_t n);

  // Seals the snapshot (header + sections + footer). The builder is
  // spent afterwards.
  std::string Finish();

 private:
  struct Sealed {
    size_t at;     // offset of the section's tag
    uint64_t len;  // payload bytes
    uint32_t crc;  // payload CRC
  };
  // Patches the open section's length and appends its payload CRC.
  void CloseSection();

  std::string out_;
  bool open_ = false;
  std::vector<Sealed> sealed_;
};

// Bounds-checked sequential decoder over one section's payload. Reads
// past the end return zeros and latch an error instead of touching
// out-of-range memory — callers decode the whole section, then check
// status() once.
class SectionReader {
 public:
  SectionReader() = default;
  SectionReader(const char* data, size_t len) : data_(data), len_(len) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  double F64();
  // Reads n doubles into out (which must hold n).
  void Doubles(double* out, size_t n);
  // Reads n raw bytes into out (the inverse of PutBytes).
  void Bytes(void* out, size_t n);

  size_t remaining() const { return len_ - pos_; }
  bool ok() const { return !failed_; }
  // OK, or OutOfRange once any read overran the payload.
  Status status() const;

 private:
  bool Take(void* out, size_t n);

  const char* data_ = nullptr;
  size_t len_ = 0;
  size_t pos_ = 0;
  bool failed_ = false;
};

// A parsed, fully checksum-validated snapshot. Borrows the byte buffer
// passed to Parse — keep it alive (and unmoved) while reading sections.
class SnapshotView {
 public:
  // Validates the whole container; any structural or checksum defect is
  // an error (the caller treats the file as absent).
  static Result<SnapshotView> Parse(const std::string& bytes);

  uint64_t ops_covered() const { return ops_; }

  // Reader over the unique section with `tag`; NotFound if absent.
  Result<SectionReader> Section(uint32_t tag) const;

 private:
  struct Span {
    uint32_t tag;
    const char* data;
    size_t len;
  };
  uint64_t ops_ = 0;
  std::vector<Span> spans_;
};

}  // namespace iim::stream::persist

#endif  // IIM_STREAM_PERSIST_SNAPSHOT_H_
