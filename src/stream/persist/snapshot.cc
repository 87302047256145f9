#include "stream/persist/snapshot.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32.h"

namespace iim::stream::persist {

namespace {

constexpr char kMagic[8] = {'I', 'I', 'M', 'S', 'N', 'P', '0', '1'};
constexpr char kFooterMagic[8] = {'I', 'I', 'M', 'S', 'N', 'P', 'F', 'T'};
constexpr size_t kHeaderLen = 8 + 4 + 8 + 4 + 4;
constexpr size_t kFooterLen = 4 + 8;
constexpr size_t kSectionOverhead = 4 + 8 + 4;  // tag | len | ... | crc

void AppendRaw(std::string* out, const void* p, size_t n) {
  if (n == 0) return;  // p may be null (an empty vector's data())
  out->append(static_cast<const char*>(p), n);
}

template <typename T>
void AppendScalar(std::string* out, T v) {
  AppendRaw(out, &v, sizeof(v));
}

}  // namespace

SnapshotBuilder::SnapshotBuilder(uint64_t ops_covered, size_t capacity_hint,
                                 std::string buffer)
    : out_(std::move(buffer)) {
  out_.clear();
  out_.reserve(std::max(capacity_hint, kHeaderLen + kFooterLen));
  // The section count and header CRC are patched in by Finish.
  AppendRaw(&out_, kMagic, sizeof(kMagic));
  AppendScalar<uint32_t>(&out_, kSnapshotVersion);
  AppendScalar<uint64_t>(&out_, ops_covered);
  AppendScalar<uint32_t>(&out_, 0);
  AppendScalar<uint32_t>(&out_, 0);
}

void SnapshotBuilder::CloseSection() {
  if (!open_) return;
  Sealed& s = sealed_.back();
  const size_t payload_at = s.at + 12;
  s.len = out_.size() - payload_at;
  std::memcpy(&out_[s.at + 4], &s.len, sizeof(s.len));
  s.crc = Crc32(out_.data() + payload_at, static_cast<size_t>(s.len));
  AppendScalar<uint32_t>(&out_, s.crc);
  open_ = false;
}

void SnapshotBuilder::BeginSection(uint32_t tag) {
  CloseSection();
  sealed_.push_back(Sealed{out_.size(), 0, 0});
  AppendScalar<uint32_t>(&out_, tag);
  AppendScalar<uint64_t>(&out_, 0);  // length, patched by CloseSection
  open_ = true;
}

void SnapshotBuilder::PutU8(uint8_t v) { AppendScalar(&out_, v); }

void SnapshotBuilder::PutU32(uint32_t v) { AppendScalar(&out_, v); }

void SnapshotBuilder::PutU64(uint64_t v) { AppendScalar(&out_, v); }

void SnapshotBuilder::PutF64(double v) { AppendScalar(&out_, v); }

void SnapshotBuilder::PutDoubles(const double* p, size_t n) {
  AppendRaw(&out_, p, n * sizeof(double));
}

void SnapshotBuilder::PutBytes(const void* p, size_t n) {
  AppendRaw(&out_, p, n);
}

void SnapshotBuilder::Reserve(size_t n) {
  out_.reserve(out_.size() + n + kSectionOverhead + kFooterLen);
}

std::string SnapshotBuilder::Finish() {
  CloseSection();
  const uint32_t nsections = static_cast<uint32_t>(sealed_.size());
  std::memcpy(&out_[20], &nsections, sizeof(nsections));
  const uint32_t header_crc = Crc32(out_.data(), kHeaderLen - 4);
  std::memcpy(&out_[24], &header_crc, sizeof(header_crc));

  // The footer CRC is the CRC of every byte above; the payload parts
  // enter it through their section CRCs instead of a second pass.
  uint32_t file_crc = Crc32(out_.data(), kHeaderLen);
  for (const Sealed& s : sealed_) {
    file_crc = Crc32(out_.data() + s.at, 12, file_crc);
    file_crc = Crc32Combine(file_crc, s.crc, static_cast<size_t>(s.len));
    file_crc = Crc32(out_.data() + s.at + 12 + s.len, 4, file_crc);
  }
  AppendScalar<uint32_t>(&out_, file_crc);
  AppendRaw(&out_, kFooterMagic, sizeof(kFooterMagic));
  return std::move(out_);
}

bool SectionReader::Take(void* out, size_t n) {
  if (failed_ || len_ - pos_ < n) {
    failed_ = true;
    std::memset(out, 0, n);
    return false;
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

uint8_t SectionReader::U8() {
  uint8_t v;
  Take(&v, sizeof(v));
  return v;
}

uint32_t SectionReader::U32() {
  uint32_t v;
  Take(&v, sizeof(v));
  return v;
}

uint64_t SectionReader::U64() {
  uint64_t v;
  Take(&v, sizeof(v));
  return v;
}

double SectionReader::F64() {
  double v;
  Take(&v, sizeof(v));
  return v;
}

void SectionReader::Doubles(double* out, size_t n) {
  Bytes(out, n * sizeof(double));
}

void SectionReader::Bytes(void* out, size_t n) {
  if (n == 0) return;  // out may be null (an empty vector's data())
  Take(out, n);
}

Status SectionReader::status() const {
  if (!failed_) return Status::OK();
  return Status::OutOfRange("snapshot section payload exhausted mid-decode");
}

Result<SnapshotView> SnapshotView::Parse(const std::string& bytes) {
  auto corrupt = [](const char* what) {
    return Status::IoError(std::string("snapshot rejected: ") + what);
  };
  if (bytes.size() < kHeaderLen + kFooterLen) return corrupt("truncated");
  const char* p = bytes.data();
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return corrupt("bad magic");
  }
  uint32_t version, nsections, header_crc;
  uint64_t ops;
  std::memcpy(&version, p + 8, 4);
  std::memcpy(&ops, p + 12, 8);
  std::memcpy(&nsections, p + 20, 4);
  std::memcpy(&header_crc, p + 24, 4);
  if (header_crc != Crc32(p, kHeaderLen - 4)) return corrupt("header CRC");
  if (version != kSnapshotVersion) return corrupt("unknown version");

  size_t footer_at = bytes.size() - kFooterLen;
  if (std::memcmp(p + footer_at + 4, kFooterMagic, sizeof(kFooterMagic)) !=
      0) {
    return corrupt("bad footer magic");
  }

  // One pass: each payload is hashed once for its section CRC, and the
  // whole-file CRC is assembled from the header, the tag/len and CRC
  // bytes and those section CRCs — the same value a second pass over
  // every byte before the footer would give.
  uint32_t file_crc = Crc32(p, kHeaderLen);
  SnapshotView view;
  view.ops_ = ops;
  size_t pos = kHeaderLen;
  for (uint32_t s = 0; s < nsections; ++s) {
    if (footer_at - pos < kSectionOverhead) return corrupt("section bounds");
    uint32_t tag, crc;
    uint64_t len;
    std::memcpy(&tag, p + pos, 4);
    std::memcpy(&len, p + pos + 4, 8);
    if (len > footer_at - pos - kSectionOverhead) {
      return corrupt("section length");
    }
    const char* payload = p + pos + 12;
    std::memcpy(&crc, payload + len, 4);
    uint32_t payload_crc = Crc32(payload, static_cast<size_t>(len));
    if (crc != payload_crc) return corrupt("section CRC");
    file_crc = Crc32(p + pos, 12, file_crc);
    file_crc = Crc32Combine(file_crc, payload_crc, len);
    file_crc = Crc32(payload + len, 4, file_crc);
    view.spans_.push_back(Span{tag, payload, static_cast<size_t>(len)});
    pos += kSectionOverhead + static_cast<size_t>(len);
  }
  if (pos != footer_at) return corrupt("trailing bytes");
  uint32_t stored_file_crc;
  std::memcpy(&stored_file_crc, p + footer_at, 4);
  if (stored_file_crc != file_crc) return corrupt("file CRC");
  return view;
}

Result<SectionReader> SnapshotView::Section(uint32_t tag) const {
  for (const Span& s : spans_) {
    if (s.tag == tag) return SectionReader(s.data, s.len);
  }
  return Status::NotFound("snapshot has no section with the requested tag");
}

}  // namespace iim::stream::persist
