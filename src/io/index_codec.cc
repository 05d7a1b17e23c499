#include "io/index_codec.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <memory>

#include "io/series_file.h"
#include "util/check.h"

namespace hydra::io {
namespace {

// "HYDRIDX1" as a little-endian u64.
constexpr uint64_t kIndexMagic = 0x3158444952445948ULL;

constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = MakeCrcTable();

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void AppendRaw(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}

template <typename T>
void AppendPod(std::string* out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendRaw(out, &v, sizeof(v));
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kCrcTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

DatasetFingerprint DatasetFingerprint::Of(const core::Dataset& data) {
  return {data.size(), data.length(), data.bytes()};
}

std::string DatasetFingerprint::ToString() const {
  return "count=" + std::to_string(count) + " length=" +
         std::to_string(length) + " bytes=" + std::to_string(bytes);
}

std::string IndexFilePath(const std::string& dir) {
  return dir + "/index.hydra";
}

IndexWriter::IndexWriter(std::string method_name,
                         DatasetFingerprint fingerprint)
    : method_name_(std::move(method_name)), fingerprint_(fingerprint) {}

void IndexWriter::BeginSection(std::string_view name) {
  HYDRA_CHECK_MSG(!in_section_, "BeginSection inside an open section");
  sections_.push_back({std::string(name), {}});
  in_section_ = true;
}

void IndexWriter::EndSection() {
  HYDRA_CHECK_MSG(in_section_, "EndSection without BeginSection");
  in_section_ = false;
}

void IndexWriter::AppendPayload(const void* p, size_t n) {
  HYDRA_CHECK_MSG(in_section_, "index writes must happen inside a section");
  AppendRaw(&sections_.back().payload, p, n);
}

void IndexWriter::WriteBool(bool v) { WriteU8(v ? 1 : 0); }
void IndexWriter::WriteU8(uint8_t v) { AppendPayload(&v, sizeof(v)); }
void IndexWriter::WriteI32(int32_t v) { AppendPayload(&v, sizeof(v)); }
void IndexWriter::WriteU32(uint32_t v) { AppendPayload(&v, sizeof(v)); }
void IndexWriter::WriteI64(int64_t v) { AppendPayload(&v, sizeof(v)); }
void IndexWriter::WriteU64(uint64_t v) { AppendPayload(&v, sizeof(v)); }
void IndexWriter::WriteDouble(double v) { AppendPayload(&v, sizeof(v)); }

void IndexWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  AppendPayload(s.data(), s.size());
}

util::Result<int64_t> IndexWriter::Commit(const std::string& path) {
  HYDRA_CHECK_MSG(!in_section_, "Commit with an open section");
  // Header: magic and version live outside the checksummed header payload
  // so that a version mismatch is reported as such (a checksum would
  // otherwise mask it).
  std::string out;
  AppendPod(&out, kIndexMagic);
  AppendPod(&out, kIndexFormatVersion);
  std::string header;
  AppendPod(&header, static_cast<uint64_t>(method_name_.size()));
  AppendRaw(&header, method_name_.data(), method_name_.size());
  AppendPod(&header, fingerprint_.count);
  AppendPod(&header, fingerprint_.length);
  AppendPod(&header, fingerprint_.bytes);
  AppendPod(&out, static_cast<uint64_t>(header.size()));
  out += header;
  AppendPod(&out, Crc32(header.data(), header.size()));
  for (const Section& s : sections_) {
    AppendPod(&out, static_cast<uint32_t>(s.name.size()));
    AppendRaw(&out, s.name.data(), s.name.size());
    AppendPod(&out, static_cast<uint64_t>(s.payload.size()));
    out += s.payload;
    AppendPod(&out, Crc32(s.payload.data(), s.payload.size()));
  }

  const util::Status written =
      WriteFileAtomically(path, {{out.data(), out.size()}});
  if (!written.ok()) return written;
  return static_cast<int64_t>(out.size());
}

util::Status IndexReader::Load(const std::string& path) {
  path_ = path;
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return util::Status::Error("cannot open index file: " + path);
  }
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return util::Status::Error("cannot seek index file: " + path);
  }
  const long size = std::ftell(f.get());
  if (size < 0) return util::Status::Error("cannot stat index file: " + path);
  std::rewind(f.get());
  bytes_.resize(static_cast<size_t>(size));
  if (size > 0 &&
      std::fread(bytes_.data(), 1, bytes_.size(), f.get()) != bytes_.size()) {
    return util::Status::Error("index file read failed: " + path);
  }
  file_bytes_ = size;

  // Container level: magic, version, checksummed header payload.
  size_t pos = 0;
  auto read_pod = [&](auto* out) {
    if (bytes_.size() - pos < sizeof(*out)) return false;
    std::memcpy(out, bytes_.data() + pos, sizeof(*out));
    pos += sizeof(*out);
    return true;
  };
  uint64_t magic = 0;
  if (!read_pod(&magic) || magic != kIndexMagic) {
    return util::Status::Error("not a Hydra index file (bad magic): " + path);
  }
  uint32_t version = 0;
  if (!read_pod(&version)) {
    return util::Status::Error("truncated index file: " + path);
  }
  if (version != kIndexFormatVersion) {
    return util::Status::Error(
        "unsupported index format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kIndexFormatVersion) +
        "): " + path);
  }
  uint64_t header_size = 0;
  if (!read_pod(&header_size) || bytes_.size() - pos < header_size) {
    return util::Status::Error("truncated index header: " + path);
  }
  const size_t header_begin = pos;
  pos += header_size;
  uint32_t header_crc = 0;
  if (!read_pod(&header_crc) ||
      header_crc != Crc32(bytes_.data() + header_begin, header_size)) {
    return util::Status::Error("index header checksum mismatch: " + path);
  }
  // Parse the header payload.
  size_t hpos = header_begin;
  const size_t hend = header_begin + header_size;
  auto read_header_pod = [&](auto* out) {
    if (hend - hpos < sizeof(*out)) return false;
    std::memcpy(out, bytes_.data() + hpos, sizeof(*out));
    hpos += sizeof(*out);
    return true;
  };
  uint64_t name_size = 0;
  if (!read_header_pod(&name_size) || hend - hpos < name_size) {
    return util::Status::Error("malformed index header: " + path);
  }
  method_name_.assign(bytes_.data() + hpos, name_size);
  hpos += name_size;
  if (!read_header_pod(&fingerprint_.count) ||
      !read_header_pod(&fingerprint_.length) ||
      !read_header_pod(&fingerprint_.bytes)) {
    return util::Status::Error("malformed index header: " + path);
  }

  next_section_ = pos;
  cursor_ = pos;
  section_end_ = pos;  // no section entered yet: all reads fail until then
  status_ = util::Status::Ok();
  return status_;
}

util::Status IndexReader::EnterSection(std::string_view name) {
  if (!ok()) return status_;
  size_t pos = next_section_;
  auto read_pod = [&](auto* out) {
    if (bytes_.size() - pos < sizeof(*out)) return false;
    std::memcpy(out, bytes_.data() + pos, sizeof(*out));
    pos += sizeof(*out);
    return true;
  };
  uint32_t name_size = 0;
  if (!read_pod(&name_size) || bytes_.size() - pos < name_size) {
    Fail("truncated index file (expected section '" + std::string(name) +
         "')");
    return status_;
  }
  const std::string_view found(bytes_.data() + pos, name_size);
  pos += name_size;
  if (found != name) {
    Fail("index section order mismatch: expected '" + std::string(name) +
         "', found '" + std::string(found) + "'");
    return status_;
  }
  uint64_t payload_size = 0;
  if (!read_pod(&payload_size) || bytes_.size() - pos < payload_size) {
    Fail("truncated index section '" + std::string(name) + "'");
    return status_;
  }
  const size_t payload_begin = pos;
  pos += payload_size;
  uint32_t crc = 0;
  if (!read_pod(&crc)) {
    Fail("truncated index section '" + std::string(name) + "'");
    return status_;
  }
  if (crc != Crc32(bytes_.data() + payload_begin, payload_size)) {
    Fail("checksum mismatch in index section '" + std::string(name) + "'");
    return status_;
  }
  cursor_ = payload_begin;
  section_end_ = payload_begin + payload_size;
  next_section_ = pos;
  return status_;
}

void IndexReader::Fail(const std::string& message) {
  if (!status_.ok()) return;  // first failure wins
  status_ = util::Status::Error(message + ": " + path_);
}

void IndexReader::ReadPayload(void* out, size_t n) {
  // An empty vector's data() may be null, which memcpy/memset must never
  // receive, even for zero bytes.
  if (n == 0) return;
  if (!ok()) {
    std::memset(out, 0, n);
    return;
  }
  if (RemainingInSection() < n) {
    Fail("read past the end of an index section");
    std::memset(out, 0, n);
    return;
  }
  std::memcpy(out, bytes_.data() + cursor_, n);
  cursor_ += n;
}

bool IndexReader::ReadBool() { return ReadU8() != 0; }

uint8_t IndexReader::ReadU8() {
  uint8_t v = 0;
  ReadPayload(&v, sizeof(v));
  return v;
}

int32_t IndexReader::ReadI32() {
  int32_t v = 0;
  ReadPayload(&v, sizeof(v));
  return v;
}

uint32_t IndexReader::ReadU32() {
  uint32_t v = 0;
  ReadPayload(&v, sizeof(v));
  return v;
}

int64_t IndexReader::ReadI64() {
  int64_t v = 0;
  ReadPayload(&v, sizeof(v));
  return v;
}

uint64_t IndexReader::ReadU64() {
  uint64_t v = 0;
  ReadPayload(&v, sizeof(v));
  return v;
}

double IndexReader::ReadDouble() {
  double v = 0.0;
  ReadPayload(&v, sizeof(v));
  return v;
}

std::string IndexReader::ReadString() {
  const uint64_t size = ReadU64();
  std::string s;
  if (!ok()) return s;
  if (size > RemainingInSection()) {
    Fail("string length exceeds section payload");
    return s;
  }
  s.assign(bytes_.data() + cursor_, size);
  cursor_ += size;
  return s;
}

}  // namespace hydra::io
