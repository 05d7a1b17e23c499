// Versioned, checksummed binary container for persisted indexes: the
// on-disk format behind SearchMethod::Save / Open. One file per index
// (`<dir>/index.hydra`): a header (magic, format version, method name,
// dataset fingerprint) followed by named sections, each with its own
// CRC32, so a method serializes only its own structure through typed
// read/write helpers and any corruption is caught section by section.
#ifndef HYDRA_IO_INDEX_CODEC_H_
#define HYDRA_IO_INDEX_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/dataset.h"
#include "util/status.h"

namespace hydra::io {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `size` bytes.
uint32_t Crc32(const void* data, size_t size);

/// Version of the container format. Bumped on any incompatible layout
/// change; readers refuse other versions with a clean error. Version 2
/// added DSTree's "summaries" section (its per-series iSAX words).
inline constexpr uint32_t kIndexFormatVersion = 2;

/// Identity of the dataset an index was built over. Open refuses an index
/// whose fingerprint does not match the dataset it is given: a persisted
/// index stores series ids, not series, so it is only valid against the
/// exact collection it was built from.
struct DatasetFingerprint {
  uint64_t count = 0;   ///< Number of series.
  uint64_t length = 0;  ///< Points per series.
  uint64_t bytes = 0;   ///< Raw value bytes (count * length * sizeof(Value)).

  static DatasetFingerprint Of(const core::Dataset& data);
  std::string ToString() const;

  friend bool operator==(const DatasetFingerprint& a,
                         const DatasetFingerprint& b) = default;
};

/// The index file inside an index directory.
std::string IndexFilePath(const std::string& dir);

/// Serializer for one index file. A method's DoSave groups its state into
/// named sections (BeginSection/EndSection) and writes typed values;
/// everything is buffered in memory and written atomically by Commit.
/// Misuse (writes outside a section, unbalanced Begin/End) CHECK-aborts —
/// serialization bugs are programmer errors, not runtime conditions.
class IndexWriter {
 public:
  IndexWriter(std::string method_name, DatasetFingerprint fingerprint);

  void BeginSection(std::string_view name);
  void EndSection();

  void WriteBool(bool v);
  void WriteU8(uint8_t v);
  void WriteI32(int32_t v);
  void WriteU32(uint32_t v);
  void WriteI64(int64_t v);
  void WriteU64(uint64_t v);
  void WriteDouble(double v);
  void WriteString(std::string_view s);

  /// Length-prefixed vector of trivially copyable elements.
  template <typename T>
  void WritePodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    AppendPayload(v.data(), v.size() * sizeof(T));
  }

  /// Writes the whole container to `path` through WriteFileAtomically (a
  /// failed Commit leaves the previous file at `path` intact). Returns the
  /// file size in bytes.
  util::Result<int64_t> Commit(const std::string& path);

 private:
  void AppendPayload(const void* p, size_t n);

  std::string method_name_;
  DatasetFingerprint fingerprint_;
  struct Section {
    std::string name;
    std::string payload;
  };
  std::vector<Section> sections_;
  bool in_section_ = false;
};

/// Deserializer for one index file. Load validates the container level
/// (magic, format version, header checksum); EnterSection validates the
/// next section's name and CRC. Typed reads never abort on file content:
/// the first malformed read latches a sticky error status (subsequent
/// reads return zero values) that DoOpen propagates, so a truncated or
/// garbled index file always surfaces as a clean util::Status.
class IndexReader {
 public:
  IndexReader() = default;

  /// Reads and validates the container at `path`.
  util::Status Load(const std::string& path);

  const std::string& method_name() const { return method_name_; }
  const DatasetFingerprint& fingerprint() const { return fingerprint_; }
  int64_t file_bytes() const { return file_bytes_; }

  /// Positions the reader at the start of the next section, which must be
  /// named `name` (sections are read in the order they were written) and
  /// must pass its CRC check.
  util::Status EnterSection(std::string_view name);

  bool ok() const { return status_.ok(); }
  const util::Status& status() const { return status_; }
  /// Latches a semantic-validation failure (e.g. an id out of range) so it
  /// propagates like a structural one. The first failure wins.
  void Fail(const std::string& message);

  bool ReadBool();
  uint8_t ReadU8();
  int32_t ReadI32();
  uint32_t ReadU32();
  int64_t ReadI64();
  uint64_t ReadU64();
  double ReadDouble();
  std::string ReadString();
  /// Payload bytes left unread in the current section.
  size_t RemainingInSection() const { return section_end_ - cursor_; }

  /// RAII recursion guard for deserializing recursive structures (tree
  /// nodes). A checksum only proves the bytes match themselves, so a
  /// crafted file could encode a node chain deep enough to overflow the
  /// stack; construct one guard per recursive load call and bail out on
  /// the reader's sticky status as usual — past the depth cap the guard
  /// latches an error, which stops the recursion at the next ok() check.
  /// The cap is far above any legitimately built tree's depth.
  class NodeGuard {
   public:
    explicit NodeGuard(IndexReader* reader) : reader_(reader) {
      if (++reader_->node_depth_ > kMaxNodeDepth) {
        reader_->Fail("index structure nests too deeply");
      }
    }
    ~NodeGuard() { --reader_->node_depth_; }
    NodeGuard(const NodeGuard&) = delete;
    NodeGuard& operator=(const NodeGuard&) = delete;

   private:
    IndexReader* reader_;
  };

  /// Length-prefixed vector of trivially copyable elements. The element
  /// count is bounds-checked against the bytes left in the section before
  /// any allocation, so a corrupt length cannot trigger an OOM.
  template <typename T>
  std::vector<T> ReadPodVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t count = ReadU64();
    std::vector<T> v;
    if (!ok()) return v;
    if (count > RemainingInSection() / sizeof(T)) {
      Fail("vector length exceeds section payload");
      return v;
    }
    v.resize(count);
    ReadPayload(v.data(), count * sizeof(T));
    return v;
  }

 private:
  static constexpr int kMaxNodeDepth = 10000;

  /// Copies `n` payload bytes to `out`; latches an error on truncation.
  void ReadPayload(void* out, size_t n);

  std::string bytes_;            // the whole file
  std::string path_;             // for error messages
  std::string method_name_;
  DatasetFingerprint fingerprint_;
  int64_t file_bytes_ = 0;
  size_t cursor_ = 0;        // next unread byte (within the current section)
  size_t section_end_ = 0;   // one past the current section's payload
  size_t next_section_ = 0;  // offset of the next section header
  int node_depth_ = 0;       // live NodeGuard count
  util::Status status_ = util::Status::Error("no index file loaded");
};

}  // namespace hydra::io

#endif  // HYDRA_IO_INDEX_CODEC_H_
