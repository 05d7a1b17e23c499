#include "io/series_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hydra::io {
namespace {

constexpr uint64_t kMagic = 0x485944524153ULL;  // "HYDRAS"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Shared header validation of the bulk loader and SeriesFile::Open:
/// magic, positive length, and an overflow-safe volume bound. Fills
/// *count/*length; returns an error Status naming `path` otherwise.
util::Status ValidateHeader(const uint64_t header[3], const std::string& path,
                            size_t* count, size_t* length) {
  if (header[0] != kMagic) {
    return util::Status::Error("bad magic (not a Hydra series file): " + path);
  }
  *count = header[1];
  *length = header[2];
  if (*length == 0) return util::Status::Error("zero series length: " + path);
  // Overflow-safe in two steps: dividing the cap first means no
  // intermediate product can wrap (a count near 2^62 would make
  // `count * sizeof(Value)` itself wrap — to exactly 0 for a SIGFPE).
  if (*count != 0 &&
      *length >
          std::numeric_limits<uint64_t>::max() / sizeof(core::Value) /
              *count) {
    return util::Status::Error("series file header overflows: " + path);
  }
  return util::Status::Ok();
}

util::Status SizeMismatch(const std::string& path, size_t count,
                          size_t length, uint64_t expected,
                          uint64_t actual) {
  return util::Status::Error(
      "series file size mismatch (truncated or trailing bytes): header "
      "promises " +
      std::to_string(count) + " x " + std::to_string(length) + " series = " +
      std::to_string(expected) + " bytes, file has " +
      std::to_string(actual) + ": " + path);
}

}  // namespace

util::Status WriteFileAtomically(const std::string& path,
                                 std::initializer_list<FileBytes> parts) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::Error("cannot open " + tmp + " for write: " +
                               std::strerror(errno));
  }
  const char* failed = nullptr;
  int cause = 0;
  const auto check = [&](bool ok, const char* step) {
    if (!ok && failed == nullptr) {
      failed = step;
      cause = errno;
    }
  };
  for (const FileBytes& part : parts) {
    check(failed != nullptr || part.size == 0 ||
              std::fwrite(part.data, 1, part.size, f) == part.size,
          "write");
  }
  // fwrite only fills the stdio buffer: a full disk surfaces at the
  // flush, the fsync or the close, and each must be checked.
  check(failed != nullptr || std::fflush(f) == 0, "flush");
  check(failed != nullptr || ::fsync(::fileno(f)) == 0, "fsync");
  check(std::fclose(f) == 0, "close");
  check(failed != nullptr || std::rename(tmp.c_str(), path.c_str()) == 0,
        "rename");
  if (failed == nullptr) return util::Status::Ok();
  std::remove(tmp.c_str());
  return util::Status::Error(std::string(failed) + " of " + tmp +
                             " failed: " + std::strerror(cause));
}

util::Status WriteSeriesFile(const std::string& path,
                             const core::Dataset& data) {
  const uint64_t header[3] = {kMagic, data.size(), data.length()};
  const auto values = data.values();
  return WriteFileAtomically(
      path, {{header, sizeof(header)},
             {values.data(), values.size() * sizeof(core::Value)}});
}

util::Result<core::Dataset> ReadSeriesFile(const std::string& path,
                                           const std::string& name) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return util::Status::Error("cannot open for read: " + path);
  uint64_t header[3] = {0, 0, 0};
  if (std::fread(header, sizeof(header), 1, f.get()) != 1) {
    return util::Status::Error("header read failed: " + path);
  }
  size_t count = 0;
  size_t length = 0;
  const util::Status header_ok = ValidateHeader(header, path, &count, &length);
  if (!header_ok.ok()) return header_ok;
  // The file size must be exactly header + count * length values: a
  // truncated file (partial final series) or trailing garbage would
  // otherwise be accepted silently and queried as if it were real data.
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return util::Status::Error("cannot seek series file: " + path);
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0) {
    return util::Status::Error("cannot stat series file: " + path);
  }
  const uint64_t expected =
      sizeof(header) + count * length * sizeof(core::Value);
  if (static_cast<uint64_t>(file_size) != expected) {
    return SizeMismatch(path, count, length, expected,
                        static_cast<uint64_t>(file_size));
  }
  if (std::fseek(f.get(), sizeof(header), SEEK_SET) != 0) {
    return util::Status::Error("cannot seek series file: " + path);
  }
  core::Dataset data(name, length);
  data.Reserve(count);
  std::vector<core::Value> row(length);
  for (size_t i = 0; i < count; ++i) {
    if (std::fread(row.data(), sizeof(core::Value), length, f.get()) !=
        length) {
      return util::Status::Error("truncated series file: " + path);
    }
    data.Append(row);
  }
  return data;
}

SeriesFile::~SeriesFile() {
  if (fd_ >= 0) ::close(fd_);
}

SeriesFile::SeriesFile(SeriesFile&& other) noexcept
    : fd_(other.fd_),
      count_(other.count_),
      length_(other.length_),
      path_(std::move(other.path_)) {
  other.fd_ = -1;
}

SeriesFile& SeriesFile::operator=(SeriesFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    count_ = other.count_;
    length_ = other.length_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

util::Result<SeriesFile> SeriesFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return util::Status::Error("cannot open for read: " + path + " (" +
                               std::strerror(errno) + ")");
  }
  SeriesFile file;
  file.fd_ = fd;
  file.path_ = path;
  uint64_t header[3] = {0, 0, 0};
  const ssize_t got = ::pread(fd, header, sizeof(header), 0);
  if (got != static_cast<ssize_t>(sizeof(header))) {
    return util::Status::Error("header read failed: " + path);
  }
  const util::Status header_ok =
      ValidateHeader(header, path, &file.count_, &file.length_);
  if (!header_ok.ok()) return header_ok;
  // Exact-size validation, same strictness as the bulk loader: the handle
  // refuses a file that is already truncated or padded at Open time, so
  // every later short pread means the file changed *underneath* us.
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return util::Status::Error("cannot stat series file: " + path);
  }
  const uint64_t expected =
      kHeaderBytes + static_cast<uint64_t>(file.count_) * file.length_ *
                         sizeof(core::Value);
  if (static_cast<uint64_t>(st.st_size) != expected) {
    return SizeMismatch(path, file.count_, file.length_, expected,
                        static_cast<uint64_t>(st.st_size));
  }
  return file;
}

util::Status SeriesFile::ReadSeries(size_t first, size_t n,
                                    core::Value* out) const {
  HYDRA_CHECK_MSG(fd_ >= 0, "ReadSeries on a closed SeriesFile");
  HYDRA_CHECK_MSG(first <= count_ && n <= count_ - first,
                  "ReadSeries range exceeds the series file");
  size_t bytes = n * series_bytes();
  uint64_t offset = kHeaderBytes + static_cast<uint64_t>(first) *
                                       series_bytes();
  char* dst = reinterpret_cast<char*>(out);
  // pread may legitimately return short inside a huge range; only a short
  // read at a position the validated size promised to hold is an error.
  while (bytes > 0) {
    const ssize_t got =
        ::pread(fd_, dst, bytes, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return util::Status::Error("pread failed on " + path_ + " (" +
                                 std::strerror(errno) + ")");
    }
    if (got == 0) {
      return util::Status::Error(
          "series file truncated after open (pread hit EOF at byte " +
          std::to_string(offset) + " of a file that held " +
          std::to_string(count_) + " series): " + path_);
    }
    dst += got;
    bytes -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return util::Status::Ok();
}

SeriesFileWriter::~SeriesFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

SeriesFileWriter::SeriesFileWriter(SeriesFileWriter&& other) noexcept
    : file_(other.file_),
      count_(other.count_),
      length_(other.length_),
      path_(std::move(other.path_)),
      finished_(other.finished_) {
  other.file_ = nullptr;
}

SeriesFileWriter& SeriesFileWriter::operator=(
    SeriesFileWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    count_ = other.count_;
    length_ = other.length_;
    path_ = std::move(other.path_);
    finished_ = other.finished_;
    other.file_ = nullptr;
  }
  return *this;
}

util::Result<SeriesFileWriter> SeriesFileWriter::Create(
    const std::string& path, size_t length) {
  HYDRA_CHECK_MSG(length > 0, "SeriesFileWriter needs a positive length");
  SeriesFileWriter writer;
  writer.file_ = std::fopen(path.c_str(), "wb");
  if (writer.file_ == nullptr) {
    return util::Status::Error("cannot open for write: " + path + " (" +
                               std::strerror(errno) + ")");
  }
  writer.length_ = length;
  writer.path_ = path;
  // Provisional count 0: until Finish patches it, the file's size exceeds
  // what the header promises, so the strict readers reject it — an
  // interrupted generation can never masquerade as a complete dataset.
  const uint64_t header[3] = {kMagic, 0, length};
  if (std::fwrite(header, sizeof(header), 1, writer.file_) != 1) {
    return util::Status::Error("header write failed: " + path);
  }
  return writer;
}

util::Status SeriesFileWriter::Append(core::SeriesView series) {
  HYDRA_CHECK_MSG(series.size() == length_,
                  "SeriesFileWriter::Append length mismatch");
  return AppendBlock(series.data(), 1);
}

util::Status SeriesFileWriter::AppendBlock(const core::Value* values,
                                           size_t series_count) {
  HYDRA_CHECK_MSG(file_ != nullptr && !finished_,
                  "AppendBlock on a finished or closed SeriesFileWriter");
  const size_t n = series_count * length_;
  if (n != 0 &&
      std::fwrite(values, sizeof(core::Value), n, file_) != n) {
    return util::Status::Error("short write (disk full?) after " +
                               std::to_string(count_) + " series: " + path_);
  }
  count_ += series_count;
  return util::Status::Ok();
}

util::Status SeriesFileWriter::Finish() {
  HYDRA_CHECK_MSG(file_ != nullptr && !finished_,
                  "Finish on a finished or closed SeriesFileWriter");
  finished_ = true;
  const uint64_t header[3] = {kMagic, count_, length_};
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(header, sizeof(header), 1, file_) != 1 ||
      std::fflush(file_) != 0) {
    return util::Status::Error("header patch failed: " + path_);
  }
  std::FILE* file = file_;
  file_ = nullptr;
  if (std::fclose(file) != 0) {
    return util::Status::Error("close failed (short write?): " + path_);
  }
  return util::Status::Ok();
}

}  // namespace hydra::io
