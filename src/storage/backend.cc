#include "storage/backend.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/types.h"
#include "io/series_file.h"

namespace hydra::storage {

struct StorageHandle::Mapped {
  Mapped(io::SeriesFile series_file, const io::RunReaderOptions& options)
      : file(std::move(series_file)), reader(&file, options) {}
  ~Mapped() {
    if (map != nullptr) ::munmap(map, map_bytes);
  }
  Mapped(const Mapped&) = delete;
  Mapped& operator=(const Mapped&) = delete;

  io::SeriesFile file;
  void* map = nullptr;  // whole file, header included; null for an empty file
  size_t map_bytes = 0;
  io::RunReader reader;
  core::Dataset dataset;
};

void StorageHandle::MappedDeleter::operator()(Mapped* mapped) const {
  delete mapped;
}

util::Result<StorageBackend> ParseStorageBackend(const std::string& token) {
  if (token == "ram") return StorageBackend::kRam;
  if (token == "mmap") return StorageBackend::kMmap;
  return util::Status::Error("unknown storage backend '" + token +
                             "' (expected ram or mmap)");
}

util::Result<StorageHandle> StorageHandle::Open(const std::string& path,
                                                const std::string& name,
                                                const StorageOptions& options) {
  StorageHandle handle;
  handle.backend_ = options.backend;
  if (options.backend == StorageBackend::kRam) {
    auto data = io::ReadSeriesFile(path, name);
    if (!data.ok()) return data.status();
    handle.ram_ = std::move(data).value();
    return handle;
  }
  auto file = io::SeriesFile::Open(path);
  if (!file.ok()) return file.status();
  handle.mapped_.reset(new Mapped(std::move(file).value(), options.pool));
  Mapped& mapped = *handle.mapped_;
  const core::Value* values = nullptr;
  if (mapped.file.count() != 0) {
    // Map the whole file (header included) so the first value lands at a
    // 24-byte offset — 4-byte aligned for float access. PROT_READ keeps
    // the view immutable; MAP_SHARED avoids copy-on-write reservations.
    const size_t map_bytes = io::SeriesFile::kHeaderBytes +
                             mapped.file.count() * mapped.file.series_bytes();
    void* map = ::mmap(nullptr, map_bytes, PROT_READ, MAP_SHARED,
                       mapped.file.fd(), 0);
    if (map == MAP_FAILED) {
      return util::Status::Error("cannot mmap series file: " + path + " (" +
                                 std::strerror(errno) + ")");
    }
    mapped.map = map;
    mapped.map_bytes = map_bytes;
    values = reinterpret_cast<const core::Value*>(
        static_cast<const char*>(map) + io::SeriesFile::kHeaderBytes);
  }
  mapped.dataset = core::Dataset::BorrowedView(
      name, values, mapped.file.count(), mapped.file.length());
  mapped.dataset.AttachRawSource(&mapped.reader);
  return handle;
}

const core::Dataset& StorageHandle::dataset() const {
  return mapped_ != nullptr ? mapped_->dataset : ram_;
}

std::string StorageHandle::Describe() const {
  if (mapped_ == nullptr) return "storage: ram (whole dataset resident)";
  const io::RunReader& reader = mapped_->reader;
  const size_t budget = reader.budget_bytes();
  const std::string pool = budget % (size_t{1} << 20) == 0
                               ? std::to_string(budget >> 20) + "MiB"
                               : std::to_string(budget) + "B";
  return "storage: mmap pool=" + pool +
         " (run scratch for readers, runs of at most " +
         std::to_string(reader.run_cap()) + " series)";
}

}  // namespace hydra::storage
