#include "storage/backend.h"

#include <algorithm>
#include <utility>

#include "io/counted_storage.h"
#include "io/series_file.h"

namespace hydra::storage {

util::Result<StorageBackend> ParseStorageBackend(const std::string& token) {
  if (token == "ram") return StorageBackend::kRam;
  if (token == "mmap") return StorageBackend::kMmap;
  return util::Status::Error("unknown storage backend '" + token +
                             "' (expected ram or mmap)");
}

const char* StorageBackendName(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kRam:
      return "ram";
    case StorageBackend::kMmap:
      return "mmap";
  }
  return "?";
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
  auto file = FileDataset::Open(path, name, options.pool);
  if (!file.ok()) return file.status();
  handle.file_ = std::move(file).value();
  return handle;
}

std::string StorageHandle::Describe() const {
  if (file_ == nullptr) return "storage: ram (whole dataset resident)";
  const BufferPool& pool = file_->pool();
  const size_t pool_bytes =
      pool.budget_series() * file_->file().series_bytes();
  // A cursor borrows at most kRunMaxSeries of the pool's largest run; one
  // the budget cannot cover reads one series per pread.
  const size_t run = std::min(io::CountedStorage::kRunMaxSeries,
                              pool.max_run_series());
  const size_t cap = pool.budget_series() >= run ? run : 1;
  return "storage: mmap pool=" + std::to_string(pool_bytes / (1 << 20)) +
         "MiB (run scratch for readers, runs of at most " +
         std::to_string(cap) + " series)";
}

}  // namespace hydra::storage
