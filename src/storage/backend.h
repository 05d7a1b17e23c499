// Storage backend selection: one Open() call that yields a queryable
// core::Dataset either fully in RAM (the historical behavior, still the
// default) or file-backed via mmap + buffer pool (storage::FileDataset).
// Answers are bit-identical across backends — the backend changes where
// the bytes live, never which bytes are compared — so `hydra query
// --storage mmap` must diff clean against the RAM run.
#ifndef HYDRA_STORAGE_BACKEND_H_
#define HYDRA_STORAGE_BACKEND_H_

#include <memory>
#include <string>

#include "core/dataset.h"
#include "storage/file_dataset.h"
#include "util/status.h"

namespace hydra::storage {

enum class StorageBackend {
  kRam,   // bulk-load the whole file into an owning Dataset
  kMmap,  // map the file; verification reads are the pool's run reads
};

/// Parses "ram" / "mmap". Returns an error Status naming the bad token.
util::Result<StorageBackend> ParseStorageBackend(const std::string& token);
const char* StorageBackendName(StorageBackend backend);

struct StorageOptions {
  StorageBackend backend = StorageBackend::kRam;
  BufferPoolOptions pool;
};

/// An opened dataset plus whatever owns its memory (nothing extra for RAM,
/// the FileDataset for mmap). Movable; dataset() stays valid while the
/// handle lives.
class StorageHandle {
 public:
  StorageHandle() = default;

  /// Opens `path` under `options`. Errors (missing/corrupt file, mmap
  /// failure) come back as Status, never aborts.
  static util::Result<StorageHandle> Open(const std::string& path,
                                          const std::string& name,
                                          const StorageOptions& options);

  const core::Dataset& dataset() const {
    return file_ != nullptr ? file_->dataset() : ram_;
  }
  StorageBackend backend() const { return backend_; }
  /// True when verification reads go through a buffer pool (mmap backend).
  bool pooled() const { return file_ != nullptr; }
  /// One-line human summary of the backend geometry, e.g.
  /// "storage: mmap pool=16MiB (run scratch for readers, runs of at most
  /// 256 series)" or "storage: ram (whole dataset resident)".
  std::string Describe() const;

 private:
  StorageBackend backend_ = StorageBackend::kRam;
  core::Dataset ram_;
  std::unique_ptr<FileDataset> file_;
};

}  // namespace hydra::storage

#endif  // HYDRA_STORAGE_BACKEND_H_
