// Storage backend selection: one Open() call that yields a queryable
// core::Dataset either fully in RAM (the historical behavior, still the
// default) or file-backed: the series file is validated (io::SeriesFile),
// mapped read-only, and wrapped in a borrowed-view Dataset whose bulk
// access (index construction, scans) streams the mapping through the
// kernel page cache, while query-time verification reads go through an
// attached io::RunReader as real, measured, budget-bounded preads.
// Answers are bit-identical across backends — the backend changes where
// the bytes live, never which bytes are compared — so `hydra query
// --storage mmap` must diff clean against the RAM run.
#ifndef HYDRA_STORAGE_BACKEND_H_
#define HYDRA_STORAGE_BACKEND_H_

#include <memory>
#include <string>

#include "core/dataset.h"
#include "io/counted_storage.h"
#include "util/status.h"

namespace hydra::storage {

enum class StorageBackend {
  kRam,   // bulk-load the whole file into an owning Dataset
  kMmap,  // map the file; verification reads are the run reader's preads
};

/// Parses "ram" / "mmap". Returns an error Status naming the bad token.
util::Result<StorageBackend> ParseStorageBackend(const std::string& token);
const char* StorageBackendName(StorageBackend backend);

struct StorageOptions {
  StorageBackend backend = StorageBackend::kRam;
  io::RunReaderOptions pool;
};

/// An opened dataset plus whatever owns its memory (nothing extra for RAM;
/// the file, its mapping and its run reader for mmap). Movable; dataset()
/// and every slice of it stay valid while the handle lives.
class StorageHandle {
 public:
  /// Opens `path` under `options`. Errors (missing/corrupt file, mmap
  /// failure) come back as Status, never aborts. `name` labels the
  /// dataset.
  static util::Result<StorageHandle> Open(const std::string& path,
                                          const std::string& name,
                                          const StorageOptions& options);

  const core::Dataset& dataset() const;
  StorageBackend backend() const { return backend_; }
  /// One-line human summary of the backend geometry, e.g.
  /// "storage: mmap pool=16MiB (run scratch for readers, runs of at most
  /// 128 series)" or "storage: ram (whole dataset resident)". The pool is
  /// the budget as given (in bytes when not a whole number of MiB); the
  /// run cap is io::RunReader::run_cap, the one a cursor reads with.
  std::string Describe() const;

 private:
  // The mapped file, its run reader and the dataset over them, held on the
  // heap: the dataset points at the reader, and the handle moves.
  struct Mapped;
  struct MappedDeleter {
    void operator()(Mapped* mapped) const;
  };

  StorageBackend backend_ = StorageBackend::kRam;
  core::Dataset ram_;
  std::unique_ptr<Mapped, MappedDeleter> mapped_;
};

}  // namespace hydra::storage

#endif  // HYDRA_STORAGE_BACKEND_H_
