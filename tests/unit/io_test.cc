#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "io/counted_storage.h"
#include "io/disk_model.h"
#include "io/series_file.h"

namespace hydra::io {
namespace {

core::Dataset MakeData(size_t count, size_t length) {
  core::Dataset d("t", length);
  for (size_t i = 0; i < count; ++i) {
    std::vector<core::Value> row(length, static_cast<core::Value>(i));
    d.Append(row);
  }
  return d;
}

TEST(CountedStorage, SequentialReadsChargeOneSeek) {
  const auto data = MakeData(10, 8);
  CountedStorage storage(&data);
  core::SearchStats stats;
  for (core::SeriesId i = 0; i < 10; ++i) storage.Read(i, &stats);
  EXPECT_EQ(stats.random_seeks, 1);  // only the initial positioning
  EXPECT_EQ(stats.sequential_reads, 10);
  EXPECT_EQ(stats.bytes_read,
            static_cast<int64_t>(10 * 8 * sizeof(core::Value)));
}

TEST(CountedStorage, SkipsChargeSeeks) {
  const auto data = MakeData(10, 8);
  CountedStorage storage(&data);
  core::SearchStats stats;
  storage.Read(0, &stats);
  storage.Read(5, &stats);  // skip
  storage.Read(6, &stats);  // contiguous
  storage.Read(2, &stats);  // backward seek
  EXPECT_EQ(stats.random_seeks, 3);
  EXPECT_EQ(stats.sequential_reads, 4);
}

TEST(CountedStorage, ReadReturnsCorrectSeries) {
  const auto data = MakeData(4, 8);
  CountedStorage storage(&data);
  core::SearchStats stats;
  const auto s = storage.Read(3, &stats);
  EXPECT_FLOAT_EQ(s[0], 3.0f);
}

TEST(CountedStorage, ResetCursorForcesSeek) {
  const auto data = MakeData(4, 8);
  CountedStorage storage(&data);
  core::SearchStats stats;
  storage.Read(0, &stats);
  storage.ResetCursor();
  storage.Read(1, &stats);  // would be sequential without the reset
  EXPECT_EQ(stats.random_seeks, 2);
}

TEST(ChargeHelpers, LeafReadSemantics) {
  core::SearchStats stats;
  ChargeLeafRead(100, 64, &stats);
  EXPECT_EQ(stats.random_seeks, 1);
  EXPECT_EQ(stats.sequential_reads, 100);
  EXPECT_EQ(stats.bytes_read, 6400);
}

TEST(DiskModel, HddChargesSeeksHeavily) {
  const DiskModel hdd = DiskModel::Hdd();
  const DiskModel ssd = DiskModel::Ssd();
  // 1000 seeks of tiny reads: HDD must be much slower than SSD.
  const double hdd_time = hdd.IoSeconds(1024, 1000);
  const double ssd_time = ssd.IoSeconds(1024, 1000);
  EXPECT_GT(hdd_time, 10.0 * ssd_time);
}

TEST(DiskModel, SsdSlowerOnPureThroughput) {
  const DiskModel hdd = DiskModel::Hdd();
  const DiskModel ssd = DiskModel::Ssd();
  // A large sequential scan: the paper's HDD RAID has ~4x the throughput.
  const int64_t gb = 1024LL * 1024 * 1024;
  EXPECT_LT(hdd.IoSeconds(gb, 1), ssd.IoSeconds(gb, 1));
}

TEST(DiskModel, QueryTotalAddsCpu) {
  const DiskModel mem = DiskModel::Memory();
  core::SearchStats stats;
  stats.cpu_seconds = 1.5;
  stats.bytes_read = 123456;
  EXPECT_NEAR(mem.QueryTotalSeconds(stats), 1.5, 1e-3);
}

TEST(SeriesFile, RoundTrip) {
  const auto data = MakeData(5, 16);
  const std::string path = ::testing::TempDir() + "/hydra_series_file_test.bin";
  ASSERT_TRUE(WriteSeriesFile(path, data).ok());
  auto loaded = ReadSeriesFile(path, "loaded");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const core::Dataset& d = loaded.value();
  ASSERT_EQ(d.size(), 5u);
  ASSERT_EQ(d.length(), 16u);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < d.length(); ++j) {
      EXPECT_FLOAT_EQ(d[i][j], data[i][j]);
    }
  }
  std::remove(path.c_str());
}

// A failed write must not destroy the file it would have replaced: the
// writer fills <path>.tmp and renames it over the old file only once
// every byte is flushed and synced. A directory squatting on the temp
// path makes the temp open fail.
TEST(SeriesFile, FailedWriteKeepsThePreviousFile) {
  const auto old_data = MakeData(5, 16);
  const std::string path = ::testing::TempDir() + "/hydra_kept.bin";
  const std::string tmp = path + ".tmp";
  ::rmdir(tmp.c_str());  // left by an earlier run that stopped early
  ASSERT_TRUE(WriteSeriesFile(path, old_data).ok());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  const util::Status failed = WriteSeriesFile(path, MakeData(3, 8));
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find(tmp), std::string::npos)
      << failed.message();
  auto kept = ReadSeriesFile(path, "kept");
  ASSERT_TRUE(kept.ok()) << kept.status().message();
  ASSERT_EQ(kept.value().size(), 5u);
  ASSERT_EQ(kept.value().length(), 16u);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 16; ++j) {
      EXPECT_EQ(kept.value()[i][j], old_data[i][j]);
    }
  }
  ::rmdir(tmp.c_str());
  std::remove(path.c_str());
}

TEST(SeriesFile, MissingFileIsError) {
  auto r = ReadSeriesFile("/nonexistent/path/file.bin");
  EXPECT_FALSE(r.ok());
}

TEST(SeriesFile, TruncatedFileIsError) {
  // A partial final series must be rejected, not silently dropped: the
  // header's promised size is the contract.
  const auto data = MakeData(5, 16);
  const std::string path = ::testing::TempDir() + "/hydra_truncated.bin";
  ASSERT_TRUE(WriteSeriesFile(path, data).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 7), 0);
  auto r = ReadSeriesFile(path);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("size mismatch"), std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

TEST(SeriesFile, TrailingGarbageIsError) {
  const auto data = MakeData(5, 16);
  const std::string path = ::testing::TempDir() + "/hydra_trailing.bin";
  ASSERT_TRUE(WriteSeriesFile(path, data).ok());
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char junk[3] = {9, 9, 9};
  std::fwrite(junk, sizeof(junk), 1, f);
  std::fclose(f);
  auto r = ReadSeriesFile(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(SeriesFile, OverflowingHeaderIsError) {
  // A crafted header whose count * length * sizeof(Value) wraps must be
  // rejected up front — not crash (a naive guard divides by the wrapped
  // product: count = 2^62 makes it exactly 0) and not allocate.
  const std::string path = ::testing::TempDir() + "/hydra_overflow.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t header[3] = {0x485944524153ULL, uint64_t{1} << 62, 16};
  std::fwrite(header, sizeof(header), 1, f);
  std::fclose(f);
  auto r = ReadSeriesFile(path);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("overflow"), std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

TEST(SeriesFile, OpenReadsPositionally) {
  const auto data = MakeData(6, 16);
  const std::string path = ::testing::TempDir() + "/hydra_positional.bin";
  ASSERT_TRUE(WriteSeriesFile(path, data).ok());
  auto opened = SeriesFile::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const SeriesFile file = std::move(opened).value();
  EXPECT_EQ(file.count(), 6u);
  EXPECT_EQ(file.length(), 16u);
  std::vector<core::Value> row(16);
  ASSERT_TRUE(file.ReadSeries(4, 1, row.data()).ok());
  EXPECT_FLOAT_EQ(row[0], 4.0f);
  // A block read out of order: positional access has no cursor.
  std::vector<core::Value> block(3 * 16);
  ASSERT_TRUE(file.ReadSeries(1, 3, block.data()).ok());
  EXPECT_FLOAT_EQ(block[0], 1.0f);
  EXPECT_FLOAT_EQ(block[16], 2.0f);
  EXPECT_FLOAT_EQ(block[32], 3.0f);
  ASSERT_TRUE(file.ReadSeries(0, 1, row.data()).ok());
  EXPECT_FLOAT_EQ(row[0], 0.0f);
  std::remove(path.c_str());
}

TEST(SeriesFile, OpenRejectsTruncatedFile) {
  // Open applies the bulk loader's validation without loading values.
  const auto data = MakeData(5, 16);
  const std::string path = ::testing::TempDir() + "/hydra_open_trunc.bin";
  ASSERT_TRUE(WriteSeriesFile(path, data).ok());
  ASSERT_EQ(truncate(path.c_str(), 24 + 3 * 16 * 4), 0);
  auto r = SeriesFile::Open(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(SeriesFile, TruncationAfterOpenIsTypedError) {
  // The SIGBUS trap of a bare mmap: the file shrinks *after* Open. The
  // pread path must surface a typed error Status, never a signal.
  const auto data = MakeData(5, 16);
  const std::string path = ::testing::TempDir() + "/hydra_late_trunc.bin";
  ASSERT_TRUE(WriteSeriesFile(path, data).ok());
  auto opened = SeriesFile::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const SeriesFile file = std::move(opened).value();
  ASSERT_EQ(truncate(path.c_str(), 24 + 2 * 16 * 4), 0);  // keep 2 of 5
  std::vector<core::Value> row(16);
  ASSERT_TRUE(file.ReadSeries(1, 1, row.data()).ok());  // inside the file
  EXPECT_FLOAT_EQ(row[0], 1.0f);
  const auto status = file.ReadSeries(4, 1, row.data());  // beyond its end
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("truncated"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(SeriesFileWriter, StreamsByteIdenticalToBulkWrite) {
  const auto data = MakeData(9, 16);
  const std::string bulk = ::testing::TempDir() + "/hydra_bulk.bin";
  const std::string streamed = ::testing::TempDir() + "/hydra_streamed.bin";
  ASSERT_TRUE(WriteSeriesFile(bulk, data).ok());
  auto created = SeriesFileWriter::Create(streamed, 16);
  ASSERT_TRUE(created.ok()) << created.status().message();
  SeriesFileWriter writer = std::move(created).value();
  ASSERT_TRUE(writer.Append(data[0]).ok());  // one series at a time...
  ASSERT_TRUE(writer.AppendBlock(data[1].data(), 4).ok());  // ...then a block
  ASSERT_TRUE(writer.AppendBlock(data[5].data(), 4).ok());
  ASSERT_TRUE(writer.Finish().ok());
  // Byte-for-byte identical, header included.
  std::FILE* a = std::fopen(bulk.c_str(), "rb");
  std::FILE* b = std::fopen(streamed.c_str(), "rb");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (;;) {
    const int ca = std::fgetc(a);
    const int cb = std::fgetc(b);
    ASSERT_EQ(ca, cb);
    if (ca == EOF) break;
  }
  std::fclose(a);
  std::fclose(b);
  std::remove(bulk.c_str());
  std::remove(streamed.c_str());
}

TEST(SeriesFileWriter, UnfinishedFileIsRejectedByReaders) {
  // A writer that dies before Finish leaves a provisional header (count
  // 0) against a larger file; every reader must reject it rather than
  // serve a silently-empty dataset.
  const auto data = MakeData(3, 16);
  const std::string path = ::testing::TempDir() + "/hydra_unfinished.bin";
  {
    auto created = SeriesFileWriter::Create(path, 16);
    ASSERT_TRUE(created.ok());
    SeriesFileWriter writer = std::move(created).value();
    ASSERT_TRUE(writer.AppendBlock(data[0].data(), 3).ok());
    // No Finish: the writer goes out of scope with a count-0 header.
  }
  EXPECT_FALSE(ReadSeriesFile(path).ok());
  EXPECT_FALSE(SeriesFile::Open(path).ok());
  std::remove(path.c_str());
}

TEST(SeriesFile, BadMagicIsError) {
  const std::string path = ::testing::TempDir() + "/hydra_bad_magic.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = {1, 2, 3};
  std::fwrite(junk, sizeof(junk), 1, f);
  std::fclose(f);
  auto r = ReadSeriesFile(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hydra::io
