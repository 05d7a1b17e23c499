// The Build / Save / Open lifecycle beyond answer identity (the identity
// oracle's lifecycle axis): which methods persist, a DSTree cut into ten
// segments round-trips, serialization is deterministic, an opened tree
// counts the leaves it loads, corrupt, crafted or mismatched index files
// fail with a clean error status (never a CHECK abort), and lifecycle
// misuse (Save before Build, double Open) dies loudly.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/index_codec.h"
#include "transform/eapca.h"

namespace hydra {
namespace {

constexpr size_t kCount = 600;
constexpr size_t kLength = 64;
constexpr size_t kLeaf = 64;

core::Dataset TestData() {
  return gen::RandomWalkDataset(kCount, kLength, 9301);
}
gen::Workload TestQueries() { return gen::RandWorkload(5, kLength, 9302); }

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every QuerySpec shape the method's traits advertise, including a
/// budgeted spec and an exact range query.
std::vector<core::QuerySpec> SpecBattery(const core::MethodTraits& traits) {
  std::vector<core::QuerySpec> specs;
  specs.push_back(core::QuerySpec::Knn(5));
  if (traits.supports_ng) specs.push_back(core::QuerySpec::NgApprox(3));
  if (traits.supports_epsilon) {
    specs.push_back(core::QuerySpec::Epsilon(5, 0.5));
  }
  if (traits.supports_delta_epsilon) {
    specs.push_back(core::QuerySpec::DeltaEpsilon(5, 0.5, 0.5));
  }
  core::QuerySpec budgeted = core::QuerySpec::Knn(5);
  budgeted.max_raw_series = 50;
  specs.push_back(budgeted);
  specs.push_back(core::QuerySpec::Range(8.0));
  return specs;
}

/// Answers the whole battery for the whole workload, in a fixed order
/// (ADS+ adapts during queries, so the execution order is part of the
/// contract being compared).
std::vector<core::QueryResult> RunBattery(core::SearchMethod* method,
                                          const gen::Workload& workload) {
  std::vector<core::QueryResult> results;
  for (const core::QuerySpec& spec : SpecBattery(method->traits())) {
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      results.push_back(method->Execute(workload.queries[q], spec));
    }
  }
  return results;
}

void ExpectBitIdentical(const core::QueryResult& a, const core::QueryResult& b,
                        const std::string& context) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << context;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << context;
    EXPECT_EQ(a.neighbors[i].dist_sq, b.neighbors[i].dist_sq) << context;
  }
  // Everything stats-relevant except measured wall-clock time.
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    EXPECT_EQ(a.stats.*counter.member, b.stats.*counter.member)
        << context << " " << counter.name;
  }
  EXPECT_EQ(a.stats.answer_mode_delivered, b.stats.answer_mode_delivered)
      << context;
  EXPECT_EQ(a.stats.budget_exhausted, b.stats.budget_exhausted) << context;
}

void ExpectSameFootprint(const core::Footprint& a, const core::Footprint& b,
                         const std::string& context) {
  EXPECT_EQ(a.total_nodes, b.total_nodes) << context;
  EXPECT_EQ(a.leaf_nodes, b.leaf_nodes) << context;
  EXPECT_EQ(a.memory_bytes, b.memory_bytes) << context;
  EXPECT_EQ(a.disk_bytes, b.disk_bytes) << context;
  EXPECT_EQ(a.leaf_fill_fractions, b.leaf_fill_fractions) << context;
  EXPECT_EQ(a.leaf_depths, b.leaf_depths) << context;
}

std::string FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(PersistenceRegistry, SevenIndexMethodsPersistScansDoNot) {
  const auto persistent = bench::PersistentCapableNames();
  EXPECT_EQ(persistent.size(), 7u);
  for (const std::string& name : bench::AllMethodNames()) {
    const core::MethodTraits t = bench::CreateMethod(name)->traits();
    const bool scan =
        name == "UCR-Suite" || name == "MASS" || name == "Stepwise";
    EXPECT_EQ(t.supports_persistence, !scan) << name;
    if (scan) {
      EXPECT_FALSE(t.persistence_reason.empty()) << name;
    }
  }
}

TEST(PersistenceRoundTrip, DsTreeWithTenSegmentWordsRoundTrips) {
  // 100 points do not split into 16 segments: DSTree's summaries section
  // holds 10 symbols per series, and Open must expect that size.
  const size_t length = 100;
  const core::Dataset data = gen::RandomWalkDataset(kCount, length, 9303);
  const gen::Workload workload = gen::RandWorkload(5, length, 9304);
  const std::string dir = FreshDir("dstree_ten_segments");
  auto built = bench::CreateMethod("DSTree", kLeaf);
  built->Build(data);
  ASSERT_TRUE(built->Save(dir).ok());
  auto opened = bench::CreateMethod("DSTree");
  const auto open_stats = opened->Open(dir, data);
  ASSERT_TRUE(open_stats.ok()) << open_stats.status().message();
  ExpectSameFootprint(opened->footprint(), built->footprint(), "DSTree");
  const auto built_answers = RunBattery(built.get(), workload);
  const auto opened_answers = RunBattery(opened.get(), workload);
  ASSERT_EQ(built_answers.size(), opened_answers.size());
  for (size_t i = 0; i < built_answers.size(); ++i) {
    ExpectBitIdentical(built_answers[i], opened_answers[i],
                       "battery entry " + std::to_string(i));
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceRoundTrip, SerializationIsDeterministic) {
  // Saving the same built index twice — and re-saving an opened copy —
  // must produce byte-identical files: replicas built from one master
  // index are interchangeable.
  const core::Dataset data = TestData();
  for (const std::string& name : bench::PersistentCapableNames()) {
    auto built = bench::CreateMethod(name, kLeaf);
    built->Build(data);
    const std::string dir_a = FreshDir("det_a");
    const std::string dir_b = FreshDir("det_b");
    ASSERT_TRUE(built->Save(dir_a).ok()) << name;
    ASSERT_TRUE(built->Save(dir_b).ok()) << name;
    EXPECT_EQ(FileContents(io::IndexFilePath(dir_a)),
              FileContents(io::IndexFilePath(dir_b)))
        << name;
    auto opened = bench::CreateMethod(name);
    ASSERT_TRUE(opened->Open(dir_a, data).ok()) << name;
    const std::string dir_c = FreshDir("det_c");
    ASSERT_TRUE(opened->Save(dir_c).ok()) << name;
    EXPECT_EQ(FileContents(io::IndexFilePath(dir_a)),
              FileContents(io::IndexFilePath(dir_c)))
        << name;
    for (const auto& dir : {dir_a, dir_b, dir_c}) {
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(PersistenceErrors, CorruptionFailsWithCleanStatus) {
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("DSTree", kLeaf);
  built->Build(data);
  const std::string dir = FreshDir("corrupt");
  ASSERT_TRUE(built->Save(dir).ok());
  const std::string file = io::IndexFilePath(dir);
  const std::string good = FileContents(file);

  // Flip one payload byte: a checksum error, reported as such.
  std::string bad = good;
  bad[good.size() / 2] = static_cast<char>(bad[good.size() / 2] ^ 0xFF);
  { std::ofstream(file, std::ios::binary) << bad; }
  auto flipped = bench::CreateMethod("DSTree")->Open(dir, data);
  ASSERT_FALSE(flipped.ok());
  EXPECT_NE(flipped.status().message().find("checksum"), std::string::npos)
      << flipped.status().message();

  // Truncate: a clean failure, not a crash.
  { std::ofstream(file, std::ios::binary) << good.substr(0, good.size() / 3); }
  auto truncated = bench::CreateMethod("DSTree")->Open(dir, data);
  EXPECT_FALSE(truncated.ok());

  // Future format version (right after the 8-byte magic, outside any
  // checksum): reported as a version error.
  std::string future = good;
  future[8] = static_cast<char>(future[8] + 1);
  { std::ofstream(file, std::ios::binary) << future; }
  auto versioned = bench::CreateMethod("DSTree")->Open(dir, data);
  ASSERT_FALSE(versioned.ok());
  EXPECT_NE(versioned.status().message().find("version"), std::string::npos)
      << versioned.status().message();
  std::filesystem::remove_all(dir);
}

// A failed Save must not destroy the index it would have replaced: the
// writer fills <index file>.tmp and renames it over the old file only
// once every byte is flushed and synced. A directory squatting on the
// temp path makes the temp open fail; the old index must still open and
// answer bit-identically.
TEST(PersistenceErrors, FailedSaveKeepsThePreviousIndex) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  auto built = bench::CreateMethod("DSTree", kLeaf);
  built->Build(data);
  const std::string dir = FreshDir("failed_save");
  ASSERT_TRUE(built->Save(dir).ok());
  std::filesystem::create_directory(io::IndexFilePath(dir) + ".tmp");
  const auto failed = built->Save(dir);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find(".tmp"), std::string::npos)
      << failed.status().message();

  auto opened = bench::CreateMethod("DSTree");
  const auto open_stats = opened->Open(dir, data);
  ASSERT_TRUE(open_stats.ok()) << open_stats.status().message();
  const auto built_answers = RunBattery(built.get(), workload);
  const auto opened_answers = RunBattery(opened.get(), workload);
  ASSERT_EQ(built_answers.size(), opened_answers.size());
  for (size_t i = 0; i < built_answers.size(); ++i) {
    ExpectBitIdentical(built_answers[i], opened_answers[i],
                       "battery entry " + std::to_string(i));
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceErrors, MismatchesAreRefused) {
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("SFA", kLeaf);
  built->Build(data);
  const std::string dir = FreshDir("mismatch");
  ASSERT_TRUE(built->Save(dir).ok());

  // A different collection (the fingerprint stores count/length/bytes).
  const core::Dataset other = gen::RandomWalkDataset(kCount / 2, kLength, 1);
  auto wrong_data = bench::CreateMethod("SFA")->Open(dir, other);
  ASSERT_FALSE(wrong_data.ok());
  EXPECT_NE(wrong_data.status().message().find("fingerprint"),
            std::string::npos)
      << wrong_data.status().message();

  // A different method.
  auto wrong_method = bench::CreateMethod("DSTree")->Open(dir, data);
  EXPECT_FALSE(wrong_method.ok());

  // A missing index directory.
  auto missing = bench::CreateMethod("SFA")->Open(FreshDir("nowhere"), data);
  EXPECT_FALSE(missing.ok());
  std::filesystem::remove_all(dir);
}

TEST(PersistenceErrors, VaFileRefusesCraftedApproximations) {
  // A crafted approximation section carries valid checksums, so only
  // DoOpen's own validation stands between it and a search that indexes
  // edge rows (and the per-query tables) by the stored cells.
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("VA+file");
  built->Build(data);
  const std::string dir = FreshDir("va_crafted");
  ASSERT_TRUE(built->Save(dir).ok());
  const std::string file = io::IndexFilePath(dir);

  io::IndexReader reader;
  ASSERT_TRUE(reader.Load(file).ok());
  ASSERT_TRUE(reader.EnterSection("options").ok());
  const uint64_t opt_dims = reader.ReadU64();
  const int32_t opt_bits = reader.ReadI32();
  const uint8_t allocation = reader.ReadU8();
  const uint8_t placement = reader.ReadU8();
  ASSERT_TRUE(reader.EnterSection("quantizer").ok());
  const int32_t total_bits = reader.ReadI32();
  const uint64_t dims = reader.ReadU64();
  std::vector<int32_t> bits;
  std::vector<std::vector<double>> edges;
  for (uint64_t d = 0; d < dims; ++d) {
    bits.push_back(reader.ReadI32());
    edges.push_back(reader.ReadPodVector<double>());
  }
  ASSERT_TRUE(reader.EnterSection("approximations").ok());
  const std::vector<uint16_t> cells = reader.ReadPodVector<uint16_t>();
  const std::vector<double> tails = reader.ReadPodVector<double>();
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  ASSERT_EQ(cells.size(), kCount * dims);

  const auto open_crafted = [&](const std::vector<uint16_t>& c,
                                const std::vector<double>& t) {
    io::IndexWriter writer(reader.method_name(), reader.fingerprint());
    writer.BeginSection("options");
    writer.WriteU64(opt_dims);
    writer.WriteI32(opt_bits);
    writer.WriteU8(allocation);
    writer.WriteU8(placement);
    writer.EndSection();
    writer.BeginSection("quantizer");
    writer.WriteI32(total_bits);
    writer.WriteU64(dims);
    for (uint64_t d = 0; d < dims; ++d) {
      writer.WriteI32(bits[d]);
      writer.WritePodVector(edges[d]);
    }
    writer.EndSection();
    writer.BeginSection("approximations");
    writer.WritePodVector(c);
    writer.WritePodVector(t);
    writer.EndSection();
    EXPECT_TRUE(writer.Commit(file).ok());
    return bench::CreateMethod("VA+file")->Open(dir, data);
  };

  // The faithful rewrite opens: the crafting itself is sound.
  ASSERT_TRUE(open_crafted(cells, tails).ok());

  // The last series' last cell one past its dimension's cell count.
  std::vector<uint16_t> bad_cells = cells;
  bad_cells.back() = static_cast<uint16_t>(1u << bits.back());
  const auto out_of_range = open_crafted(bad_cells, tails);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_NE(out_of_range.status().message().find(
                "VA+ approximation cell out of range"),
            std::string::npos)
      << out_of_range.status().message();

  for (const double tail :
       {-1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    std::vector<double> bad_tails = tails;
    bad_tails[kCount / 2] = tail;
    const auto bad_energy = open_crafted(cells, bad_tails);
    ASSERT_FALSE(bad_energy.ok()) << tail;
    EXPECT_NE(bad_energy.status().message().find("residual energy"),
              std::string::npos)
        << bad_energy.status().message();
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceErrors, DsTreeRefusesCraftedSegmentationsAndSummaries) {
  // Crafted sections carry valid checksums, so only DoOpen's validation
  // keeps a search's segment statistics inside each series' prefix sums
  // and its member bounds inside the summary words.
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("DSTree", kLeaf);
  built->Build(data);
  const std::string dir = FreshDir("dstree_crafted");
  ASSERT_TRUE(built->Save(dir).ok());
  const std::string file = io::IndexFilePath(dir);

  io::IndexReader reader;
  ASSERT_TRUE(reader.Load(file).ok());
  ASSERT_TRUE(reader.EnterSection("options").ok());
  const uint64_t initial_segments = reader.ReadU64();
  const uint64_t max_segments = reader.ReadU64();
  const uint64_t leaf_capacity = reader.ReadU64();
  const int64_t leaf_count = reader.ReadI64();
  ASSERT_TRUE(reader.EnterSection("summaries").ok());
  const std::vector<uint8_t> words = reader.ReadPodVector<uint8_t>();
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  ASSERT_EQ(words.size(), kCount * 16);

  // Envelopes wide enough that every node bound is 0 (never prunes).
  const transform::SegmentRange everything{-1e300, 1e300, 0.0, 1e300};
  std::vector<core::SeriesId> ids(kCount);
  for (size_t i = 0; i < kCount; ++i) ids[i] = static_cast<core::SeriesId>(i);
  const auto write_leaf = [&](io::IndexWriter* w, std::vector<uint32_t> ends,
                              const std::vector<core::SeriesId>& members) {
    w->WritePodVector(ends);
    w->WritePodVector(
        std::vector<transform::SegmentRange>(ends.size(), everything));
    w->WriteU64(members.size());
    w->WriteI32(0);
    w->WriteBool(true);
    w->WritePodVector(members);
  };
  // A root over `root_ends`: one leaf holding every series, or (with
  // `child_ends`) an internal node splitting them between two leaves
  // over that routing segmentation. The leaves' own segmentations stay
  // valid, so only the internal node's check can refuse a bad one.
  const auto open_crafted = [&](const std::vector<uint8_t>& summary,
                                std::vector<uint32_t> root_ends,
                                std::vector<uint32_t> child_ends) {
    io::IndexWriter writer(reader.method_name(), reader.fingerprint());
    writer.BeginSection("options");
    writer.WriteU64(initial_segments);
    writer.WriteU64(max_segments);
    writer.WriteU64(leaf_capacity);
    writer.WriteI64(leaf_count);
    writer.EndSection();
    writer.BeginSection("summaries");
    writer.WritePodVector(summary);
    writer.EndSection();
    writer.BeginSection("tree");
    if (child_ends.empty()) {
      write_leaf(&writer, root_ends, ids);
    } else {
      writer.WritePodVector(root_ends);
      writer.WritePodVector(
          std::vector<transform::SegmentRange>(root_ends.size(), everything));
      writer.WriteU64(kCount);
      writer.WriteI32(0);
      writer.WriteBool(false);
      writer.WritePodVector(child_ends);
      writer.WriteI32(0);
      writer.WriteBool(true);
      writer.WriteDouble(0.0);
      const std::vector<core::SeriesId> half(ids.begin(),
                                             ids.begin() + kCount / 2);
      const std::vector<core::SeriesId> rest(ids.begin() + kCount / 2,
                                             ids.end());
      write_leaf(&writer, {16, 32, 48, 64}, half);
      write_leaf(&writer, {16, 32, 48, 64}, rest);
    }
    writer.EndSection();
    EXPECT_TRUE(writer.Commit(file).ok());
    auto method = bench::CreateMethod("DSTree", kLeaf);
    const util::Status status = method->Open(dir, data).status();
    return std::make_pair(status, std::move(method));
  };
  const auto expect_refused = [](const util::Status& status,
                                 const std::string& message) {
    ASSERT_FALSE(status.ok()) << message;
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.message();
  };
  const std::string bad_seg =
      "DSTree node segmentation does not cover the series length";

  // The faithful shapes open and answer exactly: the crafting is sound.
  for (const auto& child : {std::vector<uint32_t>{},
                            std::vector<uint32_t>{16, 32, 48, 64}}) {
    auto [status, opened] = open_crafted(words, {32, 64}, child);
    ASSERT_TRUE(status.ok()) << status.message();
    const gen::Workload queries = TestQueries();
    const auto got = opened->Execute(queries.queries[0],
                                     core::QuerySpec::Knn(3));
    const auto truth = core::BruteForceKnn(data, queries.queries[0], 3);
    ASSERT_EQ(got.neighbors.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(got.neighbors[i].id, truth[i].id);
    }
  }

  // Ends past the series, out of order, or an empty segment, at the root
  // and in the children's shared segmentation.
  for (const std::vector<uint32_t>& ends :
       {std::vector<uint32_t>{5000, 10, 20, 64},
        std::vector<uint32_t>{32, 16, 64}, std::vector<uint32_t>{0, 64},
        std::vector<uint32_t>{32, 32, 64}, std::vector<uint32_t>{32, 70}}) {
    expect_refused(open_crafted(words, ends, {}).first, bad_seg);
    expect_refused(open_crafted(words, {32, 64}, ends).first, bad_seg);
  }

  // A summary section of the wrong size.
  const std::string bad_words = "DSTree summary words do not cover the dataset";
  std::vector<uint8_t> short_words(words.begin(), words.end() - 1);
  expect_refused(open_crafted(short_words, {32, 64}, {}).first, bad_words);
  expect_refused(open_crafted({}, {32, 64}, {}).first, bad_words);

  // Leaves must partition the ids in ascending order (the leaf scan plans
  // its reads on it): a swapped pair, in one leaf and in the second of
  // two; a series listed by both leaves (in place of another, so the
  // counts still add up); and a series no leaf lists.
  const std::vector<core::SeriesId> faithful = ids;
  const std::vector<uint32_t> two_leaves = {16, 32, 48, 64};
  std::swap(ids[kCount - 2], ids[kCount - 1]);
  for (const auto& child : {std::vector<uint32_t>{}, two_leaves}) {
    expect_refused(open_crafted(words, {32, 64}, child).first,
                   "DSTree leaf ids are not strictly ascending");
  }
  ids = faithful;
  ids[kCount / 2] = ids[0];
  expect_refused(open_crafted(words, {32, 64}, two_leaves).first,
                 "DSTree leaves list a series twice");
  ids = faithful;
  ids.pop_back();
  expect_refused(open_crafted(words, {32, 64}, two_leaves).first,
                 "DSTree leaves do not list every series");
  std::filesystem::remove_all(dir);
}

TEST(PersistenceErrors, SfaTrieRefusesCraftedSummaryWords) {
  // Leaf member bounds index each dimension's bin edges by the stored
  // symbol, so DoOpen must refuse a symbol outside the alphabet even when
  // the section checksums are valid.
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("SFA", kLeaf);
  built->Build(data);
  const std::string dir = FreshDir("sfa_crafted");
  ASSERT_TRUE(built->Save(dir).ok());
  const std::string file = io::IndexFilePath(dir);

  io::IndexReader reader;
  ASSERT_TRUE(reader.Load(file).ok());
  ASSERT_TRUE(reader.EnterSection("options").ok());
  const uint64_t word_length = reader.ReadU64();
  const int32_t alphabet = reader.ReadI32();
  const uint8_t binning = reader.ReadU8();
  const uint64_t leaf_capacity = reader.ReadU64();
  const uint64_t sample_size = reader.ReadU64();
  const int64_t leaf_count = reader.ReadI64();
  ASSERT_TRUE(reader.EnterSection("quantizer").ok());
  const uint64_t dims = reader.ReadU64();
  std::vector<std::vector<double>> bins;
  for (uint64_t d = 0; d < dims; ++d) {
    bins.push_back(reader.ReadPodVector<double>());
  }
  ASSERT_TRUE(reader.EnterSection("summaries").ok());
  const std::vector<double> dfts = reader.ReadPodVector<double>();
  const std::vector<uint8_t> words = reader.ReadPodVector<uint8_t>();
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  ASSERT_EQ(words.size(), kCount * dims);

  // The tree is one leaf holding every series under an all-covering MBR.
  std::vector<core::SeriesId> ids(kCount);
  for (size_t i = 0; i < kCount; ++i) ids[i] = static_cast<core::SeriesId>(i);
  const auto open_crafted = [&](const std::vector<uint8_t>& w) {
    io::IndexWriter writer(reader.method_name(), reader.fingerprint());
    writer.BeginSection("options");
    writer.WriteU64(word_length);
    writer.WriteI32(alphabet);
    writer.WriteU8(binning);
    writer.WriteU64(leaf_capacity);
    writer.WriteU64(sample_size);
    writer.WriteI64(leaf_count);
    writer.EndSection();
    writer.BeginSection("quantizer");
    writer.WriteU64(dims);
    for (const auto& b : bins) writer.WritePodVector(b);
    writer.EndSection();
    writer.BeginSection("summaries");
    writer.WritePodVector(dfts);
    writer.WritePodVector(w);
    writer.EndSection();
    writer.BeginSection("tree");
    writer.WriteI32(0);
    writer.WriteBool(true);
    writer.WriteU64(kCount);
    writer.WritePodVector(std::vector<double>(dims, -1e300));
    writer.WritePodVector(std::vector<double>(dims, 1e300));
    writer.WritePodVector(ids);
    writer.EndSection();
    EXPECT_TRUE(writer.Commit(file).ok());
    auto method = bench::CreateMethod("SFA", kLeaf);
    const util::Status status = method->Open(dir, data).status();
    return std::make_pair(status, std::move(method));
  };

  // The faithful rewrite opens and answers exactly: the crafting is sound.
  {
    auto [status, opened] = open_crafted(words);
    ASSERT_TRUE(status.ok()) << status.message();
    const gen::Workload queries = TestQueries();
    const auto got =
        opened->Execute(queries.queries[0], core::QuerySpec::Knn(3));
    const auto truth = core::BruteForceKnn(data, queries.queries[0], 3);
    ASSERT_EQ(got.neighbors.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(got.neighbors[i].id, truth[i].id);
    }
  }

  // The last symbol at the alphabet size, and at the byte's maximum.
  for (const int symbol : {alphabet, 255}) {
    std::vector<uint8_t> bad_words = words;
    bad_words.back() = static_cast<uint8_t>(symbol);
    const util::Status status = open_crafted(bad_words).first;
    ASSERT_FALSE(status.ok()) << symbol;
    EXPECT_NE(status.message().find("SFA summary word symbol out of range"),
              std::string::npos)
        << status.message();
  }

  // The one leaf must list every series once, in ascending order: a
  // swapped pair, a duplicated id (in place of another) and a missing one.
  const auto expect_refused = [&](const std::string& message) {
    const util::Status status = open_crafted(words).first;
    ASSERT_FALSE(status.ok()) << message;
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.message();
  };
  const std::vector<core::SeriesId> faithful = ids;
  std::swap(ids[0], ids[1]);
  expect_refused("SFA leaf ids are not strictly ascending");
  ids = faithful;
  ids[1] = ids[0];
  expect_refused("SFA leaf ids are not strictly ascending");
  ids = faithful;
  ids.pop_back();
  expect_refused("SFA leaves do not list every series");
  std::filesystem::remove_all(dir);
}

TEST(PersistenceErrors, IsaxTreeRefusesCraftedFirstLevel) {
  // The ng fallback scores first-level keys while the best-first seeds and
  // the descent read node words, so DoOpen must refuse a first level whose
  // keys and words disagree even when the section checksums are valid:
  // such a file would send an opened tree to another home leaf than the
  // built one.
  const core::Dataset data = TestData();
  for (const std::string name : {"iSAX2+", "ADS+"}) {
    SCOPED_TRACE(name);
    auto built = bench::CreateMethod(name, kLeaf);
    built->Build(data);
    const std::string dir = FreshDir("isax_crafted");
    ASSERT_TRUE(built->Save(dir).ok());
    const std::string file = io::IndexFilePath(dir);

    io::IndexReader reader;
    ASSERT_TRUE(reader.Load(file).ok());
    // Both methods persist three 8-byte options, segments first.
    ASSERT_TRUE(reader.EnterSection("options").ok());
    const uint64_t segments = reader.ReadU64();
    const uint64_t option1 = reader.ReadU64();
    const uint64_t option2 = reader.ReadU64();
    ASSERT_TRUE(reader.EnterSection("summaries").ok());
    const std::vector<uint8_t> words = reader.ReadPodVector<uint8_t>();
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    ASSERT_EQ(words.size(), kCount * segments);

    // A faithful first level: one leaf per first-level key holding every
    // series whose word reduces to it.
    struct Entry {
      uint32_t key;
      std::vector<uint8_t> symbols;
      std::vector<uint8_t> bits;
      int32_t depth = 1;
      std::vector<core::SeriesId> ids;
    };
    std::map<uint32_t, std::vector<core::SeriesId>> groups;
    for (size_t i = 0; i < kCount; ++i) {
      uint32_t key = 0;
      for (size_t s = 0; s < segments; ++s) {
        key = (key << 1) | (words[i * segments + s] >> 7);
      }
      groups[key].push_back(static_cast<core::SeriesId>(i));
    }
    ASSERT_GE(groups.size(), 2u);
    std::vector<Entry> faithful;
    for (const auto& [key, ids] : groups) {
      Entry entry{key, {}, std::vector<uint8_t>(segments, 1), 1, ids};
      for (size_t s = 0; s < segments; ++s) {
        entry.symbols.push_back(
            static_cast<uint8_t>((key >> (segments - 1 - s)) & 1u));
      }
      faithful.push_back(std::move(entry));
    }

    const auto open_crafted = [&](const std::vector<Entry>& entries) {
      io::IndexWriter writer(reader.method_name(), reader.fingerprint());
      writer.BeginSection("options");
      writer.WriteU64(segments);
      writer.WriteU64(option1);
      writer.WriteU64(option2);
      writer.EndSection();
      writer.BeginSection("summaries");
      writer.WritePodVector(words);
      writer.EndSection();
      writer.BeginSection("tree");
      writer.WriteU64(entries.size());
      for (const Entry& entry : entries) {
        writer.WriteU32(entry.key);
        writer.WritePodVector(entry.symbols);
        writer.WritePodVector(entry.bits);
        writer.WriteI32(entry.depth);
        writer.WriteBool(true);
        writer.WriteI32(-1);
        writer.WritePodVector(entry.ids);
      }
      writer.EndSection();
      EXPECT_TRUE(writer.Commit(file).ok());
      auto method = bench::CreateMethod(name, kLeaf);
      const util::Status status = method->Open(dir, data).status();
      return std::make_pair(status, std::move(method));
    };
    const auto expect_refused = [&](const std::vector<Entry>& entries,
                                    const std::string& message) {
      const util::Status status = open_crafted(entries).first;
      ASSERT_FALSE(status.ok()) << message;
      EXPECT_NE(status.message().find(message), std::string::npos)
          << status.message();
    };

    // The faithful rewrite opens and answers exactly: the crafting is sound.
    {
      auto [status, opened] = open_crafted(faithful);
      ASSERT_TRUE(status.ok()) << status.message();
      const gen::Workload queries = TestQueries();
      const auto got =
          opened->Execute(queries.queries[0], core::QuerySpec::Knn(3));
      const auto truth = core::BruteForceKnn(data, queries.queries[0], 3);
      ASSERT_EQ(got.neighbors.size(), 3u);
      for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(got.neighbors[i].id, truth[i].id);
      }
    }
    {  // A key with a bit beyond the segment count.
      auto crafted = faithful;
      crafted.back().key |= uint32_t{1} << segments;
      expect_refused(crafted, "first-level key exceeds the segment count");
    }
    {  // The same key twice.
      auto crafted = faithful;
      crafted.push_back(crafted.front());
      crafted.back().ids.clear();
      expect_refused(crafted, "first-level key is repeated");
    }
    {  // A word symbol that is not its key's bit.
      auto crafted = faithful;
      crafted.front().symbols[segments / 2] ^= 1u;
      expect_refused(crafted, "first-level node word does not match its key");
    }
    {  // A 2-bit segment under a 1-bit key.
      auto crafted = faithful;
      crafted.front().bits[0] = 2;
      crafted.front().symbols[0] =
          static_cast<uint8_t>(crafted.front().symbols[0] << 1);
      expect_refused(crafted, "first-level node word does not match its key");
    }
    {  // A first-level node below depth 1.
      auto crafted = faithful;
      crafted.front().depth = 2;
      expect_refused(crafted, "first-level node is not at depth 1");
    }
    // The leaves must partition the ids in ascending order (the leaf scan
    // plans its reads on it).
    const auto largest = std::max_element(
        faithful.begin(), faithful.end(), [](const Entry& a, const Entry& b) {
          return a.ids.size() < b.ids.size();
        });
    ASSERT_GE(largest->ids.size(), 2u);
    const size_t at = static_cast<size_t>(largest - faithful.begin());
    {  // A swapped pair in one leaf.
      auto crafted = faithful;
      std::swap(crafted[at].ids[0], crafted[at].ids[1]);
      expect_refused(crafted, "iSAX leaf ids are not strictly ascending");
    }
    {  // One series in two leaves, in place of another of its leaf.
      auto crafted = faithful;
      const size_t other = at == 0 ? 1 : 0;
      crafted[at].ids.back() = crafted[other].ids.front();
      std::sort(crafted[at].ids.begin(), crafted[at].ids.end());
      expect_refused(crafted, "iSAX leaves list a series twice");
    }
    {  // A series no leaf lists.
      auto crafted = faithful;
      crafted[at].ids.pop_back();
      expect_refused(crafted, "iSAX leaves do not list every series");
    }
    std::filesystem::remove_all(dir);
  }
}

/// A tree with the delta leaf-visit rule, by the sections of its index
/// file in write order; each "options" section ends with the persisted
/// leaf count. `label` names the test and its directory.
struct LeafCountCase {
  const char* method;
  const char* label;
  std::vector<const char*> sections;
};

void PrintTo(const LeafCountCase& c, std::ostream* os) { *os << c.method; }

class PersistedLeafCountTest : public ::testing::TestWithParam<LeafCountCase> {
};

TEST_P(PersistedLeafCountTest, OpenCountsTheLeavesItLoads) {
  // The delta rule caps a query at ceil(delta * leaves) leaf visits. A
  // CRC-valid file whose stored count reads 1 would cap every query at
  // one leaf, so an opened tree must count the leaves it loads.
  const std::string name = GetParam().method;
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod(name, kLeaf);
  built->Build(data);
  const std::string dir =
      FreshDir(std::string("leaf_count_") + GetParam().label);
  ASSERT_TRUE(built->Save(dir).ok());
  const std::string file = io::IndexFilePath(dir);

  // Re-emit the file byte for byte, except the count, which becomes 1.
  io::IndexReader reader;
  ASSERT_TRUE(reader.Load(file).ok());
  io::IndexWriter writer(reader.method_name(), reader.fingerprint());
  for (const std::string section : GetParam().sections) {
    ASSERT_TRUE(reader.EnterSection(section).ok()) << section;
    writer.BeginSection(section);
    const size_t keep = section == "options" ? sizeof(int64_t) : 0;
    while (reader.RemainingInSection() > keep) {
      writer.WriteU8(reader.ReadU8());
    }
    if (keep != 0) {
      EXPECT_GT(reader.ReadI64(), 1);
      writer.WriteI64(1);
    }
    writer.EndSection();
  }
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  ASSERT_TRUE(writer.Commit(file).ok());

  auto opened = bench::CreateMethod(name);
  ASSERT_TRUE(opened->Open(dir, data).ok());
  const gen::Workload workload = TestQueries();
  const core::QuerySpec spec = core::QuerySpec::DeltaEpsilon(5, 0.5, 0.1);
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    ExpectBitIdentical(built->Execute(workload.queries[q], spec),
                       opened->Execute(workload.queries[q], spec),
                       name + " query " + std::to_string(q));
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    DeltaTrees, PersistedLeafCountTest,
    ::testing::Values(
        LeafCountCase{"DSTree", "DSTree", {"options", "summaries", "tree"}},
        LeafCountCase{
            "SFA", "SFA", {"options", "quantizer", "summaries", "tree"}},
        LeafCountCase{"iSAX2+", "Isax2Plus", {"options", "summaries", "tree"}}),
    [](const ::testing::TestParamInfo<LeafCountCase>& info) {
      return std::string(info.param.label);
    });

TEST(PersistenceErrors, ScansRefuseSaveAndOpenHonestly) {
  const core::Dataset data = TestData();
  for (const std::string name : {"UCR-Suite", "MASS", "Stepwise"}) {
    auto scan = bench::CreateMethod(name);
    scan->Build(data);
    const auto saved = scan->Save(FreshDir("scan_save"));
    ASSERT_FALSE(saved.ok()) << name;
    EXPECT_NE(saved.status().message().find("persisted index"),
              std::string::npos)
        << saved.status().message();
    auto fresh = bench::CreateMethod(name);
    EXPECT_FALSE(fresh->Open(FreshDir("scan_open"), data).ok()) << name;
  }
}

using PersistenceDeathTest = ::testing::Test;

TEST(PersistenceDeathTest, SaveBeforeBuildDies) {
  auto method = bench::CreateMethod("DSTree");
  EXPECT_DEATH(method->Save(FreshDir("premature")).ok(),
               "Save requires a built method");
}

TEST(PersistenceDeathTest, DoubleOpenDies) {
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("VA+file");
  built->Build(data);
  const std::string dir = FreshDir("double_open");
  ASSERT_TRUE(built->Save(dir).ok());
  auto opened = bench::CreateMethod("VA+file");
  ASSERT_TRUE(opened->Open(dir, data).ok());
  EXPECT_DEATH(opened->Open(dir, data).ok(), "never double-open");
  std::filesystem::remove_all(dir);
}

TEST(PersistenceDeathTest, OpenAfterBuildDies) {
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("VA+file");
  built->Build(data);
  const std::string dir = FreshDir("open_after_build");
  ASSERT_TRUE(built->Save(dir).ok());
  EXPECT_DEATH(built->Open(dir, data).ok(), "requires an unbuilt method");
  std::filesystem::remove_all(dir);
}

TEST(PersistenceDeathTest, DoubleBuildDies) {
  const core::Dataset data = TestData();
  auto method = bench::CreateMethod("UCR-Suite");
  method->Build(data);
  EXPECT_DEATH(method->Build(data), "already built");
}

}  // namespace
}  // namespace hydra
