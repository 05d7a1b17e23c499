// Backend bit-identity battery: every answer produced over the mmap +
// buffer-pool backend must equal the in-RAM answer bit for bit — same
// neighbor ids, same squared distances — for all seven index methods,
// across exact / epsilon / budgeted specs, range queries, sharded
// composition, and intra-query parallelism, with a pool budget far below
// the dataset and below what eight workers' run scratch would take. Also
// pins that the pool caches nothing: no method ever hits or evicts, and an
// identical second pass preads exactly the bytes of the first.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/series_file.h"
#include "storage/backend.h"

namespace hydra {
namespace {

constexpr size_t kCount = 2000;
constexpr size_t kLength = 64;
constexpr size_t kLeaf = 64;

void ExpectSameAnswers(const std::vector<core::Neighbor>& ram,
                       const std::vector<core::Neighbor>& mmap,
                       const std::string& label) {
  ASSERT_EQ(ram.size(), mmap.size()) << label;
  for (size_t i = 0; i < ram.size(); ++i) {
    EXPECT_EQ(ram[i].id, mmap[i].id) << label << " rank " << i;
    EXPECT_EQ(ram[i].dist_sq, mmap[i].dist_sq) << label << " rank " << i;
  }
}

class StorageIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/hydra_storage_identity.bin";
    const core::Dataset generated =
        gen::RandomWalkDataset(kCount, kLength, 909);
    ASSERT_TRUE(io::WriteSeriesFile(path_, generated).ok());
    workload_ = gen::RandWorkload(4, kLength, 910);

    storage::StorageOptions ram;
    auto ram_opened = storage::StorageHandle::Open(path_, "ident", ram);
    ASSERT_TRUE(ram_opened.ok()) << ram_opened.status().message();
    ram_ = std::move(ram_opened).value();

    // ~512KB of data behind a 32KB pool: run scratch for four cursors of
    // 32 series each (8KB runs).
    storage::StorageOptions mmap;
    mmap.backend = storage::StorageBackend::kMmap;
    mmap.pool.budget_bytes = 32 << 10;
    mmap.pool.page_bytes = 8 << 10;
    auto mmap_opened = storage::StorageHandle::Open(path_, "ident", mmap);
    ASSERT_TRUE(mmap_opened.ok()) << mmap_opened.status().message();
    mmap_ = std::move(mmap_opened).value();
    ASSERT_EQ(mmap_.backend(), storage::StorageBackend::kMmap);
    // The premise of the battery: the pool cannot hold the dataset.
    ASSERT_LT(mmap.pool.budget_bytes,
              kCount * kLength * sizeof(core::Value) / 4);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Runs the same spec sequence over both backends on fresh instances of
  // `name` and asserts bit-identical answers. The sequence matters for
  // ADS+ (adaptive: each query refines the index), so both backends must
  // execute it in the same order.
  void CheckMethod(const std::string& name,
                   const std::vector<core::QuerySpec>& specs) {
    auto on_ram = bench::CreateMethod(name, kLeaf);
    auto on_mmap = bench::CreateMethod(name, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(mmap_.dataset());
    core::SearchStats mmap_stats;
    for (const core::QuerySpec& spec : specs) {
      for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
        core::QueryResult a = on_ram->Execute(query, spec);
        core::QueryResult b = on_mmap->Execute(query, spec);
        ExpectSameAnswers(a.neighbors, b.neighbors, name);
        EXPECT_EQ(a.stats.pool_misses, 0) << name;  // RAM never pools
        EXPECT_EQ(a.stats.pool_hits, 0) << name;
        mmap_stats.Add(b.stats);
      }
    }
    if (name == "M-tree") {
      // The memory-resident M-tree reads the mapping in place: no pool.
      for (const core::LedgerCounter& counter : core::kLedgerCounters) {
        if (counter.kind != core::CounterKind::kMeasured) continue;
        EXPECT_EQ(mmap_stats.*counter.member, 0) << counter.name;
      }
      return;
    }
    // The mmap run went through the pool: misses are real preads.
    EXPECT_GT(mmap_stats.pool_misses, 0) << name;
    EXPECT_EQ(mmap_stats.pool_bytes_read > 0, mmap_stats.pool_misses > 0)
        << name;
  }

  std::string path_;
  gen::Workload workload_;
  storage::StorageHandle ram_;
  storage::StorageHandle mmap_;
};

TEST_F(StorageIdentityTest, AllMethodsExactEpsilonAndBudgeted) {
  core::QuerySpec budgeted = core::QuerySpec::Knn(5);
  budgeted.max_raw_series = 200;  // binds for every method
  const std::vector<core::QuerySpec> specs = {
      core::QuerySpec::Knn(5), core::QuerySpec::Epsilon(5, 0.1), budgeted};
  for (const std::string& name : bench::ShardableNames()) {
    SCOPED_TRACE(name);
    CheckMethod(name, specs);
  }
}

TEST_F(StorageIdentityTest, RangeQueriesMatch) {
  for (const std::string& name : bench::ShardableNames()) {
    SCOPED_TRACE(name);
    auto on_ram = bench::CreateMethod(name, kLeaf);
    auto on_mmap = bench::CreateMethod(name, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(mmap_.dataset());
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      // A radius at the 5th neighbor guarantees a non-trivial match set.
      const auto truth = core::BruteForceKnn(ram_.dataset(), query, 5);
      const double radius = std::sqrt(truth.back().dist_sq) + 1e-6;
      core::QueryResult a =
          on_ram->Execute(query, core::QuerySpec::Range(radius));
      core::QueryResult b =
          on_mmap->Execute(query, core::QuerySpec::Range(radius));
      ASSERT_GE(a.neighbors.size(), 5u) << name;
      ExpectSameAnswers(a.neighbors, b.neighbors, name);
    }
  }
}

TEST_F(StorageIdentityTest, ShardedCompositionMatches) {
  // Sharded slices of a file-backed dataset address the pool through
  // their slice base — zero copies, same answers — for page reads and
  // for the planned run reads of VA+file and ADS+ alike.
  for (const std::string name : {"DSTree", "SFA", "VA+file", "ADS+"}) {
    SCOPED_TRACE(name);
    auto on_ram = bench::CreateShardedMethod(name, 3, 2, kLeaf);
    auto on_mmap = bench::CreateShardedMethod(name, 3, 2, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(mmap_.dataset());
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      core::QueryResult a = on_ram->Execute(query, core::QuerySpec::Knn(5));
      core::QueryResult b = on_mmap->Execute(query, core::QuerySpec::Knn(5));
      ExpectSameAnswers(a.neighbors, b.neighbors, name);
      EXPECT_GT(b.stats.pool_misses, 0) << name;
    }
  }
}

// VA+file and ADS+ read their candidates through planned run reads over
// the pool. Only the bytes' path may change: per query, the work counters
// and the modeled I/O ledger must equal the RAM run's exactly.
TEST_F(StorageIdentityTest, PlannedRunReadsKeepWorkAndModeledLedger) {
  core::QuerySpec budgeted = core::QuerySpec::Knn(5);
  budgeted.max_raw_series = 200;
  for (const std::string name : {"VA+file", "ADS+"}) {
    SCOPED_TRACE(name);
    auto on_ram = bench::CreateMethod(name, kLeaf);
    auto on_mmap = bench::CreateMethod(name, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(mmap_.dataset());
    int64_t direct_reads = 0;
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      const auto truth = core::BruteForceKnn(ram_.dataset(), query, 5);
      const double radius = std::sqrt(truth.back().dist_sq) + 1e-6;
      for (const core::QuerySpec& spec :
           {core::QuerySpec::Knn(5), core::QuerySpec::Epsilon(5, 0.1),
            budgeted, core::QuerySpec::Range(radius)}) {
        const core::QueryResult a = on_ram->Execute(query, spec);
        const core::QueryResult b = on_mmap->Execute(query, spec);
        ExpectSameAnswers(a.neighbors, b.neighbors, name);
        EXPECT_EQ(a.stats.random_seeks, b.stats.random_seeks);
        EXPECT_EQ(a.stats.sequential_reads, b.stats.sequential_reads);
        EXPECT_EQ(a.stats.bytes_read, b.stats.bytes_read);
        EXPECT_EQ(a.stats.raw_series_examined, b.stats.raw_series_examined);
        EXPECT_EQ(a.stats.distance_computations,
                  b.stats.distance_computations);
        EXPECT_EQ(a.stats.pool_direct_reads, 0);
        if (name == "VA+file") {  // every VA+file raw read is planned
          EXPECT_EQ(b.stats.pool_direct_reads, b.stats.raw_series_examined);
        }
        direct_reads += b.stats.pool_direct_reads;
      }
    }
    EXPECT_GT(direct_reads, 0);
  }
}

// Every filter-and-refine path verifies its candidates on the shared
// refine loop through one planned cursor per worker — a leaf's filter
// survivors in DSTree, iSAX2+ and the SFA trie; the candidates of ADS+
// (its home leaf too), the VA+file and Stepwise — and the R*-tree reads
// each surviving leaf entry as a run of one series: over the pool every
// verified series comes from a run read (nothing is evicted), and only the
// bytes' path changes — the answers and, serially, every modeled ledger
// counter equal the RAM run's.
TEST_F(StorageIdentityTest, RefineLoopReadsRunsAndKeepsModeledLedger) {
  core::QuerySpec budgeted = core::QuerySpec::Knn(5);
  budgeted.max_raw_series = 200;
  core::QuerySpec wide = core::QuerySpec::Knn(5);
  wide.query_threads = 4;
  for (const std::string name :
       {"DSTree", "iSAX2+", "SFA", "ADS+", "VA+file", "Stepwise",
        "R*-tree"}) {
    SCOPED_TRACE(name);
    auto on_ram = bench::CreateMethod(name, kLeaf);
    auto on_mmap = bench::CreateMethod(name, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(mmap_.dataset());
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      const auto truth = core::BruteForceKnn(ram_.dataset(), query, 5);
      const double radius = std::sqrt(truth.back().dist_sq) + 1e-6;
      const std::pair<const char*, core::QuerySpec> specs[] = {
          {"exact", core::QuerySpec::Knn(5)},
          {"epsilon", core::QuerySpec::Epsilon(5, 0.1)},
          {"range", core::QuerySpec::Range(radius)},
          {"ng", core::QuerySpec::NgApprox(5)},
          {"budget-raw", budgeted},
          {"exact query_threads=4", wide}};
      for (const auto& [label, spec] : specs) {
        SCOPED_TRACE(label);
        const core::QueryResult a = on_ram->Execute(query, spec);
        const core::QueryResult b = on_mmap->Execute(query, spec);
        ExpectSameAnswers(a.neighbors, b.neighbors, name);
        EXPECT_EQ(b.stats.pool_direct_reads, b.stats.raw_series_examined);
        EXPECT_EQ(b.stats.pool_evictions, 0);
        EXPECT_GT(b.stats.pool_bytes_read, 0);
        // Wide workers' counters follow bound-arrival timing.
        if (spec.query_threads > 1) continue;
        for (const core::LedgerCounter& counter : core::kLedgerCounters) {
          if (counter.kind != core::CounterKind::kModeled) continue;
          EXPECT_EQ(a.stats.*counter.member, b.stats.*counter.member)
              << counter.name;
        }
        EXPECT_EQ(a.stats.budget_exhausted, b.stats.budget_exhausted);
      }
    }
  }
}

// Eight workers outnumber the four run scratches the pool's budget lends:
// the other four read one series per run, and none of them waits.
TEST_F(StorageIdentityTest, IntraQueryParallelMatches) {
  for (const size_t query_threads : {2, 8}) {
    core::QuerySpec spec = core::QuerySpec::Knn(5);
    spec.query_threads = query_threads;
    for (const std::string& name : bench::AllMethodNames()) {
      SCOPED_TRACE(name + " query_threads=" + std::to_string(query_threads));
      auto on_ram = bench::CreateMethod(name, kLeaf);
      auto on_mmap = bench::CreateMethod(name, kLeaf);
      on_ram->Build(ram_.dataset());
      on_mmap->Build(mmap_.dataset());
      for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
        const core::SeriesView query = workload_.queries[qi];
        core::QueryResult a = on_ram->Execute(query, spec);
        core::QueryResult b = on_mmap->Execute(query, spec);
        ExpectSameAnswers(a.neighbors, b.neighbors, name);
      }
    }
  }
}

// The pool caches nothing: for every method an identical second pass over
// the same index preads exactly the bytes of the first, and nothing is
// ever a hit or an eviction.
TEST_F(StorageIdentityTest, SecondPassPreadsWhatTheFirstDid) {
  for (const std::string& name : bench::AllMethodNames()) {
    SCOPED_TRACE(name);
    auto method = bench::CreateMethod(name, kLeaf);
    method->Build(mmap_.dataset());
    const auto run = [&] {
      core::SearchStats total;
      for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
        const core::SeriesView query = workload_.queries[qi];
        total.Add(method->Execute(query, core::QuerySpec::Knn(5)).stats);
      }
      return total;
    };
    const core::SearchStats first = run();
    const core::SearchStats second = run();
    for (const core::SearchStats& pass : {first, second}) {
      EXPECT_EQ(pass.pool_hits, 0);
      EXPECT_EQ(pass.pool_evictions, 0);
    }
    EXPECT_EQ(second.pool_bytes_read, first.pool_bytes_read);
  }
}

}  // namespace
}  // namespace hydra
