// The identity oracle: every (method, spec) cell a method advertises runs
// a seeded pairwise covering array over seven configuration axes, and
// every answer is checked twice: against core::BruteForceKnn, and against
// the cell's reference row for the identity the contract promises.
//
// Axes (value 0 of each is the reference row's):
//   shards         {1, 3}               shardable methods only; the
//                                       container fans out over as many
//                                       threads as the row's query_threads
//   query_threads  {1, 4}
//   storage        {ram, mmap}          the mmap budget lends run scratch
//                                       to three cursors, not four
//   kernels        SupportedKernelSets  built under scalar; the set is
//                                       switched only around the queries
//   lifecycle      {built, reopened}    persistent methods only; reopened
//                                       into another leaf size (and shard
//                                       count), so the persisted options win
//   path           {direct, served}     served: serve::Server + Client
//   batch          {1, 4}               bench::SearchKnnBatch, k-NN specs
//
// Identity table. The reference is the same method and spec at shards 1,
// query_threads 1, batch 1, ram, scalar, built and direct. Every row, and
// the reference, starts from a freshly built index: ADS+ splits its tree
// during queries.
//   exact k-NN, range  ids and dist_sq bits equal, on every row; under a
//                      non-scalar kernel set ids equal and dist_sq within
//                      1e-9 relative.
//   serial rows        answer bits, delivered(), budget_fired() and every
//                      modeled ledger counter equal. A row is serial when
//                      it has shards 1 and scalar kernels, its plan runs at
//                      width 1 (query_threads 1, or a spec Execute keeps
//                      serial: ng, epsilon, delta-epsilon, budgets), and it
//                      is not ADS+ in a batch > 1. Storage, lifecycle and
//                      path never move these.
//   range              nodes_visited, lower_bound_computations,
//                      distance_computations and raw_series_examined equal
//                      at any query_threads, on both storages (shards 1,
//                      scalar).
// Against brute force, on every row:
//   exact          distances within 1e-9 relative, rank by rank;
//   epsilon        within (1+eps) at every rank;
//   delta-epsilon, ng, budgets
//                  every reported distance is true, at most k answers,
//                  raw_series_examined <= its budget, delivered() ng when
//                  a budget fired;
//   range          the match set of a brute-force r-scan.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/distance.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "core/simd/kernels.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/index_codec.h"
#include "io/series_file.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/sharded_index.h"
#include "storage/backend.h"
#include "util/thread_pool.h"

namespace hydra {
namespace {

constexpr size_t kCount = 400;
constexpr size_t kLength = 64;
constexpr size_t kLeaf = 64;
constexpr size_t kOtherLeaf = 128;
constexpr size_t kShards = 3;
constexpr size_t kOtherShards = 2;
constexpr size_t kK = 5;
constexpr double kRadius = 8.0;
constexpr double kEpsilon = 0.5;
constexpr int64_t kRawBudget = 50;
constexpr int64_t kLeafBudget = 3;
constexpr uint64_t kSeed = 3901;

// clang-format off
enum Axis : size_t {
  kShardAxis, kQueryThreads, kStorage, kKernels, kLifecycle, kPath, kBatch,
  kAxes
};
// clang-format on

/// One configuration: the value index of every axis (0 = the reference).
using Row = std::array<size_t, kAxes>;
constexpr size_t kWidths[] = {1, 4};  // query_threads and batch threads

/// Combinations the retired suites pinned beyond pairwise, kept as fixed
/// rows wherever a cell's domain allows them.
constexpr Row kPinnedRows[] = {
    // mmap x shards 3 x query_threads 4
    // (StorageIdentityTest.ShardedCompositionMatches).
    {1, 1, 1, 0, 0, 0, 0},
    // A wide serial-kept plan over mmap, reopened
    // (IntraQueryGating, PersistenceRoundTrip).
    {0, 1, 1, 0, 1, 0, 0},
    // A batch alone (ParallelBatchFixture.BatchIsBitIdenticalToSerial*).
    {0, 0, 0, 0, 0, 0, 1},
    // Wide queries inside a batch
    // (ParallelBatchFixture.SpecBatchIsDeterministic*,
    // ExactBatchNestsQueryWorkersOnOnePool).
    {0, 1, 0, 0, 0, 0, 1},
    // A reopened index served from mmap
    // (ServeFixture.PooledAnswersCarryTheirMeasuredPoolCounters).
    {0, 0, 1, 0, 1, 1, 0},
};

struct Cell {
  std::string label;
  core::QuerySpec spec;
};

/// Every spec `traits` advertises.
std::vector<Cell> CellsOf(const core::MethodTraits& traits) {
  core::QuerySpec raw = core::QuerySpec::Knn(kK);
  raw.max_raw_series = kRawBudget;
  std::vector<Cell> cells = {{"exact", core::QuerySpec::Knn(kK)},
                             {"range", core::QuerySpec::Range(kRadius)},
                             {"budget-raw", raw}};
  if (traits.supports_ng) {
    cells.push_back({"ng", core::QuerySpec::NgApprox(kK)});
  }
  if (traits.supports_epsilon) {
    cells.push_back({"epsilon", core::QuerySpec::Epsilon(kK, kEpsilon)});
  }
  if (traits.supports_delta_epsilon) {
    cells.push_back(
        {"delta-epsilon", core::QuerySpec::DeltaEpsilon(kK, kEpsilon, 0.5)});
  }
  if (traits.leaf_visit_budget) {
    core::QuerySpec leaves = core::QuerySpec::Knn(kK);
    leaves.max_visited_leaves = kLeafBudget;
    cells.push_back({"budget-leaves", leaves});
  }
  return cells;
}

/// The number of values each axis takes in a cell.
Row Domain(const core::MethodTraits& traits, const core::QuerySpec& spec) {
  return {traits.shardable ? 2u : 1u,
          2,
          2,
          core::simd::SupportedKernelSets().size(),
          traits.supports_persistence ? 2u : 1u,
          2,
          spec.kind == core::QueryKind::kKnn ? 2u : 1u};
}

bool Fits(const Row& row, const Row& domain) {
  for (size_t a = 0; a < kAxes; ++a) {
    if (row[a] >= domain[a]) return false;
  }
  return true;
}

/// (axis a, value, axis b, value), a < b.
using Pair = std::array<size_t, 4>;

/// Every value pair of every two axes of `domain` that no row holds.
std::vector<Pair> Uncovered(const Row& domain, const std::vector<Row>& rows) {
  std::vector<Pair> open;
  for (size_t a = 0; a < kAxes; ++a) {
    for (size_t b = a + 1; b < kAxes; ++b) {
      for (size_t x = 0; x < domain[a]; ++x) {
        for (size_t y = 0; y < domain[b]; ++y) {
          if (std::none_of(rows.begin(), rows.end(), [&](const Row& r) {
                return r[a] == x && r[b] == y;
              })) {
            open.push_back({a, x, b, y});
          }
        }
      }
    }
  }
  return open;
}

/// Seeded greedy pairwise covering array: the pinned rows that fit, then,
/// while a pair is open, a row seeded with the first open pair whose other
/// axes, in a seeded order, take the value closing the most open pairs
/// against the axes already set.
std::vector<Row> CoveringRows(const Row& domain, uint64_t seed) {
  std::vector<Row> rows;
  for (const Row& pinned : kPinnedRows) {
    if (Fits(pinned, domain)) rows.push_back(pinned);
  }
  std::mt19937_64 rng(seed);
  for (std::vector<Pair> open = Uncovered(domain, rows); !open.empty();
       open = Uncovered(domain, rows)) {
    Row row{};
    std::array<bool, kAxes> set{};
    row[open[0][0]] = open[0][1];
    row[open[0][2]] = open[0][3];
    set[open[0][0]] = set[open[0][2]] = true;
    std::array<size_t, kAxes> order;
    for (size_t a = 0; a < kAxes; ++a) order[a] = a;
    std::shuffle(order.begin(), order.end(), rng);
    for (const size_t a : order) {
      if (set[a]) continue;
      size_t best_gain = 0;
      for (size_t x = 0; x < domain[a]; ++x) {
        const size_t gain = std::count_if(
            open.begin(), open.end(), [&](const Pair& p) {
              return (p[0] == a && p[1] == x && set[p[2]] &&
                      row[p[2]] == p[3]) ||
                     (p[2] == a && p[3] == x && set[p[0]] &&
                      row[p[0]] == p[1]);
            });
        if (gain > best_gain) {
          best_gain = gain;
          row[a] = x;
        }
      }
      set[a] = true;
    }
    rows.push_back(row);
  }
  return rows;
}

std::string RowName(const Row& row) {
  return "shards=" + std::to_string(row[kShardAxis] ? kShards : 1) +
         " query_threads=" + std::to_string(kWidths[row[kQueryThreads]]) +
         (row[kStorage] ? " mmap " : " ram ") +
         core::simd::SupportedKernelSets()[row[kKernels]]->name +
         (row[kLifecycle] ? " reopened" : " built") +
         (row[kPath] ? " served" : " direct") +
         " batch=" + std::to_string(kWidths[row[kBatch]]);
}

/// Two random-walk queries, far from every series, and the two noisiest
/// controlled ones: every budget fires on some query, every range answer
/// is non-empty, and three of the four have a first-level iSAX key no
/// series holds, so iSAX2+'s ng answers take its fallback scan.
gen::Workload Queries(const core::Dataset& data) {
  gen::Workload workload = gen::RandWorkload(2, kLength, kSeed + 1);
  const gen::Workload controlled = gen::CtrlWorkload(data, 4, kSeed + 2);
  for (size_t q = 2; q < 4; ++q) workload.queries.Append(controlled.queries[q]);
  return workload;
}

/// The collection in RAM and behind the mmap backend, the workload, and
/// the brute-force answers (every series by distance) of each query.
struct Collection {
  Collection() {
    EXPECT_TRUE(io::WriteSeriesFile(path, ram).ok());
    storage::StorageOptions options;
    options.backend = storage::StorageBackend::kMmap;
    options.pool.budget_bytes = 24 << 10;  // three 8 KiB runs
    options.pool.page_bytes = 8 << 10;
    auto opened = storage::StorageHandle::Open(path, "oracle", options);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    mmap = std::move(opened).value();
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      truth.push_back(core::BruteForceKnn(ram, workload.queries[q], kCount));
    }
  }
  ~Collection() { std::remove(path.c_str()); }

  const core::Dataset ram = gen::RandomWalkDataset(kCount, kLength, kSeed);
  const gen::Workload workload = Queries(ram);
  const std::string path = ::testing::TempDir() + "/hydra_oracle.bin";
  storage::StorageHandle mmap;
  std::vector<std::vector<core::Neighbor>> truth;
};

const Collection& Shared() {
  static const Collection collection;
  return collection;
}

/// A sharded container fans out over `width` threads (1 = serial).
std::unique_ptr<core::SearchMethod> Create(const std::string& name,
                                           size_t shards, size_t width,
                                           size_t leaf) {
  if (shards == 1) return bench::CreateMethod(name, leaf);
  return bench::CreateShardedMethod(name, shards, width, leaf);
}

/// Builds `name` for `row` (under scalar kernels), saves and reopens it
/// when the row says so, and answers the workload under the row's kernel
/// set, path and batch width.
void RunRow(const std::string& name, const core::QuerySpec& cell_spec,
            const Row& row, std::vector<core::QueryResult>* results) {
  const Collection& c = Shared();
  const core::Dataset& data = row[kStorage] ? c.mmap.dataset() : c.ram;
  const size_t shards = row[kShardAxis] ? kShards : 1;
  const size_t width = kWidths[row[kQueryThreads]];
  ASSERT_TRUE(core::simd::UseKernels("scalar").ok());
  std::shared_ptr<core::SearchMethod> method =
      Create(name, shards, width, kLeaf);
  method->Build(data);
  if (row[kLifecycle]) {
    const std::string dir = ::testing::TempDir() + "/hydra_oracle_index";
    std::filesystem::remove_all(dir);
    const util::Result<int64_t> saved = method->Save(dir);
    ASSERT_TRUE(saved.ok()) << saved.status().message();
    EXPECT_EQ(static_cast<uint64_t>(saved.value()),
              std::filesystem::file_size(io::IndexFilePath(dir)));
    std::shared_ptr<core::SearchMethod> opened =
        Create(name, shards == 1 ? 1 : kOtherShards, width, kOtherLeaf);
    const util::Result<core::BuildStats> stats = opened->Open(dir, data);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    EXPECT_EQ(stats.value().cpu_seconds, 0.0);
    EXPECT_EQ(stats.value().bytes_read, saved.value());
    const core::Footprint want = method->footprint();
    const core::Footprint got = opened->footprint();
    EXPECT_EQ(got.total_nodes, want.total_nodes);
    EXPECT_EQ(got.leaf_nodes, want.leaf_nodes);
    EXPECT_EQ(got.memory_bytes, want.memory_bytes);
    EXPECT_EQ(got.disk_bytes, want.disk_bytes);
    EXPECT_EQ(got.leaf_fill_fractions, want.leaf_fill_fractions);
    EXPECT_EQ(got.leaf_depths, want.leaf_depths);
    if (shards > 1) {
      EXPECT_EQ(dynamic_cast<shard::ShardedIndex&>(*opened).shard_count(),
                kShards);
    }
    method = std::move(opened);
    std::filesystem::remove_all(dir);
  }

  core::QuerySpec spec = cell_spec;
  spec.query_threads = width;
  const size_t batch = kWidths[row[kBatch]];
  const size_t count = c.workload.queries.size();
  ASSERT_TRUE(core::simd::UseKernels(
                  core::simd::SupportedKernelSets()[row[kKernels]]->name)
                  .ok());
  results->assign(count, {});
  if (row[kPath]) {
    serve::ServerOptions options;
    options.serve_threads = 2;
    serve::Server server(options);
    ASSERT_TRUE(server.Start(method, &data).ok());
    util::ForkEach(batch, count, [&](size_t q) {
      const core::SeriesView query = c.workload.queries[q];
      serve::Client client;
      serve::AnswerResponse answer;
      util::Status status = client.Connect("127.0.0.1", server.port());
      if (status.ok()) {
        status = client.Query(
            {spec, std::vector<core::Value>(query.begin(), query.end())},
            &answer);
      }
      EXPECT_TRUE(status.ok()) << RowName(row) << ": " << status.message();
      (*results)[q] = std::move(answer.result);
    });
    server.Shutdown();
  } else if (batch > 1) {
    core::BatchResult answered =
        bench::SearchKnnBatch(method.get(), c.workload, spec, batch);
    EXPECT_EQ(answered.threads_used, batch);
    *results = std::move(answered.queries);
  } else {
    for (size_t q = 0; q < count; ++q) {
      (*results)[q] = method->Execute(c.workload.queries[q], spec);
    }
  }
}

bool IsExact(const core::QuerySpec& spec) {
  return spec.kind == core::QueryKind::kRange ||
         (spec.mode == core::QualityMode::kExact && !spec.has_budget());
}

/// The brute-force guarantees of the cell's spec.
void CheckGuarantee(const core::QuerySpec& spec, size_t q,
                    const core::QueryResult& r, const std::string& at) {
  const Collection& c = Shared();
  const core::SeriesView query = c.workload.queries[q];
  const std::vector<core::Neighbor>& truth = c.truth[q];
  for (size_t i = 0; i < r.neighbors.size(); ++i) {
    const core::Neighbor& n = r.neighbors[i];
    ASSERT_LT(n.id, kCount) << at;
    const double d = core::SquaredEuclidean(query, c.ram[n.id]);
    EXPECT_NEAR(n.dist_sq, d, 1e-9 * (1.0 + d)) << at << " rank " << i;
    if (i > 0) {
      EXPECT_LE(r.neighbors[i - 1].dist_sq, n.dist_sq) << at;
    }
  }
  if (spec.kind == core::QueryKind::kRange) {
    // Both lists run by distance, and no two distances tie.
    std::vector<core::SeriesId> want, got;
    for (const core::Neighbor& n : truth) {
      if (n.dist_sq <= kRadius * kRadius) want.push_back(n.id);
    }
    for (const core::Neighbor& n : r.neighbors) got.push_back(n.id);
    EXPECT_EQ(got, want) << at;
    EXPECT_EQ(r.delivered(), core::QualityMode::kExact) << at;
    return;
  }
  if (IsExact(spec) || spec.mode == core::QualityMode::kEpsilon) {
    ASSERT_EQ(r.neighbors.size(), kK) << at;
    EXPECT_EQ(r.delivered(), spec.mode) << at;
    for (size_t i = 0; i < kK; ++i) {
      const double want = truth[i].dist_sq;
      if (spec.mode == core::QualityMode::kExact) {
        EXPECT_NEAR(r.neighbors[i].dist_sq, want, 1e-9 * std::max(1.0, want))
            << at << " rank " << i;
      } else {
        EXPECT_LE(std::sqrt(r.neighbors[i].dist_sq),
                  (1.0 + spec.epsilon) * std::sqrt(want) + 1e-9)
            << at << " rank " << i;
      }
    }
    return;
  }
  EXPECT_LE(r.neighbors.size(), kK) << at;
  if (!spec.has_budget()) {
    EXPECT_FALSE(r.neighbors.empty()) << at;
  }
  if (spec.max_raw_series > 0) {
    EXPECT_LE(r.stats.raw_series_examined, spec.max_raw_series) << at;
  }
  EXPECT_EQ(r.delivered(),
            r.budget_fired() ? core::QualityMode::kNgApprox : spec.mode)
      << at;
}

/// The identities the table promises between a row and its reference.
void CheckIdentity(const std::string& name, const core::QuerySpec& spec,
                   const Row& row, const core::QueryResult& got,
                   const core::QueryResult& want, const std::string& at) {
  const bool scalar = row[kKernels] == 0;
  const bool one_shard = row[kShardAxis] == 0;
  const bool serial =
      one_shard && scalar && (!IsExact(spec) || row[kQueryThreads] == 0) &&
      !(name == "ADS+" && row[kBatch] > 0);
  if (IsExact(spec) || serial) {
    ASSERT_EQ(got.neighbors.size(), want.neighbors.size()) << at;
    for (size_t i = 0; i < got.neighbors.size(); ++i) {
      const double d = want.neighbors[i].dist_sq;
      EXPECT_EQ(got.neighbors[i].id, want.neighbors[i].id) << at << " rank "
                                                           << i;
      if (scalar) {
        EXPECT_EQ(got.neighbors[i].dist_sq, d) << at << " rank " << i;
      } else {
        EXPECT_NEAR(got.neighbors[i].dist_sq, d, 1e-9 * std::max(1.0, d))
            << at << " rank " << i;
      }
    }
  }
  if (serial) {
    EXPECT_EQ(got.delivered(), want.delivered()) << at;
    EXPECT_EQ(got.budget_fired(), want.budget_fired()) << at;
    for (const core::LedgerCounter& counter : core::kLedgerCounters) {
      if (counter.kind != core::CounterKind::kModeled) continue;
      EXPECT_EQ(got.stats.*counter.member, want.stats.*counter.member)
          << at << " " << counter.name;
    }
  }
  if (spec.kind == core::QueryKind::kRange && one_shard && scalar) {
    for (const auto member : {&core::SearchStats::nodes_visited,
                              &core::SearchStats::lower_bound_computations,
                              &core::SearchStats::distance_computations,
                              &core::SearchStats::raw_series_examined}) {
      EXPECT_EQ(got.stats.*member, want.stats.*member) << at;
    }
  }
}

TEST(IdentityOracleCoverage, EveryCellCoversEveryPairAndItsPinnedRows) {
  ASSERT_EQ(std::string(core::simd::SupportedKernelSets()[0]->name),
            "scalar");
  size_t cells = 0;
  for (const std::string& name : bench::AllMethodNames()) {
    const core::MethodTraits traits = bench::CreateMethod(name)->traits();
    for (const Cell& cell : CellsOf(traits)) {
      ++cells;
      const Row domain = Domain(traits, cell.spec);
      const std::vector<Row> rows = CoveringRows(domain, kSeed);
      EXPECT_TRUE(Uncovered(domain, rows).empty()) << name << " " << cell.label;
      for (const Row& row : rows) EXPECT_TRUE(Fits(row, domain));
      for (const Row& pinned : kPinnedRows) {
        if (!Fits(pinned, domain)) continue;
        EXPECT_NE(std::find(rows.begin(), rows.end(), pinned), rows.end())
            << name << " " << cell.label << " lacks " << RowName(pinned);
      }
    }
  }
  EXPECT_EQ(cells, 50u);
}

TEST(IdentityOracle, EveryRowAnswersAsItsCellPromises) {
  const std::string prior = core::simd::ActiveKernels().name;
  for (const std::string& name : bench::AllMethodNames()) {
    const core::MethodTraits traits = bench::CreateMethod(name)->traits();
    // Over mmap every method but those that read the mapping in place
    // (the M-tree and the two scans) preads the series it verifies.
    const bool in_place =
        name == "M-tree" || name == "UCR-Suite" || name == "MASS";
    for (const Cell& cell : CellsOf(traits)) {
      SCOPED_TRACE(name + " " + cell.label);
      std::vector<core::QueryResult> reference;
      RunRow(name, cell.spec, Row{}, &reference);
      if (cell.spec.has_budget()) {
        EXPECT_TRUE(std::any_of(
            reference.begin(), reference.end(),
            [](const core::QueryResult& r) { return r.budget_fired(); }));
      }
      for (const Row& row : CoveringRows(Domain(traits, cell.spec), kSeed)) {
        const std::string at = RowName(row);
        std::vector<core::QueryResult> results;
        RunRow(name, cell.spec, row, &results);
        core::SearchStats total;
        for (size_t q = 0; q < results.size(); ++q) {
          const std::string query_at = at + " q" + std::to_string(q);
          CheckGuarantee(cell.spec, q, results[q], query_at);
          CheckIdentity(name, cell.spec, row, results[q], reference[q],
                        query_at);
          total.Add(results[q].stats);
        }
        for (const core::LedgerCounter& counter : core::kLedgerCounters) {
          if (counter.kind == core::CounterKind::kMeasured && !row[kStorage]) {
            EXPECT_EQ(total.*counter.member, 0) << at << " " << counter.name;
          }
        }
        if (row[kStorage] && cell.label == "exact") {
          EXPECT_EQ(total.pool_misses > 0, !in_place) << at;
          EXPECT_EQ(total.pool_bytes_read > 0, !in_place) << at;
        }
      }
    }
  }
  EXPECT_TRUE(core::simd::UseKernels(prior).ok());
}

}  // namespace
}  // namespace hydra
