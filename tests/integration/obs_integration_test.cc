// End-to-end tracing battery: a sharded, intra-query-parallel DSTree over
// the mmap + buffer-pool backend, executed with the tracer recording,
// must emit the full span hierarchy — per-query execute roots, per-shard
// fan-out spans, traversal workers, leaf verification nested inside them,
// and buffer-pool miss preads — with span clocks that reconcile against
// the query's own measured cpu_seconds.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/series_file.h"
#include "obs/trace.h"
#include "storage/backend.h"

namespace hydra {
namespace {

constexpr size_t kCount = 2000;
constexpr size_t kLength = 64;
constexpr size_t kShards = 3;
constexpr size_t kQueries = 3;

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Get().Disable();
    obs::Tracer::Get().Clear();
    path_ = ::testing::TempDir() + "/hydra_obs_integration.bin";
    const core::Dataset generated =
        gen::RandomWalkDataset(kCount, kLength, 1213);
    ASSERT_TRUE(io::WriteSeriesFile(path_, generated).ok());
    // A pool far below the dataset so traced queries actually miss.
    storage::StorageOptions options;
    options.backend = storage::StorageBackend::kMmap;
    options.pool.budget_bytes = 32 << 10;
    options.pool.page_bytes = 8 << 10;
    auto opened = storage::StorageHandle::Open(path_, "obs", options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    stored_ = std::move(opened).value();
    ASSERT_EQ(stored_.backend(), storage::StorageBackend::kMmap);
  }

  void TearDown() override {
    obs::Tracer::Get().Disable();
    obs::Tracer::Get().Clear();
    std::remove(path_.c_str());
  }

  std::string path_;
  storage::StorageHandle stored_;
};

TEST_F(ObsIntegrationTest, ShardedPooledQueryEmitsFullPhaseHierarchy) {
  auto method =
      bench::CreateShardedMethod("DSTree", kShards, /*threads=*/kShards);
  ASSERT_NE(method, nullptr);
  method->Build(stored_.dataset());
  const gen::Workload probe =
      gen::CtrlWorkload(stored_.dataset(), kQueries, 1);
  core::QuerySpec spec = core::QuerySpec::Knn(5);
  spec.query_threads = 2;

  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable();
  double cpu_seconds = 0.0;
  for (size_t q = 0; q < probe.queries.size(); ++q) {
    const core::QueryResult r = method->Execute(probe.queries[q], spec);
    ASSERT_EQ(r.neighbors.size(), 5u);
    cpu_seconds += r.stats.cpu_seconds;
  }
  tracer.Disable();

  std::vector<obs::CollectedEvent> events;
  const obs::Tracer::CollectResult collected = tracer.Collect(&events);
  EXPECT_EQ(collected.dropped, 0u);

  auto named = [&events](const char* name) {
    std::vector<obs::CollectedEvent> out;
    for (const obs::CollectedEvent& e : events) {
      if (std::string(e.name) == name) out.push_back(e);
    }
    return out;
  };
  const auto executes = named("execute");
  const auto shard_searches = named("shard_search");
  const auto merges = named("shard_merge");
  const auto traversals = named("traversal");
  const auto leaf_verifies = named("leaf_verify");
  const auto pool_misses = named("pool_miss_pread");

  // One root span per query, at depth 0 on the calling thread.
  ASSERT_EQ(executes.size(), kQueries);
  for (const auto& e : executes) EXPECT_EQ(e.depth, 0u);
  // Every query fans out over every shard and merges once.
  EXPECT_EQ(shard_searches.size(), kQueries * kShards);
  EXPECT_EQ(merges.size(), kQueries);
  // The traversal ran (each shard's search opens one traversal span), and
  // leaves were verified.
  EXPECT_GE(traversals.size(), kQueries * kShards);
  EXPECT_FALSE(leaf_verifies.empty());
  // The starved pool forced real IO under the trace.
  EXPECT_FALSE(pool_misses.empty());

  // Hierarchy by time containment: every shard_search lies inside some
  // execute interval (fan-out joins before Execute returns).
  for (const auto& s : shard_searches) {
    const bool contained = std::any_of(
        executes.begin(), executes.end(), [&s](const obs::CollectedEvent& e) {
          return e.start_ns <= s.start_ns &&
                 s.start_ns + s.dur_ns <= e.start_ns + e.dur_ns;
        });
    EXPECT_TRUE(contained) << "shard_search escaped every execute span";
  }
  // Nesting is well-formed: every non-root span has a parent — an event
  // on the same thread, one level shallower, whose interval contains it.
  // (Parents close after children, so with zero drops they are always in
  // the flush.)
  for (const auto& child : events) {
    if (child.depth == 0) continue;
    const bool has_parent = std::any_of(
        events.begin(), events.end(),
        [&child](const obs::CollectedEvent& p) {
          return p.tid == child.tid && p.depth + 1 == child.depth &&
                 p.start_ns <= child.start_ns &&
                 child.start_ns + child.dur_ns <= p.start_ns + p.dur_ns;
        });
    EXPECT_TRUE(has_parent)
        << child.name << " at depth " << child.depth << " has no parent";
  }
  // And specifically: at two query-threads the calling thread expands the
  // frontier under `traversal` and the workers verify the collected leaves
  // under `scan`, so engine-visited leaves record inside a scan span (the
  // home descent legitimately verifies its leaf under shard_search, before
  // the engine starts).
  const auto scans = named("scan");
  const bool leaf_inside_scan = std::any_of(
      leaf_verifies.begin(), leaf_verifies.end(),
      [&scans](const obs::CollectedEvent& lv) {
        return std::any_of(
            scans.begin(), scans.end(), [&lv](const obs::CollectedEvent& t) {
              return t.tid == lv.tid && lv.depth == t.depth + 1 &&
                     t.start_ns <= lv.start_ns &&
                     lv.start_ns + lv.dur_ns <= t.start_ns + t.dur_ns;
            });
      });
  EXPECT_TRUE(leaf_inside_scan) << "no leaf_verify nested in any scan span";

  // Clock reconciliation: sharded cpu_seconds is the *sum* of per-shard
  // search walls (plus a tiny merge), and each shard_search span wraps
  // exactly one per-shard search on its worker thread — so the summed
  // shard_search + shard_merge spans must agree with cpu_seconds within
  // 20% even though the fan-out runs the shards concurrently.
  double phase_seconds = 0.0;
  for (const auto& s : shard_searches) phase_seconds += 1e-9 * s.dur_ns;
  for (const auto& m : merges) phase_seconds += 1e-9 * m.dur_ns;
  EXPECT_GT(phase_seconds, 0.0);
  EXPECT_GT(cpu_seconds, 0.0);
  EXPECT_LT(std::abs(phase_seconds - cpu_seconds), 0.2 * phase_seconds)
      << "phase spans " << phase_seconds << "s vs measured cpu "
      << cpu_seconds << "s";
}

TEST_F(ObsIntegrationTest, TraceSurvivesJsonExportAfterRealQueries) {
  auto method = bench::CreateMethod("DSTree");
  method->Build(stored_.dataset());
  const gen::Workload probe = gen::CtrlWorkload(stored_.dataset(), 2, 1);
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable();
  for (size_t q = 0; q < probe.queries.size(); ++q) {
    method->Execute(probe.queries[q], core::QuerySpec::Knn(3));
  }
  tracer.Disable();
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"leaf_verify\""), std::string::npos);
}

}  // namespace
}  // namespace hydra
