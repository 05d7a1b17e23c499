// The repository benchmark. It runs one of three single-client,
// closed-loop workloads through hydra's public API and prints every metric
// by name and unit; the last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   perfbench --workload <dstree-ram|vafile-pool|isax-serve> --seed <n>
//               --seconds <s> --trace <0|1> [--scratch <dir>]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics (tracing off): the requests
// loop for --seconds after set-up. --trace 1 reports the per-layer metrics
// instead: one fixed pass of requests untraced (counts, serve phases),
// then the same pass traced, folded into a self-time table per layer.
// The collections are fixed and the queries derive from --seed; README.md
// in this directory explains the workloads and metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/registry.h"
#include "core/distance.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "gen/realistic.h"
#include "gen/workload.h"
#include "io/series_file.h"
#include "obs/trace.h"
#include "selftime.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/backend.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using hydra::core::Dataset;
using hydra::core::Neighbor;
using hydra::core::QueryResult;
using hydra::core::QuerySpec;
using hydra::core::SearchStats;
using hydra::core::SeriesView;

// One fixed collection per size for every seed, like the paper's fixed
// datasets: --seed picks the queries. (A per-seed collection moved DSTree's
// p50 by ~6% between seeds through the tree shape alone.)
constexpr uint64_t kDatasetSeed = 41;
constexpr size_t kLength = 256;
constexpr size_t kK = 10;
// Exact k-NN queries shared by dstree-ram and vafile-pool (and the source
// of isax-serve's hot queries); ground truth is computed for all of them.
constexpr size_t kExactQueries = 400;
// isax-serve: distinct ng queries (never cacheable) and hot exact queries
// (cached by the warm-up); every fifth request is hot.
constexpr size_t kFreshQueries = 8192;
constexpr size_t kHotQueries = 4;
constexpr size_t kHotEvery = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch = ".bench_build/perfbench-scratch";
};

// SplitMix64: decorrelates the streams derived from one --seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Binds the calling thread, and every thread it creates later (the serve
// workload's server threads inherit the mask), to the CPU it is on. A
// closed loop then keeps that one CPU busy through each request's thread
// hand-offs, so no hand-off waits for the hypervisor to wake an idle
// virtual CPU: unpinned, on a shared VM, that wait swung isax-serve's p95
// between 0.2 and 1.9 ms across runs minutes apart while single-threaded
// work moved by a tenth. Returns the CPU, or -1 when binding failed.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

uint64_t Fnv1a(const Dataset& data, uint64_t hash) {
  const auto values = data.values();
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size_bytes(); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001B3ULL;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Inputs: one collection and its query sets, all derived from --seed.

struct Inputs {
  Dataset data;
  hydra::gen::Workload exact;
  std::vector<std::vector<Neighbor>> truth;  // BruteForceKnn per exact query
  hydra::gen::Workload fresh;                // isax-serve only
  std::vector<size_t> order;  // request i asks exact query order[i % size]
  uint64_t digest = 0;
};

Inputs MakeInputs(uint64_t seed, size_t series, size_t truth_count,
                  size_t fresh_count) {
  Inputs in;
  in.data = hydra::gen::MakeDataset("synth", series, kLength, kDatasetSeed);
  in.exact = hydra::gen::CtrlWorkload(in.data, kExactQueries,
                                      Mix(seed, 1));
  if (fresh_count > 0) {
    in.fresh = hydra::gen::CtrlWorkload(in.data, fresh_count,
                                        Mix(seed, 2));
  }
  // CtrlWorkload orders queries from easiest to hardest; a seeded shuffle
  // keeps any prefix of the request stream a fair sample of difficulty.
  in.order.resize(kExactQueries);
  std::iota(in.order.begin(), in.order.end(), size_t{0});
  std::mt19937_64 rng(Mix(seed, 3));
  std::shuffle(in.order.begin(), in.order.end(), rng);
  in.order.resize(truth_count);

  // Ground truth, outside every timed window (parallel: it is not measured).
  in.truth.resize(kExactQueries);
  hydra::util::ThreadPool pool(
      std::min<size_t>(4, hydra::util::ThreadPool::HardwareConcurrency()));
  pool.ParallelFor(0, truth_count, [&](size_t i) {
    const size_t q = in.order[i];
    in.truth[q] = hydra::core::BruteForceKnn(in.data, in.exact.queries[q], kK);
  });
  in.digest = Fnv1a(in.fresh.queries,
                    Fnv1a(in.exact.queries, Fnv1a(in.data, 0xCBF29CE484222325ULL)));
  return in;
}

// True when `got` lists 1..k distinct in-range series, sorted, whose
// reported squared distances are their real distances to `query`. An ng
// answer may hold fewer than k: it reads one leaf, which can be smaller.
bool DistancesAreReal(const Dataset& data, SeriesView query,
                      const std::vector<Neighbor>& got) {
  if (got.empty() || got.size() > kK) return false;
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].id >= data.size()) return false;
    if (r > 0 && (got[r].dist_sq < got[r - 1].dist_sq)) return false;
    for (size_t s = 0; s < r; ++s) {
      if (got[s].id == got[r].id) return false;
    }
    const double real = hydra::core::SquaredEuclidean(data[got[r].id], query);
    if (std::fabs(real - got[r].dist_sq) > 1e-6 * (1.0 + real)) return false;
  }
  return true;
}

// Exact answers must also match the ground truth rank by rank (ids may
// differ only between tied distances).
bool MatchesTruth(const Dataset& data, SeriesView query,
                  const std::vector<Neighbor>& got,
                  const std::vector<Neighbor>& truth) {
  if (got.size() != kK || truth.size() != kK ||
      !DistancesAreReal(data, query, got)) {
    return false;
  }
  for (size_t r = 0; r < kK; ++r) {
    const double want = truth[r].dist_sq;
    if (std::fabs(got[r].dist_sq - want) > 1e-6 * (1.0 + want)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workloads.

struct SetupTimes {
  double open_s = 0.0;   // storage::StorageHandle::Open
  double build_s = 0.0;  // SearchMethod::Build
  double start_s = 0.0;  // serve::Server::Start + client connect
  double total() const { return open_s + build_s + start_s; }
};

struct Reply {
  QueryResult result;
  bool cached = false;   // served from the answer cache
  bool refused = false;  // an error frame instead of an answer
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One complete set-up from the inputs, replacing any earlier one.
  virtual SetupTimes Setup() = 0;
  /// Untimed requests that let lazy state settle (and fill the cache).
  virtual void WarmUp() = 0;
  /// Request `i` of the deterministic request stream: one public call,
  /// wrapped in the benchmark's own span.
  virtual Reply Call(size_t i) = 0;
  virtual bool Check(size_t i, const Reply& reply) const = 0;
  virtual int64_t memory_bytes() const = 0;
  /// Answer-cache hits so far (only a served workload has a cache).
  virtual int64_t cache_hits() const { return 0; }
  virtual std::string Describe() const = 0;
};

// Direct, serial exact 10-NN over an index method.
class DirectWorkload : public Workload {
 public:
  DirectWorkload(const Inputs* in, std::string method) :
      in_(in), method_name_(std::move(method)) {}

  Reply Call(size_t i) override {
    const size_t q = in_->order[i % in_->order.size()];
    HYDRA_OBS_SPAN_ARG("bench_execute", "query", q);
    return Reply{method_->Execute(in_->exact.queries[q], QuerySpec::Knn(kK))};
  }
  bool Check(size_t i, const Reply& reply) const override {
    const size_t q = in_->order[i % in_->order.size()];
    return MatchesTruth(dataset(), in_->exact.queries[q],
                        reply.result.neighbors, in_->truth[q]);
  }
  void WarmUp() override {
    for (size_t i = 0; i < 8; ++i) Call(i);
  }
  int64_t memory_bytes() const override {
    return method_->footprint().memory_bytes;
  }

 protected:
  virtual const Dataset& dataset() const = 0;

  const Inputs* in_;
  const std::string method_name_;
  std::unique_ptr<hydra::core::SearchMethod> method_;
};

class RamWorkload : public DirectWorkload {
 public:
  explicit RamWorkload(const Inputs* in) : DirectWorkload(in, "DSTree") {}
  SetupTimes Setup() override {
    method_.reset();
    SetupTimes t;
    hydra::util::WallTimer timer;
    method_ = hydra::bench::CreateMethod(method_name_);
    method_->Build(in_->data);
    t.build_s = timer.Seconds();
    return t;
  }
  std::string Describe() const override {
    return "DSTree built in RAM, serial exact 10-NN";
  }

 private:
  const Dataset& dataset() const override { return in_->data; }
};

// VA+file over the mmap backend with a buffer pool far smaller than the
// file. The collection is written to `path` first; the file stays warm in
// the OS page cache, so misses measure the program's pool path.
class PoolWorkload : public DirectWorkload {
 public:
  static constexpr size_t kPageBytes = size_t{1} << 20;

  PoolWorkload(const Inputs* in, std::string path)
      : DirectWorkload(in, "VA+file"), path_(std::move(path)) {}
  ~PoolWorkload() override {
    method_.reset();
    handle_.reset();
    std::remove(path_.c_str());
  }
  bool WriteFile() {
    pages_ = (in_->data.bytes() + kPageBytes - 1) / kPageBytes;
    const auto status = hydra::io::WriteSeriesFile(path_, in_->data);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
    }
    return status.ok();
  }
  SetupTimes Setup() override {
    method_.reset();
    handle_.reset();
    SetupTimes t;
    hydra::util::WallTimer timer;
    hydra::storage::StorageOptions options;
    options.backend = hydra::storage::StorageBackend::kMmap;
    // A third of the file's pages: 32 frames for 98 pages at 100k series.
    options.pool.budget_bytes = std::max<size_t>(1, pages_ / 3) * kPageBytes;
    options.pool.page_bytes = kPageBytes;
    auto opened = hydra::storage::StorageHandle::Open(path_, "synth", options);
    HYDRA_CHECK_MSG(opened.ok(), opened.status().message().c_str());
    handle_ = std::make_unique<hydra::storage::StorageHandle>(
        std::move(opened).value());
    t.open_s = timer.Seconds();
    timer.Reset();
    method_ = hydra::bench::CreateMethod(method_name_);
    method_->Build(handle_->dataset());
    t.build_s = timer.Seconds();
    return t;
  }
  std::string Describe() const override {
    return "VA+file over --storage mmap, " + handle_->Describe();
  }

 private:
  const Dataset& dataset() const override { return handle_->dataset(); }

  const std::string path_;
  size_t pages_ = 0;
  std::unique_ptr<hydra::storage::StorageHandle> handle_;
};

// iSAX2+ behind an in-process serve::Server (one worker), one loopback
// client. Four in five requests are ng 10-NN (never cacheable); every
// fifth repeats one of kHotQueries exact queries the warm-up cached.
class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Inputs* in) : in_(in) {
    for (size_t h = 0; h < kHotQueries; ++h) {
      hot_.push_back(Request(in->exact.queries[in->order[h]],
                             QuerySpec::Knn(kK)));
    }
    fresh_.spec = QuerySpec::NgApprox(kK);
  }
  ~ServeWorkload() override { Stop(); }

  SetupTimes Setup() override {
    Stop();
    SetupTimes t;
    hydra::util::WallTimer timer;
    method_ = hydra::bench::CreateMethod("iSAX2+");
    method_->Build(in_->data);
    t.build_s = timer.Seconds();
    timer.Reset();
    hydra::serve::ServerOptions options;
    options.serve_threads = 1;
    server_ = std::make_unique<hydra::serve::Server>(options);
    const auto started = server_->Start(method_, &in_->data);
    HYDRA_CHECK_MSG(started.ok(), started.message().c_str());
    client_ = std::make_unique<hydra::serve::Client>();
    const auto connected = client_->Connect("127.0.0.1", server_->port());
    HYDRA_CHECK_MSG(connected.ok(), connected.message().c_str());
    t.start_s = timer.Seconds();
    return t;
  }
  void WarmUp() override {
    for (size_t h = 0; h < kHotQueries; ++h) Send(&hot_[h]);
    for (size_t i = 0; i < 256; ++i) Call(i);
  }
  Reply Call(size_t i) override {
    if (IsHot(i)) return Send(&hot_[HotIndex(i)]);
    // One reused request: the fresh queries are not copied a second time.
    const SeriesView q = in_->fresh.queries[FreshIndex(i)];
    fresh_.query.assign(q.begin(), q.end());
    return Send(&fresh_);
  }
  bool Check(size_t i, const Reply& reply) const override {
    if (reply.refused) return false;
    if (IsHot(i)) {
      const size_t q = in_->order[HotIndex(i)];
      return MatchesTruth(in_->data, in_->exact.queries[q],
                          reply.result.neighbors, in_->truth[q]);
    }
    return DistancesAreReal(in_->data, in_->fresh.queries[FreshIndex(i)],
                            reply.result.neighbors);
  }
  int64_t memory_bytes() const override {
    return method_->footprint().memory_bytes;
  }
  std::string Describe() const override {
    return "iSAX2+ served in-process (1 worker), one loopback client, "
           "4/5 ng + 1/5 cached exact";
  }
  int64_t cache_hits() const override {
    return server_->cache_counters().hits;
  }

 private:
  static bool IsHot(size_t i) { return i % kHotEvery == kHotEvery - 1; }
  static hydra::serve::QueryRequest Request(SeriesView q, QuerySpec spec) {
    hydra::serve::QueryRequest r;
    r.spec = spec;
    r.query.assign(q.begin(), q.end());
    return r;
  }
  static size_t HotIndex(size_t i) { return (i / kHotEvery) % kHotQueries; }
  size_t FreshIndex(size_t i) const {
    return (i - i / kHotEvery) % in_->fresh.queries.size();
  }
  Reply Send(hydra::serve::QueryRequest* request) {
    request->request_id = ++next_request_id_;
    HYDRA_OBS_SPAN_ARG("bench_client_query", "request_id",
                       request->request_id);
    hydra::serve::AnswerResponse response;
    Reply reply;
    if (client_->Query(*request, &response).ok()) {
      reply.result = std::move(response.result);
      reply.cached = response.cached;
    } else {
      reply.refused = true;
    }
    return reply;
  }
  void Stop() {
    client_.reset();
    server_.reset();  // drains and joins the server threads
    method_.reset();
  }

  const Inputs* in_;
  std::vector<hydra::serve::QueryRequest> hot_;
  hydra::serve::QueryRequest fresh_;
  uint64_t next_request_id_ = 0;
  std::shared_ptr<hydra::core::SearchMethod> method_;
  std::unique_ptr<hydra::serve::Server> server_;
  std::unique_ptr<hydra::serve::Client> client_;
};

// ---------------------------------------------------------------------------
// Measurement.

struct Pass {
  std::vector<double> latency_s;  // per request, in request order
  std::vector<Reply> replies;     // kept only for fixed passes
  int64_t failed = 0;
  double wall_s() const {
    return std::accumulate(latency_s.begin(), latency_s.end(), 0.0);
  }
};

double Time(Workload* w, size_t i, Reply* reply) {
  hydra::util::WallTimer timer;
  *reply = w->Call(i);
  return timer.Seconds();
}

// Requests 0, 1, ... until `seconds` of wall time have passed. Answers are
// checked as they arrive, outside the per-request timer.
Pass RunTimed(Workload* w, double seconds) {
  Pass pass;
  pass.latency_s.reserve(size_t{1} << 20);
  hydra::util::WallTimer wall;
  for (size_t i = 0; wall.Seconds() < seconds; ++i) {
    Reply reply;
    pass.latency_s.push_back(Time(w, i, &reply));
    if (!w->Check(i, reply)) ++pass.failed;
  }
  return pass;
}

// Requests 0 .. count-1, replies kept for the per-layer counts.
Pass RunFixed(Workload* w, size_t count) {
  Pass pass;
  pass.latency_s.reserve(count);
  pass.replies.resize(count);
  for (size_t i = 0; i < count; ++i) {
    pass.latency_s.push_back(Time(w, i, &pass.replies[i]));
    if (!w->Check(i, pass.replies[i])) ++pass.failed;
  }
  return pass;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 11;

struct WorkloadPlan {
  const char* name;
  size_t series;       // collection size
  size_t fixed_pass;   // requests per pass of a --trace 1 run
  size_t truth_count;  // exact queries needing ground truth
  size_t fresh_count;
};

// The direct workloads stream their collection: DSTree verifies ~40% of it
// per query and VA+file preads all of it. At 100k series (130 MiB with the
// pool) their medians swung by up to 35% between runs minutes apart as the
// host's shared cache came and went; at 20k the run-to-run spread roughly
// halved (README.md, Noise).
// isax-serve reads one leaf per request, so it keeps 100k series, which
// also keeps its iSAX2+ build (setup_s) well above the millisecond scale.
constexpr WorkloadPlan kPlans[] = {
    {"dstree-ram", 20000, 400, kExactQueries, 0},
    {"vafile-pool", 20000, 400, kExactQueries, 0},
    {"isax-serve", 100000, 20000, kHotQueries, kFreshQueries},
};

// Per-layer counts over a fixed pass; requests answered from the cache
// did no work and are left out of the per-query averages.
struct LayerCounts {
  SearchStats sum;
  int64_t executed = 0;
  int64_t refused = 0;
  std::vector<double> execute_ms, stack_ms, hit_ms;
};

LayerCounts CountLayers(const Pass& pass) {
  LayerCounts c;
  for (size_t i = 0; i < pass.replies.size(); ++i) {
    const Reply& r = pass.replies[i];
    const double ms = pass.latency_s[i] * 1e3;
    if (r.refused) {
      ++c.refused;
    } else if (r.cached) {
      c.hit_ms.push_back(ms);
    } else {
      ++c.executed;
      c.sum.Add(r.result.stats);
      const double exec_ms = r.result.stats.cpu_seconds * 1e3;
      c.execute_ms.push_back(exec_ms);
      c.stack_ms.push_back(ms - exec_ms);
    }
  }
  return c;
}

// Layer of a span name, for the self-time table.
const char* LayerOf(const std::string& span) {
  if (span.rfind("bench_", 0) == 0) return "bench";
  if (span == "serve_request") return "serve";
  if (span.rfind("pool_", 0) == 0) return "storage";
  if (span == "leaf_verify") return "index";
  return "core";  // execute, traversal
}

double SelfMs(const std::map<std::string, SpanTotals>& spans,
              const char* name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.self_ms;
}

int Run(const Args& args) {
  const WorkloadPlan* plan = nullptr;
  for (const WorkloadPlan& p : kPlans) {
    if (args.workload == p.name) plan = &p;
  }
  HYDRA_CHECK(plan != nullptr);

  hydra::util::WallTimer inputs_timer;
  const size_t series = plan->series;
  Inputs in = MakeInputs(args.seed, series, plan->truth_count,
                         plan->fresh_count);
  std::printf("perfbench %s seed=%llu: %zu x %zu synth, %zu exact queries, "
              "k=%zu, inputs digest %016llx (%.2f s)\n",
              plan->name, static_cast<unsigned long long>(args.seed),
              series, kLength, kExactQueries, kK,
              static_cast<unsigned long long>(in.digest),
              inputs_timer.Seconds());
  // After the ground truth, whose worker threads have ended by now.
  const int cpu = PinToCurrentCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "warning: could not bind to one CPU; hand-offs "
                         "between threads may wait for idle CPUs\n");
  } else {
    std::printf("bound to CPU %d\n", cpu);
  }

  std::unique_ptr<Workload> w;
  if (args.workload == "dstree-ram") {
    w = std::make_unique<RamWorkload>(&in);
  } else if (args.workload == "vafile-pool") {
    std::filesystem::create_directories(args.scratch);
    auto pool = std::make_unique<PoolWorkload>(
        &in, args.scratch + "/data-" + std::to_string(getpid()) + ".bin");
    if (!pool->WriteFile()) return 1;
    // From here on the workload reads the collection only through the
    // mapping: drop the benchmark's RAM copy so peak_rss_mb is the
    // workload's own.
    in.data = Dataset();
    w = std::move(pool);
  } else {
    w = std::make_unique<ServeWorkload>(&in);
  }

  std::vector<double> setup_s, open_s, build_s;
  for (size_t s = 0; s < kSetups; ++s) {
    const SetupTimes t = w->Setup();
    setup_s.push_back(t.total());
    open_s.push_back(t.open_s);
    build_s.push_back(t.build_s);
  }
  std::printf("workload: %s\n", w->Describe().c_str());
  std::printf("setup: %zu set-ups, median %.4f s (open %.4f, build %.4f), "
              "range [%.4f, %.4f]\n",
              kSetups, Median(setup_s), Median(open_s), Median(build_s),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  w->WarmUp();

  if (args.trace == 0) {
    const Pass pass = RunTimed(w.get(), args.seconds);
    const size_t n = pass.latency_s.size();
    std::printf("timed: %zu requests, %.3f s in calls, p50/p95 over n=%zu\n",
                n, pass.wall_s(), n);
    PrintResult(pass.failed == 0, static_cast<int64_t>(n), pass.failed,
                {{"qps", static_cast<double>(n) / pass.wall_s(), "1/s"},
                 {"p50_ms", Percentile(pass.latency_s, 0.50) * 1e3, "ms"},
                 {"p95_ms", Percentile(pass.latency_s, 0.95) * 1e3, "ms"},
                 {"setup_s", Median(setup_s), "s"},
                 {"peak_rss_mb", PeakRssMb(), "MB"}});
    return pass.failed == 0 ? 0 : 1;
  }

  // --trace 1: the same fixed pass untraced, then traced.
  const size_t count = plan->fixed_pass;
  const int64_t hits_before = w->cache_hits();
  const Pass plain = RunFixed(w.get(), count);
  const int64_t pass_hits = w->cache_hits() - hits_before;
  hydra::obs::Tracer& tracer = hydra::obs::Tracer::Get();
  tracer.Clear();
  // Per-thread rings of 2^18 events: the largest pass records ~52k spans
  // on one thread (the serve worker); obs.dropped_events proves the fit.
  tracer.Enable(size_t{1} << 18);
  const Pass traced = RunFixed(w.get(), count);
  // The serve worker closes its last span just after the client has its
  // answer; give it time to record before collecting.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  tracer.Disable();
  std::vector<hydra::obs::CollectedEvent> events;
  const auto collected = tracer.Collect(&events);
  const auto spans = FoldSelfTimes(events);

  const double wall_plain_ms = plain.wall_s() * 1e3;
  const double wall_traced_ms = traced.wall_s() * 1e3;
  std::printf("\nself time by layer, %zu requests, %zu spans "
              "(%llu dropped):\n", count, events.size(),
              static_cast<unsigned long long>(collected.dropped));
  std::printf("  %-8s %-20s %9s %12s %12s %7s\n", "layer", "span", "count",
              "self_ms", "ms/request", "share");
  double rows_ms = 0.0;
  auto row = [&](const char* layer, const std::string& name, int64_t n,
                 double ms) {
    rows_ms += ms;
    std::printf("  %-8s %-20s %9lld %12.3f %12.5f %6.2f%%\n", layer,
                name.c_str(), static_cast<long long>(n), ms,
                ms / static_cast<double>(count), 100.0 * ms / wall_plain_ms);
  };
  double span_self_ms = 0.0;
  for (const auto& [name, t] : spans) {
    row(LayerOf(name), name, t.count, t.self_ms);
    span_self_ms += t.self_ms;
  }
  row("obs", "tracing_inflation", 0, wall_plain_ms - wall_traced_ms);
  row("-", "unattributed", 0, wall_traced_ms - span_self_ms);
  std::printf("  rows sum %.3f ms = untraced wall %.3f ms (traced wall "
              "%.3f ms)\n\n", rows_ms, wall_plain_ms, wall_traced_ms);

  const LayerCounts c = CountLayers(plain);
  const double executed = static_cast<double>(std::max<int64_t>(c.executed, 1));
  const double n_data = static_cast<double>(series);
  const double raw_per_query =
      static_cast<double>(c.sum.raw_series_examined) / executed;
  const double verified_bytes =
      static_cast<double>(c.sum.raw_series_examined) * kLength *
      sizeof(hydra::core::Value);
  const double pool_reads =
      static_cast<double>(c.sum.pool_hits + c.sum.pool_misses);
  const int64_t failed = plain.failed + traced.failed;
  const int64_t attempted = static_cast<int64_t>(2 * count);
  const double per_request = 1.0 / static_cast<double>(count);
  const bool serve = args.workload == "isax-serve";

  const std::vector<Metric> metrics = {
      {"core.distance_calls_per_query",
       static_cast<double>(c.sum.distance_computations) / executed, "count"},
      {"core.lb_calls_per_query",
       static_cast<double>(c.sum.lower_bound_computations) / executed,
       "count"},
      {"core.traversal_self_ms", SelfMs(spans, "traversal") * per_request,
       "ms"},
      {"index.raw_series_per_query", raw_per_query, "count"},
      {"index.pruning_ratio", 1.0 - raw_per_query / n_data, "ratio"},
      {"index.nodes_visited_per_query",
       static_cast<double>(c.sum.nodes_visited) / executed, "count"},
      {"index.leaf_verify_ms", SelfMs(spans, "leaf_verify") * per_request,
       "ms"},
      {"index.build_s", Median(build_s), "s"},
      {"index.memory_mb",
       static_cast<double>(w->memory_bytes()) / (1024.0 * 1024.0), "MB"},
      {"storage.open_s", Median(open_s), "s"},
      {"storage.hit_ratio",
       pool_reads > 0 ? static_cast<double>(c.sum.pool_hits) / pool_reads
                      : 0.0,
       "ratio"},
      {"storage.misses_per_query",
       static_cast<double>(c.sum.pool_misses) / executed, "count"},
      {"storage.evictions_per_query",
       static_cast<double>(c.sum.pool_evictions) / executed, "count"},
      {"storage.pread_mb_per_query",
       static_cast<double>(c.sum.pool_bytes_read) / executed /
           (1024.0 * 1024.0),
       "MB"},
      {"storage.read_amplification",
       verified_bytes > 0
           ? static_cast<double>(c.sum.pool_bytes_read) / verified_bytes
           : 0.0,
       "ratio"},
      {"storage.pread_ms", SelfMs(spans, "pool_miss_pread") * per_request,
       "ms"},
      {"storage.wait_ms", SelfMs(spans, "pool_wait") * per_request, "ms"},
      {"serve.execute_ms_p50", serve ? Median(c.execute_ms) : 0.0, "ms"},
      {"serve.stack_ms_p50", serve ? Median(c.stack_ms) : 0.0, "ms"},
      {"serve.hit_ms_p50", Median(c.hit_ms), "ms"},
      {"serve.cache_hit_ratio",
       static_cast<double>(pass_hits) * per_request, "ratio"},
      {"serve.rejected", static_cast<double>(c.refused), "count"},
      {"obs.trace_overhead_pct",
       100.0 * (wall_traced_ms - wall_plain_ms) / wall_plain_ms, "%"},
      {"obs.dropped_events", static_cast<double>(collected.dropped), "count"},
      {"error_rate",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
  };
  const bool correct = failed == 0 && collected.dropped == 0;
  if (collected.dropped != 0) {
    std::printf("error: the tracer dropped %llu events; the self-time "
                "table is incomplete\n",
                static_cast<unsigned long long>(collected.dropped));
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  bool known = false;
  for (const WorkloadPlan& p : kPlans) known = known || args->workload == p.name;
  return argc % 2 == 1 && known && args->seconds > 0.0 && args->trace >= 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return perfbench::SelfTest() ? 0 : 1;
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<dstree-ram|vafile-pool|isax-serve> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
