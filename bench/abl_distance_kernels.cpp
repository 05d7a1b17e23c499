// Ablation: the paper applies three optimizations to all methods — no
// square root, early abandoning, reordered early abandoning (here by whole
// 16-value cache lines ranked by query energy, core::QueryOrder, whose
// per-query Reset cost is printed too). Both abandoning ops run the line
// kernel, which checks the bound after every 16 values: early_abandon
// visits the lines in series order, line_abandon in rank order. This
// exhibit quantifies each, and
// since the distance layer dispatches to SIMD kernel sets, it sweeps every
// set the CPU supports (scalar, portable, avx2, avx512) against the scalar
// reference: throughput per op and series length, speedup versus scalar,
// and an inline conformance check (bit identity for order-preserving sets,
// the documented 16*n*2^-53 relative tolerance otherwise).
//
// Every row is timed under the exhibits' repeat rule (bench_common.h)
// with kRowMinWall per repeat: the median of kRepeats repeats and their
// spread, so two sets rank only where their medians differ by more than
// the spreads. The sets of one (op, length) are timed round-robin
// (TimeRoundRobin): each repeat times every set once, so a drift of the
// host lands on all of them alike.
//
// Usage: abl_distance_kernels [count] [--json <path>]
// Writes the machine-readable sweep to BENCH_kernels.json by default.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/distance.h"
#include "core/simd/kernels.h"
#include "util/check.h"

namespace hydra::bench {
namespace {

using core::Value;
using core::simd::KernelSet;

constexpr double kInf = std::numeric_limits<double>::infinity();
// Seconds per repeat. Below the exhibits' kMinRepeatWall because the
// sweep has 36 rows: 36 x kRepeats x 0.05 s keeps a run near 10 s.
constexpr double kRowMinWall = 0.05;

struct Workbench {
  explicit Workbench(core::Dataset d) : data(std::move(d)) {}
  core::Dataset data;
  size_t length = 0;
  std::vector<Value> query;
  core::QueryOrder order;  // the line ranking the query paths use
  // The in-order form of the line kernel's inputs: the query zero-padded
  // to whole lines, and the identity line order.
  std::vector<Value> padded_query;
  std::vector<uint32_t> in_order;
  double bound = 0.0;  // steady-state bsf: 1.1x the 1-NN distance
};

Workbench MakeWorkbench(size_t count, size_t length, uint64_t seed) {
  Workbench w(gen::RandomWalkDataset(count, length, seed));
  w.length = length;
  const core::Dataset q = gen::RandomWalkDataset(1, length, seed + 1);
  w.query.assign(q[0].data(), q[0].data() + length);
  w.order.Reset(w.query);
  const size_t lines =
      (length + core::simd::kLineValues - 1) / core::simd::kLineValues;
  w.padded_query = w.query;
  w.padded_query.resize(lines * core::simd::kLineValues, 0.0f);
  w.in_order.resize(lines);
  std::iota(w.in_order.begin(), w.in_order.end(), 0u);

  const auto& scalar = core::simd::ScalarKernels();
  double best = kInf;
  for (size_t i = 0; i < w.data.size(); ++i) {
    best = std::min(best,
                    scalar.euclidean_sq(w.query.data(), w.data[i].data(),
                                        length));
  }
  w.bound = best * 1.1;
  return w;
}

double RunOp(const KernelSet& set, const std::string& op, const Workbench& w) {
  double acc = 0.0;
  const size_t n = w.length;
  if (op == "euclidean") {
    for (size_t i = 0; i < w.data.size(); ++i) {
      acc += set.euclidean_sq(w.query.data(), w.data[i].data(), n);
    }
  } else if (op == "early_abandon") {
    for (size_t i = 0; i < w.data.size(); ++i) {
      acc += set.euclidean_sq_lines(w.padded_query.data(), w.data[i].data(),
                                    w.in_order.data(), n, w.bound);
    }
  } else {
    for (size_t i = 0; i < w.data.size(); ++i) {
      acc += set.euclidean_sq_lines(w.order.ranked_query().data(),
                                    w.data[i].data(), w.order.lines().data(),
                                    n, w.bound);
    }
  }
  return acc;
}

// Median wall time of one QueryOrder::Reset on the workbench query: the
// per-query cost of ranking its lines (buffers warm, as in
// ScratchQueryOrder). A batch is kResetCalls calls.
double ResetMicros(const Workbench& w) {
  constexpr size_t kResetCalls = 1000;
  core::QueryOrder order(w.query);
  size_t calls = 0;
  size_t sink = 0;
  const RepeatTiming timing = TimeRepeats(
      [&] {
        for (size_t i = 0; i < kResetCalls; ++i, ++calls) {
          order.Reset(w.query);
          sink += order.lines()[0];
        }
      },
      kRowMinWall);
  HYDRA_CHECK(sink < calls * w.length);
  return timing.median * 1e6 / static_cast<double>(kResetCalls);
}

// Inline conformance: the full (non-abandoning) distance of every series
// under `set` against the scalar reference, for the plain op and for the
// line kernel at an infinite bound. Abandoning results are only
// bound-comparable, so conformance is checked on full distances.
bool Conforms(const KernelSet& set, const Workbench& w) {
  const auto& scalar = core::simd::ScalarKernels();
  const double tol =
      16.0 * static_cast<double>(w.length) * std::ldexp(1.0, -53);
  for (size_t i = 0; i < w.data.size(); ++i) {
    const double want =
        scalar.euclidean_sq(w.query.data(), w.data[i].data(), w.length);
    const double got =
        set.euclidean_sq(w.query.data(), w.data[i].data(), w.length);
    if (set.raw_order_preserved) {
      if (got != want) return false;
    } else if (std::fabs(got - want) > std::fabs(want) * tol) {
      return false;
    }
    // The line kernel sums in rank order in every set, scalar included.
    const double lines = set.euclidean_sq_lines(
        w.order.ranked_query().data(), w.data[i].data(),
        w.order.lines().data(), w.length, kInf);
    if (std::fabs(lines - want) > std::fabs(want) * tol) return false;
  }
  return true;
}

int Run(int argc, char** argv) {
  const char* json_path = ExtractJsonPath(&argc, argv, "BENCH_kernels.json");
  const size_t count = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;
  HYDRA_CHECK_MSG(count > 0, "count must be positive");

  Banner("Distance-kernel ablation",
         "median series/s per kernel set, op, and length; spread; speedup "
         "vs scalar",
         "none (the paper applies the three optimizations to every method "
         "and times no kernel). Each row is the median of 5 repeats of at "
         "least 0.05 s and spread_pct their max - min as a share of it: "
         "rank two rows only where their medians differ by more than "
         "their spreads");

  const auto sets = core::simd::SupportedKernelSets();
  std::printf("kernel sets compiled in and supported here:");
  for (const KernelSet* s : sets) std::printf(" %s", s->name);
  std::printf("\ndataset: %zu random walks per length\n\n", count);

  util::JsonWriter json;
  json.BeginObject();
  json.Key("exhibit");
  json.String("distance_kernels");
  json.Key("series_count");
  json.Uint(count);
  json.Key("min_repeat_wall_s");
  json.Double(kRowMinWall);
  json.Key("repeats");
  json.Uint(kRepeats);
  json.Key("runs");
  json.BeginArray();

  util::Table table({"set", "op", "length", "series_per_s", "spread_pct",
                     "vs_scalar", "conforms"});
  util::Table reset_rows({"length", "reset_us"});
  std::vector<std::pair<size_t, double>> json_resets;
  bool all_conform = true;
  for (const size_t length : {64u, 256u, 1024u}) {
    const Workbench w = MakeWorkbench(count, length, 1000 + length);
    const double reset_us = ResetMicros(w);
    reset_rows.AddRow({util::Table::Num(static_cast<double>(length), 0),
                       util::Table::Num(reset_us, 3)});
    json_resets.push_back({length, reset_us});
    for (const char* op : {"euclidean", "early_abandon", "line_abandon"}) {
      double sink = 0.0;
      const std::vector<RepeatTiming> timings = TimeRoundRobin(
          sets.size(), [&](size_t s) { sink += RunOp(*sets[s], op, w); },
          kRowMinWall);
      HYDRA_CHECK(std::isfinite(sink));
      double scalar_rate = 0.0;
      for (size_t s = 0; s < sets.size(); ++s) {
        const KernelSet* set = sets[s];
        const RepeatTiming& timing = timings[s];
        const double rate = static_cast<double>(count) / timing.median;
        const double spread_pct = 100.0 * timing.spread / timing.median;
        if (std::strcmp(set->name, "scalar") == 0) scalar_rate = rate;
        const bool ok = Conforms(*set, w);
        all_conform = all_conform && ok;

        table.AddRow({set->name, op,
                      util::Table::Num(static_cast<double>(length), 0),
                      util::Table::Num(rate, 0),
                      util::Table::Num(spread_pct, 1),
                      util::Table::Num(rate / scalar_rate, 2),
                      ok ? "yes" : "NO"});
        json.BeginObject();
        json.Key("set");
        json.String(set->name);
        json.Key("op");
        json.String(op);
        json.Key("length");
        json.Uint(length);
        json.Key("series_per_second");
        json.Double(rate);
        json.Key("spread_pct");
        json.Double(spread_pct);
        json.Key("speedup_vs_scalar");
        json.Double(rate / scalar_rate);
        json.Key("raw_order_preserved");
        json.Bool(set->raw_order_preserved);
        json.Key("conforms");
        json.Bool(ok);
        json.EndObject();
      }
    }
  }
  table.Print("distance kernels (vs_scalar = rate / scalar rate, same op)");
  reset_rows.Print("QueryOrder::Reset (ranks the query's 16-value lines), "
                   "microseconds per call");
  if (sets.back() == &core::simd::ScalarKernels() ||
      std::strcmp(sets.back()->name, "portable") == 0) {
    std::printf("\nnote: this machine exposes no AVX2/AVX-512, so the SIMD "
                "rows above are absent and speedups reflect the portable "
                "set only — run on wider hardware for the full exhibit.\n");
  }

  json.EndArray();
  json.Key("query_order_reset");
  json.BeginArray();
  for (const auto& [length, us] : json_resets) {
    json.BeginObject();
    json.Key("length");
    json.Uint(length);
    json.Key("microseconds");
    json.Double(us);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (json_path != nullptr) {
    const util::Status written = json.WriteTo(json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.message().c_str());
      return 1;
    }
    std::printf("\nwrote machine-readable sweep to %s\n", json_path);
  }
  // A conformance failure fails the run *after* the table and JSON are
  // out, so the offending row is visible instead of dying mid-sweep.
  if (!all_conform) {
    std::fprintf(stderr, "error: a kernel diverged from the scalar "
                         "reference (see the 'conforms' column)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hydra::bench

int main(int argc, char** argv) { return hydra::bench::Run(argc, argv); }
