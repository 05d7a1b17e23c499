#include "selftime.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {
namespace {

using hydra::obs::CollectedEvent;

// A root span named kLinkChild is a child of the kLinkParent span that
// carries the same argument (the serve request id).
constexpr const char* kLinkParent = "bench_client_query";
constexpr const char* kLinkChild = "serve_request";

uint64_t End(const CollectedEvent& e) { return e.start_ns + e.dur_ns; }

bool Named(const CollectedEvent& e, const char* name) {
  return e.name != nullptr && std::strcmp(e.name, name) == 0;
}

}  // namespace

std::map<std::string, SpanTotals> FoldSelfTimes(
    const std::vector<CollectedEvent>& events) {
  // Per-thread order: by start, enclosing spans (longer, shallower) first.
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const CollectedEvent& x = events[a];
    const CollectedEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.dur_ns != y.dur_ns) return x.dur_ns > y.dur_ns;
    return x.depth < y.depth;
  });

  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> parent(events.size(), kNone);
  std::vector<size_t> stack;
  for (size_t n = 0; n < order.size(); ++n) {
    const size_t i = order[n];
    if (n > 0 && events[order[n - 1]].tid != events[i].tid) stack.clear();
    while (!stack.empty() && End(events[stack.back()]) < End(events[i])) {
      stack.pop_back();
    }
    if (!stack.empty()) parent[i] = stack.back();
    stack.push_back(i);
  }

  std::unordered_map<int64_t, size_t> link_parents;
  for (size_t i = 0; i < events.size(); ++i) {
    if (Named(events[i], kLinkParent)) {
      link_parents[events[i].arg_value] = i;
    }
  }
  for (size_t i = 0; i < events.size(); ++i) {
    if (parent[i] != kNone || !Named(events[i], kLinkChild)) continue;
    const auto it = link_parents.find(events[i].arg_value);
    if (it != link_parents.end()) parent[i] = it->second;
  }

  // A span counts only inside its parent's clipped interval, so the self
  // times of one span tree add up to its root's duration even where a
  // cross-thread child outlives its parent (a worker that finishes its
  // span after the client already has the answer).
  struct Interval {
    uint64_t begin, end;
  };
  std::vector<Interval> clipped(events.size());
  std::vector<bool> done(events.size(), false);
  auto clip = [&](auto& self, size_t i) -> Interval {
    if (!done[i]) {
      Interval own{events[i].start_ns, End(events[i])};
      if (parent[i] != kNone) {
        const Interval p = self(self, parent[i]);
        own.begin = std::clamp(own.begin, p.begin, p.end);
        own.end = std::clamp(own.end, p.begin, p.end);
      }
      clipped[i] = own;
      done[i] = true;
    }
    return clipped[i];
  };
  std::vector<uint64_t> covered(events.size(), 0);
  for (size_t i = 0; i < events.size(); ++i) {
    const Interval c = clip(clip, i);
    if (parent[i] != kNone) covered[parent[i]] += c.end - c.begin;
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t length = clipped[i].end - clipped[i].begin;
    SpanTotals& t = totals[events[i].name];
    ++t.count;
    t.self_ms +=
        static_cast<double>(length - std::min(covered[i], length)) * 1e-6;
  }
  return totals;
}

bool SelfTest() {
  auto ev = [](const char* name, uint64_t start, uint64_t dur, uint32_t depth,
               uint32_t tid, int64_t arg) {
    CollectedEvent e;
    e.name = name;
    e.arg_value = arg;
    e.start_ns = start * 1000000;  // the cases below are written in ms
    e.dur_ns = dur * 1000000;
    e.depth = depth;
    e.tid = tid;
    return e;
  };
  struct Case {
    const char* what;
    std::vector<CollectedEvent> events;
    std::map<std::string, double> self_ms;
  };
  const std::vector<Case> cases = {
      {"nested on one thread",
       {ev("leaf", 2, 3, 2, 0, 0), ev("call", 0, 10, 0, 0, 0),
        ev("execute", 1, 8, 1, 0, 0), ev("leaf", 6, 2, 2, 0, 0)},
       {{"call", 2}, {"execute", 3}, {"leaf", 5}}},
      {"same start: the longer span encloses",
       {ev("inner", 0, 4, 1, 0, 0), ev("outer", 0, 6, 0, 0, 0)},
       {{"outer", 2}, {"inner", 4}}},
      {"siblings back to back",
       {ev("a", 0, 5, 0, 0, 0), ev("b", 5, 5, 0, 0, 0)},
       {{"a", 5}, {"b", 5}}},
      {"cross-thread link by request id, clipped to the parent",
       {ev(kLinkParent, 0, 10, 0, 0, 7), ev(kLinkParent, 20, 10, 0, 0, 8),
        ev(kLinkChild, 2, 6, 0, 1, 7), ev("execute", 3, 4, 1, 1, 0),
        ev(kLinkChild, 24, 9, 0, 1, 8), ev("execute", 28, 4, 1, 1, 0)},
       // Request 8 (24..33) counts as 24..30, its execute (28..32) as
       // 28..30: each tree's self times add up to its client span's 10 ms.
       {{kLinkParent, 4 + 4}, {kLinkChild, 2 + 4}, {"execute", 4 + 2}}},
  };
  for (const Case& c : cases) {
    const auto folded = FoldSelfTimes(c.events);
    for (const auto& [name, want] : c.self_ms) {
      const auto it = folded.find(name);
      const double got = it == folded.end() ? -1.0 : it->second.self_ms;
      if (std::fabs(got - want) > 1e-9) {
        std::printf("selftest FAILED (%s): %s self %.3f ms, want %.3f\n",
                    c.what, name.c_str(), got, want);
        return false;
      }
    }
  }
  std::printf("selftest ok: %zu span-folding cases\n", cases.size());
  return true;
}

}  // namespace perfbench
