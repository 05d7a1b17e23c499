// Span tracer battery: ring wraparound with exact drop accounting, span
// nesting depths, disabled-tracer inertness, ring hand-over between
// threads, trace-event JSON that parses back, and typed errors (never
// aborts) on unwritable paths.
#include "obs/trace.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hydra::obs {
namespace {

/// Minimal recursive-descent JSON well-formedness checker — the repo has
/// a writer only, so the "parses back" contract is verified structurally
/// here (the smoke script re-parses with a real parser).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c) {
      if (pos_ >= text_.size() || text_[pos_] != *c) return false;
      ++pos_;
    }
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// The tracer is a process singleton; every test leaves it disabled and
/// empty so suites compose in any order.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
  }
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
  }
};

TEST_F(ObsTraceTest, RingKeepsEverythingUnderCapacity) {
  ThreadRing ring(/*tid=*/0, /*capacity=*/8);
  for (int i = 0; i < 5; ++i) {
    ring.Record("a", nullptr, 0, static_cast<uint64_t>(i) * 10, 1, 0);
  }
  std::vector<CollectedEvent> events;
  uint64_t dropped = 0;
  ring.Collect(&events, &dropped);
  EXPECT_EQ(events.size(), 5u);
  EXPECT_EQ(dropped, 0u);
}

TEST_F(ObsTraceTest, RingWraparoundKeepsNewestAndCountsDrops) {
  ThreadRing ring(/*tid=*/3, /*capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    ring.Record("a", nullptr, 0, static_cast<uint64_t>(i), 1, 0);
  }
  std::vector<CollectedEvent> events;
  uint64_t dropped = 0;
  ring.Collect(&events, &dropped);
  // The last 8 of 20 survive; exactly 12 are reported lost, not hidden.
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(dropped, 12u);
  for (const CollectedEvent& e : events) {
    EXPECT_GE(e.start_ns, 12u);
    EXPECT_EQ(e.tid, 3u);
  }
}

TEST_F(ObsTraceTest, RingClearRestartsDropAccounting) {
  ThreadRing ring(/*tid=*/0, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) ring.Record("a", nullptr, 0, 0, 1, 0);
  ring.Clear();
  ring.Record("b", nullptr, 0, 7, 1, 0);
  std::vector<CollectedEvent> events;
  uint64_t dropped = 0;
  ring.Collect(&events, &dropped);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_STREQ(events[0].name, "b");
}

TEST_F(ObsTraceTest, DisabledSpansRecordNothing) {
  { HYDRA_OBS_SPAN("never"); }
  { HYDRA_OBS_SPAN_ARG("never_arg", "n", 3); }
  std::vector<CollectedEvent> events;
  const Tracer::CollectResult r = Tracer::Get().Collect(&events);
  EXPECT_EQ(r.events, 0u);
  EXPECT_EQ(events.size(), 0u);
}

TEST_F(ObsTraceTest, NestedSpansRecordDepthsAndCloseInnerFirst) {
  Tracer::Get().Enable();
  {
    HYDRA_OBS_SPAN("outer");
    {
      HYDRA_OBS_SPAN("middle");
      { HYDRA_OBS_SPAN_ARG("inner", "k", 42); }
    }
  }
  std::vector<CollectedEvent> events;
  Tracer::Get().Collect(&events);
  ASSERT_EQ(events.size(), 3u);
  // Spans record at close, so inner lands first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[0].arg_value, 42);
  EXPECT_STREQ(events[0].arg_name, "k");
  EXPECT_STREQ(events[1].name, "middle");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0u);
  // Containment: the outer interval covers the inner one.
  EXPECT_LE(events[2].start_ns, events[0].start_ns);
  EXPECT_GE(events[2].start_ns + events[2].dur_ns,
            events[0].start_ns + events[0].dur_ns);
}

TEST_F(ObsTraceTest, SetArgAttachesLateValue) {
  Tracer::Get().Enable();
  {
    ObsSpan span("late");
    span.SetArg("count", 17);
  }
  std::vector<CollectedEvent> events;
  Tracer::Get().Collect(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].arg_name, "count");
  EXPECT_EQ(events[0].arg_value, 17);
}

// A thread's ring outlives it: the next new thread adopts it and appends,
// so threads spawned one after another share a ring (and its tid) and
// every event they recorded survives until the flush.
TEST_F(ObsTraceTest, ExitedThreadsHandTheirRingOn) {
  Tracer::Get().Enable();
  constexpr int kThreads = 64;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([t] { HYDRA_OBS_SPAN_ARG("worker", "t", t); }).join();
  }
  std::vector<CollectedEvent> events;
  const Tracer::CollectResult r = Tracer::Get().Collect(&events);
  ASSERT_EQ(r.events, static_cast<size_t>(kThreads));
  EXPECT_EQ(r.dropped, 0u);
  std::set<uint32_t> tids;
  std::set<int64_t> args;
  for (const CollectedEvent& e : events) {
    EXPECT_STREQ(e.name, "worker");
    tids.insert(e.tid);
    args.insert(e.arg_value);
  }
  EXPECT_LE(tids.size(), 2u);
  EXPECT_EQ(args.size(), static_cast<size_t>(kThreads));
}

TEST_F(ObsTraceTest, JsonParsesBackWithMetaAndDropCount) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  tracer.SetMeta("command", "unit-test");
  {
    HYDRA_OBS_SPAN("root");
    { HYDRA_OBS_SPAN_ARG("child", "shard", 2); }
  }
  const std::string json = tracer.ToJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"child\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
  EXPECT_NE(json.find("\"command\":\"unit-test\""), std::string::npos);
  // Chrome trace-event schema essentials.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(ObsTraceTest, WriteJsonUnwritablePathIsTypedError) {
  Tracer::Get().Enable();
  { HYDRA_OBS_SPAN("x"); }
  const util::Status s =
      Tracer::Get().WriteJson("/nonexistent-hydra-dir/trace.json");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("trace path"), std::string::npos);
}

TEST_F(ObsTraceTest, WriteJsonRoundTripsThroughDisk) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  { HYDRA_OBS_SPAN("disk"); }
  const std::string path = ::testing::TempDir() + "/hydra_obs_trace.json";
  ASSERT_TRUE(tracer.WriteJson(path).ok());
  std::ifstream in(path);
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  JsonChecker checker(body);
  EXPECT_TRUE(checker.Valid());
  EXPECT_NE(body.find("\"disk\""), std::string::npos);
}

}  // namespace
}  // namespace hydra::obs
