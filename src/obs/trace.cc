// Implementation of the span tracer: ring recording, thread registry, and
// the Chrome trace-event JSON export.
#include "obs/trace.h"

#include <algorithm>
#include <fstream>

#include "util/json.h"

namespace hydra::obs {

namespace {

// Per-thread tracer state: the ring handle (shared with the registry so
// flushes survive thread exit) and the span nesting depth. depth lives
// here, not in ObsSpan, so sibling spans on one thread see a consistent
// parent count. At thread exit the ring goes back to the tracer's free
// list (the tracer is never destroyed, so it outlives every thread).
struct TlsState {
  std::shared_ptr<ThreadRing> ring;
  uint32_t depth = 0;

  ~TlsState() {
    if (ring) Tracer::Get().Release(std::move(ring));
  }
};

thread_local TlsState tls_state;

}  // namespace

ThreadRing::ThreadRing(uint32_t tid, size_t capacity)
    : tid_(tid),
      capacity_(std::max<size_t>(1, capacity)),
      slots_(new Slot[std::max<size_t>(1, capacity)]) {}

void ThreadRing::Record(const char* name, const char* arg_name,
                        int64_t arg_value, uint64_t start_ns, uint64_t dur_ns,
                        uint32_t depth) {
  const uint64_t index = write_index_.load(std::memory_order_relaxed);
  Slot& slot = slots_[index % capacity_];
  slot.name.store(name, std::memory_order_relaxed);
  slot.arg_name.store(arg_name, std::memory_order_relaxed);
  slot.arg_value.store(arg_value, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.depth.store(depth, std::memory_order_relaxed);
  // Publish: a Collect that acquires a write index of index+1 sees every
  // field store above.
  write_index_.store(index + 1, std::memory_order_release);
}

void ThreadRing::Collect(std::vector<CollectedEvent>* out,
                         uint64_t* dropped) const {
  const uint64_t written = write_index_.load(std::memory_order_acquire);
  const uint64_t survivors = std::min<uint64_t>(written, capacity_);
  *dropped += written - survivors;
  // Oldest surviving event first.
  const uint64_t first = written - survivors;
  for (uint64_t i = first; i < written; ++i) {
    const Slot& slot = slots_[i % capacity_];
    CollectedEvent event;
    event.name = slot.name.load(std::memory_order_relaxed);
    event.arg_name = slot.arg_name.load(std::memory_order_relaxed);
    event.arg_value = slot.arg_value.load(std::memory_order_relaxed);
    event.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    event.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    event.depth = slot.depth.load(std::memory_order_relaxed);
    event.tid = tid_;
    if (event.name != nullptr) out->push_back(event);
  }
}

void ThreadRing::Clear() {
  write_index_.store(0, std::memory_order_release);
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: spans may
  return *tracer;                        // close during static teardown
}

void Tracer::Enable(size_t ring_capacity) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_capacity_ = std::max<size_t>(1, ring_capacity);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

ThreadRing* Tracer::ring() {
  if (!tls_state.ring) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      // The mutex orders the earlier owner's last Record before ours.
      tls_state.ring = std::move(free_.back());
      free_.pop_back();
    } else {
      auto ring = std::make_shared<ThreadRing>(
          static_cast<uint32_t>(rings_.size()), ring_capacity_);
      rings_.push_back(ring);
      tls_state.ring = std::move(ring);
    }
  }
  return tls_state.ring.get();
}

void Tracer::Release(std::shared_ptr<ThreadRing> ring) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(ring));
}

void Tracer::SetMeta(const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : meta_) {
    if (entry.first == key) {
      entry.second = std::move(value);
      return;
    }
  }
  meta_.emplace_back(key, std::move(value));
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& ring : rings_) ring->Clear();
  meta_.clear();
}

Tracer::CollectResult Tracer::Collect(std::vector<CollectedEvent>* out) const {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings = rings_;
  }
  CollectResult result;
  const size_t before = out->size();
  for (const auto& ring : rings) ring->Collect(out, &result.dropped);
  result.events = out->size() - before;
  return result;
}

std::string Tracer::ToJson() const {
  std::vector<CollectedEvent> events;
  const CollectResult collected = Collect(&events);
  // Stable presentation: by thread, then by time. Perfetto does not
  // require ordering, but deterministic output makes the trace diffable.
  std::stable_sort(events.begin(), events.end(),
                   [](const CollectedEvent& a, const CollectedEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.start_ns < b.start_ns;
                   });

  std::vector<std::pair<std::string, std::string>> meta;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    meta = meta_;
  }

  util::JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (const CollectedEvent& event : events) {
    json.BeginObject();
    json.Key("name");
    json.String(event.name);
    json.Key("cat");
    json.String("hydra");
    json.Key("ph");
    json.String("X");  // complete event: ts + dur, nesting inferred
    json.Key("pid");
    json.Uint(1);
    json.Key("tid");
    json.Uint(event.tid);
    json.Key("ts");  // trace-event timestamps are microseconds
    json.Double(static_cast<double>(event.start_ns) / 1e3);
    json.Key("dur");
    json.Double(static_cast<double>(event.dur_ns) / 1e3);
    json.Key("args");
    json.BeginObject();
    json.Key("depth");
    json.Uint(event.depth);
    if (event.arg_name != nullptr) {
      json.Key(event.arg_name);
      json.Int(event.arg_value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("otherData");
  json.BeginObject();
  json.Key("dropped_events");
  json.Uint(collected.dropped);
  for (const auto& [key, value] : meta) {
    json.Key(key);
    json.String(value);
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

util::Status Tracer::WriteJson(const std::string& path) const {
  const std::string document = ToJson();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::Error("cannot open trace path for writing: " + path);
  }
  out << document << '\n';
  out.flush();
  if (!out) {
    return util::Status::Error("short write to trace path: " + path);
  }
  return util::Status::Ok();
}

void ObsSpan::Begin(const char* name) {
  name_ = name;
  depth_ = tls_state.depth++;
  start_ns_ = Tracer::Get().NowNs();
}

void ObsSpan::End() {
  Tracer& tracer = Tracer::Get();
  const uint64_t end_ns = tracer.NowNs();
  // Depth unwinds even if tracing was disabled mid-span; the event is
  // still recorded (it was started under an enabled tracer).
  if (tls_state.depth > 0) --tls_state.depth;
  tracer.ring()->Record(name_, arg_name_, arg_value_, start_ns_,
                        end_ns - start_ns_, depth_);
}

}  // namespace hydra::obs
