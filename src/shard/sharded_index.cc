#include "shard/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/knn.h"
#include "io/index_codec.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::shard {

namespace {

/// Hard cap on the manifest's shard count: far above any sane partitioning
/// (shards are clamped to the dataset size at build time anyway), low
/// enough that a garbled count cannot allocate absurdly.
constexpr uint64_t kMaxShards = 4096;

const char kManifestSection[] = "sharded-manifest";

/// The one merge used by every query flavor: remaps each shard's local-id
/// answers to global ids (local + slice begin), folds each shard's ledger
/// in shard order, and keeps the `keep` best candidates by (dist_sq, id) —
/// deterministic regardless of which shard finished first. The merge is
/// timed as the composite's own CPU work.
core::QueryResult MergeParts(const std::vector<core::QueryResult>& parts,
                             const std::vector<size_t>& begins,
                             size_t keep) {
  HYDRA_OBS_SPAN_ARG("shard_merge", "shards", parts.size());
  util::WallTimer timer;
  core::QueryResult merged;
  for (size_t i = 0; i < parts.size(); ++i) {
    const size_t begin = begins[i];
    for (const core::Neighbor& n : parts[i].neighbors) {
      merged.neighbors.push_back(
          {static_cast<core::SeriesId>(begin + n.id), n.dist_sq});
    }
    merged.stats.Add(parts[i].stats);
  }
  std::sort(merged.neighbors.begin(), merged.neighbors.end());
  if (merged.neighbors.size() > keep) merged.neighbors.resize(keep);
  merged.stats.cpu_seconds += timer.Seconds();
  return merged;
}

/// Near-equal contiguous partition of [0, count): the first count % shards
/// parts get one extra series. Deterministic, so a rebuild always produces
/// the same boundaries as the persisted manifest.
std::vector<std::pair<size_t, size_t>> EvenParts(size_t count,
                                                 size_t shards) {
  std::vector<std::pair<size_t, size_t>> parts;
  parts.reserve(shards);
  const size_t base = count / shards;
  const size_t extra = count % shards;
  size_t begin = 0;
  for (size_t i = 0; i < shards; ++i) {
    const size_t size = base + (i < extra ? 1 : 0);
    parts.emplace_back(begin, size);
    begin += size;
  }
  return parts;
}

}  // namespace

ShardedIndex::ShardedIndex(MethodFactory factory, ShardedOptions options)
    : factory_(std::move(factory)), options_(options) {
  HYDRA_CHECK_MSG(factory_ != nullptr, "ShardedIndex needs a factory");
  HYDRA_CHECK_MSG(options_.shards >= 1,
                  "ShardedIndex needs at least one shard");
  const std::unique_ptr<core::SearchMethod> probe = factory_();
  HYDRA_CHECK_MSG(probe != nullptr, "factory returned no method");
  component_name_ = probe->name();
  component_traits_ = probe->traits();
  HYDRA_CHECK_MSG(component_traits_.shardable,
                  "ShardedIndex component must advertise traits().shardable "
                  "(the CLI refuses unshardable methods up front)");
}

std::string ShardedIndex::name() const {
  return "Sharded[" + component_name_ + "]";
}

core::MethodTraits ShardedIndex::traits() const {
  core::MethodTraits traits = component_traits_;
  traits.shardable = false;
  traits.shard_reason =
      "already a sharded container; nested sharding is not supported";
  return traits;
}

core::Footprint ShardedIndex::footprint() const {
  core::Footprint total;
  for (const auto& shard : shards_) {
    const core::Footprint f = shard->footprint();
    total.total_nodes += f.total_nodes;
    total.leaf_nodes += f.leaf_nodes;
    total.memory_bytes += f.memory_bytes;
    total.disk_bytes += f.disk_bytes;
    total.leaf_fill_fractions.insert(total.leaf_fill_fractions.end(),
                                     f.leaf_fill_fractions.begin(),
                                     f.leaf_fill_fractions.end());
    total.leaf_depths.insert(total.leaf_depths.end(), f.leaf_depths.begin(),
                             f.leaf_depths.end());
  }
  return total;
}

double ShardedIndex::MeanTlb(core::SeriesView query) const {
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& shard : shards_) {
    const double tlb = shard->MeanTlb(query);
    if (std::isnan(tlb)) continue;
    // footprint() per call rather than a cached leaf count: ADS+ splits
    // leaves during queries, so weights must track the *current* tree.
    // MeanTlb is a diagnostics path (TLB exhibits), never a query hot
    // path, so the extra traversal is acceptable.
    const double leaves =
        static_cast<double>(shard->footprint().leaf_nodes);
    if (leaves <= 0.0) continue;
    weighted += tlb * leaves;
    weight += leaves;
  }
  if (weight == 0.0) return std::numeric_limits<double>::quiet_NaN();
  return weighted / weight;
}

void ShardedIndex::InstantiateShards(
    const core::Dataset& data,
    const std::vector<std::pair<size_t, size_t>>& parts) {
  begins_.clear();
  slices_.clear();
  shards_.clear();
  begins_.reserve(parts.size());
  slices_.reserve(parts.size());
  shards_.reserve(parts.size());
  for (const auto& [begin, count] : parts) {
    begins_.push_back(begin);
    slices_.push_back(data.Slice(begin, count));
    shards_.push_back(factory_());
  }
  const size_t threads =
      options_.threads == 0
          ? std::min(parts.size(), util::ThreadPool::HardwareConcurrency())
          : options_.threads;
  const size_t workers = std::min(threads, parts.size());
  pool_ = workers > 1 ? std::make_unique<util::ThreadPool>(workers)
                      : nullptr;
}

void ShardedIndex::ForEachShard(const std::function<void(size_t)>& fn) {
  if (pool_ != nullptr) {
    pool_->ParallelFor(0, shards_.size(), fn);
  } else {
    for (size_t i = 0; i < shards_.size(); ++i) fn(i);
  }
}

int64_t ShardedIndex::SplitBudget(int64_t total, size_t shard) const {
  if (total == core::KnnPlan::kUnlimited) return total;
  const auto shards = static_cast<int64_t>(shards_.size());
  return total / shards +
         (static_cast<int64_t>(shard) < total % shards ? 1 : 0);
}

core::BuildStats ShardedIndex::DoBuild(const core::Dataset& data) {
  HYDRA_CHECK_MSG(data.size() > 0,
                  "ShardedIndex cannot shard an empty dataset");
  const size_t shards = std::min(options_.shards, data.size());
  InstantiateShards(data, EvenParts(data.size(), shards));
  std::vector<core::BuildStats> stats(shards_.size());
  // Per-shard builds touch only their own component and slice, so the
  // fan-out is safe even though Build itself is never concurrent-safe
  // *per instance*; the TSan-checked shard battery holds this honest.
  ForEachShard([&](size_t i) { stats[i] = shards_[i]->Build(slices_[i]); });
  core::BuildStats total;
  for (const core::BuildStats& s : stats) {
    // Summed wall-clock of the per-shard builds = total CPU work, the
    // batch-engine convention (build wall-clock shrinks with threads).
    total.cpu_seconds += s.cpu_seconds;
    total.bytes_written += s.bytes_written;
    total.random_writes += s.random_writes;
    total.bytes_read += s.bytes_read;
    total.random_reads += s.random_reads;
  }
  return total;
}

void ShardedIndex::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection(kManifestSection);
  writer->WriteString(component_name_);
  writer->WriteU64(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    writer->WriteU64(begins_[i]);
    writer->WriteU64(slices_[i].size());
  }
  for (const core::Dataset& slice : slices_) {
    const io::DatasetFingerprint fp = io::DatasetFingerprint::Of(slice);
    writer->WriteU64(fp.count);
    writer->WriteU64(fp.length);
    writer->WriteU64(fp.bytes);
  }
  writer->EndSection();
  // Each component serializes its own sections right after the manifest,
  // in shard order — the reader consumes them in the same order.
  for (const auto& shard : shards_) ComponentSave(*shard, writer);
}

util::Status ShardedIndex::DoOpen(io::IndexReader* reader,
                                  const core::Dataset& data) {
  util::Status entered = reader->EnterSection(kManifestSection);
  if (!entered.ok()) return entered;
  const std::string component = reader->ReadString();
  const uint64_t shards = reader->ReadU64();
  if (!reader->ok()) return reader->status();
  if (component != component_name_) {
    return util::Status::Error(
        "sharded container holds '" + component + "' shards, not '" +
        component_name_ + "'");
  }
  if (shards < 1 || shards > kMaxShards ||
      shards > static_cast<uint64_t>(data.size())) {
    return util::Status::Error(
        "sharded manifest has an invalid shard count (" +
        std::to_string(shards) + " over " + std::to_string(data.size()) +
        " series)");
  }
  std::vector<std::pair<size_t, size_t>> parts;
  parts.reserve(shards);
  uint64_t expected_begin = 0;
  for (uint64_t i = 0; i < shards; ++i) {
    const uint64_t begin = reader->ReadU64();
    const uint64_t count = reader->ReadU64();
    if (!reader->ok()) return reader->status();
    if (begin != expected_begin || count == 0 ||
        count > data.size() - begin) {
      return util::Status::Error(
          "sharded manifest boundaries do not partition the dataset");
    }
    parts.emplace_back(begin, count);
    expected_begin = begin + count;
  }
  if (expected_begin != data.size()) {
    return util::Status::Error(
        "sharded manifest boundaries do not cover the dataset (" +
        std::to_string(expected_begin) + " of " +
        std::to_string(data.size()) + " series)");
  }
  InstantiateShards(data, parts);
  for (size_t i = 0; i < shards_.size(); ++i) {
    io::DatasetFingerprint stored;
    stored.count = reader->ReadU64();
    stored.length = reader->ReadU64();
    stored.bytes = reader->ReadU64();
    if (!reader->ok()) return reader->status();
    const io::DatasetFingerprint actual =
        io::DatasetFingerprint::Of(slices_[i]);
    if (!(stored == actual)) {
      return util::Status::Error(
          "shard " + std::to_string(i) + " fingerprint mismatch: stored " +
          stored.ToString() + ", slice has " + actual.ToString());
    }
  }
  // Components open serially: sections live in one container and must be
  // consumed in write order (shard load parallelism would need per-shard
  // files; measured load_seconds stays honest either way).
  for (size_t i = 0; i < shards_.size(); ++i) {
    util::Status opened =
        ComponentOpen(shards_[i].get(), reader, slices_[i]);
    if (!opened.ok()) return opened;
  }
  return util::Status::Ok();
}

core::QueryResult ShardedIndex::DoSearchKnn(core::SeriesView query,
                                            const core::KnnPlan& plan) {
  core::SharedBound shared;
  std::vector<core::QueryResult> parts(shards_.size());
  ForEachShard([&](size_t i) {
    HYDRA_OBS_SPAN_ARG("shard_search", "shard", i);
    core::KnnPlan local = plan;
    local.shared_bound = &shared;
    local.max_leaves = SplitBudget(plan.max_leaves, i);
    local.max_raw = SplitBudget(plan.max_raw, i);
    parts[i] = ComponentSearchKnn(shards_[i].get(), query, local);
  });
  // The k best overall of the per-shard top-k sets.
  return MergeParts(parts, begins_, plan.k);
}

core::QueryResult ShardedIndex::DoSearchKnnNg(core::SeriesView query,
                                              size_t k) {
  std::vector<core::QueryResult> parts(shards_.size());
  ForEachShard([&](size_t i) {
    HYDRA_OBS_SPAN_ARG("shard_search", "shard", i);
    parts[i] = ComponentSearchKnnNg(shards_[i].get(), query, k);
  });
  return MergeParts(parts, begins_, k);
}

core::QueryResult ShardedIndex::DoSearchRange(core::SeriesView query,
                                              const core::RangePlan& plan) {
  std::vector<core::QueryResult> parts(shards_.size());
  ForEachShard([&](size_t i) {
    HYDRA_OBS_SPAN_ARG("shard_search", "shard", i);
    parts[i] = ComponentSearchRange(shards_[i].get(), query, plan);
  });
  return MergeParts(parts, begins_, std::numeric_limits<size_t>::max());
}

}  // namespace hydra::shard
