#include "bench/registry.h"

#include "shard/sharded_index.h"

#include "index/ads.h"
#include "index/dstree.h"
#include "index/isax2plus.h"
#include "index/mtree.h"
#include "index/rtree.h"
#include "index/sfatrie.h"
#include "index/vafile.h"
#include "scan/mass_scan.h"
#include "scan/stepwise.h"
#include "scan/ucr_scan.h"
#include "util/check.h"

namespace hydra::bench {

std::unique_ptr<core::SearchMethod> CreateMethod(const std::string& name,
                                                 size_t leaf_capacity) {
  const size_t leaf = leaf_capacity == 0 ? 256 : leaf_capacity;
  if (name == "ADS+") {
    index::AdsOptions o;
    o.leaf_capacity = leaf;
    o.adaptive_leaf_capacity = std::max<size_t>(8, leaf / 8);
    return std::make_unique<index::AdsPlus>(o);
  }
  if (name == "DSTree") {
    index::DsTreeOptions o;
    o.leaf_capacity = leaf;
    return std::make_unique<index::DsTree>(o);
  }
  if (name == "iSAX2+") {
    index::Isax2PlusOptions o;
    o.leaf_capacity = leaf;
    return std::make_unique<index::Isax2Plus>(o);
  }
  if (name == "SFA") {
    index::SfaTrieOptions o;
    // SFA's tuned leaf is an order of magnitude larger than the others'.
    o.leaf_capacity = leaf_capacity == 0 ? 2048 : leaf_capacity;
    return std::make_unique<index::SfaTrie>(o);
  }
  if (name == "VA+file") {
    return std::make_unique<index::VaFile>();
  }
  if (name == "UCR-Suite") {
    return std::make_unique<scan::UcrScan>();
  }
  if (name == "MASS") {
    return std::make_unique<scan::MassScan>();
  }
  if (name == "Stepwise") {
    return std::make_unique<scan::Stepwise>();
  }
  if (name == "M-tree") {
    index::MTreeOptions o;
    // The paper's tuned M-tree leaves are tiny.
    o.leaf_capacity = leaf_capacity == 0 ? 32 : leaf_capacity;
    return std::make_unique<index::MTree>(o);
  }
  if (name == "R*-tree") {
    index::RTreeOptions o;
    o.leaf_capacity = leaf_capacity == 0 ? 50 : leaf_capacity;
    return std::make_unique<index::RStarTree>(o);
  }
  HYDRA_CHECK_MSG(false, "unknown method name");
  return nullptr;
}

std::vector<std::string> AllMethodNames() {
  return {"ADS+",   "DSTree",    "iSAX2+", "M-tree",   "R*-tree",
          "SFA",    "VA+file",   "UCR-Suite", "MASS",  "Stepwise"};
}

std::vector<std::string> BestSixNames() {
  return {"ADS+", "DSTree", "iSAX2+", "SFA", "UCR-Suite", "VA+file"};
}

std::vector<std::string> PruningMethodNames() {
  return {"ADS+", "iSAX2+", "DSTree", "SFA", "VA+file"};
}

namespace {

// Derived from each method's own traits() so the lists can never drift
// from the support matrix (construction is cheap: no Build happens).
std::vector<std::string> NamesSupporting(bool core::MethodTraits::* flag) {
  std::vector<std::string> names;
  for (const std::string& name : AllMethodNames()) {
    if (CreateMethod(name)->traits().*flag) names.push_back(name);
  }
  return names;
}

}  // namespace

std::vector<std::string> NgCapableNames() {
  return NamesSupporting(&core::MethodTraits::supports_ng);
}

std::vector<std::string> EpsilonCapableNames() {
  return NamesSupporting(&core::MethodTraits::supports_epsilon);
}

std::vector<std::string> PersistentCapableNames() {
  return NamesSupporting(&core::MethodTraits::supports_persistence);
}

std::vector<std::string> ShardableNames() {
  return NamesSupporting(&core::MethodTraits::shardable);
}

std::vector<std::string> ConcurrentCapableNames() {
  return NamesSupporting(&core::MethodTraits::concurrent_queries);
}

std::unique_ptr<core::SearchMethod> CreateShardedMethod(
    const std::string& name, size_t shards, size_t threads,
    size_t leaf_capacity) {
  shard::ShardedOptions options;
  options.shards = shards;
  options.threads = threads;
  return std::make_unique<shard::ShardedIndex>(
      [name, leaf_capacity] { return CreateMethod(name, leaf_capacity); },
      options);
}

}  // namespace hydra::bench
