// Pins the DSTree build: the saved index file of three build shapes must
// hash to a recorded 64-bit FNV-1a digest. The file holds every node's
// segmentation, envelope, split rule and leaf ids, so any change to the
// split choice, the split value, the envelopes or the member routing —
// down to one double's last bit — moves the digest. A build rewrite must
// keep these digests unedited.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/random_walk.h"
#include "index/dstree.h"
#include "io/index_codec.h"
#include "transform/eapca.h"
#include "util/rng.h"

namespace hydra::index {
namespace {

uint64_t Fnv1a64(const std::vector<char>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Builds a DSTree over `data`, saves it under a fresh directory and
// returns the digest of the index file's bytes as 16 hex digits.
std::string BuildDigest(const core::Dataset& data, DsTreeOptions options,
                        const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/dstree_build_" + name;
  std::filesystem::remove_all(dir);
  DsTree tree(options);
  tree.Build(data);
  EXPECT_TRUE(tree.Save(dir).ok());
  std::ifstream in(io::IndexFilePath(dir), std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty());
  std::filesystem::remove_all(dir);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(Fnv1a64(bytes)));
  return hex;
}

// Series whose structure only a vertical split can separate. On each
// segment [b, e) of `seg` with midpoint m and first-half midpoint m1:
// [b, m1) = 2a + s, [m1, m) = 2a - s + d, [m, e) = -2a + c, with a and s
// random signs and c, d small continuous offsets. The segment's mean and
// stddev mix a with c, so no horizontal split isolates a; its first half
// has mean 2a, so refining the segment exposes a, and refining that half
// exposes s the same way.
core::Dataset MaskedSigns(size_t count, const transform::Segmentation& seg,
                          uint64_t seed) {
  util::Rng rng(seed);
  const size_t length = seg.ends.back();
  core::Dataset data("MaskedSigns", length);
  std::vector<core::Value> row(length);
  for (size_t i = 0; i < count; ++i) {
    for (size_t s = 0; s < seg.segments(); ++s) {
      const uint32_t b = seg.begin_of(s);
      const uint32_t e = seg.ends[s];
      const uint32_t m = (b + e) / 2;
      const uint32_t m1 = (b + m) / 2;
      const double a = rng.UniformInt(0, 1) ? 1.0 : -1.0;
      const double sign = rng.UniformInt(0, 1) ? 1.0 : -1.0;
      const double c = rng.Gaussian(0.0, 0.3);
      const double d = rng.Gaussian(0.0, 0.15);
      for (uint32_t j = b; j < e; ++j) {
        const double level = j < m1  ? 2 * a + sign
                             : j < m ? 2 * a - sign + d
                                     : -2 * a + c;
        row[j] = static_cast<core::Value>(level + 0.1 * rng.Gaussian());
      }
    }
    data.Append(row);
  }
  return data;
}

// Default segmentation cap, small leaves, random walks: many splits, all
// of them horizontal.
TEST(DsTreeBuild, RandomWalkLength64Leaf32) {
  const auto data = gen::RandomWalkDataset(2000, 64, 2901);
  EXPECT_EQ(BuildDigest(data, {4, 32, 32}, "len64"), "aa1c3288f2b8e658");
}

// Length 96 cut into 5 initial segments of 19 or 20 points, so a
// refinement can halve an odd length (19 -> 9 + 10); the masked signs make
// vertical splits win, so such uneven halves end up in the tree.
TEST(DsTreeBuild, Length96OddHalves) {
  const auto data = MaskedSigns(
      1500, transform::Segmentation::Uniform(96, 5), 2902);
  EXPECT_EQ(BuildDigest(data, {5, 32, 32}, "len96"), "8aa23e6e6e10cb20");
}

// max_segments 8: paths refine from 4 to 8 segments through vertical
// splits and then hit the cap; with a cap of 32 five of the deeper splits
// would be vertical too.
TEST(DsTreeBuild, SegmentCapLeaf64) {
  const auto data = MaskedSigns(
      6000, transform::Segmentation::Uniform(64, 4), 2903);
  EXPECT_EQ(BuildDigest(data, {4, 8, 64}, "cap8"), "e418f16848a64d37");
}

}  // namespace
}  // namespace hydra::index
