// Work-counter pins for the five tree methods, ADS+, the VA+file and the
// three sequential scans: on one fixed seeded dataset and workload, the
// serial search of every query mode must charge exactly the recorded work.
// Structure pins do the same for what every index reports about itself
// right after Build: its footprint (Fig. 8) and its mean TLB (Section 4.2),
// so a refactor of the node walks behind them cannot move either.
// The answer suites (exactness, approximate, intra-query) check what a
// search returns; this suite checks how much it did to get there, so a
// refactor of the shared traversal driver, of the filter-and-refine loop
// or of the scans cannot silently visit more nodes, compute more bounds or
// read more series.
//
// A deliberate change in traversal work updates the table below together
// with a before/after note in CHANGES.md; the failure message prints the
// measured row in table syntax.
#include <array>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "gen/random_walk.h"
#include "gen/workload.h"

namespace hydra {
namespace {

/// Summed over the workload, in this order: nodes_visited,
/// lower_bound_computations, distance_computations, raw_series_examined,
/// random_seeks, bytes_read.
using Counters = std::array<int64_t, 6>;

struct Pin {
  const char* method;
  const char* mode;
  Counters counters;
};

// Recorded from the serial traversal; see the file comment before editing.
constexpr Pin kPins[] = {
    {"DSTree", "exact", {1051, 10742, 1924, 1924, 450, 2522880}},
    {"DSTree", "epsilon", {508, 4028, 1501, 1501, 167, 937216}},
    {"DSTree", "delta-epsilon", {488, 3779, 1360, 1360, 155, 878592}},
    {"DSTree", "budget-leaves", {210, 855, 544, 544, 36, 216064}},
    {"DSTree", "budget-raw", {637, 5746, 956, 956, 240, 1352960}},
    {"DSTree", "ng", {12, 0, 291, 291, 12, 74496}},
    {"DSTree", "range", {1071, 11494, 1844, 1844, 468, 2630656}},
    {"iSAX2+", "exact", {5710, 23818, 1798, 1798, 5602, 3204096}},
    {"iSAX2+", "epsilon", {1786, 15732, 1743, 1743, 1728, 1159680}},
    {"iSAX2+", "delta-epsilon", {1228, 14786, 1427, 1427, 1171, 920064}},
    {"iSAX2+", "budget-leaves", {73, 11463, 228, 228, 36, 83712}},
    {"iSAX2+", "budget-raw", {2399, 17207, 880, 880, 2337, 1536512}},
    {"iSAX2+", "ng", {12, 0, 110, 110, 12, 28160}},
    {"iSAX2+", "range", {5935, 24412, 1844, 1844, 5834, 3325440}},
    {"SFA", "exact", {1041, 10010, 3933, 3933, 829, 2197248}},
    {"SFA", "epsilon", {340, 3561, 2037, 2037, 216, 723456}},
    {"SFA", "delta-epsilon", {340, 3561, 2037, 2037, 216, 723456}},
    {"SFA", "budget-leaves", {119, 881, 481, 481, 36, 140288}},
    {"SFA", "budget-raw", {262, 2530, 1196, 1196, 160, 512512}},
    {"SFA", "ng", {12, 0, 148, 148, 12, 37888}},
    {"SFA", "range", {1070, 10460, 4071, 4071, 862, 2255616}},
    {"M-tree", "exact", {1079, 0, 12988, 11501, 0, 0}},
    {"M-tree", "epsilon", {683, 0, 6314, 4891, 0, 0}},
    {"M-tree", "delta-epsilon", {683, 0, 6314, 4891, 0, 0}},
    {"M-tree", "budget-leaves", {146, 0, 1724, 656, 0, 0}},
    {"M-tree", "budget-raw", {190, 0, 2387, 1200, 0, 0}},
    {"M-tree", "ng", {1079, 0, 12988, 11501, 0, 0}},
    {"M-tree", "range", {1104, 0, 13339, 11913, 0, 0}},
    {"R*-tree", "exact", {671, 15015, 1778, 1778, 2410, 455168}},
    {"R*-tree", "epsilon", {370, 8543, 98, 98, 433, 25088}},
    {"R*-tree", "delta-epsilon", {370, 8543, 98, 98, 433, 25088}},
    {"R*-tree", "budget-leaves", {77, 1619, 445, 445, 481, 113920}},
    {"R*-tree", "budget-raw", {392, 8830, 890, 890, 1244, 227840}},
    {"R*-tree", "ng", {671, 15015, 1778, 1778, 2410, 455168}},
    {"R*-tree", "range", {696, 15539, 1748, 1748, 2404, 447488}},
    {"ADS+", "exact", {12, 24000, 2166, 2166, 1696, 554496}},
    {"ADS+", "epsilon", {12, 24000, 104, 104, 89, 26624}},
    {"ADS+", "delta-epsilon", {12, 24000, 103, 103, 88, 26368}},
    {"ADS+", "budget-raw", {12, 24000, 967, 967, 816, 247552}},
    {"ADS+", "ng", {12, 0, 47, 47, 47, 12032}},
    {"ADS+", "range", {0, 24000, 1844, 1844, 1485, 472064}},
    {"VA+file", "exact", {0, 48000, 1746, 1746, 1457, 446976}},
    {"VA+file", "epsilon", {0, 48000, 85, 85, 77, 21760}},
    {"VA+file", "budget-raw", {0, 48000, 834, 834, 735, 213504}},
    {"VA+file", "range", {0, 24000, 1455, 1455, 1236, 372480}},
    {"UCR-Suite", "exact", {0, 0, 24000, 24000, 12, 6144000}},
    {"UCR-Suite", "budget-raw", {0, 0, 1200, 1200, 12, 307200}},
    {"UCR-Suite", "range", {0, 0, 24000, 24000, 12, 6144000}},
    {"MASS", "exact", {0, 0, 24000, 24000, 12, 6144000}},
    {"MASS", "budget-raw", {0, 0, 1200, 1200, 12, 307200}},
    {"MASS", "range", {0, 0, 24000, 24000, 12, 6144000}},
    {"Stepwise", "exact", {0, 91105, 1325, 1325, 14036, 1353984}},
    {"Stepwise", "budget-raw", {0, 91105, 627, 627, 13490, 1175296}},
    {"Stepwise", "range", {0, 72519, 756, 756, 13343, 809160}},
};

/// The modes each pinned method runs. ADS+ visits one leaf per query, so
/// its leaf budget cannot bind; the VA+file has no leaves, so ng, the delta
/// rule and the leaf budget do not apply to it; the scans are exact-only
/// (an approximate mode would run the exact search again).
struct PinCase {
  const char* method;
  std::vector<const char*> modes;
};

const std::vector<const char*> kTreeModes = {
    "exact", "epsilon", "delta-epsilon", "budget-leaves", "budget-raw",
    "ng", "range"};

const std::vector<const char*> kScanModes = {"exact", "budget-raw",
                                              "range"};

const PinCase kCases[] = {
    {"DSTree", kTreeModes},
    {"iSAX2+", kTreeModes},
    {"SFA", kTreeModes},
    {"M-tree", kTreeModes},
    {"R*-tree", kTreeModes},
    {"ADS+",
     {"exact", "epsilon", "delta-epsilon", "budget-raw", "ng", "range"}},
    {"VA+file", {"exact", "epsilon", "budget-raw", "range"}},
    {"UCR-Suite", kScanModes},
    {"MASS", kScanModes},
    {"Stepwise", kScanModes},
};

void PrintTo(const PinCase& pin_case, std::ostream* os) {
  *os << pin_case.method;
}

constexpr size_t kK = 5;

Counters Sum(const Counters& acc, const core::SearchStats& s) {
  return {acc[0] + s.nodes_visited,
          acc[1] + s.lower_bound_computations,
          acc[2] + s.distance_computations,
          acc[3] + s.raw_series_examined,
          acc[4] + s.random_seeks,
          acc[5] + s.bytes_read};
}

/// The spec of `mode` for one query; range radii are the query's 8th true
/// neighbor distance, so every range answer is non-trivial.
core::QuerySpec SpecFor(const std::string& mode, const core::Dataset& data,
                        core::SeriesView query) {
  if (mode == "exact") return core::QuerySpec::Knn(kK);
  if (mode == "epsilon") return core::QuerySpec::Epsilon(kK, 1.0);
  if (mode == "delta-epsilon") {
    return core::QuerySpec::DeltaEpsilon(kK, 1.0, 0.2);
  }
  if (mode == "budget-leaves") {
    core::QuerySpec spec = core::QuerySpec::Knn(kK);
    spec.max_visited_leaves = 3;
    return spec;
  }
  if (mode == "budget-raw") {
    core::QuerySpec spec = core::QuerySpec::Knn(kK);
    spec.max_raw_series = 100;
    return spec;
  }
  if (mode == "ng") return core::QuerySpec::NgApprox(kK);
  const auto truth = core::BruteForceKnn(data, query, 8);
  return core::QuerySpec::Range(std::sqrt(truth.back().dist_sq));
}

const Counters* PinnedFor(const std::string& method,
                          const std::string& mode) {
  for (const Pin& pin : kPins) {
    if (method == pin.method && mode == pin.mode) return &pin.counters;
  }
  return nullptr;
}

class WorkCounterPinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(WorkCounterPinTest, SerialWorkMatchesRecordedCounters) {
  const std::string method_name = GetParam().method;
  const core::Dataset data = gen::RandomWalkDataset(2000, 64, 4242);
  const gen::Workload rand_w = gen::RandWorkload(6, 64, 4243);
  const gen::Workload ctrl_w = gen::CtrlWorkload(data, 6, 4244);
  auto method = bench::CreateMethod(method_name, 32);
  method->Build(data);

  for (const char* mode : GetParam().modes) {
    Counters got{};
    for (const gen::Workload* w : {&rand_w, &ctrl_w}) {
      for (size_t q = 0; q < w->queries.size(); ++q) {
        const core::SeriesView query = w->queries[q];
        got = Sum(got, method->Execute(query, SpecFor(mode, data, query)).stats);
      }
    }
    std::ostringstream row;
    row << "{\"" << method_name << "\", \"" << mode << "\", {";
    for (size_t i = 0; i < got.size(); ++i) row << (i ? ", " : "") << got[i];
    row << "}},";
    const Counters* pinned = PinnedFor(method_name, mode);
    if (pinned == nullptr) {
      ADD_FAILURE() << "no pin recorded; measured:\n" << row.str();
      continue;
    }
    EXPECT_EQ(*pinned, got) << "measured:\n" << row.str();
  }
}

/// What an index reports about itself right after Build: its footprint
/// (`leaf_fill_fractions` and `leaf_depths` summed in their visit order)
/// and MeanTlb of the first three rand queries (NaN where the method
/// reports none).
struct StructurePin {
  const char* method;
  int64_t total_nodes;
  int64_t leaf_nodes;
  int64_t memory_bytes;
  int64_t disk_bytes;
  double fill_sum;
  int64_t depth_sum;
  std::array<double, 3> tlb;

  bool operator==(const StructurePin& other) const {
    auto same = [](double a, double b) {
      return a == b || (std::isnan(a) && std::isnan(b));
    };
    return total_nodes == other.total_nodes &&
           leaf_nodes == other.leaf_nodes &&
           memory_bytes == other.memory_bytes &&
           disk_bytes == other.disk_bytes && fill_sum == other.fill_sum &&
           depth_sum == other.depth_sum && same(tlb[0], other.tlb[0]) &&
           same(tlb[1], other.tlb[1]) && same(tlb[2], other.tlb[2]);
  }
};

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// "DSTree x2" is a 2-shard DSTree container. Recorded from the build;
// see the file comment before editing.
constexpr StructurePin kStructurePins[] = {
    {"DSTree", 181, 91, 92128, 512000, 62.5, 621,
     {0.59344862080487581, 0.54729031165749753, 0.48147148369237353}},
    {"iSAX2+", 963, 949, 185928, 512000, 62.5, 983,
     {0.43901789285383752, 0.46350035790597538, 0.44388202985471631}},
    {"SFA", 276, 241, 143616, 512000, 62.5, 687,
     {0.67875770993597984, 0.68129517839251241, 0.65827989579765567}},
    {"M-tree", 129, 115, 554320, 0, 62.5, 230, {kNan, kNan, kNan}},
    {"R*-tree", 96, 93, 673472, 768000, 62.5, 186,
     {0.44018507162142229, 0.38705116435177056, 0.46212903106710768}},
    {"ADS+", 963, 949, 185928, 32000, 62.5, 983,
     {0.43901789285383752, 0.46350035790597538, 0.44388202985471631}},
    {"VA+file", 0, 0, 121216, 72000, 0, 0,
     {0.93206271090378867, 0.93753003914394495, 0.93579565595114089}},
    {"DSTree x2", 186, 94, 93568, 512000, 62.5, 539,
     {0.56472794183703678, 0.49303004141690282, 0.45326061500643944}},
};

/// The measured row in table syntax (doubles to 17 digits round-trip).
std::string RowOf(const StructurePin& pin) {
  auto num = [](double v) {
    if (std::isnan(v)) return std::string("kNan");
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
  };
  std::ostringstream row;
  row << "{\"" << pin.method << "\", " << pin.total_nodes << ", "
      << pin.leaf_nodes << ", " << pin.memory_bytes << ", "
      << pin.disk_bytes << ", " << num(pin.fill_sum) << ", "
      << pin.depth_sum << ", {" << num(pin.tlb[0]) << ", "
      << num(pin.tlb[1]) << ", " << num(pin.tlb[2]) << "}},";
  return row.str();
}

class StructurePinTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StructurePinTest, FootprintAndTlbMatchRecordedValues) {
  const std::string label = GetParam();
  const core::Dataset data = gen::RandomWalkDataset(2000, 64, 4242);
  const gen::Workload rand_w = gen::RandWorkload(6, 64, 4243);
  auto method = label == "DSTree x2"
                    ? bench::CreateShardedMethod("DSTree", 2, 1, 32)
                    : bench::CreateMethod(label, 32);
  method->Build(data);

  const core::Footprint fp = method->footprint();
  StructurePin got{GetParam(), fp.total_nodes, fp.leaf_nodes,
                   fp.memory_bytes, fp.disk_bytes,
                   std::accumulate(fp.leaf_fill_fractions.begin(),
                                   fp.leaf_fill_fractions.end(), 0.0),
                   std::accumulate(fp.leaf_depths.begin(),
                                   fp.leaf_depths.end(), int64_t{0}),
                   {}};
  for (size_t q = 0; q < got.tlb.size(); ++q) {
    got.tlb[q] = method->MeanTlb(rand_w.queries[q]);
  }
  for (const StructurePin& pin : kStructurePins) {
    if (label == pin.method) {
      EXPECT_EQ(pin, got) << "measured:\n" << RowOf(got);
      return;
    }
  }
  ADD_FAILURE() << "no pin recorded; measured:\n" << RowOf(got);
}

INSTANTIATE_TEST_SUITE_P(PinnedIndexes, StructurePinTest,
                         ::testing::Values("DSTree", "iSAX2+", "SFA",
                                           "M-tree", "R*-tree", "ADS+",
                                           "VA+file", "DSTree x2"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(PinnedMethods, WorkCounterPinTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<PinCase>& info) {
                           std::string name = info.param.method;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace hydra
