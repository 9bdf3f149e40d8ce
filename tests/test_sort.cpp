// Sort study tests (Figure 2 substrate): all three GPU sorts must actually
// sort, across sizes and key patterns, and exhibit the structural properties
// the paper's comparison hinges on (CDP launch counts, flatness of merge).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/sort/sort.h"
#include "tests/session.h"

namespace simt = nestpar::simt;
namespace sort = nestpar::sort;
namespace test = nestpar::test;

namespace {

enum class Algo { kMerge, kSimpleQs, kAdvancedQs };

struct Case {
  Algo algo;
  std::size_t n;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const char* a = info.param.algo == Algo::kMerge ? "merge"
                  : info.param.algo == Algo::kSimpleQs ? "simpleqs"
                                                       : "advancedqs";
  return std::string(a) + "_n" + std::to_string(info.param.n);
}

void run_algo(simt::Device& dev, Algo algo, std::span<int> data) {
  switch (algo) {
    case Algo::kMerge: sort::mergesort(dev, data); break;
    case Algo::kSimpleQs: sort::simple_quicksort(dev, data); break;
    case Algo::kAdvancedQs: sort::advanced_quicksort(dev, data); break;
  }
}

class SortCorrectness : public testing::TestWithParam<Case> {};

TEST_P(SortCorrectness, SortsRandomKeys) {
  auto keys = sort::make_keys(GetParam().n, 42);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  simt::Device dev;
  run_algo(dev, GetParam().algo, keys);
  EXPECT_EQ(keys, expect);
}

TEST_P(SortCorrectness, SortsAdversarialPatterns) {
  simt::Device dev;
  // Each pattern is sorted in its own session.
  const auto sorts = [&](std::vector<int> keys) {
    simt::Session s = dev.session();
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    run_algo(dev, GetParam().algo, keys);
    EXPECT_EQ(keys, expect);
  };
  // Already sorted.
  std::vector<int> asc(GetParam().n);
  for (std::size_t i = 0; i < asc.size(); ++i) asc[i] = static_cast<int>(i);
  sorts(asc);
  // Reverse sorted.
  std::vector<int> desc(GetParam().n);
  for (std::size_t i = 0; i < desc.size(); ++i) {
    desc[i] = static_cast<int>(desc.size() - i);
  }
  sorts(desc);
  // All equal.
  sorts(std::vector<int>(GetParam().n, 7));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SortCorrectness,
    testing::ValuesIn(std::vector<Case>{
        {Algo::kMerge, 0}, {Algo::kMerge, 1}, {Algo::kMerge, 100},
        {Algo::kMerge, 5000}, {Algo::kMerge, 40000},
        {Algo::kSimpleQs, 1}, {Algo::kSimpleQs, 100}, {Algo::kSimpleQs, 5000},
        {Algo::kAdvancedQs, 1}, {Algo::kAdvancedQs, 100},
        {Algo::kAdvancedQs, 5000}, {Algo::kAdvancedQs, 40000}}),
    case_name);

TEST(SortStructure, MergeSortIsFlat) {
  auto keys = sort::make_keys(20000, 1);
  simt::Device dev;
  simt::Session s = dev.session();
  sort::mergesort(dev, keys);
  const auto rep = s.report();
  EXPECT_EQ(rep.device_grids, 0u);  // No dynamic parallelism.
}

TEST(SortStructure, QuickSortsUseDynamicParallelism) {
  auto keys = sort::make_keys(20000, 2);
  simt::Device dev;
  const auto simple =
      test::timed(dev, [&] { sort::simple_quicksort(dev, keys); });
  EXPECT_GT(simple.device_grids, 100u);

  auto keys2 = sort::make_keys(20000, 2);
  const auto advanced =
      test::timed(dev, [&] { sort::advanced_quicksort(dev, keys2); });
  EXPECT_GT(advanced.device_grids, 10u);
  // Advanced spawns far fewer (bigger leaves) than Simple.
  EXPECT_LT(advanced.device_grids, simple.device_grids);
}

TEST(SortStructure, DepthLimitCapsRecursion) {
  auto keys = sort::make_keys(50000, 3);
  sort::QuickSortOptions opt;
  opt.max_depth = 4;
  simt::Device dev;
  simt::Session s = dev.session();
  sort::simple_quicksort(dev, keys, opt);
  auto expect = sort::make_keys(50000, 3);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(keys, expect);
  // <= 2^0 + 2^1 + ... + 2^4 grids of partitioning plus leaf sorts.
  EXPECT_LE(s.report().grids, 1u + 2u + 4u + 8u + 16u);
}

TEST(SortStructure, MergeSortRejectsBadTile) {
  auto keys = sort::make_keys(100, 4);
  sort::MergeSortOptions opt;
  opt.tile = 100;  // not a power of two
  simt::Device dev;
  EXPECT_THROW(sort::mergesort(dev, keys, opt), std::invalid_argument);
}

TEST(SortStructure, MakeKeysDeterministic) {
  EXPECT_EQ(sort::make_keys(64, 5), sort::make_keys(64, 5));
  EXPECT_NE(sort::make_keys(64, 5), sort::make_keys(64, 6));
}

// Refused nested launches must cost time, never order: both CDP quicksorts
// degrade to sorting the refused range in the launching lane. The fault
// config is pinned per case, so the ambient-fault rerun (`nestpar_faults`,
// which matches this suite) runs the same two rates.
class SortFaults : public testing::TestWithParam<double> {};

TEST_P(SortFaults, QuickSortsStaySortedWhenLaunchesFail) {
  const double rate = GetParam();
  for (const Algo algo : {Algo::kSimpleQs, Algo::kAdvancedQs}) {
    SCOPED_TRACE(algo == Algo::kSimpleQs ? "simple-qs" : "advanced-qs");
    auto keys = sort::make_keys(20000, 11);
    auto want = keys;
    std::sort(want.begin(), want.end());
    simt::Device dev;
    simt::FaultConfig faults;
    faults.device_launch_rate = rate;
    dev.set_fault_config(faults);
    simt::Session session = dev.session();
    run_algo(dev, algo, keys);
    EXPECT_EQ(keys, want);
    const simt::RunReport r = session.report();
    EXPECT_GT(r.robustness.refused_total(), 0u);
    if (rate == 1.0) {
      EXPECT_GT(r.robustness.degraded, 0u);
      EXPECT_EQ(r.device_grids, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, SortFaults, testing::Values(1.0, 0.05),
                         [](const testing::TestParamInfo<double>& info) {
                           return info.param == 1.0 ? std::string("all")
                                                    : std::string("some");
                         });

}  // namespace
