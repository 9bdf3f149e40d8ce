// Remaining coverage: aggregated charge APIs, metrics formatting, report
// printing, CPU prefetcher behavior, sort option knobs, and small device
// facade details.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/simt/cpu_model.h"
#include "src/simt/device.h"
#include "src/simt/report_printer.h"
#include "src/sort/sort.h"

namespace simt = nestpar::simt;
namespace sort = nestpar::sort;

namespace {

simt::LaunchConfig cfg(int blocks, int threads, const char* name) {
  simt::LaunchConfig c;
  c.grid_blocks = blocks;
  c.block_threads = threads;
  c.name = name;
  return c;
}

TEST(ChargeApi, RangedLoadCountsContiguousSegments) {
  simt::Device dev;
  simt::Session s = dev.session();
  std::vector<int> data(4096);
  dev.launch_threads(cfg(1, 1, "ranged"), [&](simt::LaneCtx& t) {
    // 4096 ints = 16KB = 128 segments of 128B.
    t.charge_load(data.data(), 4096 * sizeof(int));
  });
  const auto rep = s.report();
  EXPECT_GE(rep.aggregate.gld_transferred_bytes, 16 * 1024u);
  EXPECT_EQ(rep.aggregate.gld_requested_bytes, 16 * 1024u);
  // Ranged charges should be ~100% efficient (contiguous).
  EXPECT_GT(rep.aggregate.gld_efficiency(), 0.9);
}

TEST(Metrics, ToStringMentionsKeyFields) {
  simt::Metrics m;
  m.warp_steps = 4;
  m.active_lane_ops = 64;
  m.atomic_ops = 9;
  const std::string s = m.to_string();
  EXPECT_NE(s.find("warp_exec_eff"), std::string::npos);
  EXPECT_NE(s.find("atomics=9"), std::string::npos);
}

TEST(ReportPrinter, ShowsKernelsBusiestFirst) {
  simt::Device dev;
  simt::Session s = dev.session();
  dev.launch_threads(cfg(2, 64, "small"),
                     [](simt::LaneCtx& t) { t.compute(10); });
  dev.launch_threads(cfg(8, 192, "big"),
                     [](simt::LaneCtx& t) { t.compute(50000); });
  std::ostringstream os;
  simt::print_report(os, s.report(), dev.spec());
  const std::string out = os.str();
  EXPECT_LT(out.find("big"), out.find("small"));
  EXPECT_NE(out.find("(aggregate)"), std::string::npos);
}

TEST(CpuPrefetcher, BackwardScanIsNotPrefetched) {
  std::vector<int> data(1 << 20);
  simt::CpuTimer fwd, bwd;
  for (std::size_t i = 0; i < data.size(); i += 16) fwd.ld(&data[i]);
  for (std::size_t i = data.size(); i >= 16; i -= 16) bwd.ld(&data[i - 1]);
  // The simple forward-stream prefetcher penalizes the backward scan.
  EXPECT_LT(fwd.cycles(), bwd.cycles());
}

TEST(CpuPrefetcher, ManyInterleavedStreamsStillTracked) {
  // 8 interleaved streams fit in the 16-entry table: near-forward speed.
  std::vector<int> data(1 << 20);
  simt::CpuTimer t;
  const std::size_t stride = data.size() / 8;
  for (std::size_t i = 0; i < stride; i += 16) {
    for (int s = 0; s < 8; ++s) t.ld(&data[s * stride + i]);
  }
  simt::CpuTimer scattered;
  std::size_t x = 12345;
  for (int i = 0; i < 8 * (1 << 16); ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    scattered.ld(&data[x % data.size()]);
  }
  EXPECT_LT(t.cycles(), scattered.cycles() * 0.5);
}

TEST(SortOptions, CustomTileAndThresholdStillSort) {
  auto keys = sort::make_keys(30000, 9);
  auto want = keys;
  std::sort(want.begin(), want.end());
  {
    simt::Device dev;
    sort::MergeSortOptions opt;
    opt.tile = 512;
    opt.block_threads = 128;
    auto k = keys;
    sort::mergesort(dev, k, opt);
    EXPECT_EQ(k, want);
  }
  {
    simt::Device dev;
    sort::QuickSortOptions opt;
    opt.max_depth = 8;
    opt.leaf_threshold = 128;
    auto k = keys;
    sort::simple_quicksort(dev, k, opt);
    EXPECT_EQ(k, want);
  }
  {
    simt::Device dev;
    sort::QuickSortOptions opt;
    opt.bitonic_size = 256;
    opt.block_threads = 64;
    auto k = keys;
    sort::advanced_quicksort(dev, k, opt);
    EXPECT_EQ(k, want);
  }
}

TEST(DeviceFacade, BlocksForClampsAndRounds) {
  EXPECT_EQ(simt::Device::blocks_for(0, 128), 1);
  EXPECT_EQ(simt::Device::blocks_for(1, 128), 1);
  EXPECT_EQ(simt::Device::blocks_for(129, 128), 2);
  EXPECT_EQ(simt::Device::blocks_for(1 << 30, 128, 65535), 65535);
}

TEST(DeviceFacade, ReportIsRepeatable) {
  simt::Device dev;
  simt::Session s = dev.session();
  dev.launch_threads(cfg(4, 64, "k"), [](simt::LaneCtx& t) { t.compute(100); });
  const auto a = s.report();
  const auto b = s.report();
  EXPECT_DOUBLE_EQ(a.total_cycles, b.total_cycles);
  // Occupancy metrics accumulate per schedule run; ratios must stay sane.
  EXPECT_LE(b.aggregate.warp_occupancy(dev.spec().max_warps_per_sm), 1.0 + 1e-9);
}

}  // namespace
