// Unit tests for the SIMT simulator substrate: device spec / occupancy,
// metrics arithmetic, warp combining (divergence, coalescing, atomics),
// and the block/lane execution contexts.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/simt/device.h"
#include "tests/session.h"

namespace simt = nestpar::simt;
namespace test = nestpar::test;

namespace {

simt::LaunchConfig cfg(int blocks, int threads, const char* name) {
  simt::LaunchConfig c;
  c.grid_blocks = blocks;
  c.block_threads = threads;
  c.name = name;
  return c;
}

TEST(DeviceSpec, K20Defaults) {
  const auto spec = simt::DeviceSpec::k20();
  EXPECT_EQ(spec.num_sms, 13);
  EXPECT_EQ(spec.cores_per_sm, 192);
  EXPECT_EQ(spec.warp_size, 32);
  EXPECT_EQ(spec.max_warps_per_sm, 64);
}

TEST(DeviceSpec, WarpsPerBlockRoundsUp) {
  const auto spec = simt::DeviceSpec::k20();
  EXPECT_EQ(spec.warps_per_block(1), 1);
  EXPECT_EQ(spec.warps_per_block(32), 1);
  EXPECT_EQ(spec.warps_per_block(33), 2);
  EXPECT_EQ(spec.warps_per_block(192), 6);
}

TEST(Metrics, AccumulateAndRatios) {
  simt::Metrics a;
  a.warp_steps = 10;
  a.active_lane_ops = 160;
  a.gld_requested_bytes = 128;
  a.gld_transferred_bytes = 256;
  simt::Metrics b = a;
  b += a;
  EXPECT_EQ(b.warp_steps, 20u);
  EXPECT_DOUBLE_EQ(a.warp_execution_efficiency(), 0.5);
  EXPECT_DOUBLE_EQ(a.gld_efficiency(), 0.5);
  EXPECT_DOUBLE_EQ(simt::Metrics{}.warp_execution_efficiency(), 0.0);
  EXPECT_DOUBLE_EQ(simt::Metrics{}.gld_efficiency(), 0.0);
}

// --- Functional execution ---------------------------------------------------

TEST(Execution, ThreadKernelComputesRealResults) {
  simt::Device dev;
  std::vector<int> data(1000, 0);
  dev.launch_threads(cfg(8, 128, "fill"), [&](simt::LaneCtx& t) {
    const int i = t.global_idx();
    if (i >= static_cast<int>(data.size())) return;
    t.st(&data[i], i * 2);
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(data[i], i * 2);
}

TEST(Execution, GridStrideLoopCoversAllItems) {
  simt::Device dev;
  std::vector<int> hits(10000, 0);
  dev.launch_threads(cfg(4, 64, "stride"), [&](simt::LaneCtx& t) {
    for (int i = t.global_idx(); i < static_cast<int>(hits.size());
         i += t.grid_threads()) {
      t.st(&hits[i], hits[i] + 1);
    }
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10000);
}

TEST(Execution, AtomicAddReturnsOldValue) {
  simt::Device dev;
  int counter = 0;
  std::vector<int> olds(64, -1);
  dev.launch_threads(cfg(1, 64, "atomics"), [&](simt::LaneCtx& t) {
    olds[t.global_idx()] = t.atomic_add(&counter, 1);
  });
  EXPECT_EQ(counter, 64);
  // Sequential functional execution: old values are 0..63 in order.
  for (int i = 0; i < 64; ++i) EXPECT_EQ(olds[i], i);
}

TEST(Execution, AtomicMinMaxCas) {
  simt::Device dev;
  int mn = 100, mx = -1, cas = 7;
  dev.launch_threads(cfg(1, 32, "rmw"), [&](simt::LaneCtx& t) {
    const int i = t.global_idx();
    t.atomic_min(&mn, i);
    t.atomic_max(&mx, i);
    t.atomic_cas(&cas, 7, 42);
  });
  EXPECT_EQ(mn, 0);
  EXPECT_EQ(mx, 31);
  EXPECT_EQ(cas, 42);  // Only the first lane's CAS succeeds.
}

TEST(Execution, PhasesSeparatedByImplicitBarrier) {
  simt::Device dev;
  std::vector<int> out(128, 0);
  dev.launch(cfg(1, 128, "phased"), [&](simt::BlockCtx& blk) {
    auto buf = blk.shared_array<int>(128);
    blk.each_thread([&](simt::LaneCtx& t) {
      t.sh_st(&buf[t.thread_idx()], t.thread_idx());
    });
    // Implicit barrier: every lane now sees every other lane's write.
    blk.each_thread([&](simt::LaneCtx& t) {
      const int other = (t.thread_idx() + 64) % 128;
      t.st(&out[t.thread_idx()], t.sh_ld(&buf[other]));
    });
  });
  for (int i = 0; i < 128; ++i) EXPECT_EQ(out[i], (i + 64) % 128);
}

TEST(Execution, SharedMemoryOverflowThrows) {
  simt::Device dev;
  EXPECT_THROW(dev.launch(cfg(1, 32, "overflow"),
                          [&](simt::BlockCtx& blk) {
                            blk.shared_array<char>(49 * 1024);
                          }),
               std::runtime_error);
}

TEST(Execution, InvalidLaunchConfigThrows) {
  simt::Device dev;
  auto noop = [](simt::LaneCtx&) {};
  EXPECT_THROW(dev.launch_threads(cfg(0, 64, "bad"), noop),
               std::invalid_argument);
  EXPECT_THROW(dev.launch_threads(cfg(1, 0, "bad"), noop),
               std::invalid_argument);
  EXPECT_THROW(dev.launch_threads(cfg(1, 2048, "bad"), noop),
               std::invalid_argument);
}

TEST(Execution, NestedLaunchDepthLimitEnforced) {
  simt::Device dev(simt::DeviceSpec::k20(), 4);
  // Nesting depth d launches a grid at depth d + 1; the limit refuses the
  // one past depth 4, and the refusal comes back as a result.
  int deepest = -1;
  simt::SimtError refused = simt::SimtError::kOk;
  std::function<void(simt::LaneCtx&, int)> recurse =
      [&](simt::LaneCtx& t, int d) {
        deepest = std::max(deepest, d);
        const simt::LaunchResult r = t.launch_threads(
            cfg(1, 1, "deep"),
            [&, d](simt::LaneCtx& t2) { recurse(t2, d + 1); });
        if (!r) refused = r.error;
      };
  dev.launch_threads(cfg(1, 1, "root"),
                     [&](simt::LaneCtx& t) { recurse(t, 0); });
  EXPECT_EQ(deepest, 4);
  EXPECT_EQ(refused, simt::SimtError::kDepthLimitExceeded);
}

TEST(Execution, NestedLaunchRunsEagerly) {
  simt::Device dev;
  std::vector<int> child_data(256, 0);
  int parent_saw = -1;
  dev.launch_threads(cfg(1, 1, "parent"), [&](simt::LaneCtx& t) {
    EXPECT_TRUE(t.launch_threads(cfg(2, 128, "child"), [&](simt::LaneCtx& c) {
      child_data[c.global_idx()] = 1;
    }));
    // CDP-with-sync semantics: the child's writes are visible here.
    parent_saw = child_data[200];
  });
  EXPECT_EQ(parent_saw, 1);
  EXPECT_EQ(std::accumulate(child_data.begin(), child_data.end(), 0), 256);
}

// --- Metrics from warp combining --------------------------------------------

TEST(WarpMetrics, FullWarpIsHundredPercentEfficient) {
  simt::Device dev;
  simt::Session s = dev.session();
  dev.launch_threads(cfg(1, 32, "full"),
                     [&](simt::LaneCtx& t) { t.compute(4); });
  const auto rep = s.report();
  EXPECT_DOUBLE_EQ(rep.aggregate.warp_execution_efficiency(), 1.0);
}

TEST(WarpMetrics, SingleActiveLaneIsLowEfficiency) {
  simt::Device dev;
  simt::Session s = dev.session();
  dev.launch_threads(cfg(1, 32, "one"), [&](simt::LaneCtx& t) {
    if (t.lane() == 0) t.compute(10);
  });
  const auto rep = s.report();
  EXPECT_NEAR(rep.aggregate.warp_execution_efficiency(), 1.0 / 32.0, 1e-9);
}

TEST(WarpMetrics, DivergentTripCountsLowerEfficiency) {
  simt::Device dev;
  simt::Session s = dev.session();
  // Lane i performs i+1 compute steps: efficiency = avg(1..32)/32 ~ 0.515.
  dev.launch_threads(cfg(1, 32, "tri"), [&](simt::LaneCtx& t) {
    for (int i = 0; i <= t.lane(); ++i) t.compute();
  });
  const auto rep = s.report();
  EXPECT_NEAR(rep.aggregate.warp_execution_efficiency(), 33.0 / 64.0, 1e-9);
}

TEST(WarpMetrics, CoalescedLoadsAreEfficient) {
  simt::Device dev;
  simt::Session s = dev.session();
  alignas(128) static float data[32];
  dev.launch_threads(cfg(1, 32, "coalesced"), [&](simt::LaneCtx& t) {
    t.ld(&data[t.lane()]);
  });
  const auto rep = s.report();
  // 32 x 4B consecutive = one 128B segment: 100% efficient.
  EXPECT_DOUBLE_EQ(rep.aggregate.gld_efficiency(), 1.0);
}

TEST(WarpMetrics, StridedLoadsAreInefficient) {
  simt::Device dev;
  simt::Session s = dev.session();
  std::vector<float> data(32 * 64);
  dev.launch_threads(cfg(1, 32, "strided"), [&](simt::LaneCtx& t) {
    t.ld(&data[static_cast<std::size_t>(t.lane()) * 64]);
  });
  const auto rep = s.report();
  // Each lane hits its own 128B segment: 4/128 efficiency.
  EXPECT_NEAR(rep.aggregate.gld_efficiency(), 4.0 / 128.0, 1e-9);
}

TEST(WarpMetrics, StoreEfficiencyTracked) {
  simt::Device dev;
  simt::Session s = dev.session();
  std::vector<float> data(32 * 64);
  dev.launch_threads(cfg(1, 32, "stores"), [&](simt::LaneCtx& t) {
    t.st(&data[static_cast<std::size_t>(t.lane()) * 64], 1.0f);
  });
  const auto rep = s.report();
  EXPECT_NEAR(rep.aggregate.gst_efficiency(), 4.0 / 128.0, 1e-9);
  EXPECT_DOUBLE_EQ(rep.aggregate.gld_efficiency(), 0.0);
}

TEST(WarpMetrics, AtomicsCounted) {
  simt::Device dev;
  simt::Session s = dev.session();
  int counter = 0;
  dev.launch_threads(cfg(2, 64, "atomics"),
                     [&](simt::LaneCtx& t) { t.atomic_add(&counter, 1); });
  const auto rep = s.report();
  EXPECT_EQ(rep.aggregate.atomic_ops, 128u);
}

TEST(WarpMetrics, DeviceLaunchesCounted) {
  simt::Device dev;
  simt::Session s = dev.session();
  dev.launch_threads(cfg(1, 8, "parent"), [&](simt::LaneCtx& t) {
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "child"), [](simt::LaneCtx&) {}));
  });
  const auto rep = s.report();
  EXPECT_EQ(rep.aggregate.device_launches, 8u);
  EXPECT_EQ(rep.device_grids, 8u);
  EXPECT_EQ(rep.grids, 9u);
}

// --- Timing pass -------------------------------------------------------------

TEST(Timing, MoreWorkTakesLonger) {
  simt::Device dev;
  const double small = test::timed(dev, [&] {
    dev.launch_threads(cfg(13, 192, "small"),
                       [&](simt::LaneCtx& t) { t.compute(100); });
  }).total_cycles;
  const double big = test::timed(dev, [&] {
    dev.launch_threads(cfg(13, 192, "big"),
                       [&](simt::LaneCtx& t) { t.compute(10000); });
  }).total_cycles;
  EXPECT_GT(big, small * 10);
}

TEST(Timing, ParallelismBeatsSerialization) {
  // The same total work spread over many blocks should be faster than in one.
  simt::Device dev;
  const double narrow = test::timed(dev, [&] {
    dev.launch_threads(cfg(1, 192, "narrow"),
                       [&](simt::LaneCtx& t) { t.compute(26 * 1000); });
  }).total_cycles;
  const double wide = test::timed(dev, [&] {
    dev.launch_threads(cfg(26, 192, "wide"),
                       [&](simt::LaneCtx& t) { t.compute(1000); });
  }).total_cycles;
  EXPECT_GT(narrow, wide * 5);
}

TEST(Timing, ManyTinyGridsPayLaunchOverhead) {
  simt::Device dev;
  const double many = test::timed(dev, [&] {
    for (int i = 0; i < 64; ++i) {
      dev.launch_threads(cfg(1, 32, "tiny"),
                         [&](simt::LaneCtx& t) { t.compute(1); });
    }
  }).total_cycles;
  const double one = test::timed(dev, [&] {
    dev.launch_threads(cfg(64, 32, "fused"),
                       [&](simt::LaneCtx& t) { t.compute(1); });
  }).total_cycles;
  EXPECT_GT(many, one * 4);
}

TEST(Timing, StreamsOverlapIndependentGrids) {
  simt::Device dev;
  auto heavy = [&](simt::LaneCtx& t) { t.compute(50000); };
  // Two big single-block grids in the same stream: serialized.
  const double serial = test::timed(dev, [&] {
    dev.launch_threads(cfg(1, 192, "a"), heavy, simt::StreamHandle{0});
    dev.launch_threads(cfg(1, 192, "b"), heavy, simt::StreamHandle{0});
  }).total_cycles;
  const double overlapped = test::timed(dev, [&] {
    dev.launch_threads(cfg(1, 192, "a"), heavy, simt::StreamHandle{1});
    dev.launch_threads(cfg(1, 192, "b"), heavy, simt::StreamHandle{2});
  }).total_cycles;
  EXPECT_LT(overlapped, serial * 0.7);
}

TEST(Timing, AtomicHotspotBoundsKernelTime) {
  simt::Device dev;
  int hot = 0;
  const double hotspot = test::timed(dev, [&] {
    dev.launch_threads(cfg(64, 192, "hot"),
                       [&](simt::LaneCtx& t) { t.atomic_add(&hot, 1); });
  }).total_cycles;
  std::vector<int> spread(64 * 192, 0);
  const double scattered = test::timed(dev, [&] {
    dev.launch_threads(cfg(64, 192, "spread"), [&](simt::LaneCtx& t) {
      t.atomic_add(&spread[t.global_idx()], 1);
    });
  }).total_cycles;
  EXPECT_GT(hotspot, scattered * 2);
}

TEST(Timing, OccupancyMetricPopulated) {
  simt::Device dev;
  simt::Session s = dev.session();
  dev.launch_threads(cfg(26, 192, "occ"),
                     [&](simt::LaneCtx& t) { t.compute(1000); });
  const auto rep = s.report();
  const double occ = rep.aggregate.warp_occupancy(dev.spec().max_warps_per_sm);
  EXPECT_GT(occ, 0.0);
  EXPECT_LE(occ, 1.0);
}

TEST(Timing, ReportGroupsKernelsByName) {
  simt::Device dev;
  simt::Session s = dev.session();
  for (int i = 0; i < 3; ++i) {
    dev.launch_threads(cfg(1, 32, "repeat"),
                       [&](simt::LaneCtx& t) { t.compute(1); });
  }
  dev.launch_threads(cfg(1, 32, "other"),
                     [&](simt::LaneCtx& t) { t.compute(1); });
  const auto rep = s.report();
  EXPECT_EQ(rep.kernel("repeat").invocations, 3u);
  EXPECT_EQ(rep.kernel("other").invocations, 1u);
  EXPECT_THROW(rep.kernel("missing"), std::out_of_range);
}

TEST(Timing, ResetClearsSession) {
  simt::Device dev;
  (void)test::timed(dev, [&] {
    dev.launch_threads(cfg(1, 32, "x"),
                       [&](simt::LaneCtx& t) { t.compute(1); });
  });
  const auto rep = test::timed(dev, [] {});
  EXPECT_EQ(rep.grids, 0u);
  EXPECT_DOUBLE_EQ(rep.total_cycles, 0.0);
}

TEST(Timing, EmptyGridStillFinishes) {
  simt::Device dev;
  simt::Session s = dev.session();
  dev.launch_threads(cfg(4, 64, "noop"), [](simt::LaneCtx&) {});
  const auto rep = s.report();
  EXPECT_GT(rep.total_cycles, 0.0);  // Launch + dispatch overheads.
}

}  // namespace
