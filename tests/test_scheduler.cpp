// Timing-pass behavior tests: stream FIFO semantics, the concurrent-grid
// limit, occupancy-driven residency, GMU activation order, latency hiding,
// and scheduling determinism. All drive the scheduler through the Device
// facade (the scheduler itself is an implementation detail).
#include <gtest/gtest.h>

#include "src/simt/device.h"
#include "src/simt/scheduler.h"
#include "tests/session.h"

namespace simt = nestpar::simt;
namespace test = nestpar::test;

namespace {

simt::LaunchConfig cfg(int blocks, int threads, const char* name,
                       std::size_t smem = 0) {
  simt::LaunchConfig c;
  c.grid_blocks = blocks;
  c.block_threads = threads;
  c.smem_bytes = smem;
  c.name = name;
  return c;
}

simt::ScheduleResult run_schedule(simt::Device& dev) {
  simt::LaunchGraph graph = dev.graph();
  return simt::schedule(dev.spec(), graph);
}

TEST(SchedulerStreams, SameStreamGridsSerialize) {
  simt::Device dev;
  auto work = [](simt::LaneCtx& t) { t.compute(5000); };
  dev.launch_threads(cfg(1, 64, "a"), work, simt::StreamHandle{3});
  dev.launch_threads(cfg(1, 64, "b"), work, simt::StreamHandle{3});
  const auto s = run_schedule(dev);
  // b starts only after a completes.
  EXPECT_GE(s.node_start[1], s.node_end[0]);
}

TEST(SchedulerStreams, DifferentStreamsOverlap) {
  simt::Device dev;
  auto work = [](simt::LaneCtx& t) { t.compute(5000); };
  dev.launch_threads(cfg(1, 64, "a"), work, simt::StreamHandle{1});
  dev.launch_threads(cfg(1, 64, "b"), work, simt::StreamHandle{2});
  const auto s = run_schedule(dev);
  EXPECT_LT(s.node_start[1], s.node_end[0]);
}

TEST(SchedulerStreams, DeviceLaunchesFromSameBlockSerialize) {
  simt::Device dev;
  dev.launch_threads(cfg(1, 1, "parent"), [](simt::LaneCtx& t) {
    auto child = [](simt::LaneCtx& c) { c.compute(4000); };
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "c1"), child));
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "c2"), child));
  });
  const auto s = run_schedule(dev);
  // Nodes 1 and 2 are the children, in the block's default child stream.
  EXPECT_GE(s.node_start[2], s.node_end[1]);
}

TEST(SchedulerStreams, ExtraStreamSlotAllowsChildOverlap) {
  simt::Device dev;
  dev.launch_threads(cfg(1, 1, "parent"), [](simt::LaneCtx& t) {
    auto child = [](simt::LaneCtx& c) { c.compute(40000); };
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "c1"), child, -1));
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "c2"), child, 0));  // extra slot
  });
  const auto s = run_schedule(dev);
  EXPECT_LT(s.node_start[2], s.node_end[1]);
}

TEST(SchedulerConcurrency, GridSlotLimitSerializesExcessGrids) {
  // More single-block grids than concurrent-grid slots: makespan grows
  // beyond what pure resource limits would allow.
  simt::DeviceSpec spec = simt::DeviceSpec::k20();
  spec.max_concurrent_grids = 2;
  simt::Device narrow(spec);
  simt::Device wide;  // default: 32 slots
  simt::Session narrow_session = narrow.session();
  simt::Session wide_session = wide.session();
  for (int i = 0; i < 8; ++i) {
    auto work = [](simt::LaneCtx& t) { t.compute(20000); };
    narrow.launch_threads(cfg(1, 64, "g"), work, simt::StreamHandle{i + 1});
    wide.launch_threads(cfg(1, 64, "g"), work, simt::StreamHandle{i + 1});
  }
  EXPECT_GT(narrow_session.report().total_cycles,
            wide_session.report().total_cycles * 1.5);
}

TEST(SchedulerOccupancy, SharedMemoryLimitsResidency) {
  // 13 SMs; blocks demanding 40KB of shared memory can only run one per SM,
  // so 26 such blocks need two waves.
  simt::Device dev;
  auto work = [](simt::LaneCtx& t) { t.compute(10000); };
  const double fat = test::timed(dev, [&] {
    dev.launch_threads(cfg(26, 64, "fat", 40 * 1024), work);
  }).total_cycles;
  const double thin = test::timed(dev, [&] {
    dev.launch_threads(cfg(26, 64, "thin", 1024), work);
  }).total_cycles;
  EXPECT_GT(fat, thin * 1.5);
}

TEST(SchedulerOccupancy, LowOccupancyExposesLatency) {
  // One resident warp cannot hide latency; many warps can.
  simt::Device dev;
  const double sparse = test::timed(dev, [&] {
    dev.launch_threads(cfg(13, 32, "sparse"),
                       [](simt::LaneCtx& t) { t.compute(24000); });
  }).total_cycles;
  // Same total work, 24 warps per SM.
  const double dense = test::timed(dev, [&] {
    dev.launch_threads(cfg(13, 768, "dense"),
                       [](simt::LaneCtx& t) { t.compute(1000); });
  }).total_cycles;
  EXPECT_GT(sparse, dense * 2);
}

TEST(SchedulerGmu, ActivationFollowsReadyOrder) {
  simt::Device dev;
  dev.launch_threads(cfg(1, 2, "parent"), [](simt::LaneCtx& t) {
    simt::LaunchConfig c = cfg(1, 32, "child");
    EXPECT_TRUE(t.launch_threads(c, [](simt::LaneCtx& l) { l.compute(1); }));
  });
  const auto s = run_schedule(dev);
  // Two children (one per lane): the second activates one GMU service
  // period after the first.
  const double gap = s.node_start[2] - s.node_start[1];
  EXPECT_GE(gap, dev.spec().device_launch_service_cycles() * 0.99);
}

TEST(SchedulerDrain, HotspotDelaysOnlyItsGrid) {
  simt::Device dev;
  int hot = 0;
  dev.launch_threads(cfg(26, 192, "hot"), [&](simt::LaneCtx& t) {
    t.atomic_add(&hot, 1);
  });
  dev.launch_threads(cfg(1, 32, "after"),
                     [](simt::LaneCtx& t) { t.compute(10); },
                     simt::StreamHandle{5});
  const auto s = run_schedule(dev);
  // The independent grid in another stream is not held back by the drain.
  EXPECT_LT(s.node_start[1], s.node_end[0]);
}

TEST(SchedulerDeterminism, IdenticalSessionsScheduleIdentically) {
  auto build = [](simt::Device& dev) {
    for (int i = 0; i < 5; ++i) {
      dev.launch_threads(cfg(3 + i, 64, "k"), [i](simt::LaneCtx& t) {
        t.compute(static_cast<std::uint32_t>(100 * (i + 1)));
      });
    }
  };
  simt::Device a, b;
  build(a);
  build(b);
  const auto sa = run_schedule(a);
  const auto sb = run_schedule(b);
  ASSERT_EQ(sa.node_end.size(), sb.node_end.size());
  for (std::size_t i = 0; i < sa.node_end.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa.node_end[i], sb.node_end[i]);
  }
  EXPECT_DOUBLE_EQ(sa.total_cycles, sb.total_cycles);
}

TEST(SchedulerMakespan, EqualsLatestGridEnd) {
  simt::Device dev;
  dev.launch_threads(cfg(2, 64, "x"),
                     [](simt::LaneCtx& t) { t.compute(500); });
  dev.launch_threads(cfg(2, 64, "y"),
                     [](simt::LaneCtx& t) { t.compute(2500); });
  const auto s = run_schedule(dev);
  double latest = 0;
  for (double e : s.node_end) latest = std::max(latest, e);
  EXPECT_DOUBLE_EQ(s.total_cycles, latest);
}

TEST(SchedulerBigGrid, ManyBlocksWaveThroughSms) {
  // 130 fully-occupying blocks = 10 waves over 13 SMs; the makespan should
  // be close to 10x a single wave, not 130x a single block. (Blocks of 768
  // threads keep latency hiding saturated in both cases, isolating the
  // wave effect from the occupancy effect.)
  simt::Device dev;
  const double one_wave = test::timed(dev, [&] {
    dev.launch_threads(cfg(13, 768, "wave"),
                       [](simt::LaneCtx& t) { t.compute(10000); });
  }).total_cycles;
  const double ten_waves = test::timed(dev, [&] {
    dev.launch_threads(cfg(130, 768, "waves"),
                       [](simt::LaneCtx& t) { t.compute(10000); });
  }).total_cycles;
  EXPECT_GT(ten_waves, one_wave * 5);
  EXPECT_LT(ten_waves, one_wave * 20);
}

}  // namespace
