// Tests for the profiling subsystem (src/simt/profiler.{h,cpp}) and its
// PROF_<suite>.json pipeline: histogram bucketing and merging, the
// off-by-default gating discipline, scoped per-thread ownership, per-kernel
// distribution collection through Session::report(), determinism across host
// execution engines and threads, JSON round-trip fidelity, and the paper's
// load-imbalance claim — the
// delayed-buffer template flattens the per-block cycle distribution of the
// SSSP relaxation sweep relative to the thread-mapped baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include "bench/results.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/nested/templates.h"
#include "src/simt/device.h"
#include "src/simt/exec_policy.h"
#include "src/simt/profiler.h"

namespace simt = nestpar::simt;
namespace nested = nestpar::nested;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace bench = nestpar::bench;

namespace {

void tiny_workload(simt::Device& dev, int grid_blocks = 4) {
  simt::LaunchConfig cfg;
  cfg.grid_blocks = grid_blocks;
  cfg.block_threads = 32;
  cfg.name = "tiny/baseline/main";
  dev.launch_threads(cfg, [](simt::LaneCtx& t) {
    // Uneven per-lane work so the block-cycle histogram has real spread.
    for (int i = 0; i <= t.global_idx() % 7; ++i) t.compute(1);
  });
}

TEST(ProfilerTest, HistogramBucketBoundaries) {
  EXPECT_EQ(simt::ProfHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(simt::ProfHistogram::bucket_of(0.5), 0);
  EXPECT_EQ(simt::ProfHistogram::bucket_of(-3.0), 0);
  EXPECT_EQ(simt::ProfHistogram::bucket_of(1.0), 1);
  EXPECT_EQ(simt::ProfHistogram::bucket_of(1.9), 1);
  EXPECT_EQ(simt::ProfHistogram::bucket_of(2.0), 2);
  EXPECT_EQ(simt::ProfHistogram::bucket_of(3.0), 2);
  EXPECT_EQ(simt::ProfHistogram::bucket_of(4.0), 3);
  EXPECT_EQ(simt::ProfHistogram::bucket_of(1024.0), 11);
  // Huge values clamp to the last bucket instead of overflowing.
  EXPECT_EQ(simt::ProfHistogram::bucket_of(1e30),
            simt::ProfHistogram::kBuckets - 1);
}

TEST(ProfilerTest, HistogramAddAndMergeTrackStats) {
  simt::ProfHistogram a;
  a.add(2.0);
  a.add(10.0);
  EXPECT_EQ(a.count, 2u);
  EXPECT_DOUBLE_EQ(a.sum, 12.0);
  EXPECT_DOUBLE_EQ(a.min_value, 2.0);
  EXPECT_DOUBLE_EQ(a.max_value, 10.0);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);

  simt::ProfHistogram b;
  b.add(1.0);
  b += a;
  EXPECT_EQ(b.count, 3u);
  EXPECT_DOUBLE_EQ(b.min_value, 1.0);
  EXPECT_DOUBLE_EQ(b.max_value, 10.0);
  EXPECT_EQ(b.buckets[simt::ProfHistogram::bucket_of(1.0)], 1u);
  EXPECT_EQ(b.buckets[simt::ProfHistogram::bucket_of(10.0)], 1u);

  // Merging into an empty histogram copies min/max instead of keeping the
  // zero-initialized sentinels.
  simt::ProfHistogram c;
  c += a;
  EXPECT_DOUBLE_EQ(c.min_value, 2.0);
  EXPECT_DOUBLE_EQ(c.max_value, 10.0);
}

TEST(ProfilerTest, DisabledProfilerObservesNothing) {
  // A profile observes only while its scope is open.
  simt::Profile closed;
  { const simt::ProfileScope scope(closed); }
  EXPECT_EQ(simt::active_profile(), nullptr);
  simt::Device dev;
  {
    simt::Session s = dev.session();
    tiny_workload(dev);
    dev.prof_counter("tiny/track", 1.0);
    dev.prof_value("tiny/dist", 2.0);
    dev.prof_instant("tiny/event", "test");
    (void)s.report();
  }
  EXPECT_EQ(closed.reports, 0u);
  EXPECT_EQ(closed.grids, 0u);
  EXPECT_TRUE(closed.kernels.empty());
  EXPECT_TRUE(closed.tracks.empty());
  EXPECT_TRUE(closed.counters.empty());
  EXPECT_TRUE(closed.instants.empty());
}

TEST(ProfilerTest, ReportFoldsKernelDistributions) {
  simt::Profile snap;
  simt::Device dev;
  {
    const simt::ProfileScope scope(snap);
    simt::Session s = dev.session();
    tiny_workload(dev, /*grid_blocks=*/4);
    dev.prof_counter("tiny/track", 3.0);
    dev.prof_instant("tiny/flush", "queue");
    (void)s.report();
  }
  EXPECT_EQ(snap.reports, 1u);
  EXPECT_EQ(snap.grids, 1u);
  ASSERT_EQ(snap.kernels.size(), 1u);

  const simt::KernelProfile& k = snap.kernels[0];
  EXPECT_EQ(k.name, "tiny/baseline/main");
  EXPECT_EQ(k.invocations, 1u);
  EXPECT_GT(k.busy_cycles, 0.0);
  EXPECT_EQ(k.block_cycles.count, 4u);  // one sample per block
  EXPECT_GT(k.block_cycles.max_value, 0.0);
  EXPECT_GE(k.imbalance(), 1.0);
  EXPECT_GT(k.warp_steps, 0u);
  EXPECT_GT(k.warp_efficiency(), 0.0);
  EXPECT_LE(k.warp_efficiency(), 1.0);
  // The whole grid ran at nesting depth 0.
  ASSERT_EQ(k.nest_depth_grids.size(), 1u);
  EXPECT_EQ(k.nest_depth_grids.at(0), 1u);

  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].track, "tiny/track");
  EXPECT_DOUBLE_EQ(snap.counters[0].value, 3.0);
  ASSERT_EQ(snap.instants.size(), 1u);
  EXPECT_EQ(snap.instants[0].name, "tiny/flush");
  ASSERT_TRUE(snap.tracks.count("tiny/track"));
  EXPECT_EQ(snap.tracks.at("tiny/track").count, 1u);
  EXPECT_NE(snap.find("tiny/baseline/main"), nullptr);
  EXPECT_EQ(snap.find("no/such/kernel"), nullptr);
}

// Scopes nest: the inner profile receives the inner session's report, and
// closing it reinstates the outer one.
TEST(ProfilerTest, ScopeActivatesAndRestores) {
  simt::Profile outer;
  simt::Profile inner;
  simt::Device dev;
  {
    const simt::ProfileScope outer_scope(outer);
    {
      const simt::ProfileScope inner_scope(inner);
      EXPECT_EQ(simt::active_profile(), &inner);
      simt::Session s = dev.session();
      tiny_workload(dev);
      (void)s.report();
    }
    EXPECT_EQ(simt::active_profile(), &outer);
    simt::Session s = dev.session();
    tiny_workload(dev, /*grid_blocks=*/2);
    (void)s.report();
    (void)s.report();
  }
  EXPECT_EQ(simt::active_profile(), nullptr);
  EXPECT_EQ(inner.reports, 1u);
  ASSERT_EQ(inner.kernels.size(), 1u);
  EXPECT_EQ(inner.kernels[0].block_cycles.count, 4u);
  EXPECT_EQ(outer.reports, 2u);
  ASSERT_EQ(outer.kernels.size(), 1u);
  EXPECT_EQ(outer.kernels[0].block_cycles.count, 4u);  // 2 blocks, twice
}

// The profile is derived from the launch graph and the deterministic
// schedule, so the serial and thread-pool engines must produce identical
// profiles — same per-block histograms, same lane histograms, bit for bit.
TEST(ProfilerTest, SnapshotDeterminismAcrossEngines) {
  const graph::Csr g =
      graph::generate_power_law(300, /*min_degree=*/1, /*max_degree=*/60,
                                /*mean_degree=*/4.0, /*seed=*/99, true);

  const auto run = [&](const simt::ExecPolicy& policy) {
    simt::Profile profile;
    const simt::ProfileScope scope(profile);
    simt::Device dev(simt::DeviceSpec::k20(), 24, policy);
    simt::Session s = dev.session();
    (void)apps::run_sssp(dev, g, 0, nested::LoopTemplate::kDbufShared);
    (void)s.report();
    return profile;
  };
  const simt::Profile serial = run(simt::ExecPolicy::serial());
  const simt::Profile parallel = run(simt::ExecPolicy::parallel(4));

  ASSERT_EQ(serial.kernels.size(), parallel.kernels.size());
  EXPECT_EQ(serial.total_cycles, parallel.total_cycles);
  EXPECT_EQ(serial.grids, parallel.grids);
  for (std::size_t i = 0; i < serial.kernels.size(); ++i) {
    const simt::KernelProfile& a = serial.kernels[i];
    const simt::KernelProfile& b = parallel.kernels[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.busy_cycles, b.busy_cycles) << a.name;
    EXPECT_EQ(a.block_cycles.count, b.block_cycles.count) << a.name;
    EXPECT_EQ(a.block_cycles.sum, b.block_cycles.sum) << a.name;
    EXPECT_EQ(a.block_cycles.max_value, b.block_cycles.max_value) << a.name;
    EXPECT_EQ(a.warp_steps, b.warp_steps) << a.name;
    EXPECT_EQ(a.active_lane_ops, b.active_lane_ops) << a.name;
    for (int s = 0; s < simt::kLaneHistSlots; ++s) {
      EXPECT_EQ(a.lane_hist[s], b.lane_hist[s]) << a.name << " slot " << s;
    }
  }
}

TEST(ProfilerTest, ProfileJsonRoundTripIsByteStable) {
  bench::SuiteProfile profile;
  profile.suite = "unit";
  simt::Device dev;
  {
    const simt::ProfileScope scope(profile.prof);
    simt::Session s = dev.session();
    tiny_workload(dev);
    dev.prof_counter("tiny/track", 5.0);
    dev.prof_value("tiny/dist", 7.0);
    dev.prof_instant("tiny/flush", "queue");
    (void)s.report();
  }

  const std::string text = bench::to_json(profile);
  const bench::SuiteProfile parsed = bench::parse_profile_json(text);
  EXPECT_EQ(parsed.suite, profile.suite);
  ASSERT_EQ(parsed.prof.kernels.size(), profile.prof.kernels.size());
  EXPECT_EQ(parsed.prof.counters.size(), profile.prof.counters.size());
  EXPECT_EQ(parsed.prof.instants.size(), profile.prof.instants.size());
  EXPECT_EQ(parsed.prof.tracks.size(), profile.prof.tracks.size());
  // Serialize-parse-serialize is the identity on the bytes: the JSON layer
  // loses nothing the profile schema carries.
  EXPECT_EQ(bench::to_json(parsed), text);
}

TEST(ProfilerTest, SchemaVersionMismatchIsRejected) {
  bench::SuiteProfile profile;
  profile.suite = "unit";
  std::string text = bench::to_json(profile);
  const std::string tag =
      "\"schema_version\": " + std::to_string(bench::kProfileSchemaVersion);
  const auto pos = text.find(tag);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, tag.size(), "\"schema_version\": 999");
  EXPECT_THROW((void)bench::parse_profile_json(text), std::runtime_error);
}

// Files are regenerated, never migrated: a v1 profile (no critical-path
// sections) is refused with the version named.
TEST(ProfilerTest, SchemaV1ProfileIsRejected) {
  const std::string v1 =
      "{\n"
      "  \"schema_version\": 1,\n"
      "  \"generator\": \"nestpar_bench\",\n"
      "  \"kind\": \"profile\",\n"
      "  \"suite\": \"legacy\",\n"
      "  \"total_cycles\": 123,\n"
      "  \"reports\": 1,\n"
      "  \"grids\": 2,\n"
      "  \"device_grids\": 0,\n"
      "  \"depth_grids\": {\"0\": 2},\n"
      "  \"kernels\": [],\n"
      "  \"tracks\": {},\n"
      "  \"counters\": [],\n"
      "  \"instants\": []\n}\n";
  try {
    (void)bench::parse_profile_json(v1);
    ADD_FAILURE() << "v1 profile was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("schema_version 1 "),
              std::string::npos)
        << e.what();
  }
}

// The paper's Fig. 5 claim, reproduced as a profile assertion: on a skewed
// graph the delayed-buffer template spreads the relaxation work across
// blocks far more evenly than the thread-mapped baseline, so its
// load-imbalance factor (max/mean per-block cycles) must be strictly lower.
TEST(ProfilerTest, DbufSharedFlattensSsspImbalance) {
  const graph::Csr g =
      graph::generate_citeseer_like(0.1, /*seed=*/20150707, /*weighted=*/true);

  const auto imbalance_of = [&](nested::LoopTemplate tmpl,
                                const std::string& kernel) {
    simt::Profile snap;
    const simt::ProfileScope scope(snap);
    simt::Device dev;
    {
      simt::Session s = dev.session();
      (void)apps::run_sssp(dev, g, 0, tmpl);
      (void)s.report();
    }
    const simt::KernelProfile* k = snap.find(kernel);
    EXPECT_NE(k, nullptr) << kernel;
    return k == nullptr ? 0.0 : k->imbalance();
  };

  const double baseline =
      imbalance_of(nested::LoopTemplate::kBaseline, "sssp/baseline/main");
  const double dbuf =
      imbalance_of(nested::LoopTemplate::kDbufShared, "sssp/dbuf-shared/main");
  EXPECT_GT(baseline, 1.0);
  EXPECT_LT(dbuf, baseline);
}

// Each thread owns the profile its scope opened: two threads running the
// same SSSP sessions at once each record exactly the bytes a serial run
// records, with nothing from the other thread mixed in.
TEST(ProfileDeterminism, ThreadsOwnTheirProfiles) {
  const graph::Csr g =
      graph::generate_power_law(300, /*min_degree=*/1, /*max_degree=*/60,
                                /*mean_degree=*/4.0, /*seed=*/7, true);
  const auto profile_sssp = [&g]() {
    bench::SuiteProfile profile{"threads", {}};
    const simt::ProfileScope scope(profile.prof);
    simt::Device dev;
    for (const nested::LoopTemplate tmpl :
         {nested::LoopTemplate::kDualQueue, nested::LoopTemplate::kDbufShared,
          nested::LoopTemplate::kConsGrid}) {
      simt::Session s = dev.session();
      (void)apps::run_sssp(dev, g, 0, tmpl);
      (void)s.report();
    }
    return bench::to_json(profile);
  };
  const std::string serial = profile_sssp();
  ASSERT_NE(serial.find("dual-queue/small_count"), std::string::npos);

  std::string first, second;
  std::thread a([&] { first = profile_sssp(); });
  std::thread b([&] { second = profile_sssp(); });
  a.join();
  b.join();
  EXPECT_EQ(first, serial);
  EXPECT_EQ(second, serial);
  EXPECT_EQ(simt::active_profile(), nullptr);
}

}  // namespace
