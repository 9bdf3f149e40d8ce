// Pins for the simulator's own hot path (docs/SIMULATOR.md): the recycled
// recording storage of arena.h round-trips correctly, and every loop
// template reproduces — bit for bit — the metrics captured before the
// engine's SoA rewrite and before the templates were rebuilt from shared
// schedule primitives, on skewed and uniform graphs and with device launches
// refused. Equality here is those refactors' cycle-neutrality proof at test
// granularity (the checked-in BENCH_/PROF_ baselines pin it at suite
// granularity).
//
// The EngineDeterminism case also runs under the `nestpar_faults` ctest
// entry (its name matches the *Determinism* filter), which reruns it with an
// ambient NESTPAR_FAULTS config — recycled scratch must stay
// engine-deterministic when launches fail and templates degrade.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/nested/templates.h"
#include "src/simt/arena.h"
#include "src/simt/device.h"

namespace {

namespace simt = nestpar::simt;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace nested = nestpar::nested;

using nested::LoopTemplate;

// ---------------------------------------------------------------------------
// Arena: reuse/reset round-trip.

TEST(SimulatorPerfArena, AllocZeroesAndAligns) {
  simt::Arena arena;
  auto* p = static_cast<char*>(arena.alloc(1000, 8));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % simt::kModelAlignment, 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(p[i], 0) << i;
}

TEST(SimulatorPerfArena, ResetReusesAndRezeroes) {
  simt::Arena arena;
  auto* a = static_cast<char*>(arena.alloc(4096, 128));
  std::memset(a, 0xAB, 4096);
  arena.reset();
  // Same storage comes back (no heap growth across steady-state reuse) and
  // it is zeroed again: blocks must never observe a previous block's shared
  // memory image.
  auto* b = static_cast<char*>(arena.alloc(4096, 128));
  EXPECT_EQ(a, b);
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(b[i], 0) << i;
}

TEST(SimulatorPerfArena, DistinctLiveAllocationsDontOverlap) {
  simt::Arena arena;
  auto* a = static_cast<char*>(arena.alloc(256, 128));
  auto* b = static_cast<char*>(arena.alloc(256, 128));
  ASSERT_NE(a, b);
  EXPECT_GE(b, a + 256);
  std::memset(a, 1, 256);
  std::memset(b, 2, 256);
  EXPECT_EQ(a[255], 1);
  EXPECT_EQ(b[0], 2);
}

TEST(SimulatorPerfArena, OversizedRequestGetsOwnChunkAndSurvivesReset) {
  simt::Arena arena;
  // Larger than the 96KB minimum chunk: forces a dedicated chunk.
  constexpr std::size_t kBig = 256 * 1024;
  auto* big = static_cast<char*>(arena.alloc(kBig, 128));
  ASSERT_NE(big, nullptr);
  big[0] = 1;
  big[kBig - 1] = 1;
  arena.reset();
  auto* again = static_cast<char*>(arena.alloc(kBig, 128));
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again[kBig - 1], 0);
}

// ---------------------------------------------------------------------------
// FlatHist: the atomic-hotspot histogram.

TEST(SimulatorPerfFlatHist, CountsAndMax) {
  simt::FlatHist h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.max_count(), 0u);
  for (int i = 0; i < 100; ++i) h.bump(7);
  for (int i = 0; i < 40; ++i) h.bump(1000 + i);  // force growth
  for (int i = 0; i < 41; ++i) h.bump(9);
  EXPECT_EQ(h.max_count(), 100u);
  // Counts survive the growth above and keep accumulating per key.
  for (int i = 0; i < 60; ++i) h.bump(9);
  EXPECT_EQ(h.max_count(), 101u);
}

TEST(SimulatorPerfFlatHist, ClearRetainsNothing) {
  simt::FlatHist h;
  h.bump(3);
  h.bump(0);  // the reserved sentinel key still counts
  EXPECT_EQ(h.max_count(), 1u);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.max_count(), 0u);
  h.bump(5);
  EXPECT_EQ(h.max_count(), 1u);
}

// ---------------------------------------------------------------------------
// WarpTrace: SoA columns + lane offsets survive growth.

TEST(SimulatorPerfWarpTrace, LaneOffsetsAndColumnsSurviveGrowth) {
  simt::WarpTrace t;
  t.begin_warp();
  constexpr int kLanes = 32;
  constexpr int kOpsPerLane = 100;  // 3200 ops > the 1024 initial capacity
  for (int l = 0; l < kLanes; ++l) {
    t.begin_lane();
    for (int i = 0; i < kOpsPerLane; ++i) {
      t.push(simt::OpKind::kGlobalLoad, 1, 4,
             static_cast<std::uint64_t>(l * 1000 + i));
    }
  }
  ASSERT_EQ(t.lanes(), kLanes);
  for (int l = 0; l < kLanes; ++l) {
    ASSERT_EQ(t.lane_end(l) - t.lane_begin(l),
              static_cast<std::uint32_t>(kOpsPerLane));
    const std::uint32_t b = t.lane_begin(l);
    for (int i = 0; i < kOpsPerLane; ++i) {
      ASSERT_EQ(t.kinds()[b + i],
                static_cast<std::uint8_t>(simt::OpKind::kGlobalLoad));
      ASSERT_EQ(t.addrs()[b + i], static_cast<std::uint64_t>(l * 1000 + i));
      ASSERT_EQ(t.counts()[b + i], 1u);
      ASSERT_EQ(t.bytes()[b + i], 4u);
    }
  }
  // begin_warp drops contents but keeps recording working.
  t.begin_warp();
  EXPECT_EQ(t.lanes(), 0);
  t.begin_lane();
  t.push(simt::OpKind::kCompute, 2, 0, 0);
  EXPECT_EQ(t.lane_end(0) - t.lane_begin(0), 1u);
}

// ---------------------------------------------------------------------------
// Exact metric pins for every loop template.
//
// The skew/uniform rows of baseline, dbuf-shared, dpar-opt and cons-block
// were captured from the AoS engine (per-lane std::vector<Op>,
// std::unordered_map atomic histogram, per-op heap records) at the commit
// before the SoA/arena rewrite. The other rows were captured before the loop
// templates were rebuilt from shared schedule primitives, so they pin that
// rebuild too. The `refuse` rows run with every device launch refused (fault
// rate 1): each template must take its degradation path — drain deferred
// work inline — with fixed cost, not just agree across engines. Every field,
// including the float-accumulation-order-sensitive doubles, must match bit
// for bit.

struct Pin {
  const char* dataset;
  LoopTemplate tmpl;
  bool refuse;
  int iters;
  double total_cycles;
  std::uint64_t warp_steps, active_lane_ops;
  std::uint64_t gld_req, gld_xfer, gst_req, gst_xfer;
  std::uint64_t atomic_ops, shared_ops, compute_ops;
  std::uint64_t host_launches, device_launches, blocks, warps;
  double resident_warp_cycles, sm_active_cycles;
  std::uint64_t refused, degraded;
};

constexpr Pin kPins[] = {
    {"skew", LoopTemplate::kBaseline, false, 14, 1872881, 561708, 1453377,
     3040952, 67436928, 169031, 1709568, 291763, 0, 291763, 28, 0, 588, 3528,
     138082026, 15651002, 0, 0},
    {"uni", LoopTemplate::kBaseline, false, 18, 795110, 110833, 1317988,
     2820940, 48785280, 155201, 750208, 248336, 0, 248336, 36, 0, 756, 4536,
     83282868, 8888040, 0, 0},
    {"skew", LoopTemplate::kBlockMapped, false, 14, 939523, 642741, 8400233,
     19348376, 51315328, 169031, 2632576, 291763, 224000, 291763, 28, 0, 56294,
     113764, 295097194, 10395006, 0, 0},
    {"uni", LoopTemplate::kBlockMapped, false, 18, 862628, 714668, 9075457,
     19090816, 52126720, 155201, 2549248, 248336, 288000, 248336, 36, 0, 72378,
     146268, 336091833, 10962732.5, 0, 0},
    {"skew", LoopTemplate::kWarpMapped, false, 14, 385614.5, 332871, 4873449,
     11065240, 22014464, 169031, 2632576, 291763, 112000, 291763, 28, 0, 9632,
     57792, 217427052, 4244720.5, 0, 0},
    {"uni", LoopTemplate::kWarpMapped, false, 18, 337463.75, 349063, 5137441,
     10826752, 19725440, 155201, 2549248, 248336, 144000, 248336, 36, 0, 12384,
     74304, 222100201.5, 4085611.75, 0, 0},
    {"skew", LoopTemplate::kDualQueue, false, 14, 594560.75, 181165, 2271984,
     6003515, 25090816, 617031, 2789888, 347763, 6820, 291763, 54, 0, 2582,
     8672, 99210783, 9052526.3333333321, 0, 0},
    {"uni", LoopTemplate::kDualQueue, false, 18, 911658, 127163, 1652551,
     3655192, 50274048, 731201, 1664896, 320336, 0, 248336, 54, 0, 1134, 6804,
     97787268, 10400172, 0, 0},
    {"skew", LoopTemplate::kDbufShared, false, 14, 1053553, 224633, 3209893,
     7296632, 31315584, 169031, 1532672, 291763, 447076, 291763, 28, 0, 588,
     3528, 83131260, 9207173, 0, 0},
    {"uni", LoopTemplate::kDbufShared, false, 18, 810470, 115369, 1463140,
     2820940, 48785280, 155201, 750208, 248336, 145152, 248336, 36, 0, 756,
     4536, 85460148, 9112680, 0, 0},
    {"skew", LoopTemplate::kDbufGlobal, false, 14, 779777.75, 173177, 2009207,
     5332472, 23672704, 182671, 1816832, 293468, 6820, 291763, 40, 0, 2293,
     6938, 77204385.5, 7008693.75, 0, 0},
    {"uni", LoopTemplate::kDbufGlobal, false, 18, 795110, 110833, 1317988,
     2820940, 48785280, 155201, 750208, 248336, 0, 248336, 36, 0, 756, 4536,
     83282868, 8888040, 0, 0},
    {"skew", LoopTemplate::kDparNaive, false, 14, 4841892, 152130, 1893267,
     4459512, 21620352, 169031, 1709568, 291763, 1705, 291763, 28, 1705, 2293,
     6938, 76365168, 21301307, 0, 0},
    {"uni", LoopTemplate::kDparNaive, false, 18, 795110, 110833, 1317988,
     2820940, 48785280, 155201, 750208, 248336, 0, 248336, 36, 0, 756, 4536,
     83282868, 8888040, 0, 0},
    {"skew", LoopTemplate::kDparOpt, false, 14, 563257, 177069, 2013099,
     5332472, 23672704, 182671, 1927808, 291763, 12229, 291763, 28, 188, 2293,
     6938, 72732546, 17320717, 0, 0},
    {"uni", LoopTemplate::kDparOpt, false, 18, 796678, 111211, 1318366, 2820940,
     48785280, 155201, 750208, 248336, 378, 248336, 36, 0, 756, 4536, 83505132,
     8910972, 0, 0},
    {"skew", LoopTemplate::kConsWarp, false, 14, 1600927.5999999917, 328778,
     2980922, 11847145, 35521152, 202527, 2245504, 291763, 6879, 291763, 28,
     486, 3524, 9400, 98025774, 22353424, 0, 0},
    {"uni", LoopTemplate::kConsWarp, false, 18, 796838, 113101, 1320256,
     2820940, 48785280, 155201, 750208, 248336, 2268, 248336, 36, 0, 756, 4536,
     83527812, 8913312, 0, 0},
    {"skew", LoopTemplate::kConsBlock, false, 14, 746716.39999999979, 235984,
     3629316, 16522845, 31577088, 197815, 2170112, 291763, 5409, 291763, 28,
     157, 3815, 9982, 86513556.255555525, 14976055.983333331, 0, 0},
    {"uni", LoopTemplate::kConsBlock, false, 18, 796678, 111211, 1318366,
     2820940, 48785280, 155201, 750208, 248336, 378, 248336, 36, 0, 756, 4536,
     83505132, 8910972, 0, 0},
    {"skew", LoopTemplate::kConsGrid, false, 14, 757705.2333333334, 231350,
     4532147, 23724987, 33270912, 182663, 1637888, 293467, 715, 293467, 39, 11,
     3808, 9968, 108679515.79999998, 7333585.2500000009, 0, 0},
    {"uni", LoopTemplate::kConsGrid, false, 18, 795110, 110833, 1317988,
     2820940, 48785280, 155201, 750208, 248336, 0, 248336, 36, 0, 756, 4536,
     83282868, 8888040, 0, 0},
    {"skew", LoopTemplate::kDparNaive, true, 14, 3007055, 612443, 1460197,
     3040952, 68896640, 169031, 1709568, 291763, 0, 291763, 28, 0, 588, 3528,
     240917580, 26803506, 6820, 1705},
    {"skew", LoopTemplate::kDparOpt, true, 14, 2586665, 941223, 1469768,
     3063117, 69769600, 182671, 1927808, 291763, 7114, 291763, 28, 0, 588, 3528,
     185506836, 21032904, 752, 188},
    {"skew", LoopTemplate::kConsWarp, true, 14, 2915000, 946367, 1474912,
     3076757, 69987840, 202527, 2245504, 291763, 6879, 291763, 28, 0, 588, 3528,
     217011276, 24519458, 1944, 486},
    {"skew", LoopTemplate::kConsBlock, true, 14, 2543386, 942992, 1471537,
     3076757, 69987840, 197815, 2170112, 291763, 5409, 291763, 28, 0, 588, 3528,
     182934816, 20722922, 628, 157},
    {"skew", LoopTemplate::kConsGrid, true, 14, 66501960, 938563, 1467790,
     3104088, 70015616, 182663, 1816704, 293467, 715, 293467, 39, 0, 599, 3550,
     167550132, 69921940, 44, 11},
};

class SimulatorPerfPins : public ::testing::TestWithParam<Pin> {};

TEST_P(SimulatorPerfPins, MatchesPreRefactorEngineExactly) {
  const Pin& pin = GetParam();
  const graph::Csr g =
      std::string(pin.dataset) == "skew"
          ? graph::generate_power_law(4000, 1, 512, 16.0, 42, true)
          : graph::generate_regular(4000, 16, 42, true);

  simt::Device dev;
  // The ambient-fault rerun (`nestpar_faults`) must not perturb these exact
  // pins: pin the fault config for this test regardless of environment.
  simt::FaultConfig faults;
  if (pin.refuse) faults.device_launch_rate = 1.0;
  dev.set_fault_config(faults);
  simt::Session session = dev.session();
  const auto res = apps::run_sssp(dev, g, 0, pin.tmpl);
  const simt::RunReport r = session.report();
  const simt::Metrics& m = r.aggregate;

  EXPECT_EQ(res.iterations, pin.iters);
  EXPECT_EQ(r.total_cycles, pin.total_cycles);  // bit-exact double
  EXPECT_EQ(m.warp_steps, pin.warp_steps);
  EXPECT_EQ(m.active_lane_ops, pin.active_lane_ops);
  EXPECT_EQ(m.gld_requested_bytes, pin.gld_req);
  EXPECT_EQ(m.gld_transferred_bytes, pin.gld_xfer);
  EXPECT_EQ(m.gst_requested_bytes, pin.gst_req);
  EXPECT_EQ(m.gst_transferred_bytes, pin.gst_xfer);
  EXPECT_EQ(m.atomic_ops, pin.atomic_ops);
  EXPECT_EQ(m.shared_ops, pin.shared_ops);
  EXPECT_EQ(m.compute_ops, pin.compute_ops);
  EXPECT_EQ(m.host_launches, pin.host_launches);
  EXPECT_EQ(m.device_launches, pin.device_launches);
  EXPECT_EQ(m.blocks, pin.blocks);
  EXPECT_EQ(m.warps, pin.warps);
  EXPECT_EQ(m.resident_warp_cycles, pin.resident_warp_cycles);
  EXPECT_EQ(m.sm_active_cycles, pin.sm_active_cycles);
  EXPECT_EQ(r.robustness.refused_total(), pin.refused);
  EXPECT_EQ(r.robustness.degraded, pin.degraded);
}

INSTANTIATE_TEST_SUITE_P(
    SkewAndUniform, SimulatorPerfPins, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      std::string n = std::string(info.param.dataset) + "_" +
                      std::string(nested::name(info.param.tmpl)) +
                      (info.param.refuse ? "_refused" : "");
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// ---------------------------------------------------------------------------
// Engine determinism on the self-benchmark workloads. Runs clean here and
// again under ambient NESTPAR_FAULTS via the `nestpar_faults` ctest entry
// (filter *Determinism*): recycled BlockScratch pools are per-thread, so the
// parallel engine exercises genuinely different reuse sequences than the
// serial one — reports must not notice, faults or not.

TEST(SimulatorPerfEngineDeterminism, SerialAndParallelAgreeOnScratchReuse) {
  const graph::Csr g = graph::generate_power_law(4000, 1, 512, 16.0, 42, true);
  for (LoopTemplate tmpl :
       {LoopTemplate::kDbufShared, LoopTemplate::kConsBlock}) {
    simt::RunReport reports[2];
    const simt::ExecPolicy policies[2] = {
        simt::ExecPolicy::serial(),
        simt::ExecPolicy{simt::ExecMode::kParallel, 4}};
    for (int i = 0; i < 2; ++i) {
      simt::Device dev;
      simt::Session session = dev.session(policies[i]);
      apps::run_sssp(dev, g, 0, tmpl);
      reports[i] = session.report();
    }
    EXPECT_EQ(reports[0].total_cycles, reports[1].total_cycles);
    EXPECT_EQ(reports[0].aggregate.warp_steps,
              reports[1].aggregate.warp_steps);
    EXPECT_EQ(reports[0].aggregate.gld_transferred_bytes,
              reports[1].aggregate.gld_transferred_bytes);
    EXPECT_EQ(reports[0].aggregate.atomic_ops,
              reports[1].aggregate.atomic_ops);
    EXPECT_EQ(reports[0].aggregate.device_launches,
              reports[1].aggregate.device_launches);
    EXPECT_EQ(reports[0].aggregate.resident_warp_cycles,
              reports[1].aggregate.resident_warp_cycles);
    EXPECT_EQ(reports[0].robustness.refused_total(),
              reports[1].robustness.refused_total());
    EXPECT_EQ(reports[0].robustness.degraded,
              reports[1].robustness.degraded);
  }
}

}  // namespace
