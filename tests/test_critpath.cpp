// Critical-path analyzer tests: causal-timestamp invariants of the
// scheduler, makespan-tiling attribution, verdict classification, engine
// determinism of the recovered chain, and the attribution==makespan
// invariant across every checked-in baseline profile.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/results.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/nested/templates.h"
#include "src/simt/critpath.h"
#include "src/simt/device.h"
#include "src/simt/exec_policy.h"
#include "src/simt/scheduler.h"

namespace simt = nestpar::simt;
namespace bench = nestpar::bench;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace nested = nestpar::nested;

namespace {

simt::LaunchConfig cfg(int blocks, int threads, const char* name) {
  simt::LaunchConfig c;
  c.grid_blocks = blocks;
  c.block_threads = threads;
  c.name = name;
  return c;
}

struct Scheduled {
  simt::LaunchGraph graph;
  simt::ScheduleResult sched;
};

Scheduled run_schedule(simt::Device& dev) {
  Scheduled s;
  s.graph = dev.graph();
  s.sched = simt::schedule(dev.spec(), s.graph);
  return s;
}

/// A workload exercising every edge kind at once: two host streams, a
/// cross-stream dependency, device children, and imbalanced blocks.
void mixed_workload(simt::Device& dev) {
  dev.launch_threads(cfg(1, 32, "parent"), [](simt::LaneCtx& t) {
    t.compute(2000);
    auto child = [](simt::LaneCtx& c) { c.compute(4000); };
    EXPECT_TRUE(t.launch_threads(cfg(2, 32, "child-a"), child));
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "child-b"), child));
  }, simt::StreamHandle{1});
  // Imbalanced multi-block grid: block 0 does 4x the work of the others.
  dev.launch_threads(cfg(4, 64, "skewed"), [](simt::LaneCtx& t) {
    t.compute(t.block_idx() == 0 ? 20000 : 5000);
  }, simt::StreamHandle{2});
  // Same-stream successor (FIFO edge) ...
  dev.launch_threads(cfg(1, 64, "tail"),
                     [](simt::LaneCtx& t) { t.compute(3000); },
                     simt::StreamHandle{2});
  // ... and a cross-stream consumer (dependency edge on "tail").
  dev.stream_wait(simt::StreamHandle{3},
                  dev.record_event(simt::StreamHandle{2}));
  dev.launch_threads(cfg(1, 64, "joiner"),
                     [](simt::LaneCtx& t) { t.compute(1000); },
                     simt::StreamHandle{3});
}

double rel_err(double a, double b) {
  return std::abs(a - b) / std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

// ---------------------------------------------------------------------------
// Scheduler causal-timestamp invariants.

TEST(SchedulerCausality, TimelineIsMonotonicPerNode) {
  simt::Device dev;
  mixed_workload(dev);
  const auto s = run_schedule(dev);
  ASSERT_EQ(s.sched.node_issued.size(), s.graph.nodes.size());
  for (const simt::KernelNode& n : s.graph.nodes) {
    const auto id = n.id;
    EXPECT_LE(s.sched.node_issued[id], s.sched.node_ready[id]) << n.name;
    EXPECT_LE(s.sched.node_ready[id], s.sched.node_activated[id]) << n.name;
    EXPECT_LE(s.sched.node_activated[id], s.sched.node_queued[id]) << n.name;
    EXPECT_LE(s.sched.node_queued[id], s.sched.node_start[id]) << n.name;
    EXPECT_LE(s.sched.node_start[id], s.sched.node_blocks_done[id]) << n.name;
    EXPECT_LE(s.sched.node_blocks_done[id], s.sched.node_end[id]) << n.name;
  }
}

TEST(SchedulerCausality, ChildIssueFollowsParentStart) {
  simt::Device dev;
  dev.launch_threads(cfg(1, 1, "parent"), [](simt::LaneCtx& t) {
    t.compute(5000);
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "child"),
                                 [](simt::LaneCtx& c) { c.compute(2000); }));
  });
  const auto s = run_schedule(dev);
  ASSERT_EQ(s.graph.nodes.size(), 2u);
  // The child is issued from inside the parent's execution span, and cannot
  // become ready before the device launch latency has elapsed.
  EXPECT_GE(s.sched.node_issued[1], s.sched.node_start[0]);
  EXPECT_LE(s.sched.node_issued[1], s.sched.node_end[0]);
  EXPECT_GE(s.sched.node_ready[1],
            s.sched.node_issued[1] + dev.spec().device_launch_cycles() - 1e-6);
  EXPECT_GE(s.sched.node_start[1], s.sched.node_ready[1]);
}

TEST(SchedulerCausality, IntraStreamFifoIsMonotonic) {
  simt::Device dev;
  for (int i = 0; i < 4; ++i) {
    dev.launch_threads(cfg(1, 64, "g"),
                       [i](simt::LaneCtx& t) { t.compute(1000 * (i + 1)); },
                       simt::StreamHandle{5});
  }
  const auto s = run_schedule(dev);
  for (std::size_t i = 1; i < s.graph.nodes.size(); ++i) {
    EXPECT_GE(s.sched.node_start[i], s.sched.node_end[i - 1]);
    // Queue points are monotone too: a grid cannot become eligible before
    // its stream predecessor finished.
    EXPECT_GE(s.sched.node_queued[i], s.sched.node_end[i - 1] - 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Critical-path attribution invariants.

TEST(CritPath, AttributionTilesTheMakespan) {
  simt::Device dev;
  mixed_workload(dev);
  auto s = run_schedule(dev);
  const simt::CritPath cp = simt::analyze_critical_path(s.graph, s.sched);

  EXPECT_DOUBLE_EQ(cp.makespan, s.sched.total_cycles);
  EXPECT_LT(rel_err(cp.total.total(), cp.makespan), 1e-9);

  // Per-kernel cycles are the same cycles, just keyed differently.
  simt::CritAttribution per_kernel_sum;
  for (const auto& [name, attr] : cp.per_kernel) per_kernel_sum += attr;
  EXPECT_LT(rel_err(per_kernel_sum.total(), cp.makespan), 1e-9);

  // Folded stacks carry the same total again.
  double folded_sum = 0.0;
  for (const auto& [stack, cyc] : cp.folded) folded_sum += cyc;
  EXPECT_LT(rel_err(folded_sum, cp.makespan), 1e-9);

  // The chain tiles [0, makespan] in ascending order without overlap.
  ASSERT_FALSE(cp.chain.empty());
  double cursor = 0.0;
  for (const simt::CritSegment& seg : cp.chain) {
    EXPECT_GE(seg.begin, cursor - 1e-6) << seg.kernel;
    EXPECT_GE(seg.cycles, 0.0);
    cursor = seg.begin + seg.cycles;
  }
  EXPECT_LT(rel_err(cursor, cp.makespan), 1e-9);
  EXPECT_EQ(cp.chain.back().begin + cp.chain.back().cycles, cursor);
}

TEST(CritPath, SingleGridSplitsIntoLaunchFootAndExecution) {
  simt::Device dev;
  dev.launch_threads(cfg(1, 64, "only"),
                     [](simt::LaneCtx& t) { t.compute(8000); });
  auto s = run_schedule(dev);
  const simt::CritPath cp = simt::analyze_critical_path(s.graph, s.sched);
  // Exactly one grid: makespan = host launch foot + execution span, and the
  // launch share equals the span before the grid started.
  EXPECT_NEAR(cp.total[simt::CritCategory::kLaunch] +
                  cp.total[simt::CritCategory::kOccupancy],
              s.sched.node_start[0], 1e-6);
  EXPECT_NEAR(cp.total[simt::CritCategory::kCompute] +
                  cp.total[simt::CritCategory::kImbalance] +
                  cp.total[simt::CritCategory::kFault],
              s.sched.node_end[0] - s.sched.node_start[0], 1e-6);
  // A single-block grid has no straggler share.
  EXPECT_DOUBLE_EQ(cp.total[simt::CritCategory::kImbalance], 0.0);
  EXPECT_DOUBLE_EQ(cp.total[simt::CritCategory::kDepWait], 0.0);
}

TEST(CritPath, ImbalancedGridShowsStragglerShare) {
  simt::Device dev;
  dev.launch_threads(cfg(8, 64, "skewed"), [](simt::LaneCtx& t) {
    t.compute(t.block_idx() == 0 ? 40000 : 2000);
  });
  auto s = run_schedule(dev);
  const simt::CritPath cp = simt::analyze_critical_path(s.graph, s.sched);
  EXPECT_GT(cp.total[simt::CritCategory::kImbalance], 0.0);
  // The straggler share never exceeds the grid's execution span.
  EXPECT_LE(cp.total[simt::CritCategory::kImbalance],
            s.sched.node_end[0] - s.sched.node_start[0]);
}

TEST(CritPath, EmptyGraphYieldsEmptyPath) {
  simt::LaunchGraph graph;
  simt::ScheduleResult sched;
  const simt::CritPath cp = simt::analyze_critical_path(graph, sched);
  EXPECT_DOUBLE_EQ(cp.makespan, 0.0);
  EXPECT_DOUBLE_EQ(cp.total.total(), 0.0);
  EXPECT_TRUE(cp.chain.empty());
  EXPECT_TRUE(cp.per_kernel.empty());
}

TEST(CritPath, DeviceChildrenAttributeLaunchCycles) {
  simt::Device dev;
  dev.launch_threads(cfg(1, 1, "parent"), [](simt::LaneCtx& t) {
    // Children dominate the tail, so the path walks a device-launch edge.
    EXPECT_TRUE(t.launch_threads(cfg(1, 32, "child"),
                                 [](simt::LaneCtx& c) { c.compute(50000); }));
  });
  auto s = run_schedule(dev);
  const simt::CritPath cp = simt::analyze_critical_path(s.graph, s.sched);
  EXPECT_GE(cp.total[simt::CritCategory::kLaunch],
            dev.spec().device_launch_cycles() - 1e-6);
  EXPECT_TRUE(cp.per_kernel.count("child"));
  EXPECT_TRUE(cp.per_kernel.count("parent"));
}

TEST(CritPath, CategoryNamesRoundTrip) {
  for (int i = 0; i < simt::kCritCategoryCount; ++i) {
    const auto c = static_cast<simt::CritCategory>(i);
    simt::CritCategory back{};
    EXPECT_TRUE(simt::parse_crit_category(simt::to_string(c), back));
    EXPECT_EQ(back, c);
  }
  simt::CritCategory out{};
  EXPECT_FALSE(simt::parse_crit_category("not-a-category", out));
}

// ---------------------------------------------------------------------------
// Verdict classification.

simt::CritAttribution make_attr(double compute, double imbalance,
                                double launch, double stream, double dep,
                                double occ, double fault) {
  simt::CritAttribution a;
  a[simt::CritCategory::kCompute] = compute;
  a[simt::CritCategory::kImbalance] = imbalance;
  a[simt::CritCategory::kLaunch] = launch;
  a[simt::CritCategory::kStreamWait] = stream;
  a[simt::CritCategory::kDepWait] = dep;
  a[simt::CritCategory::kOccupancy] = occ;
  a[simt::CritCategory::kFault] = fault;
  return a;
}

TEST(CritVerdict, ThresholdsClassifyEachMechanism) {
  using simt::CritVerdict;
  EXPECT_EQ(simt::classify_bottleneck(make_attr(90, 5, 5, 0, 0, 0, 0)),
            CritVerdict::kComputeBound);
  EXPECT_EQ(simt::classify_bottleneck(make_attr(50, 5, 40, 0, 0, 5, 0)),
            CritVerdict::kLaunchBound);
  EXPECT_EQ(simt::classify_bottleneck(make_attr(60, 30, 5, 0, 0, 5, 0)),
            CritVerdict::kImbalanceBound);
  EXPECT_EQ(simt::classify_bottleneck(make_attr(60, 5, 5, 10, 20, 0, 0)),
            CritVerdict::kDependencyBound);
  // Launch wins ties against dependency when both clear their thresholds.
  EXPECT_EQ(simt::classify_bottleneck(make_attr(30, 0, 40, 0, 30, 0, 0)),
            CritVerdict::kLaunchBound);
  // Empty attribution is compute-bound by convention.
  EXPECT_EQ(simt::classify_bottleneck(simt::CritAttribution{}),
            CritVerdict::kComputeBound);
}

TEST(CritVerdict, TemplateRollupUsesMiddleSegment) {
  std::map<std::string, simt::CritAttribution> per_kernel;
  per_kernel["sssp/baseline/main"] = make_attr(10, 0, 0, 0, 0, 0, 0);
  per_kernel["sssp/baseline/relax"] = make_attr(5, 0, 0, 0, 0, 0, 0);
  per_kernel["sssp/dpar-naive/main"] = make_attr(1, 0, 9, 0, 0, 0, 0);
  per_kernel["flat"] = make_attr(2, 0, 0, 0, 0, 0, 0);
  const auto by_tmpl = simt::attribution_by_template(per_kernel);
  ASSERT_EQ(by_tmpl.size(), 3u);
  EXPECT_DOUBLE_EQ(by_tmpl.at("baseline").total(), 15.0);
  EXPECT_DOUBLE_EQ(by_tmpl.at("dpar-naive").total(), 10.0);
  EXPECT_DOUBLE_EQ(by_tmpl.at("flat").total(), 2.0);
}

// ---------------------------------------------------------------------------
// Engine determinism: the recovered chain is a pure function of the graph.

TEST(CritPathDeterminism, EnginesRecoverIdenticalChains) {
  const graph::Csr g = graph::generate_citeseer_like(0.05, 20150707, true);
  auto run = [&](const simt::ExecPolicy& policy) {
    simt::Device dev;
    simt::Session session = dev.session(policy);
    apps::run_sssp(dev, g, 0, nested::LoopTemplate::kDualQueue);
    return session.report();
  };
  const simt::RunReport serial = run(simt::ExecPolicy::serial());
  const simt::RunReport parallel =
      run(simt::ExecPolicy{simt::ExecMode::kParallel, 4});

  const simt::CritPath& a = serial.critical_path;
  const simt::CritPath& b = parallel.critical_path;
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.chain.size(), b.chain.size());
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    EXPECT_EQ(a.chain[i].node, b.chain[i].node) << i;
    EXPECT_EQ(a.chain[i].category, b.chain[i].category) << i;
    EXPECT_DOUBLE_EQ(a.chain[i].begin, b.chain[i].begin) << i;
    EXPECT_DOUBLE_EQ(a.chain[i].cycles, b.chain[i].cycles) << i;
    EXPECT_EQ(a.chain[i].kernel, b.chain[i].kernel) << i;
  }
  EXPECT_EQ(a.folded, b.folded);
}

// ---------------------------------------------------------------------------
// Checked-in baselines: the invariant holds on every profile we ship, and
// the Table-1 verdicts of the paper are reproduced from the fig5 profile.

TEST(CritPathBaselines, AttributionSumsToMakespanOnAllSuites) {
  const std::filesystem::path dir = NESTPAR_BASELINE_DIR;
  int seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string stem = entry.path().filename().string();
    if (stem.rfind("PROF_", 0) != 0) continue;
    SCOPED_TRACE(stem);
    const bench::SuiteProfile p = bench::load_profile_file(entry.path());
    ++seen;
    // A profile accumulates one attribution per observed report; the grand
    // total must equal the sum of makespans the profile saw.
    EXPECT_LT(rel_err(p.prof.crit_total.total(), p.prof.total_cycles), 1e-6);
    simt::CritAttribution per_kernel_sum;
    for (const auto& [name, attr] : p.prof.crit_kernels) {
      per_kernel_sum += attr;
    }
    EXPECT_LT(rel_err(per_kernel_sum.total(), p.prof.total_cycles), 1e-6);
  }
  EXPECT_GE(seen, 16);
}

TEST(CritPathBaselines, Fig5VerdictsMatchTableOne) {
  const std::filesystem::path path =
      std::filesystem::path(NESTPAR_BASELINE_DIR) / "PROF_fig5_sssp.json";
  const bench::SuiteProfile p = bench::load_profile_file(path);
  const auto by_tmpl = simt::attribution_by_template(p.prof.crit_kernels);
  ASSERT_TRUE(by_tmpl.count("dpar-naive"));
  ASSERT_TRUE(by_tmpl.count("baseline"));
  EXPECT_EQ(simt::classify_bottleneck(by_tmpl.at("dpar-naive")),
            simt::CritVerdict::kLaunchBound);
  EXPECT_EQ(simt::classify_bottleneck(by_tmpl.at("baseline")),
            simt::CritVerdict::kImbalanceBound);
}

}  // namespace
