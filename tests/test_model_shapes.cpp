// Regression tests for the *shapes* the reproduction must preserve (see
// DESIGN.md §5). Each test pins one qualitative finding of the paper on a
// small input, so a model change that breaks a headline conclusion fails
// loudly here rather than silently in a bench table.
#include <gtest/gtest.h>

#include "src/apps/bfs.h"
#include "src/apps/spmv.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"
#include "src/rec/tree_traversal.h"
#include "src/sort/sort.h"
#include "src/tree/tree.h"
#include "tests/session.h"

namespace simt = nestpar::simt;
namespace nested = nestpar::nested;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace matrix = nestpar::matrix;
namespace rec = nestpar::rec;
namespace tree = nestpar::tree;
namespace sort = nestpar::sort;
namespace test = nestpar::test;

using nested::LoopTemplate;
using rec::RecTemplate;
using rec::TreeAlgo;

namespace {

class ModelShapes : public testing::Test {
 protected:
  static double spmv_us(const matrix::CsrMatrix& m,
                        const std::vector<float>& x, LoopTemplate t,
                        int lb = 32) {
    simt::Device dev;
    simt::Session s = dev.session();
    nested::LoopParams p;
    p.lb_threshold = lb;
    apps::run_spmv(dev, m, x, t, p);
    return s.report().total_us;
  }
};

TEST_F(ModelShapes, LoadBalancingBeatsBaselineOnSkewedInput) {
  // Paper: 2-6x for LB templates on irregular nested loops.
  const auto g = graph::generate_citeseer_like(0.02, 1, true);
  const auto m = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(m.cols, 2);
  const double base = spmv_us(m, x, LoopTemplate::kBaseline);
  for (LoopTemplate t : {LoopTemplate::kDualQueue, LoopTemplate::kDbufShared,
                         LoopTemplate::kDbufGlobal, LoopTemplate::kDparOpt}) {
    EXPECT_GT(base / spmv_us(m, x, t), 1.1) << nested::name(t);
  }
}

TEST_F(ModelShapes, DparNaiveIsSlowerThanBaseline) {
  const auto g = graph::generate_citeseer_like(0.02, 1, true);
  const auto m = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(m.cols, 2);
  EXPECT_LT(spmv_us(m, x, LoopTemplate::kBaseline),
            spmv_us(m, x, LoopTemplate::kDparNaive));
}

TEST_F(ModelShapes, SpeedupDecreasesWithThreshold) {
  const auto g = graph::generate_citeseer_like(0.02, 1, true);
  const auto m = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(m.cols, 2);
  const double at32 = spmv_us(m, x, LoopTemplate::kDbufGlobal, 32);
  const double at1024 = spmv_us(m, x, LoopTemplate::kDbufGlobal, 1024);
  EXPECT_LT(at32, at1024);
}

TEST_F(ModelShapes, TemplatesDoNotHelpRegularInput) {
  // The paper's motivation: load balancing targets *irregular* loops.
  const auto g = graph::generate_regular(8000, 30, 3, true);
  const auto m = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(m.cols, 2);
  const double base = spmv_us(m, x, LoopTemplate::kBaseline);
  const double lb = spmv_us(m, x, LoopTemplate::kDbufGlobal);
  EXPECT_GT(base / lb, 0.5);
  EXPECT_LT(base / lb, 1.3);  // ...but the gain must be marginal at best.
}

TEST_F(ModelShapes, RecHierBeatsFlatOnWideRegularTrees) {
  const tree::Tree tr =
      tree::generate_tree({.depth = 3, .outdegree = 96, .sparsity = 0}, 2);
  simt::Device dev;
  const double flat = test::timed(dev, [&] {
    rec::run_tree_traversal(
        dev, tr, {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kFlat});
  }).total_us;
  const double hier = test::timed(dev, [&] {
    rec::run_tree_traversal(dev, tr,
                            {.algo = TreeAlgo::kDescendants,
                             .tmpl = RecTemplate::kRecHier});
  }).total_us;
  EXPECT_LT(hier, flat);
}

TEST_F(ModelShapes, RecNaiveLosesToSerialCpuOnTrees) {
  const tree::Tree tr =
      tree::generate_tree({.depth = 3, .outdegree = 32, .sparsity = 0}, 2);
  simt::CpuTimer cpu;
  rec::tree_traversal_serial_iterative(tr, TreeAlgo::kDescendants, &cpu);
  simt::Device dev;
  simt::Session s = dev.session();
  rec::run_tree_traversal(
      dev, tr,
      {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kRecNaive});
  EXPECT_GT(s.report().total_us, cpu.us());
}

TEST_F(ModelShapes, SparsityErodesRecHierAdvantage) {
  // Paper Fig. 7(b): hier's warp utilization (and win) decays with sparsity.
  const tree::Tree dense =
      tree::generate_tree({.depth = 3, .outdegree = 96, .sparsity = 0}, 2);
  const tree::Tree sparse =
      tree::generate_tree({.depth = 3, .outdegree = 96, .sparsity = 3}, 2);
  const auto hier_eff = [](const tree::Tree& tr) {
    simt::Device dev;
    simt::Session s = dev.session();
    rec::run_tree_traversal(
        dev, tr,
        {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kRecHier});
    return s.report().aggregate.warp_execution_efficiency();
  };
  EXPECT_GT(hier_eff(dense), hier_eff(sparse));
}

TEST_F(ModelShapes, RecursiveBfsIsCatastrophicallySlowerThanFlat) {
  const auto g = graph::generate_uniform_random(3000, 0, 32, 5);
  simt::Device dev;
  const double flat =
      test::timed(dev, [&] { apps::bfs_flat_gpu(dev, g, 0); }).total_us;
  const double naive = test::timed(dev, [&] {
    apps::bfs_recursive_gpu(dev, g, 0, RecTemplate::kRecNaive);
  }).total_us;
  EXPECT_GT(naive, flat * 50);  // Paper: orders of magnitude.
}

TEST_F(ModelShapes, ExtraStreamHelpsNaiveBfs) {
  const auto g = graph::generate_uniform_random(3000, 0, 32, 5);
  const auto run = [&](int streams) {
    simt::Device dev;
    simt::Session s = dev.session();
    rec::RecOptions opt;
    opt.streams_per_block = streams;
    apps::bfs_recursive_gpu(dev, g, 0, RecTemplate::kRecNaive, opt);
    return s.report().total_us;
  };
  EXPECT_LT(run(2), run(1) * 1.05);  // At worst neutral, typically faster.
}

TEST_F(ModelShapes, RecursiveCpuBfsBeatsIterativeCpu) {
  // Paper: 1.25-3.3x depending on graph size.
  const auto g = graph::generate_uniform_random(20000, 0, 64, 5);
  simt::CpuTimer it, rc;
  apps::bfs_serial_iterative(g, 0, &it);
  apps::bfs_serial_recursive(g, 0, &rc);
  const double ratio = it.us() / rc.us();
  EXPECT_GT(ratio, 1.1);
  EXPECT_LT(ratio, 6.0);
}

TEST_F(ModelShapes, MergeSortBeatsBothCdpQuicksorts) {
  const std::size_t n = 50000;
  const auto run = [&](int algo) {
    auto keys = sort::make_keys(n, 11);
    simt::Device dev;
    simt::Session s = dev.session();
    if (algo == 0) sort::mergesort(dev, keys);
    if (algo == 1) sort::advanced_quicksort(dev, keys);
    if (algo == 2) sort::simple_quicksort(dev, keys);
    return s.report().total_us;
  };
  const double merge = run(0), advanced = run(1), simple = run(2);
  EXPECT_LT(merge, advanced);
  EXPECT_LT(advanced, simple);
}

TEST_F(ModelShapes, SpfaMatchesDijkstra) {
  const auto g = graph::generate_power_law(3000, 1, 200, 12.0, 9, true);
  const auto a = apps::sssp_serial(g, 0);
  const auto b = apps::sssp_serial_dijkstra(g, 0);
  EXPECT_EQ(a, b);
}

TEST_F(ModelShapes, GmuSerializesMassiveFanout) {
  // Device-launch service makes 1000 nested grids slower than 1000x the
  // work in one grid — the dpar-naive mechanism.
  simt::Device dev;
  simt::LaunchConfig parent;
  parent.grid_blocks = 8;
  parent.block_threads = 128;
  parent.name = "parent";
  const double fanout = test::timed(dev, [&] {
    dev.launch_threads(parent, [](simt::LaneCtx& t) {
      simt::LaunchConfig child;
      child.grid_blocks = 1;
      child.block_threads = 32;
      child.name = "child";
      EXPECT_TRUE(t.launch(
          child, simt::as_kernel([](simt::LaneCtx& c) { c.compute(4); })));
    });
  }).total_us;
  simt::LaunchConfig fused;
  fused.grid_blocks = 8 * 128;
  fused.block_threads = 32;
  fused.name = "fused";
  const double flat = test::timed(dev, [&] {
    dev.launch_threads(fused, [](simt::LaneCtx& t) { t.compute(4); });
  }).total_us;
  EXPECT_GT(fanout, flat * 10);
}

TEST_F(ModelShapes, PendingPoolOverflowEscalatesCost) {
  const auto run = [](int pool) {
    simt::DeviceSpec spec = simt::DeviceSpec::k20();
    spec.pending_launch_pool = pool;
    simt::Device dev(spec);
    simt::Session s = dev.session();
    simt::LaunchConfig parent;
    parent.grid_blocks = 26;
    parent.block_threads = 192;
    parent.name = "parent";
    dev.launch_threads(parent, [](simt::LaneCtx& t) {
      simt::LaunchConfig child;
      child.grid_blocks = 1;
      child.block_threads = 32;
      child.name = "child";
      EXPECT_TRUE(t.launch_async(
          child, simt::as_kernel([](simt::LaneCtx& c) { c.compute(1); })));
    });
    return s.report().total_us;
  };
  EXPECT_GT(run(64), run(1 << 20) * 2);
}

TEST_F(ModelShapes, LognormalGeneratorCalibrated) {
  const auto g = graph::generate_lognormal(40000, 1, 1188, 73.9, 0.7, 3);
  const auto s = graph::degree_stats(g);
  EXPECT_NEAR(s.mean_degree, 73.9, 73.9 * 0.1);
  EXPECT_LE(s.max_degree, 1188u);
  EXPECT_GE(s.min_degree, 1u);
  EXPECT_THROW(graph::generate_lognormal(10, 1, 10, 20.0, 0.7, 3),
               std::invalid_argument);
  EXPECT_THROW(graph::generate_lognormal(10, 1, 10, 5.0, -1.0, 3),
               std::invalid_argument);
}

}  // namespace
