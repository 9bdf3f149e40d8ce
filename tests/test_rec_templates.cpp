// Correctness of the recursive parallelization templates (flat, rec-naive,
// rec-hier) on tree descendants / tree heights across tree shapes (TEST_P),
// plus the structural properties the paper's profiling tables report
// (nested-launch counts, atomic counts) and the recursive BFS variants.
#include <gtest/gtest.h>

#include "src/apps/bfs.h"
#include "src/graph/generators.h"
#include "src/rec/tree_traversal.h"
#include "src/tree/tree.h"
#include "tests/session.h"

namespace simt = nestpar::simt;
namespace rec = nestpar::rec;
namespace tree = nestpar::tree;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace test = nestpar::test;

using rec::RecTemplate;
using rec::TreeAlgo;

namespace {

struct Case {
  TreeAlgo algo;
  RecTemplate tmpl;
  tree::TreeParams shape;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string s = std::string(rec::name(info.param.algo)) + "_" +
                  std::string(rec::name(info.param.tmpl)) + "_d" +
                  std::to_string(info.param.shape.depth) + "_o" +
                  std::to_string(info.param.shape.outdegree) + "_s" +
                  std::to_string(info.param.shape.sparsity);
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const tree::TreeParams shapes[] = {
      {.depth = 0, .outdegree = 4, .sparsity = 0},
      {.depth = 1, .outdegree = 6, .sparsity = 0},
      {.depth = 3, .outdegree = 5, .sparsity = 0},
      {.depth = 4, .outdegree = 4, .sparsity = 0},
      {.depth = 4, .outdegree = 6, .sparsity = 2},
      {.depth = 6, .outdegree = 3, .sparsity = 1},
  };
  for (TreeAlgo a : {TreeAlgo::kDescendants, TreeAlgo::kHeights}) {
    for (RecTemplate t :
         {RecTemplate::kFlat, RecTemplate::kRecNaive, RecTemplate::kRecHier,
          RecTemplate::kAutoropes}) {
      for (const auto& s : shapes) {
        cases.push_back(Case{a, t, s});
      }
    }
  }
  return cases;
}

class RecCorrectness : public testing::TestWithParam<Case> {};

TEST_P(RecCorrectness, MatchesSerialReference) {
  const tree::Tree tr = tree::generate_tree(GetParam().shape, 1234);
  const auto expect =
      rec::tree_traversal_serial_recursive(tr, GetParam().algo);
  // Both serial forms must agree with each other.
  EXPECT_EQ(rec::tree_traversal_serial_iterative(tr, GetParam().algo), expect);

  simt::Device dev;
  const auto got = rec::run_tree_traversal(
      dev, tr, {.algo = GetParam().algo, .tmpl = GetParam().tmpl});
  EXPECT_EQ(got.values, expect);
}

INSTANTIATE_TEST_SUITE_P(AllRecTemplates, RecCorrectness,
                         testing::ValuesIn(all_cases()), case_name);

// --- Structural properties matching the paper's profiling tables -------------

TEST(RecStructure, DescendantsOfRegularTreeKnownValues) {
  // depth 2, outdegree 3: root subtree = 13, mid = 4, leaf = 1.
  const tree::Tree tr = tree::generate_tree({.depth = 2, .outdegree = 3}, 0);
  const auto v = rec::tree_traversal_serial_recursive(
      tr, TreeAlgo::kDescendants);
  EXPECT_EQ(v[0], 13u);
  EXPECT_EQ(v[1], 4u);
  EXPECT_EQ(v[12], 1u);
}

TEST(RecStructure, HeightsOfRegularTreeKnownValues) {
  const tree::Tree tr = tree::generate_tree({.depth = 2, .outdegree = 3}, 0);
  const auto v = rec::tree_traversal_serial_recursive(tr, TreeAlgo::kHeights);
  EXPECT_EQ(v[0], 3u);
  EXPECT_EQ(v[1], 2u);
  EXPECT_EQ(v[12], 1u);
}

TEST(RecStructure, HierSpawnsOutdegreePlusOneGrids) {
  // Paper Fig. 7(c): KCalls for rec-hier on its depth-4 (= 4-level, i.e.
  // generator depth 3) regular tree is d+1: the host-launched root grid plus
  // one nested grid per root child.
  const int d = 8;
  const tree::Tree tr = tree::generate_tree({.depth = 3, .outdegree = d}, 2);
  simt::Device dev;
  simt::Session s = dev.session();
  rec::run_tree_traversal(
      dev, tr, {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kRecHier});
  const auto rep = s.report();
  EXPECT_EQ(rep.device_grids, static_cast<std::uint64_t>(d));
}

TEST(RecStructure, HierGridCountGrowsOneLevelPerExtraDepth) {
  // A 5-level regular tree adds one recursion tier: d + d^2 nested grids.
  const int d = 4;
  const tree::Tree tr = tree::generate_tree({.depth = 4, .outdegree = d}, 2);
  simt::Device dev;
  simt::Session s = dev.session();
  rec::run_tree_traversal(
      dev, tr, {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kRecHier});
  EXPECT_EQ(s.report().device_grids, static_cast<std::uint64_t>(d + d * d));
}

TEST(RecStructure, NaiveSpawnsOneGridPerInternalNode) {
  // Paper Fig. 7(c): KCalls for rec-naive ~ the number of internal nodes.
  const int d = 6;
  const tree::Tree tr = tree::generate_tree({.depth = 3, .outdegree = d}, 2);
  std::uint64_t internal = 0;
  for (std::uint32_t v = 0; v < tr.num_nodes(); ++v) {
    if (tr.num_children(v) != 0) ++internal;
  }
  simt::Device dev;
  simt::Session s = dev.session();
  rec::run_tree_traversal(
      dev, tr,
      {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kRecNaive});
  const auto rep = s.report();
  // Every internal node except the (host-launched) root spawns one grid.
  EXPECT_EQ(rep.device_grids, internal - 1);
}

TEST(RecStructure, FlatDoesFarMoreAtomicsThanHier) {
  // Paper Figs. 7/8(c): flat atomics ~ sum of node depths; hier ~ #nodes.
  const tree::Tree tr = tree::generate_tree({.depth = 4, .outdegree = 8}, 3);
  simt::Device dev;
  const auto flat_atomics = test::timed(dev, [&] {
    rec::run_tree_traversal(
        dev, tr, {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kFlat});
  }).aggregate.atomic_ops;
  const auto hier_atomics = test::timed(dev, [&] {
    rec::run_tree_traversal(dev, tr,
                            {.algo = TreeAlgo::kDescendants,
                             .tmpl = RecTemplate::kRecHier});
  }).aggregate.atomic_ops;
  EXPECT_GT(flat_atomics, 3 * hier_atomics);
}

TEST(RecStructure, StreamsOptionChangesStreamAssignment) {
  struct Outcome {
    std::vector<std::uint32_t> values;
    std::uint32_t streams;
    double cycles;
  };
  const auto run = [](const tree::Tree& tr, int streams_per_block) {
    simt::Device dev;
    simt::Session s = dev.session();
    rec::RecOptions opt;
    opt.streams_per_block = streams_per_block;
    rec::TreeRunResult r = rec::run_tree_traversal(
        dev, tr,
        {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kRecNaive,
         .opt = opt});
    return Outcome{std::move(r.values), dev.graph().num_streams,
                   s.report().total_cycles};
  };
  const tree::Tree tr = tree::generate_tree({.depth = 3, .outdegree = 6}, 4);
  const Outcome one = run(tr, 1);
  const Outcome two = run(tr, 2);
  EXPECT_EQ(one.values, two.values);  // Streams change timing, never results.
  EXPECT_GT(two.streams, one.streams);
  // On this tree two streams happen to give exactly the one-stream cycles;
  // on the tree_streams smoke tree (outdegree 16) the extra stream lets
  // sibling children overlap.
  const tree::Tree wide = tree::generate_tree(
      {.depth = 2, .outdegree = 16, .sparsity = 0}, 20150707);
  EXPECT_LT(run(wide, 2).cycles, run(wide, 1).cycles);
}

TEST(RecStructure, RejectsBadOptions) {
  const tree::Tree tr = tree::generate_tree({.depth = 1, .outdegree = 2}, 0);
  simt::Device dev;
  rec::RecOptions bad;
  bad.streams_per_block = 0;
  EXPECT_THROW(
      rec::run_tree_traversal(
          dev, tr,
          {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kRecNaive,
           .opt = bad}),
      std::invalid_argument);
}

TEST(RecStructure, AutoropesUsesNoAtomicsOrNestedKernels) {
  const tree::Tree tr = tree::generate_tree({.depth = 3, .outdegree = 24}, 6);
  simt::Device dev;
  simt::Session s = dev.session();
  rec::run_tree_traversal(
      dev, tr,
      {.algo = TreeAlgo::kDescendants, .tmpl = RecTemplate::kAutoropes});
  const auto rep = s.report();
  EXPECT_EQ(rep.aggregate.atomic_ops, 0u);
  EXPECT_EQ(rep.device_grids, 0u);
}

TEST(RecStructure, AutoropesHandlesDegenerateTrees) {
  // Single node and a path-like (outdegree 1) tree.
  for (const tree::TreeParams shape :
       {tree::TreeParams{.depth = 0, .outdegree = 3},
        tree::TreeParams{.depth = 10, .outdegree = 1}}) {
    const tree::Tree tr = tree::generate_tree(shape, 0);
    const auto want =
        rec::tree_traversal_serial_iterative(tr, TreeAlgo::kHeights);
    simt::Device dev;
    EXPECT_EQ(rec::run_tree_traversal(
                  dev, tr,
                  {.algo = TreeAlgo::kHeights,
                   .tmpl = RecTemplate::kAutoropes})
                  .values,
              want);
  }
}

// --- Recursive BFS -------------------------------------------------------------

class BfsCorrectness : public testing::TestWithParam<int> {};

TEST_P(BfsCorrectness, AllVariantsAgreeWithSerial) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const graph::Csr g = graph::generate_uniform_random(800, 0, 24, seed);
  const auto expect = apps::bfs_serial_iterative(g, 0);
  EXPECT_EQ(apps::bfs_serial_recursive(g, 0), expect);

  simt::Device dev;
  rec::RecOptions streams;
  streams.streams_per_block = 2;
  for (int run = 0; run < 4; ++run) {
    simt::Session s = dev.session();  // each variant records afresh
    const auto lv =
        run == 0 ? apps::bfs_flat_gpu(dev, g, 0)
        : run == 1 ? apps::bfs_recursive_gpu(dev, g, 0, RecTemplate::kRecNaive)
        : run == 2 ? apps::bfs_recursive_gpu(dev, g, 0, RecTemplate::kRecHier)
                   : apps::bfs_recursive_gpu(dev, g, 0, RecTemplate::kRecNaive,
                                             streams);
    EXPECT_EQ(lv, expect) << "run " << run;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsCorrectness, testing::Values(1, 2, 3, 4));

TEST(Bfs, DisconnectedNodesStayUnreached) {
  // Two components: 0->1, 2->3.
  const graph::Edge edges[] = {{0, 1, 1.f}, {2, 3, 1.f}};
  const graph::Csr g = graph::build_csr(4, edges);
  simt::Device dev;
  const auto lv = apps::bfs_flat_gpu(dev, g, 0);
  EXPECT_EQ(lv[0], 0u);
  EXPECT_EQ(lv[1], 1u);
  EXPECT_EQ(lv[2], apps::kBfsUnreached);
  EXPECT_EQ(lv[3], apps::kBfsUnreached);
}

TEST(Bfs, IsolatedSourceTerminates) {
  const graph::Csr g = graph::build_csr(3, std::span<const graph::Edge>{});
  simt::Device dev;
  for (auto run : {0, 1, 2}) {
    simt::Session s = dev.session();
    const auto lv = run == 0 ? apps::bfs_flat_gpu(dev, g, 1)
                   : run == 1
                       ? apps::bfs_recursive_gpu(dev, g, 1,
                                                 RecTemplate::kRecNaive)
                       : apps::bfs_recursive_gpu(dev, g, 1,
                                                 RecTemplate::kRecHier);
    EXPECT_EQ(lv[1], 0u);
    EXPECT_EQ(lv[0], apps::kBfsUnreached);
  }
}

TEST(Bfs, RecursiveVariantsSpawnManyGrids) {
  const graph::Csr g = graph::generate_uniform_random(500, 1, 16, 9);
  simt::Device dev;
  const auto naive = test::timed(dev, [&] {
    apps::bfs_recursive_gpu(dev, g, 0, RecTemplate::kRecNaive);
  });
  EXPECT_GT(naive.device_grids, 100u);  // ~ one grid per reached node.
  const auto flat =
      test::timed(dev, [&] { apps::bfs_flat_gpu(dev, g, 0); });
  EXPECT_EQ(flat.device_grids, 0u);
  EXPECT_EQ(flat.aggregate.atomic_ops, 0u);  // The paper's key contrast.
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const graph::Csr g = graph::build_csr(2, std::span<const graph::Edge>{});
  simt::Device dev;
  EXPECT_THROW(apps::bfs_flat_gpu(dev, g, 5), std::invalid_argument);
  EXPECT_THROW(
      apps::bfs_recursive_gpu(dev, g, 5, RecTemplate::kRecNaive),
      std::invalid_argument);
  // Only rec-naive and rec-hier have a recursive BFS; every other template
  // is refused, even for a source with no edges.
  for (const RecTemplate t : {RecTemplate::kFlat, RecTemplate::kAutoropes,
                              RecTemplate::kRecCons}) {
    SCOPED_TRACE(rec::name(t));
    EXPECT_THROW(apps::bfs_recursive_gpu(dev, g, 0, t),
                 std::invalid_argument);
  }
}

}  // namespace
