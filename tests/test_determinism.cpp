// Engine determinism: the parallel host engine must be functionally and
// *temporally* indistinguishable from the serial engine — identical result
// arrays bit for bit, identical modeled cycle counts, identical metrics,
// identical launch-graph shape — for every app, including the ones whose
// lanes race on atomics and branch on who won (BC, recursive BFS, CC). Every
// suite here is named *Determinism* so the tsan CMake preset can select
// exactly these tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/apps/bc.h"
#include "src/apps/bfs.h"
#include "src/apps/cc.h"
#include "src/apps/kcore.h"
#include "src/apps/pagerank.h"
#include "src/apps/spmv.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"
#include "src/rec/tree_traversal.h"
#include "src/simt/device.h"
#include "src/simt/exec_policy.h"
#include "src/simt/thread_pool.h"
#include "src/tree/tree.h"

namespace simt = nestpar::simt;
namespace nested = nestpar::nested;
namespace rec = nestpar::rec;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace matrix = nestpar::matrix;
namespace tree = nestpar::tree;

namespace {

// Exact equality on every field of the report, doubles included: the
// parallel engine folds reduced warps back in warp order, so even
// floating-point cycle sums must come out bit-identical, not merely close.
void expect_identical(const simt::RunReport& s, const simt::RunReport& p) {
  EXPECT_EQ(s.total_cycles, p.total_cycles);
  EXPECT_EQ(s.total_us, p.total_us);
  EXPECT_EQ(s.grids, p.grids);
  EXPECT_EQ(s.device_grids, p.device_grids);

  const auto same_robustness = [](const simt::RobustnessCounters& a,
                                  const simt::RobustnessCounters& b,
                                  const std::string& where) {
    EXPECT_EQ(a.launches_attempted, b.launches_attempted) << where;
    EXPECT_EQ(a.refused_pool, b.refused_pool) << where;
    EXPECT_EQ(a.refused_depth, b.refused_depth) << where;
    EXPECT_EQ(a.refused_heap, b.refused_heap) << where;
    EXPECT_EQ(a.faults_injected, b.faults_injected) << where;
    EXPECT_EQ(a.retries, b.retries) << where;
    EXPECT_EQ(a.degraded, b.degraded) << where;
  };
  same_robustness(s.robustness, p.robustness, "report robustness");

  const auto same_metrics = [&](const simt::Metrics& a, const simt::Metrics& b,
                                const std::string& where) {
    EXPECT_EQ(a.warp_steps, b.warp_steps) << where;
    EXPECT_EQ(a.active_lane_ops, b.active_lane_ops) << where;
    EXPECT_EQ(a.gld_requested_bytes, b.gld_requested_bytes) << where;
    EXPECT_EQ(a.gld_transferred_bytes, b.gld_transferred_bytes) << where;
    EXPECT_EQ(a.gst_requested_bytes, b.gst_requested_bytes) << where;
    EXPECT_EQ(a.gst_transferred_bytes, b.gst_transferred_bytes) << where;
    EXPECT_EQ(a.atomic_ops, b.atomic_ops) << where;
    EXPECT_EQ(a.shared_ops, b.shared_ops) << where;
    EXPECT_EQ(a.compute_ops, b.compute_ops) << where;
    EXPECT_EQ(a.host_launches, b.host_launches) << where;
    EXPECT_EQ(a.device_launches, b.device_launches) << where;
    EXPECT_EQ(a.blocks, b.blocks) << where;
    EXPECT_EQ(a.warps, b.warps) << where;
    EXPECT_EQ(a.resident_warp_cycles, b.resident_warp_cycles) << where;
    EXPECT_EQ(a.sm_active_cycles, b.sm_active_cycles) << where;
    same_robustness(a.robustness, b.robustness, where + " robustness");
  };
  same_metrics(s.aggregate, p.aggregate, "aggregate");

  ASSERT_EQ(s.per_kernel.size(), p.per_kernel.size());
  for (std::size_t i = 0; i < s.per_kernel.size(); ++i) {
    EXPECT_EQ(s.per_kernel[i].name, p.per_kernel[i].name);
    EXPECT_EQ(s.per_kernel[i].invocations, p.per_kernel[i].invocations);
    EXPECT_EQ(s.per_kernel[i].busy_cycles, p.per_kernel[i].busy_cycles);
    same_metrics(s.per_kernel[i].metrics, p.per_kernel[i].metrics,
                 "kernel " + s.per_kernel[i].name);
  }
}

// Node-by-node equality of two launch graphs: the same hottest-address
// count, per-block costs and child lists for every grid, whichever thread
// reduced each warp.
void expect_same_graph(const simt::LaunchGraph& s, const simt::LaunchGraph& p) {
  ASSERT_EQ(s.nodes.size(), p.nodes.size());
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    const simt::KernelNode& a = s.nodes[i];
    const simt::KernelNode& b = p.nodes[i];
    const std::string where = "node " + std::to_string(i) + " " + a.name;
    EXPECT_EQ(a.name, b.name) << where;
    EXPECT_EQ(a.parent_kernel, b.parent_kernel) << where;
    EXPECT_EQ(a.parent_block, b.parent_block) << where;
    EXPECT_EQ(a.stream, b.stream) << where;
    EXPECT_EQ(a.seq, b.seq) << where;
    EXPECT_EQ(a.hottest_atomic_ops, b.hottest_atomic_ops) << where;
    ASSERT_EQ(a.blocks.size(), b.blocks.size()) << where;
    for (std::size_t k = 0; k < a.blocks.size(); ++k) {
      const simt::BlockCost& x = a.blocks[k];
      const simt::BlockCost& y = b.blocks[k];
      EXPECT_EQ(x.issue_cycles, y.issue_cycles) << where << " block " << k;
      ASSERT_EQ(x.children.size(), y.children.size())
          << where << " block " << k;
      for (std::size_t c = 0; c < x.children.size(); ++c) {
        EXPECT_EQ(x.children[c].child_kernel, y.children[c].child_kernel)
            << where << " block " << k << " child " << c;
        EXPECT_EQ(x.children[c].issue_fraction, y.children[c].issue_fraction)
            << where << " block " << k << " child " << c;
      }
    }
  }
}

constexpr simt::ExecPolicy kParallel{simt::ExecMode::kParallel, 4};

graph::Csr skewed_graph() {
  // Power-law outdegrees make block runtimes uneven, so the pool's dynamic
  // chunk claiming actually interleaves blocks across threads — the setting
  // where a nondeterministic engine would get caught.
  return graph::generate_power_law(1500, 0, 300, 6.0, 20150707, true);
}

std::uint32_t first_source(const graph::Csr& g) {
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    if (g.row_offsets[v + 1] > g.row_offsets[v]) return v;
  }
  return 0;
}

// Runs `app(dev)` in one session per engine; its return values and the
// full reports must match exactly.
template <class App>
void expect_engines_agree(const App& app) {
  simt::Device dev;
  const auto run = [&](const simt::ExecPolicy& policy) {
    simt::Session session = dev.session(policy);
    auto values = app(dev);
    return std::pair{std::move(values), session.report()};
  };
  const auto [vs, rs] = run(simt::ExecPolicy::serial());
  const auto [vp, rp] = run(kParallel);
  EXPECT_EQ(vs, vp);  // bitwise-equal floats
  expect_identical(rs, rp);
}

// Symmetric with sorted adjacency, as CC and k-core require.
graph::Csr small_symmetric_graph() {
  return graph::symmetrize(
      graph::generate_power_law(500, 1, 80, 5.0, 20150707, false));
}

// --- nested-loop templates -----------------------------------------------------

class LoopDeterminism : public testing::TestWithParam<nested::LoopTemplate> {};

TEST_P(LoopDeterminism, SsspMatchesSerialEngineExactly) {
  const graph::Csr g = skewed_graph();
  const std::uint32_t src = first_source(g);
  nested::LoopParams p;
  p.lb_threshold = 32;

  simt::Device dev;

  apps::SsspResult a, b;
  simt::RunReport ra, rb;
  {
    simt::Session session = dev.session(simt::ExecPolicy::serial());
    a = apps::run_sssp(dev, g, src, GetParam(), p);
    ra = session.report();
  }
  {
    simt::Session session = dev.session(kParallel);
    b = apps::run_sssp(dev, g, src, GetParam(), p);
    rb = session.report();
  }

  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.dist.size(), b.dist.size());
  EXPECT_EQ(a.dist, b.dist);  // bitwise-equal floats
  expect_identical(ra, rb);
}

TEST_P(LoopDeterminism, SpmvBundledRunMatches) {
  const auto g = graph::generate_power_law(900, 0, 200, 5.0, 42, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 7);

  simt::Device dev;
  std::vector<float> ys(a.rows, 0.0f), yp(a.rows, 0.0f);
  apps::SpmvWorkload ws(a, x.data(), ys.data());
  apps::SpmvWorkload wp(a, x.data(), yp.data());
  nested::LoopParams p;
  p.lb_threshold = 16;
  const nested::RunResult rs = nested::run_nested_loop(
      dev, ws,
      nested::LoopRun{GetParam(), p, simt::ExecPolicy::serial()});
  const nested::RunResult rp = nested::run_nested_loop(
      dev, wp, nested::LoopRun{GetParam(), p, kParallel});

  EXPECT_EQ(ys, yp);
  expect_identical(rs.report, rp.report);
}

// Lanes claim nodes with atomic_cas and accumulate path counts with
// atomic_add, then branch on the old values.
TEST_P(LoopDeterminism, BcMatchesSerialEngineExactly) {
  const graph::Csr g =
      graph::generate_power_law(500, 0, 100, 5.0, 20150707, true);
  nested::LoopParams p;
  p.lb_threshold = 32;
  expect_engines_agree([&](simt::Device& dev) {
    return apps::run_bc(dev, g, GetParam(), p, apps::BcOptions{6});
  });
}

TEST_P(LoopDeterminism, PageRankMatchesSerialEngineExactly) {
  const graph::Csr g =
      graph::generate_power_law(500, 0, 100, 5.0, 20150707, true);
  nested::LoopParams p;
  p.lb_threshold = 32;
  apps::PageRankOptions opt;
  opt.iterations = 3;
  expect_engines_agree([&](simt::Device& dev) {
    return apps::run_pagerank(dev, g, GetParam(), p, opt);
  });
}

// Min-label propagation: atomic_min, then a branch on whether it lowered.
TEST_P(LoopDeterminism, CcMatchesSerialEngineExactly) {
  const graph::Csr g = small_symmetric_graph();
  nested::LoopParams p;
  p.lb_threshold = 32;
  expect_engines_agree([&](simt::Device& dev) {
    return apps::run_cc(dev, g, GetParam(), p);
  });
}

TEST_P(LoopDeterminism, KcoreMatchesSerialEngineExactly) {
  const graph::Csr g = small_symmetric_graph();
  nested::LoopParams p;
  p.lb_threshold = 32;
  expect_engines_agree([&](simt::Device& dev) {
    return apps::run_kcore(dev, g, GetParam(), p);
  });
}

// gtest parameter names must be identifiers; the canonical template names
// use dashes (e.g. "block-mapped"), so swap them for underscores here.
std::string test_name(std::string_view canonical) {
  std::string s(canonical);
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

std::vector<nested::LoopTemplate> all_loop_templates() {
  std::vector<nested::LoopTemplate> v;
  for (const nested::LoopTemplateDesc& d : nested::loop_templates()) {
    v.push_back(d.tmpl);
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, LoopDeterminism,
                         testing::ValuesIn(all_loop_templates()),
                         [](const auto& info) {
                           return test_name(nested::name(info.param));
                         });

// --- recursive templates -------------------------------------------------------

class RecDeterminism : public testing::TestWithParam<rec::RecTemplate> {};

TEST_P(RecDeterminism, TreeTraversalMatchesSerialEngineExactly) {
  const tree::Tree tr =
      tree::generate_tree({.depth = 3, .outdegree = 24, .sparsity = 1}, 99);
  for (const rec::TreeAlgo algo :
       {rec::TreeAlgo::kDescendants, rec::TreeAlgo::kHeights}) {
    simt::Device dev;
    const rec::TreeRunResult s = rec::run_tree_traversal(
        dev, tr,
        {.algo = algo, .tmpl = GetParam(),
         .policy = simt::ExecPolicy::serial()});
    const rec::TreeRunResult p = rec::run_tree_traversal(
        dev, tr, {.algo = algo, .tmpl = GetParam(), .policy = kParallel});
    EXPECT_EQ(s.values, p.values) << rec::name(algo);
    expect_identical(s.report, p.report);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, RecDeterminism,
                         testing::ValuesIn(rec::kAllRecTemplates),
                         [](const auto& info) {
                           return test_name(rec::name(info.param));
                         });

// Recursive BFS lanes atomic_min a neighbor's level and recurse or launch
// only when they lowered it, so who wins decides the launch graph.
graph::Csr bfs_graph() {
  return graph::generate_power_law(800, 1, 80, 4.0, 20150707, true);
}

class BfsDeterminism : public testing::TestWithParam<rec::RecTemplate> {};

TEST_P(BfsDeterminism, RecursiveBfsMatchesSerialEngineExactly) {
  const graph::Csr g = bfs_graph();
  expect_engines_agree([&](simt::Device& dev) {
    return apps::bfs_recursive_gpu(dev, g, first_source(g), GetParam());
  });
}

INSTANTIATE_TEST_SUITE_P(RecursiveTemplates, BfsDeterminism,
                         testing::Values(rec::RecTemplate::kRecNaive,
                                         rec::RecTemplate::kRecHier),
                         [](const auto& info) {
                           return test_name(rec::name(info.param));
                         });

// --- launch graphs, node by node -----------------------------------------------

// Launch-dense runs (one child grid per heavy row or tree node) exercise the
// per-grid recording path hardest: record recycling across thousands of
// grids, the serial engine's shared histogram, and launch-graph growth.
TEST(GraphDeterminism, DparNaiveSsspGraphMatchesNodeByNode) {
  const graph::Csr g = skewed_graph();
  const std::uint32_t src = first_source(g);
  nested::LoopParams params;
  params.lb_threshold = 32;

  simt::Device dev;
  const auto record = [&](const simt::ExecPolicy& policy) {
    simt::Session session = dev.session(policy);
    apps::run_sssp(dev, g, src, nested::LoopTemplate::kDparNaive, params);
    return dev.graph();
  };
  const simt::LaunchGraph s = record(simt::ExecPolicy::serial());
  const simt::LaunchGraph p = record(kParallel);
  EXPECT_GT(s.nodes.size(), 100u);  // Genuinely launch-dense.
  expect_same_graph(s, p);
}

TEST(GraphDeterminism, RecNaiveTreeTraversalGraphMatchesNodeByNode) {
  const tree::Tree tr =
      tree::generate_tree({.depth = 3, .outdegree = 24, .sparsity = 1}, 99);
  simt::Device dev;
  const auto record = [&](const simt::ExecPolicy& policy) {
    simt::Session session = dev.session(policy);
    // No policy: traverse inside the session opened above.
    rec::run_tree_traversal(
        dev, tr,
        rec::TreeRun{rec::TreeAlgo::kDescendants, rec::RecTemplate::kRecNaive,
                     {}, std::nullopt});
    return dev.graph();
  };
  const simt::LaunchGraph s = record(simt::ExecPolicy::serial());
  const simt::LaunchGraph p = record(kParallel);
  EXPECT_GT(s.nodes.size(), 100u);
  expect_same_graph(s, p);
}

TEST(GraphDeterminism, RecHierBfsGraphMatchesNodeByNode) {
  const graph::Csr g = bfs_graph();
  simt::Device dev;
  const auto record = [&](const simt::ExecPolicy& policy) {
    simt::Session session = dev.session(policy);
    apps::bfs_recursive_gpu(dev, g, first_source(g),
                            rec::RecTemplate::kRecHier);
    return dev.graph();
  };
  const simt::LaunchGraph s = record(simt::ExecPolicy::serial());
  const simt::LaunchGraph p = record(kParallel);
  EXPECT_GT(s.nodes.size(), 100u);
  expect_same_graph(s, p);
}

// A nested launch storm with a hand-checkable launch graph. Host grid "root"
// has two blocks of 64 threads. In each block, lane 0 launches a synchronous
// "mid" grid, whose lane 0 launches a synchronous "leaf" into extra stream
// slot 0 and then an async "late"; lane 33 (the second warp) launches an
// async "side" into slot 0. Block `throw_block`'s lane 40 then throws, after
// its launches (-1: no block throws).
void launch_storm(simt::Device& dev, int throw_block) {
  const auto cfg = [](const char* name, int blocks, int threads) {
    simt::LaunchConfig c;
    c.name = name;
    c.grid_blocks = blocks;
    c.block_threads = threads;
    return c;
  };
  const simt::Kernel idle = simt::as_kernel([](simt::LaneCtx& t) {
    t.compute(3);
  });
  dev.launch_threads(cfg("root", 2, 64), [&](simt::LaneCtx& t) {
    t.compute(1);
    if (t.thread_idx() == 0) {
      EXPECT_TRUE(t.launch_threads(cfg("mid", 1, 32), [&](simt::LaneCtx& m) {
        if (m.thread_idx() != 0) return;
        EXPECT_TRUE(m.launch(cfg("leaf", 1, 32), idle, /*slot=*/0));
        EXPECT_TRUE(m.launch_async(cfg("late", 1, 32), idle));
      }));
    }
    if (t.thread_idx() == 33) {
      EXPECT_TRUE(t.launch_async(cfg("side", 1, 32), idle, /*slot=*/0));
    }
    if (t.thread_idx() == 40 && t.block_idx() == throw_block) {
      throw std::runtime_error("storm kernel failed");
    }
  });
}

// One expected node of the storm's launch graph.
struct StormNode {
  const char* name;
  std::int64_t parent_kernel;
  std::int32_t parent_block;
  int slot;  ///< Extra-stream slot of the launch (-1: the default child one).
  std::vector<std::vector<std::uint32_t>> children;  ///< Per block.
};

// The DFS rule: ids follow creation order (block-major, then lane order,
// with a synchronous child's own launches numbered before the launching
// lane's next one), `seq` equals the id, and dense stream ids are interned
// in id order from (parent grid, parent block, slot), after the host
// grid's default stream 0.
void expect_dfs_graph(const simt::LaunchGraph& g,
                      const std::vector<StormNode>& want) {
  ASSERT_EQ(g.nodes.size(), want.size());
  std::map<std::tuple<std::int64_t, std::int32_t, int>, std::uint32_t> streams;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const simt::KernelNode& n = g.nodes[i];
    const StormNode& w = want[i];
    SCOPED_TRACE("node " + std::to_string(i) + " " + w.name);
    EXPECT_EQ(n.id, i);
    EXPECT_EQ(n.name, w.name);
    EXPECT_EQ(n.parent_kernel, w.parent_kernel);
    EXPECT_EQ(n.parent_block, w.parent_block);
    EXPECT_EQ(n.seq, i);
    std::uint32_t stream = 0;
    if (w.parent_kernel >= 0) {
      const auto key = std::make_tuple(w.parent_kernel, w.parent_block, w.slot);
      stream = streams
                   .try_emplace(key, static_cast<std::uint32_t>(
                                         streams.size() + 1))
                   .first->second;
    }
    EXPECT_EQ(n.stream, stream);
    ASSERT_EQ(n.blocks.size(), w.children.size());
    for (std::size_t b = 0; b < w.children.size(); ++b) {
      std::vector<std::uint32_t> got;
      for (const simt::ChildLaunch& c : n.blocks[b].children) {
        got.push_back(c.child_kernel);
      }
      EXPECT_EQ(got, w.children[b]) << "block " << b;
    }
  }
  EXPECT_EQ(g.num_streams, streams.size() + 1);
}

const std::vector<simt::ExecPolicy> kStormPolicies = {
    simt::ExecPolicy::serial(), simt::ExecPolicy::parallel(2)};

TEST(GraphDeterminism, NestedStormFollowsDfsRule) {
  const std::vector<StormNode> want = {
      {"root", -1, -1, -1, {{1, 4}, {5, 8}}},
      {"mid", 0, 0, -1, {{2, 3}}},
      {"leaf", 1, 0, 0, {{}}},
      {"late", 1, 0, -1, {{}}},
      {"side", 0, 0, 0, {{}}},
      {"mid", 0, 1, -1, {{6, 7}}},
      {"leaf", 5, 0, 0, {{}}},
      {"late", 5, 0, -1, {{}}},
      {"side", 0, 1, 0, {{}}},
  };
  simt::Device dev;
  for (const simt::ExecPolicy& policy : kStormPolicies) {
    SCOPED_TRACE(policy.mode == simt::ExecMode::kSerial ? "serial"
                                                        : "parallel(2)");
    simt::Session session = dev.session(policy);
    launch_storm(dev, /*throw_block=*/-1);
    expect_dfs_graph(dev.graph(), want);
  }
}

TEST(GraphDeterminism, ThrowingBlockLeavesNoNodes) {
  // Block 1 throws after its lanes launched four grids: only the host grid
  // and block 0's grids remain, with block 0's seqs and streams. The async
  // grids never ran (the drain follows the host grid), so they have no
  // blocks, and block 1 never merged its cost.
  const std::vector<StormNode> want = {
      {"root", -1, -1, -1, {{1, 4}, {}}},
      {"mid", 0, 0, -1, {{2, 3}}},
      {"leaf", 1, 0, 0, {{}}},
      {"late", 1, 0, -1, {}},
      {"side", 0, 0, 0, {}},
  };
  simt::Device dev;
  for (const simt::ExecPolicy& policy : kStormPolicies) {
    SCOPED_TRACE(policy.mode == simt::ExecMode::kSerial ? "serial"
                                                        : "parallel(2)");
    simt::Session session = dev.session(policy);
    EXPECT_THROW(launch_storm(dev, /*throw_block=*/1), std::runtime_error);
    expect_dfs_graph(dev.graph(), want);
    // The session goes on: the next host grid takes the next id and seq, and
    // its drain must not meet the failed launch's async grids, the dropped
    // block's or the merged block's: "late" and "side" never run.
    simt::LaunchConfig next;
    next.name = "next";
    dev.launch_threads(next, [](simt::LaneCtx& t) { t.compute(1); });
    ASSERT_EQ(dev.graph().nodes.size(), want.size() + 1);
    EXPECT_EQ(dev.graph().nodes.back().name, "next");
    EXPECT_EQ(dev.graph().nodes.back().seq, want.size());
    EXPECT_TRUE(dev.graph().nodes[3].blocks.empty());  // late
    EXPECT_TRUE(dev.graph().nodes[4].blocks.empty());  // side
  }
}

// --- synthetic coverage: streams, events, async nested launches ----------------

// A kernel mix the apps never quite produce: cross-stream events, deferred
// (async) nested launches, and divergent atomics, all in one session.
simt::RunReport synthetic_session(simt::Device& dev,
                                  const simt::ExecPolicy& policy,
                                  std::vector<float>& data) {
  simt::Session session = dev.session(policy);
  simt::LaunchConfig outer;
  outer.grid_blocks = 24;
  outer.block_threads = 96;
  outer.name = "outer";
  int hot = 0;
  dev.launch_threads(outer, [&](simt::LaneCtx& t) {
    const auto idx = static_cast<std::size_t>(t.global_idx()) % data.size();
    t.ld(&data[idx]);
    if (t.global_idx() % 3 == 0) t.atomic_add(&hot, 1);
    if (t.thread_idx() == 0 && t.block_idx() % 4 == 0) {
      simt::LaunchConfig child;
      child.grid_blocks = 2;
      child.block_threads = 32;
      child.name = "child";
      EXPECT_TRUE(t.launch_threads(child, [&](simt::LaneCtx& c) {
        c.st(&data[static_cast<std::size_t>(c.global_idx()) % data.size()],
             1.0f);
        c.compute(5);
      }));
      child.name = "child_async";
      EXPECT_TRUE(t.launch_async(
          child, simt::as_kernel([](simt::LaneCtx& c) { c.compute(9); })));
    }
  });
  const simt::EventHandle ev = dev.record_event(simt::StreamHandle{1});
  dev.stream_wait(simt::StreamHandle{2}, ev);
  simt::LaunchConfig tail;
  tail.grid_blocks = 4;
  tail.block_threads = 64;
  tail.name = "tail";
  dev.launch_threads(
      tail, [&](simt::LaneCtx& t) { t.st(&data[t.global_idx()], 2.0f); },
      simt::StreamHandle{2});
  return session.report();
}

TEST(SyntheticDeterminism, StreamsEventsAndAsyncLaunchesMatch) {
  simt::Device dev;
  std::vector<float> ds(4096, 0.5f), dp(4096, 0.5f);
  const simt::RunReport rs =
      synthetic_session(dev, simt::ExecPolicy::serial(), ds);
  const simt::RunReport rp = synthetic_session(dev, kParallel, dp);
  EXPECT_EQ(ds, dp);
  expect_identical(rs, rp);
}

// The parallel engine must also agree with itself across repeated runs and
// across thread counts (2 vs 4): warp-order folding, not scheduling luck.
TEST(SyntheticDeterminism, StableAcrossRunsAndThreadCounts) {
  simt::Device dev;
  std::vector<float> d1(4096, 0.5f), d2(4096, 0.5f), d3(4096, 0.5f);
  const simt::RunReport r1 = synthetic_session(dev, kParallel, d1);
  const simt::RunReport r2 = synthetic_session(dev, kParallel, d2);
  const simt::RunReport r3 = synthetic_session(
      dev, simt::ExecPolicy{simt::ExecMode::kParallel, 2}, d3);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d3);
  expect_identical(r1, r2);
  expect_identical(r1, r3);
}

// The pool under the parallel engine: every submitted task runs exactly
// once, whether a worker or the waiter picks it up, and a task's exception
// reaches the wait on that task and no other.
TEST(PoolDeterminism, TasksRunOnceAndErrorsReachTheirWaiter) {
  struct CountTask final : simt::ThreadPool::Task {
    int runs = 0;
    bool fail = false;
    void run() override {
      ++runs;
      if (fail) throw std::runtime_error("task failed");
    }
  };
  simt::ThreadPool pool(4);
  std::vector<CountTask> tasks(300);
  tasks[137].fail = true;
  for (int round = 0; round < 3; ++round) {
    for (CountTask& t : tasks) pool.submit(t);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (i == 137) {
        EXPECT_THROW(pool.wait(tasks[i]), std::runtime_error);
      } else {
        EXPECT_NO_THROW(pool.wait(tasks[i]));
      }
    }
  }
  for (const CountTask& t : tasks) EXPECT_EQ(t.runs, 3);
}

}  // namespace
