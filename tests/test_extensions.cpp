// Tests for the extension layers: symmetrize / sort_neighbors, connected
// components and k-core (both across templates), the model-driven
// autotuner, Chrome-trace export, and the DeviceSpec presets.
#include <gtest/gtest.h>

#include <sstream>

#include "src/apps/cc.h"
#include "src/apps/kcore.h"
#include "src/apps/spmv.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/autotune.h"
#include "src/simt/trace_export.h"

namespace simt = nestpar::simt;
namespace nested = nestpar::nested;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace matrix = nestpar::matrix;

using nested::LoopTemplate;

namespace {

// --- graph utilities -----------------------------------------------------------

TEST(GraphUtil, SymmetrizeAddsReverseEdgesAndDedupes) {
  const graph::Edge edges[] = {{0, 1, 1.f}, {1, 0, 1.f}, {2, 1, 1.f}};
  const graph::Csr s = graph::symmetrize(graph::build_csr(3, edges));
  EXPECT_NO_THROW(s.validate());
  // 0<->1 deduped to one edge each way; 1<->2 mirrored.
  EXPECT_EQ(s.num_edges(), 4u);
  ASSERT_EQ(s.degree(1), 2u);
  EXPECT_EQ(s.neighbors(1)[0], 0u);
  EXPECT_EQ(s.neighbors(1)[1], 2u);
}

TEST(GraphUtil, SortNeighborsOrdersRowsAndKeepsWeights) {
  const graph::Edge edges[] = {{0, 5, 50.f}, {0, 2, 20.f}, {0, 9, 90.f}};
  graph::Csr g = graph::build_csr(10, edges, true);
  graph::sort_neighbors(g);
  EXPECT_EQ(g.neighbors(0)[0], 2u);
  EXPECT_EQ(g.neighbors(0)[1], 5u);
  EXPECT_EQ(g.neighbors(0)[2], 9u);
  EXPECT_FLOAT_EQ(g.weights[0], 20.f);
  EXPECT_FLOAT_EQ(g.weights[2], 90.f);
}

// --- connected components ------------------------------------------------------

class CcTemplates : public testing::TestWithParam<LoopTemplate> {};

TEST_P(CcTemplates, MatchesUnionFind) {
  // Three components of different sizes plus isolated nodes.
  std::vector<graph::Edge> edges;
  for (std::uint32_t v = 0; v < 40; ++v) edges.push_back({v, v + 1, 1.f});
  for (std::uint32_t v = 50; v < 70; v += 2) edges.push_back({v, v + 2, 1.f});
  edges.push_back({80, 81, 1.f});
  const graph::Csr g = graph::symmetrize(graph::build_csr(100, edges));

  const auto want = apps::cc_serial(g);
  simt::Device dev;
  nested::LoopParams p;
  p.lb_threshold = 4;
  const auto got = apps::run_cc(dev, g, GetParam(), p);
  EXPECT_EQ(got, want);
  // 41-chain + 11-chain(evens 50..70) + pair + isolated nodes.
  EXPECT_EQ(apps::count_components(got),
            static_cast<std::uint32_t>(100 - 41 - 11 - 2 + 3));
}

TEST_P(CcTemplates, RandomGraphMatchesUnionFind) {
  const graph::Csr g =
      graph::symmetrize(graph::generate_uniform_random(600, 0, 3, 17));
  const auto want = apps::cc_serial(g);
  simt::Device dev;
  const auto got = apps::run_cc(dev, g, GetParam());
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Templates, CcTemplates,
    testing::Values(LoopTemplate::kBaseline, LoopTemplate::kDualQueue,
                    LoopTemplate::kDbufShared, LoopTemplate::kDbufGlobal,
                    LoopTemplate::kDparOpt),
    [](const auto& info) {
      std::string s(nested::name(info.param));
      for (auto& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

TEST(Cc, SingleComponentConverges) {
  const graph::Csr g =
      graph::symmetrize(graph::generate_regular(300, 4, 5));
  simt::Device dev;
  const auto labels = apps::run_cc(dev, g, LoopTemplate::kBaseline);
  // A regular random graph of degree 4 is connected w.h.p.
  EXPECT_EQ(apps::count_components(labels), 1u);
  for (const auto l : labels) EXPECT_EQ(l, 0u);
}

// --- k-core decomposition -------------------------------------------------------

TEST(Kcore, TriangleWithTail) {
  // Triangle 0-1-2 plus a tail 2-3: coreness 2,2,2,1... tail end 3 has
  // degree 1 -> core 1; triangle members core 2.
  const graph::Edge edges[] = {{0, 1, 1.f}, {1, 2, 1.f}, {2, 0, 1.f},
                               {2, 3, 1.f}};
  const graph::Csr g = graph::symmetrize(graph::build_csr(4, edges));
  const auto want = apps::kcore_serial(g);
  EXPECT_EQ(want[0], 2u);
  EXPECT_EQ(want[3], 1u);
  simt::Device dev;
  EXPECT_EQ(apps::run_kcore(dev, g, LoopTemplate::kBaseline), want);
}

TEST(Kcore, IsolatedNodesHaveCoreZero) {
  const graph::Csr g =
      graph::symmetrize(graph::build_csr(5, std::span<const graph::Edge>{}));
  simt::Device dev;
  const auto core = apps::run_kcore(dev, g, LoopTemplate::kBaseline);
  for (const auto c : core) EXPECT_EQ(c, 0u);
}

TEST(Kcore, TemplatesAgreeOnRmatGraph) {
  const graph::Csr g = graph::symmetrize(graph::generate_rmat(9, 6, 3));
  const auto want = apps::kcore_serial(g);
  for (const LoopTemplate t :
       {LoopTemplate::kBaseline, LoopTemplate::kDbufShared,
        LoopTemplate::kDbufGlobal, LoopTemplate::kDparOpt}) {
    simt::Device dev;
    nested::LoopParams p;
    p.lb_threshold = 8;
    EXPECT_EQ(apps::run_kcore(dev, g, t, p), want) << nested::name(t);
  }
}

TEST(Kcore, CompleteGraphCoreness) {
  std::vector<graph::Edge> edges;
  for (std::uint32_t a = 0; a < 8; ++a) {
    for (std::uint32_t b = 0; b < 8; ++b) {
      if (a != b) edges.push_back({a, b, 1.f});
    }
  }
  const graph::Csr g = graph::symmetrize(graph::build_csr(8, edges));
  simt::Device dev;
  const auto core = apps::run_kcore(dev, g, LoopTemplate::kDbufGlobal);
  for (const auto c : core) EXPECT_EQ(c, 7u);  // K8 is a 7-core.
}

// --- RMAT generator -------------------------------------------------------------

TEST(Rmat, ShapeAndDeterminism) {
  const graph::Csr a = graph::generate_rmat(10, 8, 7);
  EXPECT_EQ(a.num_nodes(), 1024u);
  EXPECT_EQ(a.num_edges(), 8192u);
  EXPECT_NO_THROW(a.validate());
  const graph::Csr b = graph::generate_rmat(10, 8, 7);
  EXPECT_EQ(a.col_indices, b.col_indices);
  // Skew: the max-degree node should far exceed the mean (8).
  EXPECT_GT(graph::degree_stats(a).max_degree, 24u);
}

TEST(Rmat, RejectsBadParams) {
  EXPECT_THROW(graph::generate_rmat(0, 8, 1), std::invalid_argument);
  EXPECT_THROW(graph::generate_rmat(8, 0, 1), std::invalid_argument);
  EXPECT_THROW(graph::generate_rmat(8, 8, 1, 0.5, 0.3, 0.3),
               std::invalid_argument);
}

// --- autotuner -----------------------------------------------------------------

TEST(Autotune, PicksLoadBalancingForSkewedInput) {
  const auto g = graph::generate_power_law(5000, 1, 800, 25.0, 3, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 1);
  std::vector<float> y(a.rows, 0.0f);
  apps::SpmvWorkload w(a, x.data(), y.data());

  const auto res = nested::autotune_nested_loop(w);
  EXPECT_GT(res.best_speedup(), 1.2);
  EXPECT_TRUE(res.best.flattened ||
              res.best.tmpl != LoopTemplate::kBaseline);
  // Candidates are sorted ascending by model time.
  for (std::size_t i = 1; i < res.all.size(); ++i) {
    EXPECT_LE(res.all[i - 1].model_us, res.all[i].model_us);
  }
}

TEST(Autotune, KeepsBaselineNearRegularInput) {
  const auto g = graph::generate_regular(5000, 24, 3, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 1);
  std::vector<float> y(a.rows, 0.0f);
  apps::SpmvWorkload w(a, x.data(), y.data());

  nested::AutotuneOptions opt;
  opt.thresholds = {32, 64};  // Thresholds above the uniform degree.
  opt.include_flattened = false;
  const auto res = nested::autotune_nested_loop(w, opt);
  // Nothing defers, so no candidate can beat the baseline meaningfully.
  EXPECT_LT(res.best_speedup(), 1.15);
}

TEST(Autotune, LabelsAreDescriptive) {
  nested::TuneCandidate c;
  c.tmpl = LoopTemplate::kDbufShared;
  c.lb_threshold = 64;
  EXPECT_EQ(c.label(), "dbuf-shared/lb64");
  c.flattened = true;
  EXPECT_EQ(c.label(), "flattened");
  c = nested::TuneCandidate{};
  EXPECT_EQ(c.label(), "baseline");
}

// --- trace export --------------------------------------------------------------

TEST(TraceExport, EmitsWellFormedEvents) {
  simt::Device dev;
  simt::Session s = dev.session();
  simt::LaunchConfig cfg;
  cfg.grid_blocks = 2;
  cfg.block_threads = 64;
  cfg.name = "alpha";
  dev.launch_threads(cfg, [](simt::LaneCtx& t) {
    t.compute(10);
    simt::LaunchConfig child;
    child.grid_blocks = 1;
    child.block_threads = 32;
    child.name = "beta\"quoted";
    if (t.thread_idx() == 0) {
      EXPECT_TRUE(t.launch(child, simt::as_kernel([](simt::LaneCtx&) {})));
    }
  });
  std::ostringstream os;
  simt::write_chrome_trace(os, dev);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("beta\\\"quoted"), std::string::npos);
  EXPECT_NE(json.find("device-launch"), std::string::npos);
  // Export must not perturb the subsequent report.
  const auto rep = s.report();
  EXPECT_EQ(rep.grids, 3u);  // 1 parent grid + 1 child per parent block.
}

TEST(TraceExport, EmptySessionIsValid) {
  simt::Device dev;
  std::ostringstream os;
  simt::write_chrome_trace(os, dev);
  EXPECT_EQ(os.str(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

// --- device presets ------------------------------------------------------------

TEST(DevicePresets, DistinctAndValid) {
  const auto k20 = simt::DeviceSpec::k20();
  const auto k40 = simt::DeviceSpec::k40();
  const auto tiny = simt::DeviceSpec::small_kepler();
  EXPECT_GT(k40.num_sms, k20.num_sms);
  EXPECT_GT(k40.clock_ghz, k20.clock_ghz);
  EXPECT_EQ(tiny.num_sms, 2);
}

TEST(DevicePresets, BiggerDeviceIsFaster) {
  const auto run = [](const simt::DeviceSpec& spec) {
    simt::Device dev(spec);
    simt::Session s = dev.session();
    simt::LaunchConfig cfg;
    cfg.grid_blocks = 60;
    cfg.block_threads = 192;
    cfg.name = "work";
    dev.launch_threads(cfg, [](simt::LaneCtx& t) { t.compute(4000); });
    return s.report().total_us;
  };
  EXPECT_LT(run(simt::DeviceSpec::k40()), run(simt::DeviceSpec::k20()));
  EXPECT_LT(run(simt::DeviceSpec::k20()),
            run(simt::DeviceSpec::small_kepler()));
}

}  // namespace
