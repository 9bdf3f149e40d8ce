// Property-based sweeps (TEST_P over seeds/shapes): invariants that must
// hold for *any* input — metric ranges, generator statistics vs analytical
// expectations, I/O round-trips, and cross-template result equality on
// randomized workloads.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "src/apps/spmv.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/flatten.h"
#include "src/nested/templates.h"
#include "src/simt/device.h"
#include "src/tree/tree.h"

namespace simt = nestpar::simt;
namespace nested = nestpar::nested;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace matrix = nestpar::matrix;
namespace tree = nestpar::tree;

namespace {

class SeedSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, MetricsStayInRange) {
  // A randomized kernel mix must never produce out-of-range metrics.
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  simt::Device dev;
  simt::Session s = dev.session();
  std::vector<float> data(1 << 16);
  int hot = 0;
  for (int k = 0; k < 4; ++k) {
    simt::LaunchConfig cfg;
    cfg.grid_blocks = 1 + static_cast<int>(rng() % 40);
    cfg.block_threads = 32 * (1 + static_cast<int>(rng() % 8));
    cfg.name = "mix";
    const std::uint64_t mode = rng();
    dev.launch_threads(cfg, [&, mode](simt::LaneCtx& t) {
      const std::size_t idx =
          (static_cast<std::size_t>(t.global_idx()) * 2654435761u + mode) %
          data.size();
      t.compute(1 + static_cast<std::uint32_t>(mode % 7));
      t.ld(&data[idx]);
      if (mode % 3 == 0) t.st(&data[idx], 1.0f);
      if (mode % 5 == 0) t.atomic_add(&hot, 1);
    });
  }
  const auto rep = s.report();
  const auto& m = rep.aggregate;
  EXPECT_GT(m.warp_execution_efficiency(), 0.0);
  EXPECT_LE(m.warp_execution_efficiency(), 1.0);
  EXPECT_LE(m.gld_efficiency(), 1.0 + 1e-9);
  EXPECT_LE(m.gst_efficiency(), 1.0 + 1e-9);
  const double occ = m.warp_occupancy(dev.spec().max_warps_per_sm);
  EXPECT_GE(occ, 0.0);
  EXPECT_LE(occ, 1.0 + 1e-9);
  EXPECT_GT(rep.total_cycles, 0.0);
}

TEST_P(SeedSweep, AllTemplatesAgreeOnRandomSpmv) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  const auto n = static_cast<std::uint32_t>(500 + rng() % 2000);
  const auto maxdeg = static_cast<std::uint32_t>(2 + rng() % 300);
  const double mean = 1.0 + static_cast<double>(rng() % (maxdeg / 2 + 1));
  const auto g = graph::generate_power_law(
      n, 0, maxdeg, std::min<double>(std::max(mean, 1.0), maxdeg - 1.0),
      seed * 31 + 7, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, seed);
  const auto want = matrix::spmv_serial(a, x);

  const auto check = [&](const std::vector<float>& got, const char* label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-3 * (1.0 + std::abs(want[i])))
          << label << " row " << i;
    }
  };
  for (const nested::LoopTemplateDesc& d : nested::loop_templates()) {
    const nested::LoopTemplate t = d.tmpl;
    simt::Device dev;
    nested::LoopParams p;
    p.lb_threshold = static_cast<int>(1 + seed % 128);
    check(apps::run_spmv(dev, a, x, t, p),
          std::string(nested::name(t)).c_str());
  }
  {
    simt::Device dev;
    std::vector<float> y(a.rows, 0.0f);
    apps::SpmvWorkload w(a, x.data(), y.data());
    nested::run_flattened(dev, w);
    check(y, "flattened");
  }
}

TEST_P(SeedSweep, GraphRoundTripsThroughAllFormats) {
  const std::uint64_t seed = GetParam();
  const auto g = graph::generate_uniform_random(60, 1, 6, seed, true);

  std::stringstream dimacs;
  graph::write_dimacs(dimacs, g);
  const auto back = graph::load_dimacs(dimacs);
  EXPECT_EQ(back.row_offsets, g.row_offsets);
  EXPECT_EQ(back.col_indices, g.col_indices);
  EXPECT_EQ(back.weights, g.weights);

  std::stringstream el;
  graph::write_edge_list(el, g);
  const auto back2 = graph::load_edge_list(el);
  EXPECT_EQ(back2.num_edges(), g.num_edges());
}

TEST_P(SeedSweep, TreeNodeCountTracksExpectation) {
  // E[nodes at level l+1] = nodes_at(l) * outdegree * rho for l >= 1.
  const std::uint64_t seed = GetParam();
  const tree::TreeParams p{.depth = 3, .outdegree = 40, .sparsity = 1};
  const tree::Tree tr = tree::generate_tree(p, seed);
  tr.validate();
  // Level 1 is always full (root expands unconditionally).
  const auto [l1f, l1l] = tr.level_range(1);
  EXPECT_EQ(l1l - l1f, 40u);
  // Level 2 expectation: 40 * 40 * 0.5 = 800; allow wide tolerance.
  const auto [l2f, l2l] = tr.level_range(2);
  EXPECT_GT(l2l - l2f, 800u / 2);
  EXPECT_LT(l2l - l2f, 800u * 2);
}

TEST_P(SeedSweep, TransposePreservesEdgeCountAndDegreesSum) {
  const std::uint64_t seed = GetParam();
  const auto g = graph::generate_power_law(400, 0, 60, 8.0, seed);
  const auto t = graph::transpose(g);
  EXPECT_EQ(t.num_edges(), g.num_edges());
  EXPECT_EQ(graph::degree_stats(t).mean_degree,
            graph::degree_stats(g).mean_degree);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
