// Correctness of every nested-loop parallelization template: each template
// must produce results identical to the serial reference on every workload,
// for a sweep of lbTHRES values (TEST_P). Also checks the template-specific
// structural properties (launch counts, kernel phases).
#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/bc.h"
#include "src/apps/pagerank.h"
#include "src/apps/spmv.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"

namespace simt = nestpar::simt;
namespace nested = nestpar::nested;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace matrix = nestpar::matrix;

using nested::LoopTemplate;

namespace {

struct Case {
  LoopTemplate tmpl;
  int lb_threshold;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string s(nested::name(info.param.tmpl));
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s + "_lb" + std::to_string(info.param.lb_threshold);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const nested::LoopTemplateDesc& d : nested::loop_templates()) {
    for (int lb : {4, 32, 256}) {
      cases.push_back(Case{d.tmpl, lb});
    }
  }
  return cases;
}

class TemplateCorrectness : public testing::TestWithParam<Case> {
 protected:
  nested::LoopParams params() const {
    nested::LoopParams p;
    p.lb_threshold = GetParam().lb_threshold;
    return p;
  }
};

TEST_P(TemplateCorrectness, SpmvMatchesSerial) {
  const auto g = graph::generate_power_law(3000, 0, 400, 20.0, 77, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 5);
  const auto expect = matrix::spmv_serial(a, x);

  simt::Device dev;
  const auto y = apps::run_spmv(dev, a, x, GetParam().tmpl, params());
  ASSERT_EQ(y.size(), expect.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    // GPU templates reduce in double, serial in float: allow tiny drift.
    EXPECT_NEAR(y[i], expect[i], 1e-3 * (1.0 + std::abs(expect[i])))
        << "row " << i;
  }
}

TEST_P(TemplateCorrectness, SsspMatchesDijkstra) {
  const auto g = graph::generate_power_law(1200, 1, 300, 15.0, 31, true);
  const auto expect = apps::sssp_serial(g, 0);

  simt::Device dev;
  const auto res = apps::run_sssp(dev, g, 0, GetParam().tmpl, params());
  ASSERT_EQ(res.dist.size(), expect.size());
  EXPECT_GT(res.iterations, 0);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    if (std::isinf(expect[i])) {
      EXPECT_TRUE(std::isinf(res.dist[i])) << "node " << i;
    } else {
      EXPECT_FLOAT_EQ(res.dist[i], expect[i]) << "node " << i;
    }
  }
}

TEST_P(TemplateCorrectness, PageRankMatchesSerial) {
  const auto g = graph::generate_power_law(1500, 0, 200, 12.0, 19);
  apps::PageRankOptions opt;
  opt.iterations = 5;
  const auto expect = apps::pagerank_serial(g, opt);

  simt::Device dev;
  const auto rank = apps::run_pagerank(dev, g, GetParam().tmpl, params(), opt);
  ASSERT_EQ(rank.size(), expect.size());
  for (std::size_t i = 0; i < rank.size(); ++i) {
    EXPECT_NEAR(rank[i], expect[i], 1e-12 + 1e-9 * expect[i]) << "page " << i;
  }
}

TEST_P(TemplateCorrectness, BetweennessMatchesBrandes) {
  const auto g = graph::generate_power_law(600, 0, 80, 8.0, 23);
  apps::BcOptions opt;
  opt.num_sources = 10;
  const auto expect = apps::bc_serial(g, opt);

  simt::Device dev;
  const auto bc = apps::run_bc(dev, g, GetParam().tmpl, params(), opt);
  ASSERT_EQ(bc.size(), expect.size());
  for (std::size_t i = 0; i < bc.size(); ++i) {
    EXPECT_NEAR(bc[i], expect[i], 1e-9 + 1e-9 * expect[i]) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, TemplateCorrectness,
                         testing::ValuesIn(all_cases()), case_name);

// --- Structural properties ----------------------------------------------------

class TemplateStructure : public testing::Test {
 protected:
  graph::Csr g_ = graph::generate_power_law(4000, 0, 500, 25.0, 99, true);
  matrix::CsrMatrix a_ = matrix::CsrMatrix::from_graph(g_);
  std::vector<float> x_ = matrix::make_dense_vector(a_.cols, 7);

  simt::RunReport run(LoopTemplate t, int lb = 32) {
    simt::Device dev;
    simt::Session s = dev.session();
    nested::LoopParams p;
    p.lb_threshold = lb;
    apps::run_spmv(dev, a_, x_, t, p);
    return s.report();
  }
};

TEST_F(TemplateStructure, BaselineLaunchesOneKernelNoNesting) {
  const auto rep = run(LoopTemplate::kBaseline);
  EXPECT_EQ(rep.grids, 1u);
  EXPECT_EQ(rep.device_grids, 0u);
}

TEST_F(TemplateStructure, DualQueueLaunchesThreeKernels) {
  const auto rep = run(LoopTemplate::kDualQueue);
  EXPECT_EQ(rep.grids, 3u);
  EXPECT_EQ(rep.device_grids, 0u);
}

TEST_F(TemplateStructure, DbufGlobalLaunchesTwoKernels) {
  const auto rep = run(LoopTemplate::kDbufGlobal);
  EXPECT_EQ(rep.grids, 2u);
}

TEST_F(TemplateStructure, DbufSharedLaunchesOneKernel) {
  const auto rep = run(LoopTemplate::kDbufShared);
  EXPECT_EQ(rep.grids, 1u);
  EXPECT_EQ(rep.device_grids, 0u);
}

TEST_F(TemplateStructure, DparNaiveSpawnsOneGridPerLargeIteration) {
  const int lb = 32;
  std::uint64_t large = 0;
  for (std::uint32_t r = 0; r < a_.rows; ++r) {
    if (a_.row_nnz(r) > static_cast<std::uint32_t>(lb)) ++large;
  }
  ASSERT_GT(large, 0u);
  const auto rep = run(LoopTemplate::kDparNaive, lb);
  EXPECT_EQ(rep.device_grids, large);
}

TEST_F(TemplateStructure, DparOptSpawnsAtMostOneGridPerBlock) {
  const auto rep = run(LoopTemplate::kDparOpt);
  const auto naive = run(LoopTemplate::kDparNaive);
  EXPECT_GT(rep.device_grids, 0u);
  // Far fewer, larger grids than dpar-naive.
  EXPECT_LT(rep.device_grids, naive.device_grids / 2);
}

TEST_F(TemplateStructure, LoadBalancingImprovesWarpEfficiencyOverBaseline) {
  const auto base = run(LoopTemplate::kBaseline);
  for (LoopTemplate t :
       {LoopTemplate::kDualQueue, LoopTemplate::kDbufShared,
        LoopTemplate::kDbufGlobal, LoopTemplate::kDparOpt}) {
    const auto rep = run(t);
    EXPECT_GT(rep.aggregate.warp_execution_efficiency(),
              base.aggregate.warp_execution_efficiency())
        << nested::name(t);
  }
}

TEST_F(TemplateStructure, HigherThresholdMeansLowerWarpEfficiency) {
  const auto low = run(LoopTemplate::kDbufShared, 32);
  const auto high = run(LoopTemplate::kDbufShared, 1024);
  EXPECT_GT(low.aggregate.warp_execution_efficiency(),
            high.aggregate.warp_execution_efficiency());
}

TEST_F(TemplateStructure, RejectsBadParams) {
  simt::Device dev;
  nested::LoopParams p;
  p.lb_threshold = -1;
  EXPECT_THROW(apps::run_spmv(dev, a_, x_, LoopTemplate::kBaseline, p),
               std::invalid_argument);
}

TEST_F(TemplateStructure, EmptyWorkloadRuns) {
  const matrix::CsrMatrix empty = matrix::CsrMatrix::from_graph(
      graph::build_csr(1, std::span<const graph::Edge>{}));
  const std::vector<float> x(1, 1.0f);
  for (const nested::LoopTemplateDesc& d : nested::loop_templates()) {
    const LoopTemplate t = d.tmpl;
    simt::Device dev;
    const auto y = apps::run_spmv(dev, empty, x, t);
    EXPECT_EQ(y.size(), 1u);
    EXPECT_FLOAT_EQ(y[0], 0.0f) << nested::name(t);
  }
}

}  // namespace
