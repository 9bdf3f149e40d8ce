// Correctness of the flattening transformation (the related-work
// alternative to the paper's templates): flattened execution must produce
// results identical to the serial references for every workload, including
// adversarial size distributions (empty segments, one giant segment).
#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/pagerank.h"
#include "src/apps/spmv.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/flatten.h"
#include "src/nested/workload.h"

namespace simt = nestpar::simt;
namespace nested = nestpar::nested;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace matrix = nestpar::matrix;

namespace {

std::vector<float> flattened_spmv(const matrix::CsrMatrix& a,
                                  const std::vector<float>& x,
                                  simt::RunReport* report = nullptr) {
  std::vector<float> y(a.rows, 0.0f);
  apps::SpmvWorkload w(a, x.data(), y.data());
  simt::Device dev;
  simt::Session s = dev.session();
  nested::run_flattened(dev, w);
  if (report != nullptr) *report = s.report();
  return y;
}

void expect_near_vec(const std::vector<float>& got,
                     const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-3 * (1.0 + std::abs(want[i])))
        << "row " << i;
  }
}

TEST(Flatten, SpmvMatchesSerialOnSkewedMatrix) {
  const auto g = graph::generate_power_law(4000, 0, 600, 25.0, 3, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 1);
  expect_near_vec(flattened_spmv(a, x), matrix::spmv_serial(a, x));
}

TEST(Flatten, SpmvHandlesEmptyRows) {
  // Alternating empty and short rows.
  std::vector<graph::Edge> edges;
  for (std::uint32_t v = 0; v < 100; v += 2) {
    edges.push_back({v, (v + 1) % 100, 2.0f});
  }
  const auto a =
      matrix::CsrMatrix::from_graph(graph::build_csr(100, edges, true));
  const auto x = matrix::make_dense_vector(100, 2);
  expect_near_vec(flattened_spmv(a, x), matrix::spmv_serial(a, x));
}

TEST(Flatten, SpmvHandlesOneGiantRow) {
  std::vector<graph::Edge> edges;
  for (std::uint32_t k = 0; k < 20000; ++k) {
    edges.push_back({5, k % 64, 1.0f});
  }
  const auto a =
      matrix::CsrMatrix::from_graph(graph::build_csr(64, edges, true));
  const auto x = matrix::make_dense_vector(64, 3);
  expect_near_vec(flattened_spmv(a, x), matrix::spmv_serial(a, x));
}

TEST(Flatten, SpmvHandlesEmptyMatrix) {
  const auto a = matrix::CsrMatrix::from_graph(
      graph::build_csr(8, std::span<const graph::Edge>{}));
  const std::vector<float> x(8, 1.0f);
  const auto y = flattened_spmv(a, x);
  for (float v : y) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Flatten, PageRankMatchesSerial) {
  const auto g = graph::generate_power_law(1500, 0, 150, 10.0, 7);
  const graph::Csr gt = graph::transpose(g);
  // Drive the full app loop through the flattened runner by hand: one
  // iteration of the pull gather, compared against one serial iteration.
  // (The app-level run_pagerank is template-driven; here we exercise the
  // flattened path with the same workload type.)
  apps::PageRankOptions opt;
  opt.iterations = 1;
  const auto want = apps::pagerank_serial(g, opt);

  // Reconstruct one iteration manually with the flattened runner.
  const std::uint32_t n = g.num_nodes();
  std::vector<std::uint32_t> outdeg(n);
  for (std::uint32_t v = 0; v < n; ++v) outdeg[v] = g.degree(v);
  std::vector<double> rank(n, 1.0 / n), next(n, 0.0);

  class Gather final : public nested::NestedLoopWorkload {
   public:
    Gather(const graph::Csr& gt, const std::uint32_t* outdeg,
           const double* old_rank, double* new_rank)
        : gt_(&gt), outdeg_(outdeg), old_(old_rank), new_(new_rank) {}
    std::int64_t size() const override { return gt_->num_nodes(); }
    std::uint32_t inner_size(std::int64_t i) const override {
      return gt_->degree(static_cast<std::uint32_t>(i));
    }
    void load_outer(simt::LaneCtx& t, std::int64_t i) const override {
      t.ld(&gt_->row_offsets[static_cast<std::size_t>(i)]);
    }
    double body(simt::LaneCtx& t, std::int64_t i,
                std::uint32_t j) const override {
      const std::size_t e = gt_->row_offsets[static_cast<std::size_t>(i)] + j;
      const std::uint32_t u = t.ld(&gt_->col_indices[e]);
      const double r = t.ld(&old_[u]);
      const std::uint32_t d = t.ld(&outdeg_[u]);
      t.compute(2);
      return d > 0 ? r / d : 0.0;
    }
    void commit(simt::LaneCtx& t, std::int64_t i, double v) const override {
      t.st(&new_[static_cast<std::size_t>(i)],
           0.15 / gt_->num_nodes() + 0.85 * v);
    }
    const char* name() const override { return "gather"; }

   private:
    const graph::Csr* gt_;
    const std::uint32_t* outdeg_;
    const double* old_;
    double* new_;
  };

  Gather w(gt, outdeg.data(), rank.data(), next.data());
  simt::Device dev;
  nested::run_flattened(dev, w);
  ASSERT_EQ(next.size(), want.size());
  for (std::size_t i = 0; i < next.size(); ++i) {
    EXPECT_NEAR(next[i], want[i], 1e-12 + 1e-9 * want[i]) << i;
  }
}

TEST(Flatten, PipelineLaunchesExpectedKernels) {
  const auto g = graph::generate_power_law(2000, 0, 100, 10.0, 9, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 1);
  simt::RunReport rep;
  flattened_spmv(a, x, &rep);
  EXPECT_EQ(rep.kernel("flatten/sizes").invocations, 1u);
  EXPECT_EQ(rep.kernel("flatten/scan-chunks").invocations, 1u);
  EXPECT_EQ(rep.kernel("flatten/scan-totals").invocations, 1u);
  EXPECT_EQ(rep.kernel("flatten/scan-apply").invocations, 1u);
  EXPECT_EQ(rep.kernel("flatten/edges").invocations, 1u);
  EXPECT_EQ(rep.kernel("flatten/fixup").invocations, 1u);
  EXPECT_EQ(rep.device_grids, 0u);  // No dynamic parallelism needed.
}

TEST(Flatten, PerfectLoadBalanceShowsInWarpEfficiency) {
  // A pathologically skewed matrix: the flattened edge kernel should keep
  // warp efficiency high where the thread-mapped baseline collapses.
  const auto g = graph::generate_power_law(4000, 0, 1000, 20.0, 13, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 1);
  simt::RunReport rep;
  flattened_spmv(a, x, &rep);
  EXPECT_GT(rep.kernel("flatten/edges").metrics.warp_execution_efficiency(),
            0.9);
}

TEST(Flatten, RejectsBadParams) {
  const auto a = matrix::CsrMatrix::from_graph(
      graph::build_csr(2, std::span<const graph::Edge>{}));
  const std::vector<float> x(2, 1.0f);
  std::vector<float> y(2, 0.0f);
  apps::SpmvWorkload w(a, x.data(), y.data());
  simt::Device dev;
  nested::FlattenParams p;
  p.block_size = 0;
  EXPECT_THROW(nested::run_flattened(dev, w, p), std::invalid_argument);
}

TEST(Flatten, SsspConvergesViaFlattenedRelaxation) {
  // Use the flattened runner for SSSP's relaxation inside a hand-rolled
  // iteration loop and check against Dijkstra.
  const auto g = graph::generate_power_law(1200, 1, 120, 10.0, 21, true);
  const auto want = apps::sssp_serial_dijkstra(g, 0);

  // The public app API runs templates; flattened relaxation needs the same
  // iteration structure, so replicate run_sssp's loop with run_flattened.
  const std::uint32_t n = g.num_nodes();
  std::vector<float> dist(n, apps::kInfDistance), upd(n, apps::kInfDistance);
  std::vector<std::uint8_t> mask(n, 0);
  dist[0] = upd[0] = 0.0f;
  mask[0] = 1;

  class Relax final : public nested::NestedLoopWorkload {
   public:
    Relax(const graph::Csr& g, const float* dist, float* upd,
          std::uint8_t* mask)
        : g_(&g), dist_(dist), upd_(upd), mask_(mask) {}
    std::int64_t size() const override { return g_->num_nodes(); }
    std::uint32_t inner_size(std::int64_t i) const override {
      return mask_[i] != 0 ? g_->degree(static_cast<std::uint32_t>(i)) : 0;
    }
    void load_outer(simt::LaneCtx& t, std::int64_t i) const override {
      t.ld(&mask_[i]);
    }
    double body(simt::LaneCtx& t, std::int64_t i,
                std::uint32_t j) const override {
      const auto v = static_cast<std::uint32_t>(i);
      const std::size_t e = g_->row_offsets[v] + j;
      const std::uint32_t u = t.ld(&g_->col_indices[e]);
      const float w = t.ld(&g_->weights[e]);
      t.atomic_min(&upd_[u], dist_[v] + w);
      return 0.0;
    }
    void commit(simt::LaneCtx& t, std::int64_t i, double) const override {
      if (mask_[i] != 0) t.st(&mask_[i], std::uint8_t{0});
    }
    const char* name() const override { return "relax"; }

   private:
    const graph::Csr* g_;
    const float* dist_;
    float* upd_;
    std::uint8_t* mask_;
  };

  Relax w(g, dist.data(), upd.data(), mask.data());
  simt::Device dev;
  bool changed = true;
  int guard = 0;
  while (changed) {
    changed = false;
    nested::run_flattened(dev, w);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (upd[v] < dist[v]) {
        dist[v] = upd[v];
        mask[v] = 1;
        changed = true;
      } else {
        upd[v] = dist[v];
      }
    }
    ASSERT_LT(++guard, 10000);
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (std::isinf(want[v])) {
      EXPECT_TRUE(std::isinf(dist[v]));
    } else {
      EXPECT_FLOAT_EQ(dist[v], want[v]);
    }
  }
}

}  // namespace
