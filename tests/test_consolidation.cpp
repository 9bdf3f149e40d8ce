// Workload-consolidation template family (cons-warp / cons-block /
// cons-grid): functional equivalence with the serial reference on skewed
// and uniform inputs, engine determinism of the aggregated child grids,
// launch-count collapse versus the dynamic-parallelism templates,
// graceful degradation when the aggregated launch is refused, and the
// checked-in-baseline pins for the Figure-5 head-to-head against
// dpar-naive (fewer modeled cycles, launch-attributed critical-path
// share collapsed below 50%).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "bench/results.h"
#include "src/apps/spmv.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"
#include "src/simt/critpath.h"
#include "src/simt/device.h"
#include "src/simt/exec_policy.h"
#include "src/simt/fault.h"

namespace simt = nestpar::simt;
namespace bench = nestpar::bench;
namespace nested = nestpar::nested;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace matrix = nestpar::matrix;

using nested::LoopTemplate;

namespace {

constexpr simt::ExecPolicy kParallel{simt::ExecMode::kParallel, 4};

std::vector<LoopTemplate> cons_templates() {
  return nested::templates_in_family(nested::TemplateFamily::kConsolidation);
}

std::string test_name(const testing::TestParamInfo<LoopTemplate>& info) {
  std::string s(nested::name(info.param));
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

// --- registry ------------------------------------------------------------------

TEST(TemplateRegistry, ConsolidationFamilyIsCompleteAndNamed) {
  const auto fam = cons_templates();
  ASSERT_EQ(fam.size(), 3u);
  EXPECT_EQ(nested::name(fam[0]), "cons-warp");
  EXPECT_EQ(nested::name(fam[1]), "cons-block");
  EXPECT_EQ(nested::name(fam[2]), "cons-grid");
  for (const LoopTemplate t : fam) {
    const nested::LoopTemplateDesc& d = nested::describe(t);
    EXPECT_EQ(d.tmpl, t);
    EXPECT_EQ(d.family, nested::TemplateFamily::kConsolidation);
    EXPECT_NE(d.run, nullptr);
    EXPECT_TRUE(d.autotune_default) << d.name;
    EXPECT_EQ(nested::parse_loop_template(std::string(d.name)), t);
  }
  EXPECT_EQ(nested::name(nested::TemplateFamily::kConsolidation),
            "consolidation");
}

TEST(TemplateRegistry, RegistryCoversEveryTemplateExactlyOnce) {
  // Independent enumeration of every LoopTemplate value, so a template added
  // to the enum but not the registry (or registered twice) fails here.
  constexpr LoopTemplate kEveryTemplate[] = {
      LoopTemplate::kBaseline,   LoopTemplate::kBlockMapped,
      LoopTemplate::kWarpMapped, LoopTemplate::kDualQueue,
      LoopTemplate::kDbufShared, LoopTemplate::kDbufGlobal,
      LoopTemplate::kDparNaive,  LoopTemplate::kDparOpt,
      LoopTemplate::kConsWarp,   LoopTemplate::kConsBlock,
      LoopTemplate::kConsGrid,
  };
  const auto all = nested::loop_templates();
  EXPECT_EQ(all.size(), std::size(kEveryTemplate));
  for (const LoopTemplate t : kEveryTemplate) {
    EXPECT_EQ(std::count_if(all.begin(), all.end(),
                            [t](const auto& d) { return d.tmpl == t; }),
              1)
        << nested::name(t);
  }
}

TEST(TemplateRegistry, ConsolidationParamsAreValidated) {
  const auto g = graph::generate_power_law(200, 0, 40, 6.0, 5, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 3);
  simt::Device dev;
  nested::LoopParams p;
  p.cons_buffer_entries = 0;
  EXPECT_THROW(apps::run_spmv(dev, a, x, LoopTemplate::kConsWarp, p),
               std::invalid_argument);
  p = nested::LoopParams{};
  p.cons_min_descriptors = 0;
  EXPECT_THROW(apps::run_spmv(dev, a, x, LoopTemplate::kConsGrid, p),
               std::invalid_argument);
}

// --- functional equivalence ----------------------------------------------------

class ConsCorrectness : public testing::TestWithParam<LoopTemplate> {};

TEST_P(ConsCorrectness, SpmvMatchesSerialOnSkewedInput) {
  // Power-law outdegrees: most rows drain inline, hubs get consolidated.
  const auto g = graph::generate_power_law(2500, 0, 400, 18.0, 11, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 5);
  const auto expect = matrix::spmv_serial(a, x);

  simt::Device dev;
  nested::LoopParams p;
  p.lb_threshold = 32;
  const auto y = apps::run_spmv(dev, a, x, GetParam(), p);
  ASSERT_EQ(y.size(), expect.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], expect[i], 1e-3 * (1.0 + std::abs(expect[i])))
        << "row " << i;
  }
}

TEST_P(ConsCorrectness, SpmvMatchesSerialOnUniformInput) {
  // Uniform degrees straddling lbTHRES: roughly half of all rows defer, so
  // the merge-path child walks many similar-sized descriptors per scope.
  const auto g = graph::generate_uniform_random(2000, 8, 56, 13, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 9);
  const auto expect = matrix::spmv_serial(a, x);

  simt::Device dev;
  nested::LoopParams p;
  p.lb_threshold = 32;
  const auto y = apps::run_spmv(dev, a, x, GetParam(), p);
  ASSERT_EQ(y.size(), expect.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], expect[i], 1e-3 * (1.0 + std::abs(expect[i])))
        << "row " << i;
  }
}

TEST_P(ConsCorrectness, SsspMatchesDijkstraOnSkewedInput) {
  const auto g = graph::generate_power_law(1000, 1, 250, 14.0, 47, true);
  const auto expect = apps::sssp_serial(g, 0);

  simt::Device dev;
  nested::LoopParams p;
  p.lb_threshold = 32;
  const auto res = apps::run_sssp(dev, g, 0, GetParam(), p);
  ASSERT_EQ(res.dist.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    if (std::isinf(expect[i])) {
      EXPECT_TRUE(std::isinf(res.dist[i])) << "node " << i;
    } else {
      EXPECT_FLOAT_EQ(res.dist[i], expect[i]) << "node " << i;
    }
  }
}

// --- engine determinism --------------------------------------------------------

TEST_P(ConsCorrectness, SerialAndParallelEnginesAreBitIdentical) {
  const auto g = graph::generate_power_law(1400, 0, 300, 12.0, 73, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 7);

  simt::Device dev;
  std::vector<float> ys(a.rows, 0.0f), yp(a.rows, 0.0f);
  apps::SpmvWorkload ws(a, x.data(), ys.data());
  apps::SpmvWorkload wp(a, x.data(), yp.data());
  nested::LoopParams p;
  p.lb_threshold = 32;
  const nested::RunResult rs = nested::run_nested_loop(
      dev, ws,
      nested::LoopRun{GetParam(), p, simt::ExecPolicy::serial()});
  const nested::RunResult rp =
      nested::run_nested_loop(dev, wp, nested::LoopRun{GetParam(), p,
                                                       kParallel});

  EXPECT_EQ(ys, yp);  // bitwise-equal floats
  EXPECT_EQ(rs.report.total_cycles, rp.report.total_cycles);
  EXPECT_EQ(rs.report.grids, rp.report.grids);
  EXPECT_EQ(rs.report.device_grids, rp.report.device_grids);
  EXPECT_EQ(rs.report.robustness.degraded, rp.report.robustness.degraded);
}

// --- fault-path degradation ----------------------------------------------------

TEST_P(ConsCorrectness, RefusedAggregatedLaunchDegradesInline) {
  const auto g = graph::generate_power_law(1200, 0, 300, 14.0, 29, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 7);
  const auto expect = matrix::spmv_serial(a, x);

  // Depth limit 0 refuses every child grid, so the consolidated launch must
  // fall back to draining the buffered descriptors inline — degraded but
  // correct, and identically so under both host engines.
  simt::DeviceSpec spec;
  spec.limits.max_nesting_depth = 0;
  simt::Device dev(spec);
  dev.set_fault_config(simt::FaultConfig{});
  simt::RunReport reports[2];
  int i = 0;
  for (const simt::ExecPolicy& policy :
       {simt::ExecPolicy::serial(), kParallel}) {
    std::vector<float> y(a.rows, 0.0f);
    apps::SpmvWorkload w(a, x.data(), y.data());
    nested::LoopParams p;
    p.lb_threshold = 32;
    const nested::RunResult run =
        nested::run_nested_loop(dev, w, nested::LoopRun{GetParam(), p,
                                                        policy});
    reports[i++] = run.report;
    EXPECT_GT(run.report.robustness.refused_depth, 0u);
    EXPECT_GT(run.report.robustness.degraded, 0u);
    EXPECT_EQ(run.report.device_grids, 0u);
    ASSERT_EQ(y.size(), expect.size());
    for (std::size_t r = 0; r < y.size(); ++r) {
      EXPECT_NEAR(y[r], expect[r], 1e-3 * (1.0 + std::abs(expect[r])))
          << "row " << r;
    }
  }
  EXPECT_EQ(reports[0].total_cycles, reports[1].total_cycles);
  EXPECT_EQ(reports[0].robustness.refused_depth,
            reports[1].robustness.refused_depth);
  EXPECT_EQ(reports[0].robustness.degraded, reports[1].robustness.degraded);
}

INSTANTIATE_TEST_SUITE_P(Family, ConsCorrectness,
                         testing::ValuesIn(cons_templates()), test_name);

// --- injected transient faults -------------------------------------------------

// Named *Fault* so the `nestpar_faults` ctest entry reruns this suite with an
// ambient NESTPAR_FAULTS config on top; the configs pinned here win anyway.
class ConsFaultInjection : public testing::TestWithParam<LoopTemplate> {};

TEST_P(ConsFaultInjection, InjectedLaunchFaultsDegradeByteIdentically) {
  const auto g = graph::generate_power_law(1500, 0, 350, 16.0, 37, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 3);
  nested::LoopParams p;
  p.lb_threshold = 32;

  // Clean reference run, faults pinned off.
  simt::Device dev;
  dev.set_fault_config(simt::FaultConfig{});
  std::vector<float> clean(a.rows, 0.0f);
  {
    apps::SpmvWorkload w(a, x.data(), clean.data());
    nested::run_nested_loop(
        dev, w, nested::LoopRun{GetParam(), p, simt::ExecPolicy::serial()});
  }

  // Past the retry budget most of the time: the aggregated child launches
  // get refused and the scopes must drain their descriptors inline — byte
  // identical results, populated robustness counters, and the same on both
  // host engines. The rate is near 1 because cons-grid performs only a
  // handful of aggregated launches — at lower rates its few site hashes
  // can all come up clean and nothing would be exercised.
  simt::FaultConfig fc;
  fc.device_launch_rate = 0.97;
  fc.seed = 41;
  dev.set_fault_config(fc);
  simt::RunReport reports[2];
  int i = 0;
  for (const simt::ExecPolicy& policy :
       {simt::ExecPolicy::serial(), kParallel}) {
    std::vector<float> y(a.rows, 0.0f);
    apps::SpmvWorkload w(a, x.data(), y.data());
    const nested::RunResult run =
        nested::run_nested_loop(dev, w, nested::LoopRun{GetParam(), p,
                                                        policy});
    reports[i++] = run.report;
    EXPECT_GT(run.report.robustness.faults_injected, 0u);
    EXPECT_GT(run.report.robustness.launches_attempted, 0u);
    EXPECT_EQ(y, clean);  // bitwise-equal floats, degraded path included
  }
  // Retries happened (or every refusal degraded); either way the counters
  // must be populated and engine-identical.
  EXPECT_GT(reports[0].robustness.retries + reports[0].robustness.degraded,
            0u);
  EXPECT_EQ(reports[0].total_cycles, reports[1].total_cycles);
  EXPECT_EQ(reports[0].robustness.faults_injected,
            reports[1].robustness.faults_injected);
  EXPECT_EQ(reports[0].robustness.retries, reports[1].robustness.retries);
  EXPECT_EQ(reports[0].robustness.degraded, reports[1].robustness.degraded);
}

TEST_P(ConsFaultInjection, ModerateFaultRateStillAggregates) {
  // At a modest rate the retry budget absorbs most refusals: results stay
  // byte-correct and at least some aggregated children still launch.
  const auto g = graph::generate_power_law(1500, 0, 350, 16.0, 37, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 3);
  nested::LoopParams p;
  p.lb_threshold = 32;

  simt::Device dev;
  dev.set_fault_config(simt::FaultConfig{});
  std::vector<float> clean(a.rows, 0.0f);
  {
    apps::SpmvWorkload w(a, x.data(), clean.data());
    nested::run_nested_loop(
        dev, w, nested::LoopRun{GetParam(), p, simt::ExecPolicy::serial()});
  }

  simt::FaultConfig fc;
  fc.device_launch_rate = 0.1;
  fc.seed = 17;
  dev.set_fault_config(fc);
  std::vector<float> y(a.rows, 0.0f);
  apps::SpmvWorkload w(a, x.data(), y.data());
  const nested::RunResult run = nested::run_nested_loop(
      dev, w, nested::LoopRun{GetParam(), p, simt::ExecPolicy::serial()});
  EXPECT_GT(run.report.robustness.faults_injected, 0u);
  EXPECT_GT(run.report.robustness.retries, 0u);
  EXPECT_GT(run.report.device_grids, 0u)
      << "every aggregated launch was refused at a 10% rate";
  EXPECT_EQ(y, clean);
}

INSTANTIATE_TEST_SUITE_P(Family, ConsFaultInjection,
                         testing::ValuesIn(cons_templates()), test_name);

// --- launch aggregation --------------------------------------------------------

TEST(ConsStructure, AggregationCollapsesDeviceLaunchCounts) {
  const auto g = graph::generate_power_law(4000, 0, 500, 25.0, 99, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 7);

  const auto grids = [&](LoopTemplate t) {
    simt::Device dev;
    simt::Session s = dev.session();
    nested::LoopParams p;
    p.lb_threshold = 32;
    apps::run_spmv(dev, a, x, t, p);
    return s.report();
  };

  const simt::RunReport naive = grids(LoopTemplate::kDparNaive);
  ASSERT_GT(naive.device_grids, 100u);
  // cons-grid launches exactly ONE aggregated child for the whole sweep;
  // warp/block scopes launch at most one child per scope, far below the
  // one-per-iteration regime of dpar-naive.
  EXPECT_EQ(grids(LoopTemplate::kConsGrid).device_grids, 1u);
  EXPECT_LT(grids(LoopTemplate::kConsBlock).device_grids,
            naive.device_grids / 4);
  EXPECT_LT(grids(LoopTemplate::kConsWarp).device_grids, naive.device_grids);
}

TEST(ConsStructure, FewDescriptorsDrainInlineWithoutAChildGrid) {
  // Every row sits below lbTHRES: nothing defers, no child grid is spawned,
  // and the run is not marked degraded (thresholding is a policy, not a
  // failure).
  const auto g = graph::generate_regular(512, 8, 3, true);
  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 5);
  for (const LoopTemplate t : cons_templates()) {
    simt::Device dev;
    simt::Session s = dev.session();
    nested::LoopParams p;
    p.lb_threshold = 64;
    apps::run_spmv(dev, a, x, t, p);
    const simt::RunReport rep = s.report();
    EXPECT_EQ(rep.device_grids, 0u) << nested::name(t);
    EXPECT_EQ(rep.robustness.degraded, 0u) << nested::name(t);
  }
}

// --- checked-in baseline pins (the Figure-5 head-to-head) ----------------------

double launch_share(const simt::CritAttribution& a) {
  return a.total() > 0.0 ? a[simt::CritCategory::kLaunch] / a.total() : 0.0;
}

TEST(ConsBaselines, Fig5LaunchShareCollapsesVersusDparNaive) {
  const std::filesystem::path path =
      std::filesystem::path(NESTPAR_BASELINE_DIR) / "PROF_fig5_sssp.json";
  const bench::SuiteProfile p = bench::load_profile_file(path);
  const auto by_tmpl = simt::attribution_by_template(p.prof.crit_kernels);
  ASSERT_TRUE(by_tmpl.count("dpar-naive"));
  const double naive_share = launch_share(by_tmpl.at("dpar-naive"));
  EXPECT_GT(naive_share, 0.5);

  double best_cons_share = 1.0;
  for (const LoopTemplate t : cons_templates()) {
    const std::string name(nested::name(t));
    ASSERT_TRUE(by_tmpl.count(name)) << name;
    best_cons_share =
        std::min(best_cons_share, launch_share(by_tmpl.at(name)));
  }
  // The whole point of launch aggregation: the critical path is no longer
  // dominated by launch cycles.
  EXPECT_LT(best_cons_share, 0.5);
  EXPECT_LT(best_cons_share, naive_share);
}

TEST(ConsBaselines, Fig5ConsolidationBeatsDparNaiveCycles) {
  const std::filesystem::path path =
      std::filesystem::path(NESTPAR_BASELINE_DIR) / "BENCH_fig5_sssp.json";
  const bench::SuiteResult r = bench::load_result_file(path);
  double naive_best = std::numeric_limits<double>::infinity();
  double cons_best = std::numeric_limits<double>::infinity();
  for (const bench::Measurement& m : r.measurements) {
    if (m.tmpl == "dpar-naive") {
      naive_best = std::min(naive_best, m.cycles);
    }
    for (const LoopTemplate t : cons_templates()) {
      if (m.tmpl == nested::name(t)) {
        cons_best = std::min(cons_best, m.cycles);
      }
    }
  }
  ASSERT_TRUE(std::isfinite(naive_best));
  ASSERT_TRUE(std::isfinite(cons_best));
  EXPECT_LT(cons_best, naive_best);
}

}  // namespace
