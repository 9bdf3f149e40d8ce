// Device-runtime fault model: launch-resource limits must refuse
// deterministically, injected transient faults must be reproducible from the
// seed, every template's degraded path must still produce correct results,
// and all of it must be bit-identical between the serial and parallel host
// engines. Suites are named *Fault* so the `faults` CMake preset (which runs
// with NESTPAR_FAULTS exported) can select them; each test pins its own
// fault config so the ambient environment cannot skew expectations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "src/apps/bfs.h"
#include "src/apps/spmv.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"
#include "src/rec/tree_traversal.h"
#include "src/simt/device.h"
#include "src/simt/exec_policy.h"
#include "src/simt/fault.h"
#include "src/tree/tree.h"
#include "tests/mutate.h"

namespace simt = nestpar::simt;
namespace nested = nestpar::nested;
namespace rec = nestpar::rec;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace matrix = nestpar::matrix;
namespace tree = nestpar::tree;

namespace {

constexpr simt::ExecPolicy kSerial{simt::ExecMode::kSerial, 0};
constexpr simt::ExecPolicy kParallel{simt::ExecMode::kParallel, 4};

void expect_same_robustness(const simt::RobustnessCounters& a,
                            const simt::RobustnessCounters& b,
                            const std::string& where) {
  EXPECT_EQ(a.launches_attempted, b.launches_attempted) << where;
  EXPECT_EQ(a.refused_pool, b.refused_pool) << where;
  EXPECT_EQ(a.refused_depth, b.refused_depth) << where;
  EXPECT_EQ(a.refused_heap, b.refused_heap) << where;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << where;
  EXPECT_EQ(a.retries, b.retries) << where;
  EXPECT_EQ(a.degraded, b.degraded) << where;
}

graph::Csr skewed_graph() {
  return graph::generate_power_law(1200, 0, 250, 6.0, 20150707, true);
}

struct SpmvRun {
  std::vector<float> y;
  simt::RunReport report;
};

SpmvRun run_spmv_with(simt::Device& dev, const matrix::CsrMatrix& a,
                      const std::vector<float>& x, nested::LoopTemplate tmpl,
                      const simt::ExecPolicy& policy) {
  nested::LoopParams p;
  p.lb_threshold = 16;
  simt::Session session = dev.session(policy);
  SpmvRun r;
  r.y = apps::run_spmv(dev, a, x, tmpl, p);
  r.report = session.report();
  return r;
}

// --- config parsing ----------------------------------------------------------

TEST(FaultConfigParsing, ParsesFullSpec) {
  const simt::FaultConfig c =
      simt::FaultConfig::parse("launch=0.05,host=0.01,seed=42,retries=5,"
                               "backoff=750");
  EXPECT_DOUBLE_EQ(c.device_launch_rate, 0.05);
  EXPECT_DOUBLE_EQ(c.host_launch_rate, 0.01);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_EQ(c.max_retries, 5);
  EXPECT_DOUBLE_EQ(c.backoff_base_cycles, 750.0);
  EXPECT_TRUE(c.enabled());
}

TEST(FaultConfigParsing, BareNumberIsLaunchRate) {
  const simt::FaultConfig c = simt::FaultConfig::parse("0.25");
  EXPECT_DOUBLE_EQ(c.device_launch_rate, 0.25);
  EXPECT_DOUBLE_EQ(c.host_launch_rate, 0.0);
}

TEST(FaultConfigParsing, RejectsMalformedSpecs) {
  EXPECT_THROW(simt::FaultConfig::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(simt::FaultConfig::parse("launch=nope"),
               std::invalid_argument);
  EXPECT_THROW(simt::FaultConfig::parse("launch=2.0"), std::invalid_argument);
  EXPECT_THROW(simt::FaultConfig::parse("launch=-0.5"),
               std::invalid_argument);
  EXPECT_THROW(simt::FaultConfig::parse("seed=abc"), std::invalid_argument);
}

TEST(FaultConfigParsing, MutantsParseOrThrowInvalidArgument) {
  const std::string spec =
      "launch=0.05,host=0.01,seed=42,retries=5,backoff=750";
  std::mt19937_64 rng(20150707);
  int rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string m = nestpar::test::mutate(spec, rng);
    try {
      (void)simt::FaultConfig::parse(m);
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant '" << m << "' escaped as " << typeid(e).name()
                    << ": " << e.what();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(FaultConfigParsing, ErrorStringsAndTransience) {
  EXPECT_EQ(simt::to_string(simt::SimtError::kOk), "ok");
  EXPECT_FALSE(simt::to_string(simt::SimtError::kPendingPoolExhausted)
                   .empty());
  EXPECT_FALSE(simt::to_string(simt::SimtError::kDepthLimitExceeded).empty());
  EXPECT_FALSE(simt::to_string(simt::SimtError::kDeviceHeapExhausted)
                   .empty());
  EXPECT_TRUE(simt::is_transient(simt::SimtError::kInjectedFault));
  EXPECT_FALSE(simt::is_transient(simt::SimtError::kPendingPoolExhausted));
  EXPECT_FALSE(simt::is_transient(simt::SimtError::kDepthLimitExceeded));
  EXPECT_FALSE(simt::is_transient(simt::SimtError::kDeviceHeapExhausted));
}

// --- resource limits ---------------------------------------------------------

TEST(FaultLimits, PoolExhaustionDegradesDparNaiveCorrectly) {
  const graph::Csr g = skewed_graph();
  const matrix::CsrMatrix a = matrix::CsrMatrix::from_graph(g);
  const std::vector<float> x = matrix::make_dense_vector(a.cols, 7);

  simt::Device clean_dev;
  clean_dev.set_fault_config(simt::FaultConfig{});
  const SpmvRun clean = run_spmv_with(clean_dev, a, x,
                                      nested::LoopTemplate::kDparNaive,
                                      kSerial);
  EXPECT_EQ(clean.report.robustness.refused_total(), 0u);
  EXPECT_EQ(clean.report.robustness.degraded, 0u);

  simt::DeviceSpec spec;
  spec.limits.pending_launch_capacity = 2;
  simt::Device dev(spec);
  dev.set_fault_config(simt::FaultConfig{});
  const SpmvRun s = run_spmv_with(dev, a, x,
                                  nested::LoopTemplate::kDparNaive, kSerial);
  EXPECT_GT(s.report.robustness.refused_pool, 0u);
  EXPECT_GT(s.report.robustness.degraded, 0u);
  EXPECT_EQ(s.y, clean.y);  // degraded, not wrong

  // Refusals are part of the deterministic model: the parallel engine must
  // refuse the same launches and produce the same report.
  const SpmvRun p = run_spmv_with(dev, a, x,
                                  nested::LoopTemplate::kDparNaive,
                                  kParallel);
  EXPECT_EQ(p.y, clean.y);
  EXPECT_EQ(s.report.total_cycles, p.report.total_cycles);
  expect_same_robustness(s.report.robustness, p.report.robustness,
                         "pool exhaustion serial vs parallel");
}

TEST(FaultLimits, DepthLimitRefusesDeepRecursion) {
  const tree::Tree tr =
      tree::generate_tree({.depth = 3, .outdegree = 8, .sparsity = 0}, 99);
  const auto expect =
      rec::tree_traversal_serial_recursive(tr, rec::TreeAlgo::kDescendants);

  simt::Device dev(simt::DeviceSpec{}, /*max_nesting_depth=*/1);
  dev.set_fault_config(simt::FaultConfig{});
  for (const simt::ExecPolicy& policy : {kSerial, kParallel}) {
    const rec::TreeRunResult run = rec::run_tree_traversal(
        dev, tr,
        {.algo = rec::TreeAlgo::kDescendants,
         .tmpl = rec::RecTemplate::kRecNaive, .policy = policy});
    EXPECT_GT(run.report.robustness.refused_depth, 0u);
    EXPECT_GT(run.report.robustness.degraded, 0u);
    EXPECT_EQ(run.values, expect);
  }

  // spec.limits.max_nesting_depth caps the same way as the ctor parameter.
  simt::DeviceSpec spec;
  spec.limits.max_nesting_depth = 1;
  simt::Device dev2(spec);
  dev2.set_fault_config(simt::FaultConfig{});
  const rec::TreeRunResult run2 = rec::run_tree_traversal(
      dev2, tr,
      {.algo = rec::TreeAlgo::kDescendants,
       .tmpl = rec::RecTemplate::kRecNaive, .policy = kSerial});
  EXPECT_GT(run2.report.robustness.refused_depth, 0u);
  EXPECT_EQ(run2.values, expect);
}

TEST(FaultLimits, HeapExhaustionDegradesRecHierCorrectly) {
  const tree::Tree tr =
      tree::generate_tree({.depth = 4, .outdegree = 6, .sparsity = 1}, 7);
  const auto expect =
      rec::tree_traversal_serial_recursive(tr, rec::TreeAlgo::kHeights);

  simt::DeviceSpec spec;
  spec.limits.device_heap_bytes = 4096;
  spec.limits.heap_bytes_per_launch = 1024;
  simt::Device dev(spec);
  dev.set_fault_config(simt::FaultConfig{});
  const rec::TreeRunResult run = rec::run_tree_traversal(
      dev, tr,
      {.algo = rec::TreeAlgo::kHeights, .tmpl = rec::RecTemplate::kRecHier,
       .policy = kSerial});
  EXPECT_GT(run.report.robustness.refused_heap, 0u);
  EXPECT_GT(run.report.robustness.degraded, 0u);
  EXPECT_EQ(run.values, expect);
}

TEST(FaultLimits, UnlimitedDefaultsRefuseNothing) {
  const graph::Csr g = skewed_graph();
  const matrix::CsrMatrix a = matrix::CsrMatrix::from_graph(g);
  const std::vector<float> x = matrix::make_dense_vector(a.cols, 7);
  simt::Device dev;
  dev.set_fault_config(simt::FaultConfig{});
  const SpmvRun r = run_spmv_with(dev, a, x, nested::LoopTemplate::kDparOpt,
                                  kSerial);
  EXPECT_GT(r.report.robustness.launches_attempted, 0u);
  EXPECT_EQ(r.report.robustness.refused_total(), 0u);
  EXPECT_EQ(r.report.robustness.retries, 0u);
  EXPECT_EQ(r.report.robustness.degraded, 0u);
  EXPECT_FALSE(r.report.robustness.any_fault());
}

// --- injected transient faults -----------------------------------------------

TEST(FaultInjectionDeterminism, TransientFaultsRetryDegradeAndReproduce) {
  const graph::Csr g = skewed_graph();
  const matrix::CsrMatrix a = matrix::CsrMatrix::from_graph(g);
  const std::vector<float> x = matrix::make_dense_vector(a.cols, 7);

  simt::Device dev;
  dev.set_fault_config(simt::FaultConfig{});
  const SpmvRun clean = run_spmv_with(dev, a, x,
                                      nested::LoopTemplate::kDparOpt,
                                      kSerial);

  simt::FaultConfig fc;
  fc.device_launch_rate = 0.6;
  fc.seed = 7;
  dev.set_fault_config(fc);
  const SpmvRun f1 = run_spmv_with(dev, a, x, nested::LoopTemplate::kDparOpt,
                                   kSerial);
  EXPECT_GT(f1.report.robustness.faults_injected, 0u);
  EXPECT_GT(f1.report.robustness.retries, 0u);
  EXPECT_EQ(f1.y, clean.y);
  // Faults slow the run down (retry stalls, degraded serial fallbacks) but
  // never change the answer.
  EXPECT_GT(f1.report.total_cycles, clean.report.total_cycles);

  // Same seed, same run: bit-identical fault pattern and timing.
  const SpmvRun f2 = run_spmv_with(dev, a, x, nested::LoopTemplate::kDparOpt,
                                   kSerial);
  EXPECT_EQ(f1.report.total_cycles, f2.report.total_cycles);
  expect_same_robustness(f1.report.robustness, f2.report.robustness,
                         "repeat run");

  // A different seed sees a different fault pattern (with rate 0.6 on this
  // workload a collision would be astronomically unlikely).
  fc.seed = 8;
  dev.set_fault_config(fc);
  const SpmvRun f3 = run_spmv_with(dev, a, x, nested::LoopTemplate::kDparOpt,
                                   kSerial);
  EXPECT_EQ(f3.y, clean.y);
  EXPECT_NE(f1.report.robustness.faults_injected,
            f3.report.robustness.faults_injected);
}

TEST(FaultInjectionDeterminism, SerialAndParallelEnginesAgreeUnderFaults) {
  const graph::Csr g = skewed_graph();
  const matrix::CsrMatrix a = matrix::CsrMatrix::from_graph(g);
  const std::vector<float> x = matrix::make_dense_vector(a.cols, 7);

  simt::Device dev;
  simt::FaultConfig fc;
  fc.device_launch_rate = 0.4;
  fc.seed = 21;
  dev.set_fault_config(fc);

  for (const nested::LoopTemplate tmpl :
       {nested::LoopTemplate::kDparNaive, nested::LoopTemplate::kDparOpt}) {
    const SpmvRun s = run_spmv_with(dev, a, x, tmpl, kSerial);
    const SpmvRun p = run_spmv_with(dev, a, x, tmpl, kParallel);
    EXPECT_GT(s.report.robustness.faults_injected, 0u) << nested::name(tmpl);
    EXPECT_EQ(s.y, p.y) << nested::name(tmpl);
    EXPECT_EQ(s.report.total_cycles, p.report.total_cycles)
        << nested::name(tmpl);
    expect_same_robustness(s.report.robustness, p.report.robustness,
                           std::string(nested::name(tmpl)));
  }

  const tree::Tree tr =
      tree::generate_tree({.depth = 4, .outdegree = 6, .sparsity = 1}, 7);
  for (const rec::RecTemplate tmpl :
       {rec::RecTemplate::kRecNaive, rec::RecTemplate::kRecHier,
        rec::RecTemplate::kRecCons}) {
    const rec::TreeRunResult s = rec::run_tree_traversal(
        dev, tr,
        {.algo = rec::TreeAlgo::kDescendants, .tmpl = tmpl,
         .policy = kSerial});
    const rec::TreeRunResult p = rec::run_tree_traversal(
        dev, tr,
        {.algo = rec::TreeAlgo::kDescendants, .tmpl = tmpl,
         .policy = kParallel});
    EXPECT_EQ(s.values, p.values) << rec::name(tmpl);
    EXPECT_EQ(s.report.total_cycles, p.report.total_cycles)
        << rec::name(tmpl);
    expect_same_robustness(s.report.robustness, p.report.robustness,
                           std::string(rec::name(tmpl)));
  }
}

TEST(FaultInjectionDeterminism, RecursiveTemplatesSurviveHighFaultRates) {
  const tree::Tree tr =
      tree::generate_tree({.depth = 3, .outdegree = 12, .sparsity = 1}, 11);
  const auto expect =
      rec::tree_traversal_serial_recursive(tr, rec::TreeAlgo::kDescendants);

  simt::Device dev;
  simt::FaultConfig fc;
  fc.device_launch_rate = 0.9;  // past the retry budget most of the time
  fc.seed = 3;
  dev.set_fault_config(fc);
  for (const rec::RecTemplate tmpl :
       {rec::RecTemplate::kRecNaive, rec::RecTemplate::kRecHier,
        rec::RecTemplate::kRecCons}) {
    const rec::TreeRunResult run = rec::run_tree_traversal(
        dev, tr,
        {.algo = rec::TreeAlgo::kDescendants, .tmpl = tmpl,
         .policy = kSerial});
    EXPECT_GT(run.report.robustness.degraded, 0u) << rec::name(tmpl);
    EXPECT_EQ(run.values, expect) << rec::name(tmpl);
  }
}

TEST(FaultInjection, BfsDegradedPathsStayCorrect) {
  const graph::Csr g = graph::generate_uniform_random(600, 2, 8, 5);
  const auto expect = apps::bfs_serial_iterative(g, 0);

  simt::Device dev;
  simt::FaultConfig fc;
  fc.device_launch_rate = 0.5;
  fc.seed = 13;
  dev.set_fault_config(fc);
  for (const rec::RecTemplate tmpl :
       {rec::RecTemplate::kRecNaive, rec::RecTemplate::kRecHier}) {
    simt::Session session = dev.session(kSerial);
    const auto level = apps::bfs_recursive_gpu(dev, g, 0, tmpl);
    const simt::RunReport rep = session.report();
    EXPECT_GT(rep.robustness.faults_injected, 0u) << rec::name(tmpl);
    EXPECT_EQ(level, expect) << rec::name(tmpl);
  }
}

TEST(FaultInjection, HostLaunchFaultsThrowAndReport) {
  simt::Device dev;
  simt::FaultConfig fc;
  fc.host_launch_rate = 1.0;
  dev.set_fault_config(fc);
  simt::Session session = dev.session(kSerial);

  simt::LaunchConfig cfg;
  cfg.grid_blocks = 1;
  cfg.block_threads = 32;
  cfg.name = "doomed";

  bool threw = false;
  try {
    dev.launch_threads(cfg, [](simt::LaneCtx&) {});
  } catch (const simt::SimtException& e) {
    threw = true;
    EXPECT_EQ(e.error(), simt::SimtError::kInjectedFault);
    EXPECT_NE(std::string(e.what()).find("doomed"), std::string::npos);
  }
  EXPECT_TRUE(threw);

  // Host-site faults surface in the report even with no recorded grids.
  const simt::RunReport rep = session.report();
  EXPECT_EQ(rep.grids, 0u);
  EXPECT_GT(rep.robustness.faults_injected, 0u);
}

TEST(FaultInjection, EnvConfigRoundTrip) {
  const char* prev = std::getenv("NESTPAR_FAULTS");
  const std::string saved = prev != nullptr ? prev : "";
  ::setenv("NESTPAR_FAULTS", "launch=0.125,seed=99,retries=1", 1);
  const simt::FaultConfig c = simt::FaultConfig::from_env();
  EXPECT_DOUBLE_EQ(c.device_launch_rate, 0.125);
  EXPECT_EQ(c.seed, 99u);
  EXPECT_EQ(c.max_retries, 1);
  // A Device constructed now picks the env config up automatically.
  simt::Device dev;
  EXPECT_DOUBLE_EQ(dev.fault_config().device_launch_rate, 0.125);
  if (prev != nullptr) {
    ::setenv("NESTPAR_FAULTS", saved.c_str(), 1);
  } else {
    ::unsetenv("NESTPAR_FAULTS");
  }
}

}  // namespace
