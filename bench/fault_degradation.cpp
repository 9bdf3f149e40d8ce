// Fault-model sweep: inject transient device-launch faults at increasing
// rates into the templates that rely on nested launches — dpar-opt for
// irregular loops, the whole workload-consolidation family (registry-derived:
// cons-warp / cons-block / cons-grid), and rec-hier plus rec-cons for
// recursion — and chart how modeled time and the robustness counters respond
// as retries and degraded fallbacks absorb the failures. Functional results
// must match the fault-free run at every rate — degradation trades speed,
// never correctness.
//
// Emits one JSON-style row per (template, rate) for downstream plotting.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/simt/log.h"
#include "src/apps/spmv.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"
#include "src/rec/tree_traversal.h"
#include "src/tree/tree.h"

using namespace nestpar;

namespace {

constexpr double kRates[] = {0.0, 0.01, 0.05, 0.1, 0.25, 0.5};

void emit_row(const char* tmpl, double rate, const simt::RunReport& rep,
              bool results_match) {
  const simt::RobustnessCounters& rb = rep.robustness;
  std::printf(
      "{\"template\": \"%s\", \"fault_rate\": %.2f, \"model_cycles\": %.0f, "
      "\"attempted\": %llu, \"refused\": %llu, \"retries\": %llu, "
      "\"degraded\": %llu, \"results_match\": %s}\n",
      tmpl, rate, rep.total_cycles,
      static_cast<unsigned long long>(rb.launches_attempted),
      static_cast<unsigned long long>(rb.refused_total()),
      static_cast<unsigned long long>(rb.retries),
      static_cast<unsigned long long>(rb.degraded),
      results_match ? "true" : "false");
}

void record(bench::SuiteResult& out, const char* tmpl, const char* dataset,
            double scale, double rate, bool results_match,
            const simt::RunReport& rep) {
  bench::Measurement m = bench::Measurement::from_report(rep);
  m.tmpl = tmpl;
  m.dataset = dataset;
  m.scale = scale;
  m.params["fault_rate"] = rate;
  m.extra["results_match"] = results_match ? 1.0 : 0.0;
  out.measurements.push_back(std::move(m));
}

int sweep_dpar_opt(double scale, std::uint64_t seed, bench::SuiteResult& out) {
  const graph::Csr g = graph::generate_power_law(
      static_cast<std::uint32_t>(20000 * scale), 1, 800, 40.0, 42, true);
  const matrix::CsrMatrix a = matrix::CsrMatrix::from_graph(g);
  const std::vector<float> x = matrix::make_dense_vector(a.cols, 7);
  nested::LoopParams p;
  p.lb_threshold = 32;

  simt::Device dev;
  std::vector<float> clean;
  for (const double rate : kRates) {
    simt::FaultConfig fc;
    fc.device_launch_rate = rate;
    fc.seed = seed;
    dev.set_fault_config(fc);
    simt::Session session = dev.session();
    const std::vector<float> y =
        apps::run_spmv(dev, a, x, nested::LoopTemplate::kDparOpt, p);
    if (rate == 0.0) clean = y;
    const simt::RunReport rep = session.report();
    emit_row("dpar-opt", rate, rep, y == clean);
    record(out, "dpar-opt", "power-law", scale, rate, y == clean, rep);
    if (y != clean) return 1;
  }
  dev.set_fault_config(simt::FaultConfig{});
  return 0;
}

// Sweeps every template of the consolidation family, derived from the
// registry so a template added to the family shows up here without edits.
int sweep_consolidation(double scale, std::uint64_t seed,
                        bench::SuiteResult& out) {
  const graph::Csr g = graph::generate_power_law(
      static_cast<std::uint32_t>(20000 * scale), 1, 800, 40.0, 42, true);
  const matrix::CsrMatrix a = matrix::CsrMatrix::from_graph(g);
  const std::vector<float> x = matrix::make_dense_vector(a.cols, 7);
  nested::LoopParams p;
  p.lb_threshold = 32;

  int rc = 0;
  for (const nested::LoopTemplate tmpl :
       nested::templates_in_family(nested::TemplateFamily::kConsolidation)) {
    const std::string tname(nested::name(tmpl));
    simt::Device dev;
    std::vector<float> clean;
    for (const double rate : kRates) {
      simt::FaultConfig fc;
      fc.device_launch_rate = rate;
      fc.seed = seed;
      dev.set_fault_config(fc);
      simt::Session session = dev.session();
      const std::vector<float> y = apps::run_spmv(dev, a, x, tmpl, p);
      if (rate == 0.0) clean = y;
      const simt::RunReport rep = session.report();
      emit_row(tname.c_str(), rate, rep, y == clean);
      record(out, tname.c_str(), "power-law", scale, rate, y == clean, rep);
      if (y != clean) rc = 1;
    }
  }
  return rc;
}

int sweep_rec(double scale, std::uint64_t seed, bench::SuiteResult& out) {
  const tree::Tree tr = tree::generate_tree(
      {.depth = 4, .outdegree = static_cast<int>(16 * std::sqrt(scale)) + 4,
       .sparsity = 1},
      99);

  int rc = 0;
  for (const rec::RecTemplate tmpl :
       {rec::RecTemplate::kRecHier, rec::RecTemplate::kRecCons}) {
    const std::string tname(rec::name(tmpl));
    simt::Device dev;
    std::vector<std::uint32_t> clean;
    for (const double rate : kRates) {
      simt::FaultConfig fc;
      fc.device_launch_rate = rate;
      fc.seed = seed;
      dev.set_fault_config(fc);
      const rec::TreeRunResult run = rec::run_tree_traversal(
          dev, tr,
          {.algo = rec::TreeAlgo::kDescendants, .tmpl = tmpl,
           .policy = dev.exec_policy()});
      if (rate == 0.0) clean = run.values;
      emit_row(tname.c_str(), rate, run.report, run.values == clean);
      record(out, tname.c_str(), "tree", scale, rate, run.values == clean,
             run.report);
      if (run.values != clean) rc = 1;
    }
  }
  return rc;
}

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.25);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  bench::banner(
      "fault-model degradation sweep (dpar-opt, consolidation family, "
      "rec-hier, rec-cons)",
      "not in the paper: robustness extension. Modeled time should "
      "rise smoothly with the injected fault rate while results "
      "stay bit-identical to the fault-free run.");

  const int rc = sweep_dpar_opt(scale, seed, out) +
                 sweep_consolidation(scale, seed, out) +
                 sweep_rec(scale, seed, out);
  if (rc != 0) {
    nestpar::simt::log::error(
        "FAIL: degraded run diverged from fault-free run\n");
    return 1;
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.02"};

const bench::Registration reg{{
    .name = "fault_degradation",
    .figure = "— (robustness extension)",
    .description = "injected-fault degradation sweep over dpar-opt, the "
                   "consolidation family, rec-hier, and rec-cons",
    .usage = "usage: fault_degradation [--scale=F] [--seed=N] [--out=DIR]\n"
             "  --scale=F   workload scale (default 0.25)\n"
             "  --seed=N    fault-injection seed (default 7)\n"
             "  --out=DIR   write BENCH_fault_degradation.json to DIR",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
