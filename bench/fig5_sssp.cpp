// Figure 5: SSSP speedup of the load-balancing templates over the basic
// thread-mapped implementation on the CiteSeer-like network, for a sweep of
// lbTHRES values; nested-kernel-call counts reported for the dynamic
// parallelism variants (the numbers the paper prints on top of the bars).
//
// --threads=N runs the simulator's host engine with N worker threads
// (0 = serial). --compare-engines additionally reruns the whole sweep on
// both engines, checks that cycles and distances match bit-for-bit, and
// reports the host wall-clock speedup.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/apps/sssp.h"
#include "src/nested/templates.h"

using namespace nestpar;
using nested::LoopTemplate;

namespace {

constexpr int kThresholds[] = {32, 64, 128, 256, 512, 1024};

/// One full Figure-5 sweep (baseline + all templates x lbTHRES) under the
/// given engine policy. Returns the model cycle count of every run, the last
/// run's distances, and the host wall-clock seconds.
struct SweepResult {
  std::vector<std::uint64_t> cycles;
  std::vector<float> dist;
  double wall_seconds = 0.0;
};

SweepResult run_sweep(simt::Device& dev, const graph::Csr& g,
                      const std::vector<LoopTemplate>& templates,
                      const simt::ExecPolicy& policy) {
  SweepResult r;
  const auto t0 = std::chrono::steady_clock::now();
  {
    simt::Session session = dev.session(policy);
    r.dist = apps::run_sssp(dev, g, 0, LoopTemplate::kBaseline).dist;
    r.cycles.push_back(session.report().total_cycles);
  }
  for (const LoopTemplate t : templates) {
    for (const int lb : kThresholds) {
      nested::LoopParams p;
      p.lb_threshold = lb;
      simt::Session session = dev.session(policy);
      r.dist = apps::run_sssp(dev, g, 0, t, p).dist;
      r.cycles.push_back(session.report().total_cycles);
    }
  }
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.1);
  const bool skip_naive = args.get_flag("skip-dpar-naive");
  const int threads = static_cast<int>(args.get_int("threads", 0));
  const simt::ExecPolicy policy = threads > 0
                                      ? simt::ExecPolicy::parallel(threads)
                                      : simt::ExecPolicy::from_env();

  bench::banner(
      "Figure 5 - SSSP: speedup of load-balancing templates over baseline "
      "(CiteSeer-like, scale " + bench::fmt(scale) + ")",
      "all LB templates > 1x except dpar-naive (much slower); speedup "
      "decreases as lbTHRES grows; best ~2-3.5x at lbTHRES=32; dpar-opt "
      "spawns far fewer nested kernels than dpar-naive");

  const graph::Csr g = bench::citeseer(scale, /*weighted=*/true);
  std::printf("graph: %u nodes, %llu edges\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));
  std::printf("engine: %s\n\n", simt::to_string(policy).c_str());

  simt::Device dev;
  double base_us = 0.0;
  {
    simt::Session session = dev.session(policy);
    apps::run_sssp(dev, g, 0, LoopTemplate::kBaseline);
    const simt::RunReport rep = session.report();
    base_us = rep.total_us;
    bench::Measurement m = bench::Measurement::from_report(rep);
    m.tmpl = std::string(nested::name(LoopTemplate::kBaseline));
    m.dataset = "citeseer";
    m.scale = scale;
    out.measurements.push_back(std::move(m));
  }
  std::printf("baseline (thread-mapped, no LB): %.0f us (model time)\n\n",
              base_us);

  // Registry-derived sweep order: the load-balancing family first (the
  // paper's Figure 5), then the consolidation family head-to-head against
  // dpar-naive/dpar-opt.
  std::vector<LoopTemplate> templates =
      nested::templates_in_family(nested::TemplateFamily::kLoadBalancing);
  for (const LoopTemplate t :
       nested::templates_in_family(nested::TemplateFamily::kConsolidation)) {
    templates.push_back(t);
  }
  if (skip_naive) {
    std::erase(templates, LoopTemplate::kDparNaive);
  }

  bench::table_header({"template", "lbTHRES", "speedup", "nested-calls"});
  for (const LoopTemplate t : templates) {
    for (const int lb : kThresholds) {
      nested::LoopParams p;
      p.lb_threshold = lb;
      const nested::RunResult run = [&] {
        simt::Session session = dev.session(policy);
        apps::run_sssp(dev, g, 0, t, p);
        return nested::RunResult{session.report()};
      }();
      const simt::RunReport& rep = run.report;
      bench::table_row({std::string(nested::name(t)), std::to_string(lb),
                        bench::fmt(base_us / rep.total_us) + "x",
                        std::to_string(rep.device_grids) +
                            bench::robustness_note(rep)});
      bench::Measurement m = bench::Measurement::from_report(rep);
      m.tmpl = std::string(nested::name(t));
      m.dataset = "citeseer";
      m.scale = scale;
      m.params["lb_threshold"] = lb;
      m.extra["speedup"] = base_us / rep.total_us;
      out.measurements.push_back(std::move(m));
    }
  }

  if (args.get_flag("compare-engines")) {
    const int par_threads =
        threads > 0 ? threads : simt::ExecPolicy::parallel().resolve_threads();
    std::printf("\nengine comparison (serial vs parallel/%d):\n", par_threads);
    const SweepResult serial =
        run_sweep(dev, g, templates, simt::ExecPolicy::serial());
    const SweepResult parallel =
        run_sweep(dev, g, templates, simt::ExecPolicy::parallel(par_threads));
    const bool cycles_match = serial.cycles == parallel.cycles;
    const bool dist_match = serial.dist == parallel.dist;
    std::printf("  serial:   %.2fs wall\n", serial.wall_seconds);
    std::printf("  parallel: %.2fs wall (%.2fx)\n", parallel.wall_seconds,
                serial.wall_seconds / parallel.wall_seconds);
    std::printf("  model cycles identical: %s\n", cycles_match ? "yes" : "NO");
    std::printf("  distances identical:    %s\n", dist_match ? "yes" : "NO");
    if (!cycles_match || !dist_match) return 1;
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.01"};

const bench::Registration reg{{
    .name = "fig5_sssp",
    .figure = "Figure 5",
    .description = "SSSP load-balancing template sweep vs lbTHRES",
    .usage = "fig5_sssp [--scale=0.1] [--skip-dpar-naive] [--threads=N] "
             "[--compare-engines] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
