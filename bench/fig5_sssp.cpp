// Figure 5: SSSP speedup of the load-balancing templates over the basic
// thread-mapped implementation on the CiteSeer-like network, for a sweep of
// lbTHRES values; nested-kernel-call counts reported for the dynamic
// parallelism variants (the numbers the paper prints on top of the bars).
//
// NESTPAR_THREADS / NESTPAR_EXEC pick the host engine
// (simt::ExecPolicy::from_env); the records are the same under every engine.
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

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.1);
  const bool skip_naive = args.get_flag("skip-dpar-naive");
  const simt::ExecPolicy policy = simt::ExecPolicy::from_env();

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

  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.01"};

const bench::Registration reg{{
    .name = "fig5_sssp",
    .figure = "Figure 5",
    .description = "SSSP load-balancing template sweep vs lbTHRES",
    .usage = "fig5_sssp [--scale=0.1] [--skip-dpar-naive] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
