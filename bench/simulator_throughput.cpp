// Modeled-cost matrix of the simulator's hot paths: a fixed set of SSSP
// relaxation sweeps (power-law and regular degree graphs x representative
// templates), one pass each, recording the modeled metrics. They are
// deterministic and baseline-gated, so simulator-speed work that changes a
// modeled cycle fails the comparator. The simulator's host cost is measured
// by the end-to-end benchmark in benchmark/, which owns host time and its
// noise protocol. Methodology notes: "Measuring the simulator itself" in
// EXPERIMENTS.md; the performance model behind the numbers:
// docs/SIMULATOR.md.
#include <string>

#include "bench_util.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/nested/templates.h"
#include "src/simt/device.h"

using namespace nestpar;
using nested::LoopTemplate;

namespace {

// The representative template slice: the thread-mapped baseline (cheapest
// trace per edge), a shared-memory LB template (heavy shared-op traffic),
// the optimized CDP template (device-launch heavy), a consolidation
// template (descriptor buffers + aggregated child grids), and the naive CDP
// template — a launch storm of one child grid per heavy row, where the
// per-grid recording path (launch records, merge, launch-graph growth)
// rather than the per-op path sets the pace.
constexpr LoopTemplate kTemplates[] = {
    LoopTemplate::kBaseline,
    LoopTemplate::kDbufShared,
    LoopTemplate::kDparOpt,
    LoopTemplate::kConsBlock,
    LoopTemplate::kDparNaive,
};

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 1.0);
  const auto nodes = static_cast<std::uint32_t>(20000 * scale);

  bench::banner(
      "Simulator hot-path matrix (deterministic model cycles)",
      "one pass per (graph, template) point; modeled metrics are "
      "baseline-gated, host cost is measured by benchmark/");

  struct Dataset {
    const char* name;
    graph::Csr g;
  };
  const Dataset datasets[] = {
      {"power-law",
       graph::generate_power_law(nodes, 1, 512, 16.0, 42, true)},
      {"uniform", graph::generate_regular(nodes, 16, 42, true)},
  };

  bench::table_header({"dataset", "template", "cycles", "device-launches"});
  for (const Dataset& d : datasets) {
    for (LoopTemplate tmpl : kTemplates) {
      simt::Device dev;
      simt::Session session = dev.session();
      apps::run_sssp(dev, d.g, 0, tmpl);
      const simt::RunReport rep = session.report();
      bench::table_row({d.name, std::string(nested::name(tmpl)),
                        bench::fmt(rep.total_cycles, 0),
                        std::to_string(rep.aggregate.device_launches)});

      bench::Measurement m = bench::Measurement::from_report(rep);
      m.tmpl = std::string(nested::name(tmpl));
      m.dataset = d.name;
      m.scale = scale;
      out.measurements.push_back(std::move(m));
    }
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.05"};

const bench::Registration reg{{
    .name = "simulator_throughput",
    .figure = "—",
    .description = "modeled-cost matrix of the simulator's hot paths",
    .usage = "simulator_throughput [--scale=1.0] [--smoke] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
