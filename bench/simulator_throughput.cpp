// Self-benchmark: how fast is the *simulator*, in simulated cycles per
// wall-second? Runs a fixed matrix of SSSP relaxation sweeps (power-law and
// regular degree graphs x representative templates) and reports, per point,
// the modeled metrics (deterministic, baseline-gated — so simulator-speed
// work that changes a modeled cycle fails the comparator) alongside wall_us
// and sim_cycles_per_sec (volatile, never compared). Methodology notes:
// "Measuring the simulator itself" in EXPERIMENTS.md; the performance model
// behind the numbers: docs/SIMULATOR.md.
#include <chrono>
#include <cstdio>
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

struct Point {
  double cycles = 0.0;
  double warp_efficiency = 0.0;
  std::uint64_t host_launches = 0;
  std::uint64_t device_launches = 0;
  simt::RobustnessCounters robustness;
  double best_wall_us = 0.0;
};

// One (graph, template) point: `reps` full sessions, best-of wall time.
// Modeled metrics are identical across reps (the model-alignment heap makes
// them independent of heap history), so the last report's values stand for
// all of them.
Point run_point(const graph::Csr& g, LoopTemplate tmpl, int reps) {
  using clock = std::chrono::steady_clock;
  Point p;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = clock::now();
    simt::Device dev;
    simt::Session session = dev.session();
    apps::run_sssp(dev, g, 0, tmpl);
    const simt::RunReport rep_out = session.report();
    const auto t1 = clock::now();
    const double wall_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (rep == 0 || wall_us < p.best_wall_us) p.best_wall_us = wall_us;
    p.cycles = rep_out.total_cycles;
    p.warp_efficiency = rep_out.aggregate.warp_execution_efficiency();
    p.host_launches = rep_out.aggregate.host_launches;
    p.device_launches = rep_out.aggregate.device_launches;
    p.robustness = rep_out.robustness;
  }
  return p;
}

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 1.0);
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const auto nodes = static_cast<std::uint32_t>(20000 * scale);

  bench::banner(
      "Simulator throughput self-benchmark",
      "simulated-cycles/sec of the host-side functional + timing passes; "
      "modeled metrics are baseline-gated, wall numbers are volatile");

  struct Dataset {
    const char* name;
    graph::Csr g;
  };
  const Dataset datasets[] = {
      {"power-law",
       graph::generate_power_law(nodes, 1, 512, 16.0, 42, true)},
      {"uniform", graph::generate_regular(nodes, 16, 42, true)},
  };

  bench::table_header(
      {"dataset", "template", "cycles", "wall-us", "Mcycles/s"});
  for (const Dataset& d : datasets) {
    for (LoopTemplate tmpl : kTemplates) {
      const Point p = run_point(d.g, tmpl, reps);
      const double cps = p.best_wall_us > 0.0
                             ? p.cycles / (p.best_wall_us / 1e6)
                             : 0.0;
      bench::table_row({d.name, std::string(nested::name(tmpl)),
                        bench::fmt(p.cycles, 0), bench::fmt(p.best_wall_us, 0),
                        bench::fmt(cps / 1e6, 1)});

      bench::Measurement m;
      m.tmpl = std::string(nested::name(tmpl));
      m.dataset = d.name;
      m.scale = scale;
      m.cycles = p.cycles;
      m.warp_efficiency = p.warp_efficiency;
      m.host_launches = p.host_launches;
      m.device_launches = p.device_launches;
      m.robustness = p.robustness;
      // Wall-derived: routed to "extra_volatile" (also enforced by name via
      // Measurement::is_wall_derived), never compared.
      m.volatile_extra["wall_us"] = p.best_wall_us;
      m.volatile_extra["sim_cycles_per_sec"] = cps;
      out.measurements.push_back(std::move(m));
    }
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.05", "--reps=1"};

const bench::Registration reg{{
    .name = "simulator_throughput",
    .figure = "—",
    .description = "simulator self-benchmark: simulated-cycles per wall-sec",
    .usage =
        "simulator_throughput [--scale=1.0] [--reps=3] [--smoke] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
