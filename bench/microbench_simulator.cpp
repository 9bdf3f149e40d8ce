// Simulator micro-scenarios: each scenario (compute ops, coalesced loads,
// many small grids) runs once through the simulator and records its modeled
// cycles, which are bit-stable across machines. The simulator's host cost is
// measured by the end-to-end benchmark in benchmark/ instead.
#include <vector>

#include "bench_util.h"
#include "src/simt/device.h"

namespace {

namespace simt = nestpar::simt;
namespace bench = nestpar::bench;

// Runs each scenario exactly once and records modeled cycles, not wall
// clock.
int run(const bench::Args& args, bench::SuiteResult& out) {
  (void)args;
  bench::banner("Simulator micro-scenarios (deterministic model cycles)",
                "one pass per scenario; the simulator's wall-clock cost is "
                "measured by benchmark/");

  const auto record = [&](const char* name, double n,
                          const simt::RunReport& rep) {
    bench::Measurement m = bench::Measurement::from_report(rep);
    m.tmpl = name;
    m.dataset = "synthetic";
    m.scale = 1.0;
    m.params["n"] = n;
    out.measurements.push_back(std::move(m));
    bench::table_row({name, bench::fmt(n, 0),
                      bench::fmt(rep.total_cycles, 0)});
  };

  bench::table_header({"scenario", "n", "model-cycles"});
  for (const int per_lane : {16, 64}) {
    simt::Device dev;
    simt::Session session = dev.session();
    simt::LaunchConfig cfg;
    cfg.grid_blocks = 64;
    cfg.block_threads = 192;
    cfg.name = "compute";
    dev.launch_threads(cfg, [per_lane](simt::LaneCtx& t) {
      for (int i = 0; i < per_lane; ++i) t.compute();
    });
    record("compute-ops", per_lane, session.report());
  }
  {
    std::vector<float> data(64 * 192);
    simt::Device dev;
    simt::Session session = dev.session();
    simt::LaunchConfig cfg;
    cfg.grid_blocks = 64;
    cfg.block_threads = 192;
    cfg.name = "loads";
    dev.launch_threads(cfg, [&](simt::LaneCtx& t) {
      for (int r = 0; r < 16; ++r) t.ld(&data[t.global_idx()]);
    });
    record("coalesced-loads", 16, session.report());
  }
  for (const int grids : {64, 512}) {
    simt::Device dev;
    simt::Session session = dev.session();
    simt::LaunchConfig cfg;
    cfg.grid_blocks = 4;
    cfg.block_threads = 64;
    cfg.name = "grid";
    for (int i = 0; i < grids; ++i) {
      dev.launch_threads(cfg, [](simt::LaneCtx& t) { t.compute(8); });
    }
    record("many-grids", grids, session.report());
  }
  return 0;
}

const bench::Registration reg{{
    .name = "microbench_simulator",
    .figure = "— (substrate)",
    .description = "deterministic model-cycle pass over simulator scenarios",
    .usage = "microbench_simulator [--out=DIR]",
    .run = &run,
}};

}  // namespace
