// §III.B text: speedups of the baseline (thread-mapped, no load balancing)
// GPU implementations over serial CPU code — SSSP 8.2x, BC 2.5x, PageRank
// 15.8x, SpMV 2.4x — plus the flat-GPU-vs-recursive-CPU BFS factor (11-14x).
// These anchor the absolute scale of the model; the template comparisons in
// the other benches are ratios on top of these baselines.
#include <cstdio>

#include "bench_util.h"
#include "src/apps/bc.h"
#include "src/apps/bfs.h"
#include "src/apps/pagerank.h"
#include "src/apps/spmv.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"

using namespace nestpar;
using nested::LoopTemplate;

namespace {

// One app's deterministic metrics, captured without heap allocation. The
// serial CPU cost model hashes raw heap addresses, so building Measurement
// records (strings, maps, vector growth) between the app blocks would shift
// the heap layout every later serial reference sees and drift its modeled
// time away from the baselines. Rows are flushed into
// the SuiteResult only after the last serial reference has run.
struct AppRow {
  const char* app;
  const char* dataset;
  double app_scale;
  double cpu_us;
  double total_us;
  double cycles;
  double warp_efficiency;
  std::uint64_t host_launches;
  std::uint64_t device_launches;
  simt::RobustnessCounters robustness;
};

// Copies the POD metrics out of a (possibly temporary) report and returns
// the modeled GPU time; performs no heap allocation.
double capture(const simt::RunReport& rep, AppRow& row, const char* app,
               const char* dataset, double app_scale, double cpu_us) {
  row.app = app;
  row.dataset = dataset;
  row.app_scale = app_scale;
  row.cpu_us = cpu_us;
  row.total_us = rep.total_us;
  row.cycles = rep.total_cycles;
  row.warp_efficiency = rep.aggregate.warp_execution_efficiency();
  row.host_launches = rep.aggregate.host_launches;
  row.device_launches = rep.aggregate.device_launches;
  row.robustness = rep.robustness;
  return rep.total_us;
}

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.1);
  const auto sources = static_cast<std::uint32_t>(args.get_int("sources", 32));

  bench::banner(
      "Baseline GPU vs serial CPU speedups (section III.B text)",
      "SSSP 8.2x, BC 2.5x, PageRank 15.8x, SpMV 2.4x; flat BFS 11-14x over "
      "recursive CPU");

  const graph::Csr cs = bench::citeseer(scale, /*weighted=*/true);
  const graph::Csr wv = bench::wikivote(1.0);

  AppRow rows[5] = {};

  bench::table_header({"app", "cpu-us", "gpu-us", "speedup", "paper"});

  {
    simt::CpuTimer cpu;
    apps::sssp_serial(cs, 0, &cpu);
    simt::Device dev;
    simt::Session session = dev.session();
    apps::run_sssp(dev, cs, 0, LoopTemplate::kBaseline);
    const double gpu = capture(session.report(), rows[0], "SSSP", "citeseer",
                               scale, cpu.us());
    bench::table_row({"SSSP", bench::fmt(cpu.us(), 0), bench::fmt(gpu, 0),
                      bench::fmt(cpu.us() / gpu) + "x", "8.2x"});
  }
  {
    simt::CpuTimer cpu;
    apps::BcOptions opt;
    opt.num_sources = sources;
    apps::bc_serial(wv, opt, &cpu);
    simt::Device dev;
    simt::Session session = dev.session();
    apps::run_bc(dev, wv, LoopTemplate::kBaseline, {}, opt);
    const double gpu = capture(session.report(), rows[1], "BC", "wikivote",
                               1.0, cpu.us());
    bench::table_row({"BC", bench::fmt(cpu.us(), 0), bench::fmt(gpu, 0),
                      bench::fmt(cpu.us() / gpu) + "x", "2.5x"});
  }
  {
    simt::CpuTimer cpu;
    apps::pagerank_serial(cs, {}, &cpu);
    simt::Device dev;
    simt::Session session = dev.session();
    apps::run_pagerank(dev, cs, LoopTemplate::kBaseline);
    const double gpu = capture(session.report(), rows[2], "PageRank",
                               "citeseer", scale, cpu.us());
    bench::table_row({"PageRank", bench::fmt(cpu.us(), 0), bench::fmt(gpu, 0),
                      bench::fmt(cpu.us() / gpu) + "x", "15.8x"});
  }
  {
    const auto mat = matrix::CsrMatrix::from_graph(cs);
    const auto x = matrix::make_dense_vector(mat.cols, 7);
    simt::CpuTimer cpu;
    matrix::spmv_serial(mat, x, &cpu);
    simt::Device dev;
    simt::Session session = dev.session();
    apps::run_spmv(dev, mat, x, LoopTemplate::kBaseline);
    const double gpu = capture(session.report(), rows[3], "SpMV", "citeseer",
                               scale, cpu.us());
    bench::table_row({"SpMV", bench::fmt(cpu.us(), 0), bench::fmt(gpu, 0),
                      bench::fmt(cpu.us() / gpu) + "x", "2.4x"});
  }
  {
    const graph::Csr rnd = graph::generate_uniform_random(
        static_cast<std::uint32_t>(50000 * scale * 2.5), 0, 256, 20150707);
    simt::CpuTimer cpu;
    apps::bfs_serial_recursive(rnd, 0, &cpu);
    simt::Device dev;
    simt::Session session = dev.session();
    apps::bfs_flat_gpu(dev, rnd, 0);
    const double gpu = capture(session.report(), rows[4], "BFS-flat",
                               "uniform-random", scale, cpu.us());
    bench::table_row({"BFS(flat)", bench::fmt(cpu.us(), 0),
                      bench::fmt(gpu, 0), bench::fmt(cpu.us() / gpu) + "x",
                      "11-14x"});
  }

  // All serial references are done; heap allocation is harmless from here.
  for (const AppRow& r : rows) {
    bench::Measurement m;
    m.tmpl = r.app;
    m.dataset = r.dataset;
    m.scale = r.app_scale;
    m.cycles = r.cycles;
    m.warp_efficiency = r.warp_efficiency;
    m.host_launches = r.host_launches;
    m.device_launches = r.device_launches;
    m.robustness = r.robustness;
    // Cross-model ratio built on wall-clock CPU time: volatile by nature.
    m.volatile_extra["cpu_speedup"] = r.cpu_us / r.total_us;
    out.measurements.push_back(std::move(m));
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.01", "--sources=4"};

const bench::Registration reg{{
    .name = "baseline_speedups",
    .figure = "§III.B text",
    .description = "thread-mapped GPU baselines vs serial CPU references",
    .usage = "baseline_speedups [--scale=0.1] [--sources=32] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
