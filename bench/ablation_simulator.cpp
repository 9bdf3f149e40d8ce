// Ablations over the design choices DESIGN.md calls out: how the headline
// results move when individual device-model mechanisms are disabled or
// rescaled. Each section re-runs a representative experiment under a
// modified DeviceSpec and reports the sensitivity.
#include <cstdio>

#include "bench_util.h"
#include "src/apps/bfs.h"
#include "src/apps/spmv.h"
#include "src/graph/generators.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"
#include "src/rec/tree_traversal.h"
#include "src/tree/tree.h"

using namespace nestpar;
using nested::LoopTemplate;

namespace {

struct SpeedupRun {
  double speedup = 0.0;
  simt::RunReport report;
};

SpeedupRun spmv_speedup(const simt::DeviceSpec& spec,
                        const matrix::CsrMatrix& m,
                        const std::vector<float>& x, LoopTemplate t,
                        int lb = 32) {
  simt::Device dev(spec);
  double base = 0.0;
  {
    simt::Session session = dev.session();
    apps::run_spmv(dev, m, x, LoopTemplate::kBaseline);
    base = session.report().total_us;
  }
  simt::Session session = dev.session();
  nested::LoopParams p;
  p.lb_threshold = lb;
  apps::run_spmv(dev, m, x, t, p);
  SpeedupRun r;
  r.report = session.report();
  r.speedup = base / r.report.total_us;
  return r;
}

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.05);

  bench::banner("Simulator ablations",
                "which modeled mechanism produces which paper effect");

  const graph::Csr cs = bench::citeseer(scale, /*weighted=*/true);
  const auto mat = matrix::CsrMatrix::from_graph(cs);
  const auto x = matrix::make_dense_vector(mat.cols, 7);
  const auto spec = simt::DeviceSpec::k20();

  const auto record = [&](const std::string& tmpl, const char* knob,
                          double knob_value, const SpeedupRun& r) {
    bench::Measurement m = bench::Measurement::from_report(r.report);
    m.tmpl = tmpl;
    m.dataset = "citeseer";
    m.scale = scale;
    m.params[knob] = knob_value;
    m.extra["speedup"] = r.speedup;
    out.measurements.push_back(std::move(m));
  };

  std::printf("\n-- latency hiding (occupancy sensitivity) --\n");
  std::printf("dbuf-shared reserves shared memory, lowering occupancy; its\n");
  std::printf("speedup should drop as the hiding requirement rises.\n");
  bench::table_header({"hiding-warps", "dbuf-shared", "dbuf-global"});
  for (const int warps : {1, 12, 24, 48}) {
    simt::DeviceSpec s = spec;
    s.latency_hiding_warps = warps;
    const SpeedupRun shared =
        spmv_speedup(s, mat, x, LoopTemplate::kDbufShared);
    const SpeedupRun global =
        spmv_speedup(s, mat, x, LoopTemplate::kDbufGlobal);
    bench::table_row({std::to_string(warps),
                      bench::fmt(shared.speedup) + "x",
                      bench::fmt(global.speedup) + "x"});
    record("dbuf-shared", "hiding_warps", warps, shared);
    record("dbuf-global", "hiding_warps", warps, global);
  }

  std::printf("\n-- nested-launch overhead --\n");
  std::printf("dpar-naive's collapse is driven by per-launch service cost;\n");
  std::printf("dpar-opt barely moves (few launches).\n");
  bench::table_header({"launch-service-us", "dpar-naive", "dpar-opt"});
  for (const double us : {0.5, 4.0, 16.0}) {
    simt::DeviceSpec s = spec;
    s.device_launch_service_us = us;
    s.virtualized_launch_service_us = us * 30.0;
    const SpeedupRun naive = spmv_speedup(s, mat, x, LoopTemplate::kDparNaive);
    const SpeedupRun opt = spmv_speedup(s, mat, x, LoopTemplate::kDparOpt);
    bench::table_row({bench::fmt(us, 1),
                      bench::fmt(naive.speedup, 3) + "x",
                      bench::fmt(opt.speedup) + "x"});
    record("dpar-naive", "launch_service_us", us, naive);
    record("dpar-opt", "launch_service_us", us, opt);
  }

  std::printf("\n-- pending-launch pool (queue virtualization) --\n");
  std::printf("recursive BFS pays the virtualized-queue cost; a huge pool\n");
  std::printf("removes it and shrinks the slowdown substantially.\n");
  {
    const graph::Csr rnd = graph::generate_uniform_random(10000, 1, 64, 7);
    simt::CpuTimer cpu;
    apps::bfs_serial_recursive(rnd, 0, &cpu);
    bench::table_header({"pool-size", "rec-naive-slowdown"});
    for (const int pool : {2048, 1 << 30}) {
      simt::DeviceSpec s = spec;
      s.pending_launch_pool = pool;
      simt::Device dev(s);
      simt::Session session = dev.session();
      apps::bfs_recursive_gpu(dev, rnd, 0, rec::RecTemplate::kRecNaive);
      const simt::RunReport rep = session.report();
      bench::table_row({pool > (1 << 20) ? "unbounded" : std::to_string(pool),
                        bench::fmt(rep.total_us / cpu.us(), 0) + "x"});
      bench::Measurement m = bench::Measurement::from_report(rep);
      m.tmpl = "rec-naive-bfs";
      m.dataset = "uniform-random";
      m.scale = scale;
      m.params["pending_launch_pool"] = pool;
      // Cross-model ratio built on the ASLR-sensitive CPU model: volatile.
      m.volatile_extra["cpu_slowdown"] = rep.total_us / cpu.us();
      out.measurements.push_back(std::move(m));
    }
  }

  std::printf("\n-- atomic hotspot drain --\n");
  std::printf("the flat tree kernel is bound by same-address atomics at the\n");
  std::printf("root; scaling the drain cost moves flat but not rec-hier.\n");
  {
    const tree::Tree tr =
        tree::generate_tree({.depth = 3, .outdegree = 64, .sparsity = 0}, 1);
    simt::CpuTimer t_iter;
    rec::tree_traversal_serial_iterative(tr, rec::TreeAlgo::kDescendants,
                                         &t_iter);
    bench::table_header({"drain-cycles", "flat", "rec-hier"});
    for (const double drain : {0.0, 1.5, 24.0}) {
      simt::DeviceSpec s = spec;
      s.atomic_drain_cycles = drain;
      simt::Device dev(s);
      const rec::TreeRunResult flat_run = rec::run_tree_traversal(
          dev, tr,
          {.algo = rec::TreeAlgo::kDescendants,
           .tmpl = rec::RecTemplate::kFlat, .policy = dev.exec_policy()});
      const double flat = t_iter.us() / flat_run.report.total_us;
      const rec::TreeRunResult hier_run = rec::run_tree_traversal(
          dev, tr,
          {.algo = rec::TreeAlgo::kDescendants,
           .tmpl = rec::RecTemplate::kRecHier,
           .policy = dev.exec_policy()});
      const double hier = t_iter.us() / hier_run.report.total_us;
      bench::table_row({bench::fmt(drain, 1), bench::fmt(flat) + "x",
                        bench::fmt(hier) + "x"});
      for (const auto& [tmpl, tree_run] :
           {std::pair<const char*, const rec::TreeRunResult&>{"flat",
                                                              flat_run},
            {"rec-hier", hier_run}}) {
        bench::Measurement m =
            bench::Measurement::from_report(tree_run.report);
        m.tmpl = tmpl;
        m.dataset = "tree";
        m.scale = scale;
        m.params["atomic_drain_cycles"] = drain;
        out.measurements.push_back(std::move(m));
      }
    }
  }

  std::printf("\n-- shared-buffer capacity (dbuf-shared) --\n");
  std::printf("a larger buffer costs occupancy (shared memory) but avoids\n");
  std::printf("overflow fallback; the default 256 balances the two.\n");
  bench::table_header({"entries", "dbuf-shared"});
  for (const int entries : {32, 256, 2048}) {
    simt::Device dev(spec);
    double base = 0.0;
    {
      simt::Session session = dev.session();
      apps::run_spmv(dev, mat, x, LoopTemplate::kBaseline);
      base = session.report().total_us;
    }
    simt::Session session = dev.session();
    nested::LoopParams p;
    p.lb_threshold = 32;
    p.shared_buffer_entries = entries;
    apps::run_spmv(dev, mat, x, LoopTemplate::kDbufShared, p);
    const simt::RunReport rep = session.report();
    bench::table_row({std::to_string(entries),
                      bench::fmt(base / rep.total_us) + "x"});
    bench::Measurement m = bench::Measurement::from_report(rep);
    m.tmpl = "dbuf-shared";
    m.dataset = "citeseer";
    m.scale = scale;
    m.params["shared_buffer_entries"] = entries;
    m.extra["speedup"] = base / rep.total_us;
    out.measurements.push_back(std::move(m));
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.01"};

const bench::Registration reg{{
    .name = "ablation_simulator",
    .figure = "— (ablation)",
    .description = "device-model mechanism ablations behind the paper effects",
    .usage = "ablation_simulator [--scale=0.05] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
