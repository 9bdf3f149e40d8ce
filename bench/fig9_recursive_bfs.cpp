// Figure 9: recursive BFS — slowdown of the GPU code variants over the
// recursive serial CPU code on random graphs with uniformly distributed
// outdegree. The paper's findings: flat GPU is 11-14x FASTER than the
// recursive CPU code (reported here as a slowdown < 1), while both recursive
// GPU variants are orders of magnitude slower (700-14,000x on the paper's
// testbed); one extra stream per block helps rec-naive and hurts rec-hier;
// the recursive CPU beats the iterative CPU by 1.25-3.3x.
//
// Scale note (DESIGN.md): defaults use 12,500 nodes and outdegree ranges up
// to [0,256] so the bench runs in tens of seconds; --nodes / --max-range
// raise it toward the paper's 50,000 nodes and [0,~1088].
#include <cstdio>

#include "bench_util.h"
#include "src/apps/bfs.h"
#include "src/graph/generators.h"

using namespace nestpar;
using rec::RecTemplate;

namespace {

int run(const bench::Args& args, bench::SuiteResult& out) {
  const auto nodes = static_cast<std::uint32_t>(args.get_int("nodes", 12500));
  const auto max_range = static_cast<std::uint32_t>(
      args.get_int("max-range", 256));

  bench::banner(
      "Figure 9 - recursive BFS: slowdown over recursive serial CPU "
      "(random graphs, " + std::to_string(nodes) + " nodes)",
      "flat GPU < 1 (i.e., faster than CPU); rec-naive and rec-hier >> 1 "
      "(hundreds to thousands); +1 stream/block helps rec-naive, hurts "
      "rec-hier; recursive CPU beats iterative CPU 1.25-3.3x");

  bench::table_header({"outdeg-range", "edges", "cpu-rec/iter", "flat",
                       "naive", "naive-str", "hier", "hier-str"});
  for (std::uint32_t range = 32; range <= max_range; range *= 2) {
    const graph::Csr g =
        graph::generate_uniform_random(nodes, 0, range, 20150707);
    const std::uint32_t src = bench::first_active_source(g);

    simt::CpuTimer cpu_rec, cpu_iter;
    apps::bfs_serial_recursive(g, src, &cpu_rec);
    apps::bfs_serial_iterative(g, src, &cpu_iter);
    const double ref_us = cpu_rec.us();

    const auto record = [&](const std::string& tmpl, int streams,
                            const simt::RunReport& rep) {
      bench::Measurement m = bench::Measurement::from_report(rep);
      m.tmpl = tmpl;
      m.dataset = "uniform-random";
      m.scale = static_cast<double>(nodes);
      m.params["outdeg_range"] = range;
      m.params["streams_per_block"] = streams;
      // Cross-model ratio built on the ASLR-sensitive CPU model: volatile.
      m.volatile_extra["cpu_slowdown"] = rep.total_us / ref_us;
      out.measurements.push_back(std::move(m));
    };

    const auto slowdown = [&](RecTemplate t, int streams) {
      simt::Device dev;
      simt::Session session = dev.session();
      rec::RecOptions opt;
      opt.streams_per_block = streams;
      apps::bfs_recursive_gpu(dev, g, src, t, opt);
      const simt::RunReport rep = session.report();
      record(std::string(rec::name(t)), streams, rep);
      return rep.total_us / ref_us;
    };

    simt::Device dev;
    simt::Session session = dev.session();
    apps::bfs_flat_gpu(dev, g, src);
    const simt::RunReport flat_rep = session.report();
    const double flat_slowdown = flat_rep.total_us / ref_us;
    record("flat", 1, flat_rep);

    bench::table_row({"[0," + std::to_string(range) + "]",
                      std::to_string(g.num_edges()),
                      bench::fmt(cpu_iter.us() / cpu_rec.us()) + "x",
                      bench::fmt(flat_slowdown) + "x",
                      bench::fmt(slowdown(RecTemplate::kRecNaive, 1), 0) + "x",
                      bench::fmt(slowdown(RecTemplate::kRecNaive, 2), 0) + "x",
                      bench::fmt(slowdown(RecTemplate::kRecHier, 1), 0) + "x",
                      bench::fmt(slowdown(RecTemplate::kRecHier, 2), 0) + "x"});
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--nodes=1000", "--max-range=32"};

const bench::Registration reg{{
    .name = "fig9_recursive_bfs",
    .figure = "Figure 9",
    .description = "recursive BFS slowdown of GPU variants over serial CPU",
    .usage = "fig9_recursive_bfs [--nodes=12500] [--max-range=256] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
