// Command-line tool: load a graph file (DIMACS .gr, SNAP edge list, or
// MatrixMarket), or generate a synthetic one, autotune the SSSP/SpMV
// parallelization template for it, and optionally dump a Chrome trace of
// the winning schedule.
//
//   example_graph_tool --generate=citeseer --scale=0.02
//   example_graph_tool --dimacs=graph.gr --trace=trace.json
//   example_graph_tool --edges=wiki.txt
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "src/apps/spmv.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/autotune.h"
#include "src/nested/flatten.h"
#include "src/simt/profiler.h"
#include "src/simt/trace_export.h"

using namespace nestpar;

namespace {

void usage() {
  std::printf(
      "usage: example_graph_tool [input] [options]\n"
      "  input (pick one; default --generate=citeseer):\n"
      "    --dimacs=FILE     DIMACS shortest-path .gr file\n"
      "    --edges=FILE      SNAP-style whitespace edge list\n"
      "    --mm=FILE         MatrixMarket coordinate file\n"
      "    --generate=KIND   citeseer | wikivote | uniform | regular\n"
      "  options:\n"
      "    --scale=F         generator scale (default 0.02)\n"
      "    --template=NAME   skip autotuning and use this template\n"
      "                      (baseline, dual-queue, dbuf-shared, ...)\n"
      "    --trace=FILE      write a Chrome trace of the best schedule,\n"
      "                      with its profile counters\n");
}

std::string flag_value(int argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

int run(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      usage();
      return 0;
    }
  }
  const double scale = [&] {
    const std::string s = flag_value(argc, argv, "--scale");
    return s.empty() ? 0.02 : std::stod(s);
  }();

  graph::Csr g;
  if (const auto f = flag_value(argc, argv, "--dimacs"); !f.empty()) {
    g = graph::load_dimacs_file(f);
  } else if (const auto f2 = flag_value(argc, argv, "--edges"); !f2.empty()) {
    g = graph::load_edge_list_file(f2);
  } else if (const auto f3 = flag_value(argc, argv, "--mm"); !f3.empty()) {
    g = graph::load_matrix_market_file(f3);
  } else {
    const std::string kind = [&] {
      const std::string k = flag_value(argc, argv, "--generate");
      return k.empty() ? std::string("citeseer") : k;
    }();
    if (kind == "citeseer") {
      g = graph::generate_citeseer_like(scale, 1, true);
    } else if (kind == "wikivote") {
      g = graph::generate_wikivote_like(1.0, 1);
    } else if (kind == "uniform") {
      g = graph::generate_uniform_random(
          static_cast<std::uint32_t>(50000 * scale * 10), 0, 256, 1);
    } else if (kind == "regular") {
      g = graph::generate_regular(
          static_cast<std::uint32_t>(50000 * scale * 10), 32, 1);
    } else {
      std::fprintf(stderr, "unknown generator '%s'\n", kind.c_str());
      usage();
      return 2;
    }
  }
  g.validate();
  const auto stats = graph::degree_stats(g);
  std::printf("graph: %u nodes, %llu edges, degree %u..%u (mean %.1f)\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              stats.min_degree, stats.max_degree, stats.mean_degree);

  const auto a = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(a.cols, 7);
  std::vector<float> y(a.rows, 0.0f);
  apps::SpmvWorkload w(a, x.data(), y.data());

  // --template=NAME bypasses autotuning: run exactly that template once and
  // report its model time.
  if (const auto tn = flag_value(argc, argv, "--template"); !tn.empty()) {
    const nested::LoopTemplate tmpl = nested::parse_loop_template(tn);
    simt::Device dev;
    const nested::RunResult run = nested::run_nested_loop(
        dev, w, nested::LoopRun{.tmpl = tmpl, .policy = dev.exec_policy()});
    std::printf("\n%s: %.0f model-us (%zu kernels)\n",
                std::string(nested::name(tmpl)).c_str(), run.report.total_us,
                run.report.grids);
    return 0;
  }

  // Autotune SpMV over this graph's structure.
  const auto res = nested::autotune_nested_loop(w);

  std::printf("\n%-22s %12s %10s\n", "configuration", "model-us", "speedup");
  for (const auto& c : res.all) {
    std::printf("%-22s %12.0f %9.2fx\n", c.label().c_str(), c.model_us,
                res.baseline_us / c.model_us);
  }
  std::printf("\nbest: %s (%.2fx over baseline)\n", res.best.label().c_str(),
              res.best_speedup());

  if (const auto tf = flag_value(argc, argv, "--trace"); !tf.empty()) {
    simt::Device dev;
    // Profile this session alone, so the trace's counter tracks come from
    // the traced schedule and not from the sweep above.
    simt::Profile profile;
    const simt::ProfileScope scope(profile);
    // The session must stay open until the trace is written: its destructor
    // clears the recorded launch graph the trace is built from.
    simt::Session session = dev.session();
    if (res.best.flattened) {
      nested::run_flattened(dev, w);
    } else {
      nested::LoopParams p;
      p.lb_threshold = res.best.lb_threshold;
      nested::run_nested_loop(
          dev, w, nested::LoopRun{.tmpl = res.best.tmpl, .params = p});
    }
    std::ofstream out(tf);
    simt::write_chrome_trace(out, dev);
    std::printf("wrote Chrome trace of the best schedule to %s\n",
                tf.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Bad flag values (--scale, --template) and malformed input files.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
