// Table II: warp execution efficiency of the dbuf-shared template as a
// function of lbTHRES, for SSSP / BC / PageRank / SpMV, against the
// thread-mapped baseline. Lower lbTHRES => more block-mapped load balancing
// => higher warp efficiency, always above baseline.
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "src/apps/bc.h"
#include "src/apps/pagerank.h"
#include "src/apps/spmv.h"
#include "src/apps/sssp.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"

using namespace nestpar;
using nested::LoopParams;
using nested::LoopTemplate;

namespace {

struct PaperRow {
  const char* app;
  double lb32, lb64, lb256, lb1024, baseline;
};
constexpr PaperRow kPaper[] = {
    {"SSSP", .756, .719, .453, .372, .356},
    {"BC", .758, .567, .171, .108, .103},
    {"PageRank", .915, .870, .634, .509, .508},
    {"SpMV", .944, .823, .715, .515, .510},
};

double warp_eff(simt::Session& session, const char* exclude_prefix) {
  simt::Metrics m;
  for (const auto& kr : session.report().per_kernel) {
    if (kr.name.rfind(exclude_prefix, 0) != 0) m += kr.metrics;
  }
  return m.warp_execution_efficiency();
}

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.1);
  const auto sources = static_cast<std::uint32_t>(args.get_int("sources", 32));

  bench::banner(
      "Table II - warp execution efficiency of dbuf-shared vs lbTHRES "
      "(CiteSeer-like scale " + bench::fmt(scale) + " for SSSP/PageRank/SpMV, "
      "Wiki-Vote-like for BC)",
      "efficiency falls monotonically as lbTHRES grows and always exceeds "
      "the thread-mapped baseline");

  const graph::Csr cs = bench::citeseer(scale, /*weighted=*/true);
  const graph::Csr wv = bench::wikivote(1.0);
  const auto mat = matrix::CsrMatrix::from_graph(cs);
  const auto x = matrix::make_dense_vector(mat.cols, 7);

  // app -> (template, lbTHRES) -> warp efficiency of its nested-loop kernels.
  const auto measure = [&](int app, LoopTemplate t,
                           int lb) -> double {
    simt::Device dev;
    simt::Session session = dev.session();
    LoopParams p;
    p.lb_threshold = lb;
    double eff = 0.0;
    const char* dataset = "citeseer";
    switch (app) {
      case 0:
        apps::run_sssp(dev, cs, 0, t, p);
        eff = warp_eff(session, "sssp/update");
        break;
      case 1: {
        apps::BcOptions opt;
        opt.num_sources = sources;
        apps::run_bc(dev, wv, t, p, opt);
        eff = warp_eff(session, "bc/accumulate");
        dataset = "wikivote";
        break;
      }
      case 2:
        apps::run_pagerank(dev, cs, t, p);
        eff = warp_eff(session, "\xff");
        break;
      default:
        apps::run_spmv(dev, mat, x, t, p);
        eff = warp_eff(session, "\xff");
        break;
    }
    bench::Measurement m = bench::Measurement::from_report(session.report());
    m.tmpl = std::string(kPaper[app].app) + "/" + std::string(nested::name(t));
    m.dataset = dataset;
    m.scale = app == 1 ? 1.0 : scale;
    m.params["lb_threshold"] = lb;
    m.warp_efficiency = eff;  // the profiled (filtered) headline number
    out.measurements.push_back(std::move(m));
    return eff;
  };

  bench::table_header({"app", "lb=32", "lb=64", "lb=256", "lb=1024",
                       "baseline"});
  for (int app = 0; app < 4; ++app) {
    std::vector<std::string> row{kPaper[app].app};
    for (const int lb : {32, 64, 256, 1024}) {
      row.push_back(bench::fmt_pct(measure(app, LoopTemplate::kDbufShared, lb)));
    }
    row.push_back(bench::fmt_pct(measure(app, LoopTemplate::kBaseline, 32)));
    bench::table_row(row);
    bench::table_row({"  (paper)", bench::fmt_pct(kPaper[app].lb32),
                      bench::fmt_pct(kPaper[app].lb64),
                      bench::fmt_pct(kPaper[app].lb256),
                      bench::fmt_pct(kPaper[app].lb1024),
                      bench::fmt_pct(kPaper[app].baseline)});
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.01", "--sources=4"};

const bench::Registration reg{{
    .name = "table2_warp_efficiency",
    .figure = "Table II",
    .description = "dbuf-shared warp efficiency vs lbTHRES across four apps",
    .usage = "table2_warp_efficiency [--scale=0.1] [--sources=32] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
