// Figure 6: BC / PageRank / SpMV speedup of the load-balancing templates over
// the thread-mapped baseline for a sweep of lbTHRES values. BC runs on the
// Wiki-Vote-like graph, PageRank and SpMV on the CiteSeer-like network.
// Expected shapes: speedups fall as lbTHRES grows; dual-queue is competitive
// only on the small BC dataset (queue-build overhead hurts on large inputs);
// dbuf-shared trails dbuf-global at small lbTHRES and catches up at >= 128.
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "src/apps/bc.h"
#include "src/apps/pagerank.h"
#include "src/apps/spmv.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"

using namespace nestpar;
using nested::LoopParams;
using nested::LoopTemplate;

namespace {

void sweep(
    const char* title, const char* app, const char* dataset, double scale,
    bench::SuiteResult& out,
    const std::function<simt::RunReport(LoopTemplate, const LoopParams&)>&
        run) {
  std::printf("\n-- %s --\n", title);
  // Registry-derived column order: the load-balancing family minus
  // dpar-naive (omitted as in the paper), then the consolidation family.
  std::vector<LoopTemplate> templates;
  for (const nested::LoopTemplateDesc& d : nested::loop_templates()) {
    if (d.tmpl == LoopTemplate::kDparNaive) continue;
    if (d.family == nested::TemplateFamily::kLoadBalancing ||
        d.family == nested::TemplateFamily::kConsolidation) {
      templates.push_back(d.tmpl);
    }
  }
  LoopParams base;
  const double base_us = run(LoopTemplate::kBaseline, base).total_us;
  std::printf("baseline: %.0f us (model time)\n", base_us);
  std::vector<std::string> header{"lbTHRES"};
  for (const LoopTemplate t : templates) {
    header.push_back(std::string(nested::name(t)));
  }
  bench::table_header(header);
  for (const int lb : {32, 64, 128, 256, 512, 1024}) {
    std::vector<std::string> row{std::to_string(lb)};
    for (const LoopTemplate t : templates) {
      LoopParams p;
      p.lb_threshold = lb;
      const simt::RunReport rep = run(t, p);
      row.push_back(bench::fmt(base_us / rep.total_us) + "x");
      bench::Measurement m = bench::Measurement::from_report(rep);
      // The app coordinate lives in the template axis of the suite's JSON
      // ("bc/dual-queue"), keeping (template, dataset, params) a unique key.
      m.tmpl = std::string(app) + "/" + std::string(nested::name(t));
      m.dataset = dataset;
      m.scale = scale;
      m.params["lb_threshold"] = lb;
      m.extra["speedup"] = base_us / rep.total_us;
      out.measurements.push_back(std::move(m));
    }
    bench::table_row(row);
  }
}

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.1);
  const auto sources = static_cast<std::uint32_t>(args.get_int("sources", 32));

  bench::banner(
      "Figure 6 - BC (Wiki-Vote-like) / PageRank / SpMV (CiteSeer-like scale " +
          bench::fmt(scale) + "): speedup of LB templates vs lbTHRES",
      "speedup decreases with lbTHRES; dual-queue best only on BC (small "
      "dataset); dpar-naive omitted as in the paper (far slower)");

  const graph::Csr wv = bench::wikivote(1.0);
  const graph::Csr cs = bench::citeseer(scale, /*weighted=*/true);
  const auto mat = matrix::CsrMatrix::from_graph(cs);
  const auto x = matrix::make_dense_vector(mat.cols, 7);

  sweep("BC (wiki-vote-like)", "bc", "wikivote", 1.0, out,
        [&](LoopTemplate t, const LoopParams& p) {
          simt::Device dev;
          simt::Session session = dev.session();
          apps::BcOptions opt;
          opt.num_sources = sources;
          apps::run_bc(dev, wv, t, p, opt);
          return session.report();
        });

  sweep("PageRank (citeseer-like)", "pagerank", "citeseer", scale, out,
        [&](LoopTemplate t, const LoopParams& p) {
          simt::Device dev;
          simt::Session session = dev.session();
          apps::run_pagerank(dev, cs, t, p);
          return session.report();
        });

  sweep("SpMV (citeseer-like)", "spmv", "citeseer", scale, out,
        [&](LoopTemplate t, const LoopParams& p) {
          simt::Device dev;
          simt::Session session = dev.session();
          apps::run_spmv(dev, mat, x, t, p);
          return session.report();
        });
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.01", "--sources=4"};

const bench::Registration reg{{
    .name = "fig6_bc_pagerank_spmv",
    .figure = "Figure 6",
    .description = "BC/PageRank/SpMV template speedups vs lbTHRES",
    .usage = "fig6_bc_pagerank_spmv [--scale=0.1] [--sources=32] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
