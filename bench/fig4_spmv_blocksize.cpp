// Figure 4: SpMV speedup of the load-balancing templates over the baseline
// under different lbTHRES settings (64 / 128 / 192) and varying block sizes
// for the block-mapped portions of the code. The paper's finding: performance
// is largely insensitive to block size, mainly driven by lbTHRES, with small
// blocks (64) safest because blocks larger than f(i) idle their extra threads.
#include <cstdio>

#include "bench_util.h"
#include "src/apps/spmv.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"

using namespace nestpar;
using nested::LoopTemplate;

namespace {

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.1);

  bench::banner(
      "Figure 4 - SpMV: speedup vs block size of the block-mapped phase, "
      "lbTHRES in {64,128,192} (CiteSeer-like, scale " + bench::fmt(scale) +
          ")",
      "speedup mostly insensitive to block size, dominated by lbTHRES; "
      "smaller blocks slightly better at small lbTHRES (dpar-naive omitted: "
      "far slower)");

  const graph::Csr g = bench::citeseer(scale, /*weighted=*/true);
  const auto mat = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(mat.cols, 7);

  simt::Device dev;
  double base_us = 0.0;
  {
    simt::Session session = dev.session();
    apps::run_spmv(dev, mat, x, LoopTemplate::kBaseline);
    base_us = session.report().total_us;
  }
  std::printf("baseline: %.0f us (block size 192, thread-mapped)\n", base_us);

  const LoopTemplate templates[] = {
      LoopTemplate::kDualQueue, LoopTemplate::kDbufShared,
      LoopTemplate::kDbufGlobal, LoopTemplate::kDparOpt};

  for (const int lb : {64, 128, 192}) {
    std::printf("\n-- lbTHRES = %d --\n", lb);
    bench::table_header({"block-size", "dual-queue", "dbuf-shared",
                         "dbuf-global", "dpar-opt"});
    for (const int bs : {64, 128, 192, 256}) {
      std::vector<std::string> row{std::to_string(bs)};
      for (const LoopTemplate t : templates) {
        simt::Session session = dev.session();
        nested::LoopParams p;
        p.lb_threshold = lb;
        p.block_block_size = bs;
        apps::run_spmv(dev, mat, x, t, p);
        const simt::RunReport rep = session.report();
        row.push_back(bench::fmt(base_us / rep.total_us) + "x");
        bench::Measurement m = bench::Measurement::from_report(rep);
        m.tmpl = std::string(nested::name(t));
        m.dataset = "citeseer";
        m.scale = scale;
        m.params["lb_threshold"] = lb;
        m.params["block_size"] = bs;
        m.extra["speedup"] = base_us / rep.total_us;
        out.measurements.push_back(std::move(m));
      }
      bench::table_row(row);
    }
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.01"};

const bench::Registration reg{{
    .name = "fig4_spmv_blocksize",
    .figure = "Figure 4",
    .description = "SpMV speedup vs block size of the block-mapped phase",
    .usage = "fig4_spmv_blocksize [--scale=0.1] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
