// Related-work comparison (paper §IV): the flattening transformation
// (Blelloch/NESL [25-27]) vs the paper's load-balancing templates. The paper
// argues flattening "can be used to deploy recursive applications on GPUs
// without support for nested kernel invocations" — this bench quantifies the
// trade on the irregular nested loops: flattening gets near-perfect warp
// efficiency but pays scan passes and per-edge segment searches.
#include <cstdio>

#include "bench_util.h"
#include "src/apps/spmv.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/flatten.h"
#include "src/nested/templates.h"

using namespace nestpar;
using nested::LoopTemplate;

namespace {

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.1);

  bench::banner(
      "Related work - flattening [25-27] and virtual warp-centric mapping "
      "[20] vs the paper's templates (SpMV, CiteSeer-like scale " +
          bench::fmt(scale) + ")",
      "flattening achieves the highest warp efficiency without dynamic "
      "parallelism, at the cost of scan + segment-search overhead; the "
      "templates reach similar speedups with far less restructuring");

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

  bench::table_header({"variant", "speedup", "warp-eff", "kernels"});
  const auto report_row = [&](const std::string& name,
                              const simt::RunReport& rep) {
    bench::table_row({name, bench::fmt(base_us / rep.total_us) + "x",
                      bench::fmt_pct(
                          rep.aggregate.warp_execution_efficiency()),
                      std::to_string(rep.grids)});
    bench::Measurement m = bench::Measurement::from_report(rep);
    m.tmpl = name;
    m.dataset = "citeseer";
    m.scale = scale;
    m.extra["speedup"] = base_us / rep.total_us;
    m.extra["kernels"] = static_cast<double>(rep.grids);
    out.measurements.push_back(std::move(m));
  };

  report_row("baseline", [&] {
    simt::Session session = dev.session();
    apps::run_spmv(dev, mat, x, LoopTemplate::kBaseline);
    return session.report();
  }());
  for (const LoopTemplate t :
       {LoopTemplate::kWarpMapped, LoopTemplate::kDualQueue,
        LoopTemplate::kDbufShared, LoopTemplate::kDbufGlobal,
        LoopTemplate::kDparOpt}) {
    simt::Session session = dev.session();
    nested::LoopParams p;
    p.lb_threshold = 32;
    apps::run_spmv(dev, mat, x, t, p);
    report_row(std::string(nested::name(t)), session.report());
  }
  {
    simt::Session session = dev.session();
    std::vector<float> y(mat.rows, 0.0f);
    apps::SpmvWorkload w(mat, x.data(), y.data());
    nested::run_flattened(dev, w);
    report_row("flattened", session.report());
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.01"};

const bench::Registration reg{{
    .name = "related_flattening",
    .figure = "§IV related work",
    .description = "flattening vs the paper's templates on SpMV",
    .usage = "related_flattening [--scale=0.1] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
