// Device-sensitivity ablation: do the paper's conclusions hold across
// device generations? Re-runs the SpMV template comparison on the K20 (the
// paper's testbed), a K40-like part, and a tiny 2-SM Kepler. The template
// *ranking* should be stable even though absolute times shift.
#include <cstdio>

#include "bench_util.h"
#include "src/apps/spmv.h"
#include "src/matrix/csr_matrix.h"
#include "src/nested/templates.h"

using namespace nestpar;
using nested::LoopTemplate;

namespace {

int run(const bench::Args& args, bench::SuiteResult& out) {
  const double scale = args.get_double("scale", 0.05);

  bench::banner(
      "Device sensitivity - SpMV template speedups across device presets "
      "(CiteSeer-like scale " + bench::fmt(scale) + ", lbTHRES=32)",
      "the template ranking (dbuf-global/dpar-opt > dual-queue > baseline "
      ">> dpar-naive) is a property of the workload, not of one device");

  const graph::Csr g = bench::citeseer(scale, /*weighted=*/true);
  const auto mat = matrix::CsrMatrix::from_graph(g);
  const auto x = matrix::make_dense_vector(mat.cols, 7);

  struct Preset {
    const char* name;
    const char* slug;
    simt::DeviceSpec spec;
  };
  const Preset presets[] = {
      {"K20 (paper)", "k20", simt::DeviceSpec::k20()},
      {"K40-like", "k40", simt::DeviceSpec::k40()},
      {"2-SM Kepler", "small-kepler", simt::DeviceSpec::small_kepler()},
  };

  bench::table_header({"device", "base-us", "dual-queue", "dbuf-shared",
                       "dbuf-global", "dpar-opt"});
  for (const Preset& preset : presets) {
    simt::Device dev(preset.spec);
    double base = 0.0;
    {
      simt::Session session = dev.session();
      apps::run_spmv(dev, mat, x, LoopTemplate::kBaseline);
      const simt::RunReport rep = session.report();
      base = rep.total_us;
      bench::Measurement m = bench::Measurement::from_report(rep);
      m.tmpl = std::string(preset.slug) + "/baseline";
      m.dataset = "citeseer";
      m.scale = scale;
      m.params["lb_threshold"] = 32;
      out.measurements.push_back(std::move(m));
    }
    std::vector<std::string> row{preset.name, bench::fmt(base, 0)};
    for (const LoopTemplate t :
         {LoopTemplate::kDualQueue, LoopTemplate::kDbufShared,
          LoopTemplate::kDbufGlobal, LoopTemplate::kDparOpt}) {
      simt::Session session = dev.session();
      nested::LoopParams p;
      p.lb_threshold = 32;
      apps::run_spmv(dev, mat, x, t, p);
      const simt::RunReport rep = session.report();
      row.push_back(bench::fmt(base / rep.total_us) + "x");
      bench::Measurement m = bench::Measurement::from_report(rep);
      m.tmpl = std::string(preset.slug) + "/" + std::string(nested::name(t));
      m.dataset = "citeseer";
      m.scale = scale;
      m.params["lb_threshold"] = 32;
      m.extra["speedup"] = base / rep.total_us;
      out.measurements.push_back(std::move(m));
    }
    bench::table_row(row);
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--scale=0.01"};

const bench::Registration reg{{
    .name = "device_sensitivity",
    .figure = "— (ablation)",
    .description = "SpMV template ranking across K20/K40/small-Kepler presets",
    .usage = "device_sensitivity [--scale=0.05] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
