// §III.C streams paragraph (text-only in the paper, no figure): "we have
// tested the use of multiple streams on tree traversal. This optimization
// increases the performance of the naive recursive parallelization template.
// However, the performance improvement is in this case more moderate than in
// graph traversal. ... The use of multiple streams does not have a
// significant effect on the hierarchical recursive parallelization template,
// which has a good GPU utilization even with a single stream and remains the
// preferred solution."
#include <cstdio>

#include "bench_util.h"
#include "src/rec/tree_traversal.h"
#include "src/tree/tree.h"

using namespace nestpar;
using rec::RecTemplate;
using rec::TreeAlgo;

namespace {

int run(const bench::Args& args, bench::SuiteResult& out) {
  const int depth = static_cast<int>(args.get_int("depth", 3));
  const int max_out = static_cast<int>(args.get_int("max-outdegree", 64));

  bench::banner(
      "Tree traversal with extra per-block streams (section III.C text)",
      "extra streams change rec-naive moderately and rec-hier barely; "
      "rec-hier remains the preferred recursive solution either way");

  bench::table_header({"outdegree", "naive-1s-us", "naive-2s-us", "gain",
                       "hier-1s-us", "hier-2s-us", "gain"});
  for (int d = 8; d <= max_out; d *= 2) {
    const tree::Tree tr =
        tree::generate_tree({.depth = depth, .outdegree = d, .sparsity = 0},
                            20150707);
    const auto run_one = [&](RecTemplate t, int streams) {
      simt::Device dev;
      rec::RecOptions opt;
      opt.streams_per_block = streams;
      const rec::TreeRunResult r = rec::run_tree_traversal(
          dev, tr,
          {.algo = TreeAlgo::kDescendants, .tmpl = t, .opt = opt,
           .policy = dev.exec_policy()});
      bench::Measurement m = bench::Measurement::from_report(r.report);
      m.tmpl = std::string(rec::name(t));
      m.dataset = "tree";
      m.params["depth"] = depth;
      m.params["outdegree"] = d;
      m.params["streams_per_block"] = streams;
      out.measurements.push_back(std::move(m));
      return r.report.total_us;
    };
    const double n1 = run_one(RecTemplate::kRecNaive, 1);
    const double n2 = run_one(RecTemplate::kRecNaive, 2);
    const double h1 = run_one(RecTemplate::kRecHier, 1);
    const double h2 = run_one(RecTemplate::kRecHier, 2);
    bench::table_row({std::to_string(d), bench::fmt(n1, 0), bench::fmt(n2, 0),
                      bench::fmt(n1 / n2) + "x", bench::fmt(h1, 0),
                      bench::fmt(h2, 0), bench::fmt(h1 / h2) + "x"});
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--depth=2", "--max-outdegree=16"};

const bench::Registration reg{{
    .name = "tree_streams",
    .figure = "§III.C streams",
    .description = "per-block extra streams on recursive tree traversal",
    .usage = "tree_streams [--depth=3] [--max-outdegree=64] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
