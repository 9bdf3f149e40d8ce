// Figure 2: execution time of the sort implementations on random int arrays
// (the paper's motivation study for dynamic parallelism): CDP Simple
// QuickSort vs CDP Advanced QuickSort vs flat (non-recursive) MergeSort.
// Expected shape: MergeSort < AdvancedQS < SimpleQS at every size — the flat
// kernel beats both recursive codes despite their optimizations.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "src/simt/log.h"
#include "src/sort/sort.h"

using namespace nestpar;

namespace {

constexpr const char* kAlgoNames[] = {"mergesort", "advanced-quicksort",
                                      "simple-quicksort"};

struct SortRun {
  double ms = 0.0;
  simt::RunReport report;
};

SortRun run_ms(int algo, std::vector<int> keys) {
  simt::Device dev;
  simt::Session session = dev.session();
  switch (algo) {
    case 0: sort::mergesort(dev, keys); break;
    case 1: sort::advanced_quicksort(dev, keys); break;
    default: sort::simple_quicksort(dev, keys); break;
  }
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] > keys[i]) {
      nestpar::simt::log::error("sort produced unsorted output!\n");
      std::exit(1);
    }
  }
  SortRun r;
  r.report = session.report();
  r.ms = r.report.total_us / 1000.0;
  return r;
}

int run(const bench::Args& args, bench::SuiteResult& out) {
  const auto max_size =
      static_cast<std::size_t>(args.get_int("max-size", 2000000));

  bench::banner(
      "Figure 2 - execution time of sort implementations (model ms, "
      "log-scale in the paper)",
      "MergeSort fastest at every size; Advanced QuickSort beats Simple "
      "QuickSort; both CDP sorts lose to the flat kernel");

  std::vector<std::size_t> sizes;
  if (args.get_flag("all-sizes")) {
    sizes = {300000, 500000, 1000000, 1500000, 2000000};
  } else {
    sizes = {300000, 1000000, 2000000};
  }

  bench::table_header({"elements", "mergesort-ms", "advanced-qs-ms",
                       "simple-qs-ms"});
  for (const std::size_t n : sizes) {
    if (n > max_size) continue;
    const auto keys = sort::make_keys(n, 20150707);
    std::vector<std::string> row{std::to_string(n)};
    for (int algo = 0; algo < 3; ++algo) {
      const SortRun r = run_ms(algo, keys);
      row.push_back(bench::fmt(r.ms));
      bench::Measurement m = bench::Measurement::from_report(r.report);
      m.tmpl = kAlgoNames[algo];
      m.dataset = "random-int";
      m.scale = static_cast<double>(n);
      out.measurements.push_back(std::move(m));
    }
    bench::table_row(row);
  }
  return 0;
}

constexpr const char* kSmokeFlags[] = {"--max-size=300000"};

const bench::Registration reg{{
    .name = "fig2_sort",
    .figure = "Figure 2",
    .description = "sort study: CDP quicksorts vs flat mergesort",
    .usage = "fig2_sort [--max-size=2000000] [--all-sizes] [--out=DIR]",
    .smoke_flags = kSmokeFlags,
    .run = &run,
}};

}  // namespace
