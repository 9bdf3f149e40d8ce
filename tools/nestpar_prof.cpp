// Profile analyzer for PROF_<suite>.json files written by
// `nestpar_bench --profile --out=DIR` (see bench/results.h).
//
//   nestpar_prof PATH [--top=N]
//   nestpar_prof --critpath PATH [--top=N] [--folded=FILE]
//   nestpar_prof --diff BASELINE CURRENT [--top=N] [--threshold=0.05]
//                [--strict]
//
// PATH is one profile file or a directory of PROF_*.json files. The report
// shows, per suite: the top-N kernels by busy cycles with their
// load-imbalance factor (max/mean per-block cycles) and warp efficiency, a
// per-template warp-efficiency rollup, the nesting-depth table, and the
// recorded counter tracks.
//
// `--critpath` switches to the critical-path report:
// the makespan attribution by edge category, a per-template bottleneck
// verdict (launch-bound / imbalance-bound / dependency-bound /
// compute-bound), and the binding chain of the longest session printed
// top-down from the last-finishing grid. `--folded=FILE` additionally
// writes the critical-path cycles as folded flamegraph stacks
// ("suite;kernel-ancestry;[category] cycles" — flamegraph.pl / speedscope
// format).
//
// `--diff` matches kernels by name across two profile sets and reports
// busy-cycle and imbalance movements beyond the threshold as improvements or
// regressions. By default the diff is an annotation and exits 0; `--strict`
// turns annotated drift into exit code 1 so CI can gate on it. Both sides
// must be at the current profile schema; regenerate older files.
//
// Exit codes: 0 report printed (with --strict: no drift), 1 drift under
// --strict, 2 usage or I/O error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/results.h"
#include "src/simt/critpath.h"
#include "src/simt/log.h"
#include "src/simt/profiler.h"

namespace {

namespace fs = std::filesystem;
namespace bench = nestpar::bench;
namespace simt = nestpar::simt;
namespace slog = nestpar::simt::log;

constexpr const char* kUsage =
    "usage: nestpar_prof PATH [--top=N]\n"
    "       nestpar_prof --critpath PATH [--top=N] [--folded=FILE]\n"
    "       nestpar_prof --diff BASELINE CURRENT [--top=N] "
    "[--threshold=0.05] [--strict]\n"
    "  PATH is a PROF_<suite>.json file or a directory of them";

// Loads one file, or every PROF_*.json inside a directory, keyed by suite.
std::map<std::string, bench::SuiteProfile> load(const std::string& path) {
  std::map<std::string, bench::SuiteProfile> by_suite;
  std::vector<std::string> files;
  if (fs::is_directory(path)) {
    for (const fs::directory_entry& e : fs::directory_iterator(path)) {
      const std::string name = e.path().filename().string();
      if (e.is_regular_file() && name.rfind("PROF_", 0) == 0 &&
          name.size() > 5 && name.substr(name.size() - 5) == ".json") {
        files.push_back(e.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  for (const std::string& f : files) {
    bench::SuiteProfile p = bench::load_profile_file(f);
    if (by_suite.count(p.suite)) {
      throw std::runtime_error("duplicate suite '" + p.suite + "' in " + path);
    }
    by_suite.emplace(p.suite, std::move(p));
  }
  if (by_suite.empty()) {
    throw std::runtime_error("no PROF_*.json files found in " + path);
  }
  return by_suite;
}

/// Template segment of a "workload/template/phase" kernel name: the second
/// '/'-separated segment when present ("sssp/dbuf-shared/main" ->
/// "dbuf-shared", "sssp/update" -> "update"), else the whole name.
std::string template_of(const std::string& kernel) {
  const auto first = kernel.find('/');
  if (first == std::string::npos) return kernel;
  const auto second = kernel.find('/', first + 1);
  if (second == std::string::npos) return kernel.substr(first + 1);
  return kernel.substr(first + 1, second - first - 1);
}

std::vector<const simt::KernelProfile*> by_busy_cycles(
    const simt::ProfileSnapshot& p) {
  std::vector<const simt::KernelProfile*> order;
  order.reserve(p.kernels.size());
  for (const simt::KernelProfile& k : p.kernels) order.push_back(&k);
  std::stable_sort(order.begin(), order.end(),
                   [](const simt::KernelProfile* a,
                      const simt::KernelProfile* b) {
                     return a->busy_cycles > b->busy_cycles;
                   });
  return order;
}

void report_suite(const bench::SuiteProfile& profile, std::size_t top) {
  const simt::ProfileSnapshot& p = profile.prof;
  std::printf("suite %s: %.0f cycles over %llu report(s), %llu grids "
              "(%llu device-launched)\n",
              profile.suite.c_str(), p.total_cycles,
              static_cast<unsigned long long>(p.reports),
              static_cast<unsigned long long>(p.grids),
              static_cast<unsigned long long>(p.device_grids));

  const auto order = by_busy_cycles(p);
  std::printf("  %-44s %10s %14s %9s %8s\n", "kernel", "grids", "busy-cycles",
              "imbal", "warp-eff");
  for (std::size_t i = 0; i < order.size() && i < top; ++i) {
    const simt::KernelProfile& k = *order[i];
    std::printf("  %-44s %10llu %14.0f %9.2f %7.1f%%\n", k.name.c_str(),
                static_cast<unsigned long long>(k.invocations), k.busy_cycles,
                k.imbalance(), k.warp_efficiency() * 100.0);
  }
  if (order.size() > top) {
    std::printf("  ... %zu more kernel(s)\n", order.size() - top);
  }

  // Warp-efficiency rollup per template (middle name segment), weighted by
  // each kernel's issued warp-instruction groups.
  struct Roll {
    std::uint64_t warp_steps = 0;
    std::uint64_t active_lane_ops = 0;
    double busy_cycles = 0.0;
  };
  std::map<std::string, Roll> rollup;
  for (const simt::KernelProfile& k : p.kernels) {
    Roll& r = rollup[template_of(k.name)];
    r.warp_steps += k.warp_steps;
    r.active_lane_ops += k.active_lane_ops;
    r.busy_cycles += k.busy_cycles;
  }
  std::printf("  per-template warp efficiency:\n");
  for (const auto& [tmpl, r] : rollup) {
    const double eff =
        r.warp_steps == 0 ? 0.0
                          : static_cast<double>(r.active_lane_ops) /
                                (32.0 * static_cast<double>(r.warp_steps));
    std::printf("    %-30s %7.1f%%  (%.0f busy cycles)\n", tmpl.c_str(),
                eff * 100.0, r.busy_cycles);
  }

  if (!p.depth_grids.empty()) {
    std::printf("  grids by nesting depth:");
    for (const auto& [depth, n] : p.depth_grids) {
      std::printf("  %u:%llu", depth, static_cast<unsigned long long>(n));
    }
    std::printf("\n");
  }

  if (!p.tracks.empty()) {
    std::printf("  tracks:\n");
    for (const auto& [name, h] : p.tracks) {
      std::printf("    %-44s n=%llu mean=%.2f min=%.0f max=%.0f\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.mean(), h.min_value, h.max_value);
    }
  }
  std::printf("\n");
}

// -- Critical-path report (--critpath) --------------------------------------

void report_critpath(const bench::SuiteProfile& profile, std::size_t top) {
  const simt::ProfileSnapshot& p = profile.prof;
  const double attributed = p.crit_total.total();
  std::printf("suite %s: critical path over %llu report(s), %.0f cycles "
              "attributed\n",
              profile.suite.c_str(),
              static_cast<unsigned long long>(p.reports), attributed);
  if (attributed <= 0.0) {
    std::printf("  no critical-path data (regenerate with this build's "
                "nestpar_bench --profile)\n\n");
    return;
  }

  std::printf("  attribution (== sum of session makespans):\n");
  for (int i = 0; i < simt::kCritCategoryCount; ++i) {
    const auto cat = static_cast<simt::CritCategory>(i);
    const double cycles = p.crit_total[cat];
    std::printf("    %-12s %16.0f cycles  %5.1f%%\n",
                std::string(simt::to_string(cat)).c_str(), cycles,
                attributed > 0.0 ? 100.0 * cycles / attributed : 0.0);
  }

  const auto by_template = simt::attribution_by_template(p.crit_kernels);
  std::printf("  per-template bottleneck verdicts:\n");
  for (const auto& [tmpl, attr] : by_template) {
    const simt::CritVerdict verdict = simt::classify_bottleneck(attr);
    const double total = attr.total();
    const auto share = [&](simt::CritCategory c) {
      return total > 0.0 ? 100.0 * attr[c] / total : 0.0;
    };
    std::printf("    %-30s %-16s (compute %.1f%%, imbalance %.1f%%, "
                "launch %.1f%%, dep %.1f%% of %.0f cycles)\n",
                tmpl.c_str(),
                std::string(simt::to_string(verdict)).c_str(),
                share(simt::CritCategory::kCompute) +
                    share(simt::CritCategory::kFault),
                share(simt::CritCategory::kImbalance),
                share(simt::CritCategory::kLaunch) +
                    share(simt::CritCategory::kOccupancy),
                share(simt::CritCategory::kDepWait) +
                    share(simt::CritCategory::kStreamWait),
                total);
  }

  if (!p.crit_chain.empty()) {
    // Top-down: from the last-finishing grid backwards in time.
    const std::size_t limit = std::max<std::size_t>(top * 2, 20);
    std::printf("  binding chain (longest session, makespan %.0f cycles, "
                "top-down):\n",
                p.crit_chain_makespan);
    std::printf("    %14s  %-12s %s\n", "cycles", "category",
                "kernel (depth)");
    std::size_t shown = 0;
    for (auto it = p.crit_chain.rbegin();
         it != p.crit_chain.rend() && shown < limit; ++it) {
      if (it->cycles <= 0.0 &&
          it->category != simt::CritCategory::kStreamWait) {
        continue;
      }
      std::printf("    %14.0f  %-12s %s (%u)\n", it->cycles,
                  std::string(simt::to_string(it->category)).c_str(),
                  it->kernel.c_str(), it->depth);
      ++shown;
    }
    if (p.crit_chain.size() > shown) {
      std::printf("    ... %zu more segment(s)\n",
                  p.crit_chain.size() - shown);
    }
  }
  std::printf("\n");
}

/// Appends every suite's folded critical-path stacks to `out`, prefixing
/// frames with the suite name so one file holds a whole run's flamegraph.
void write_folded(std::FILE* out,
                  const std::map<std::string, bench::SuiteProfile>& profiles) {
  for (const auto& [suite, p] : profiles) {
    for (const auto& [stack, cycles] : p.prof.crit_folded) {
      std::fprintf(out, "%s;%s %lld\n", suite.c_str(), stack.c_str(),
                   static_cast<long long>(std::llround(cycles)));
    }
  }
}

void diff_suite(const bench::SuiteProfile& base,
                const bench::SuiteProfile& cur, double threshold,
                int& moved) {
  for (const simt::KernelProfile& b : base.prof.kernels) {
    const simt::KernelProfile* c = cur.prof.find(b.name);
    if (c == nullptr) {
      std::printf("  %-44s missing from current\n", b.name.c_str());
      ++moved;
      continue;
    }
    const auto classify = [&](double bv, double cv, bool up_is_bad,
                              const char* metric) {
      const double denom = std::max(std::abs(bv), 1e-12);
      const double rel = (cv - bv) / denom;
      if (std::abs(rel) <= threshold) return;
      const bool bad = up_is_bad ? rel > 0 : rel < 0;
      std::printf("  %-44s %-10s %12.2f -> %12.2f (%+6.1f%%) %s\n",
                  b.name.c_str(), metric, bv, cv, rel * 100.0,
                  bad ? "REGRESSED" : "IMPROVED");
      ++moved;
    };
    classify(b.busy_cycles, c->busy_cycles, /*up_is_bad=*/true, "busy");
    classify(b.imbalance(), c->imbalance(), /*up_is_bad=*/true, "imbal");
    classify(b.warp_efficiency(), c->warp_efficiency(), /*up_is_bad=*/false,
             "warp-eff");
  }
  for (const simt::KernelProfile& c : cur.prof.kernels) {
    if (base.prof.find(c.name) == nullptr) {
      std::printf("  %-44s new in current\n", c.name.c_str());
    }
  }
}

int run_diff(const std::string& base_path, const std::string& cur_path,
             std::size_t top, double threshold, bool strict) {
  (void)top;
  std::map<std::string, bench::SuiteProfile> base;
  std::map<std::string, bench::SuiteProfile> cur;
  try {
    base = load(base_path);
    cur = load(cur_path);
  } catch (const std::runtime_error& e) {
    slog::error("error: %s\n", e.what());
    return 2;
  }
  int moved = 0;
  for (const auto& [suite, b] : base) {
    const auto it = cur.find(suite);
    if (it == cur.end()) {
      std::printf("suite %-24s MISSING from current\n", suite.c_str());
      ++moved;
      continue;
    }
    std::printf("suite %s:\n", suite.c_str());
    diff_suite(b, it->second, threshold, moved);
  }
  for (const auto& [suite, c] : cur) {
    if (!base.count(suite)) {
      std::printf("suite %-24s new in current (no baseline)\n", suite.c_str());
    }
  }
  std::printf("\n%d profile metric(s) moved beyond %.1f%%\n", moved,
              threshold * 100.0);
  // Annotation by default; a gate only when the caller asked for one.
  return strict && moved > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool diff = false;
  bool critpath = false;
  bool strict = false;
  std::size_t top = 10;
  double threshold = 0.05;
  std::string folded_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s\n", kUsage);
      return 0;
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg == "--critpath") {
      critpath = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg.rfind("--folded=", 0) == 0) {
      folded_path = arg.substr(9);
    } else if (arg.rfind("--top=", 0) == 0) {
      top = static_cast<std::size_t>(std::stoul(arg.substr(6)));
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::stod(arg.substr(12));
    } else if (arg.rfind("--", 0) == 0) {
      slog::error("unknown argument '%s'\n%s\n", arg.c_str(), kUsage);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (diff) {
    if (paths.size() != 2) {
      slog::error("--diff needs exactly two paths\n%s\n", kUsage);
      return 2;
    }
    return run_diff(paths[0], paths[1], top, threshold, strict);
  }
  if (paths.size() != 1) {
    slog::error("%s\n", kUsage);
    return 2;
  }
  std::map<std::string, bench::SuiteProfile> profiles;
  try {
    profiles = load(paths[0]);
  } catch (const std::runtime_error& e) {
    slog::error("error: %s\n", e.what());
    return 2;
  }
  for (const auto& [suite, p] : profiles) {
    critpath ? report_critpath(p, top) : report_suite(p, top);
  }
  if (!folded_path.empty()) {
    std::FILE* f = std::fopen(folded_path.c_str(), "wb");
    if (f == nullptr) {
      slog::error("error: cannot open '%s' for writing\n",
                  folded_path.c_str());
      return 2;
    }
    write_folded(f, profiles);
    std::fclose(f);
    std::printf("wrote folded stacks to %s\n", folded_path.c_str());
  }
  return 0;
}
