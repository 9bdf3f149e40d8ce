// Regression comparator for BENCH_<suite>.json and SERVE_<suite>.json
// result files.
//
//   compare_results --baseline=PATH --current=PATH [--threshold=X] [--json]
//
// Each PATH is either one result file or a directory of BENCH_*.json (and
// optionally SERVE_*.json) files. BENCH records are matched by (suite,
// template, dataset, scale, params), SERVE records by (suite, scenario,
// params).
//
// By default the gate is exact: every field outside `extra_volatile` must
// equal its baseline, and a delta in either direction — or a baseline
// record that disappeared — is a regression. Modeled numbers are
// deterministic, so any drift means the model or the schedule changed.
//
// `--threshold=X` (X >= 0) switches to the thresholded report for changes
// that move the model on purpose: only the gated metrics (cycles, warp
// efficiency, launches, fault activity, serve outcomes and latencies) are
// diffed, a relative delta in the bad direction beyond X is a regression,
// and deltas beyond X in the good direction are reported as improvements.
//
// `--json` replaces the human-readable report with a single JSON document
// on stdout, for CI annotation.
//
// Exit codes: 0 no regressions, 1 regressions found, 2 usage or I/O error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "json.h"
#include "results.h"
#include "src/simt/log.h"

namespace {

namespace fs = std::filesystem;
namespace bench = nestpar::bench;
namespace slog = nestpar::simt::log;

constexpr const char* kUsage =
    "usage: compare_results --baseline=PATH --current=PATH "
    "[--threshold=X] [--json]\n"
    "  PATH is a BENCH_<suite>.json file or a directory of them\n"
    "  default: every field outside extra_volatile must match exactly;\n"
    "  --threshold=X reports gated metrics moving by more than X (0.05 = 5%)";

// Loads one file, or every BENCH_*.json inside a directory, keyed by suite.
// A lone SERVE_*.json file path loads as a serve-only result.
std::map<std::string, bench::SuiteResult> load(const std::string& path) {
  std::map<std::string, bench::SuiteResult> by_suite;
  std::vector<std::string> files;
  if (fs::is_directory(path)) {
    for (const fs::directory_entry& e : fs::directory_iterator(path)) {
      const std::string name = e.path().filename().string();
      if (e.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
          name.size() > 5 && name.substr(name.size() - 5) == ".json") {
        files.push_back(e.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  for (const std::string& f : files) {
    const std::string name = fs::path(f).filename().string();
    bench::SuiteResult r = name.rfind("SERVE_", 0) == 0
                               ? bench::load_serve_file(f)
                               : bench::load_result_file(f);
    if (by_suite.count(r.suite)) {
      throw std::runtime_error("duplicate suite '" + r.suite + "' in " + path);
    }
    by_suite.emplace(r.suite, std::move(r));
  }
  if (by_suite.empty()) {
    throw std::runtime_error("no BENCH_*.json files found in " + path);
  }
  return by_suite;
}

// Folds every SERVE_*.json in a directory into the already-loaded suites
// (matching by suite name; a serve file without a BENCH sibling gets its own
// entry). Absence of serve files is fine — most suites don't serve.
void load_serve_dir(const std::string& path,
                    std::map<std::string, bench::SuiteResult>& by_suite) {
  if (!fs::is_directory(path)) return;
  std::vector<std::string> files;
  for (const fs::directory_entry& e : fs::directory_iterator(path)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && name.rfind("SERVE_", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".json") {
      files.push_back(e.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    bench::SuiteResult r = bench::load_serve_file(f);
    const auto it = by_suite.find(r.suite);
    if (it == by_suite.end()) {
      by_suite.emplace(r.suite, std::move(r));
    } else {
      if (!it->second.serve.empty()) {
        throw std::runtime_error("duplicate serve records for suite '" +
                                 r.suite + "' in " + path);
      }
      it->second.serve = std::move(r.serve);
    }
  }
}

// Non-finite values (a non-numeric or one-sided field) print as null.
std::string num_or_null(double v) {
  return std::isfinite(v) ? bench::json_num(v) : "null";
}

void print_json(const bench::CompareReport& total, int missing_suites,
                std::optional<double> threshold, int regressions,
                int improvements) {
  std::string out = "{\n";
  out += "  \"matched\": " + std::to_string(total.matched) + ",\n";
  out += "  \"missing\": " + std::to_string(total.missing) + ",\n";
  out += "  \"added\": " + std::to_string(total.added) + ",\n";
  out += "  \"missing_suites\": " + std::to_string(missing_suites) + ",\n";
  out += "  \"threshold\": " + num_or_null(threshold.value_or(NAN)) + ",\n";
  out += "  \"regressions\": " + std::to_string(regressions) + ",\n";
  out += "  \"improvements\": " + std::to_string(improvements) + ",\n";
  out += "  \"deltas\": [";
  for (std::size_t i = 0; i < total.deltas.size(); ++i) {
    const bench::MetricDelta& d = total.deltas[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"suite\": " + bench::json_str(d.suite) +
           ", \"key\": " + bench::json_str(d.key) +
           ", \"metric\": " + bench::json_str(d.metric) +
           ",\n     \"baseline\": " + num_or_null(d.baseline) +
           ", \"current\": " + num_or_null(d.current) +
           ", \"rel_delta\": " + num_or_null(d.rel_delta) +
           ", \"regression\": " + (d.regression ? "true" : "false") +
           ", \"improvement\": " + (d.improvement ? "true" : "false") + "}";
  }
  out += "\n  ]\n}\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, kUsage);
  const std::string baseline_path = args.get_string("baseline", "");
  const std::string current_path = args.get_string("current", "");
  const bool json_output = args.get_flag("json");
  std::optional<double> threshold;  // Unset: the exact gate.
  try {
    if (args.get_flag("threshold")) {
      threshold = args.get_double("threshold", 0.0);
      if (*threshold < 0.0) {
        throw std::invalid_argument("flag '--threshold' must be >= 0");
      }
    }
  } catch (const std::invalid_argument& e) {
    slog::error("error: %s\n%s\n", e.what(), kUsage);
    return 2;
  }
  if (baseline_path.empty() || current_path.empty()) {
    slog::error("%s\n", kUsage);
    return 2;
  }

  std::map<std::string, bench::SuiteResult> baseline;
  std::map<std::string, bench::SuiteResult> current;
  try {
    baseline = load(baseline_path);
    current = load(current_path);
    load_serve_dir(baseline_path, baseline);
    load_serve_dir(current_path, current);
  } catch (const std::runtime_error& e) {
    slog::error("error: %s\n", e.what());
    return 2;
  }

  bench::CompareReport total;
  int missing_suites = 0;
  for (const auto& [suite, base] : baseline) {
    const auto it = current.find(suite);
    if (it == current.end()) {
      if (!json_output) {
        std::printf("suite %-24s MISSING from current\n", suite.c_str());
      }
      ++missing_suites;
      continue;
    }
    bench::CompareReport rep;
    if (threshold.has_value()) {
      const bench::CompareOptions opt{*threshold};
      rep = bench::compare_results(base, it->second, opt);
      bench::merge_compare_reports(
          rep, bench::compare_serve(base, it->second, opt));
    } else {
      try {
        rep = bench::compare_exact(base, it->second);
      } catch (const std::exception& e) {
        slog::error("error: suite '%s': %s\n", suite.c_str(), e.what());
        return 2;
      }
    }
    if (!json_output) {
      std::printf("suite %-24s matched=%d missing=%d added=%d%s\n",
                  suite.c_str(), rep.matched, rep.missing, rep.added,
                  rep.has_regression() ? "  REGRESSION" : "");
    }
    bench::merge_compare_reports(total, rep);
  }
  if (!json_output) {
    for (const auto& [suite, cur] : current) {
      if (!baseline.count(suite)) {
        std::printf("suite %-24s new in current (no baseline)\n",
                    suite.c_str());
      }
    }
  }

  int regressions = 0;
  int improvements = 0;
  for (const bench::MetricDelta& d : total.deltas) {
    if (d.regression) ++regressions;
    if (d.improvement) ++improvements;
    if (!json_output) {
      std::printf("%s %s/%s %s: %g -> %g (%+.2f%%)\n",
                  d.regression     ? "REGRESSION"
                  : d.improvement  ? "IMPROVED  "
                                   : "delta     ",
                  d.suite.c_str(), d.key.c_str(), d.metric.c_str(), d.baseline,
                  d.current, d.rel_delta * 100.0);
    }
  }

  const bool regressed = total.has_regression() || missing_suites > 0;
  if (json_output) {
    print_json(total, missing_suites, threshold, regressions, improvements);
  } else {
    char gate[32] = "exact";
    if (threshold.has_value()) {
      std::snprintf(gate, sizeof(gate), "threshold %.1f%%", *threshold * 100);
    }
    std::printf("\n%d record pairs compared, %d missing, %d added, "
                "%zu metric deltas (%d regression%s, %d improvement%s); "
                "%s -> %s\n",
                total.matched, total.missing, total.added, total.deltas.size(),
                regressions, regressions == 1 ? "" : "s", improvements,
                improvements == 1 ? "" : "s", gate,
                regressed ? "REGRESSIONS FOUND" : "clean");
  }
  return regressed ? 1 : 0;
}
