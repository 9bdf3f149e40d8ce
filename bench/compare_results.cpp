// Regression comparator for the BENCH_<suite>.json, SERVE_<suite>.json and
// PROF_<suite>.json files the bench driver writes.
//
//   compare_results --baseline=PATH --current=PATH
//
// Each PATH is either one such file or a directory of them. BENCH records
// are matched by (template, dataset, scale, params), SERVE records by
// (scenario, params), and PROF records by kernel name, plus one record that
// holds the rest of the profile document (see bench::compare_exact).
//
// The gate is exact: every field outside `extra_volatile` must equal its
// baseline, and so must the file's bytes once the `extra_volatile` members
// are stripped from both sides. A delta in either direction, a record out
// of order, a baseline record that disappeared, a byte that differs (a
// number written in another format), or a baseline file with no current
// counterpart is a regression. Modeled numbers are deterministic, so any
// drift means the model or the schedule changed; a change that moves them
// on purpose reads every delta in the report (baseline -> current,
// relative %) and regenerates the baselines.
//
// Exit codes: 0 no regressions, 1 regressions found, 2 usage or I/O error.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
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
    "usage: compare_results --baseline=PATH --current=PATH\n"
    "  PATH is a BENCH_/SERVE_/PROF_<suite>.json file or a directory of them;\n"
    "  every field and byte outside extra_volatile must match exactly";

using Document = std::variant<bench::SuiteResult, bench::SuiteProfile>;

struct Loaded {
  Document doc;
  std::string bytes;  ///< The file's text, extra_volatile stripped.
};

bool is_result_file(const std::string& name) {
  return (name.starts_with("BENCH_") || name.starts_with("SERVE_") ||
          name.starts_with("PROF_")) &&
         name.ends_with(".json");
}

std::string read_text(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

// Loads one file, or every BENCH_/SERVE_/PROF_*.json inside a directory,
// keyed by "<KIND>_<suite>" (the file stem the writer gives it). A lone
// file whose name has none of these prefixes loads as a BENCH file.
std::map<std::string, Loaded> load(const std::string& path) {
  std::vector<std::string> files;
  if (fs::is_directory(path)) {
    for (const fs::directory_entry& e : fs::directory_iterator(path)) {
      if (e.is_regular_file() &&
          is_result_file(e.path().filename().string())) {
        files.push_back(e.path().string());
      }
    }
  } else {
    files.push_back(path);
  }
  std::map<std::string, Loaded> docs;
  for (const std::string& f : files) {
    const std::string name = fs::path(f).filename().string();
    std::string key;
    Loaded doc{{}, bench::strip_volatile(read_text(f))};
    if (name.starts_with("PROF_")) {
      bench::SuiteProfile p = bench::load_profile_file(f);
      key = "PROF_" + p.suite;
      doc.doc = std::move(p);
    } else if (name.starts_with("SERVE_")) {
      bench::SuiteResult r = bench::load_serve_file(f);
      key = "SERVE_" + r.suite;
      doc.doc = std::move(r);
    } else {
      bench::SuiteResult r = bench::load_result_file(f);
      key = "BENCH_" + r.suite;
      doc.doc = std::move(r);
    }
    if (!docs.emplace(key, std::move(doc)).second) {
      throw std::runtime_error("duplicate " + key + " in " + path);
    }
  }
  if (docs.empty()) {
    throw std::runtime_error("no BENCH_/SERVE_/PROF_*.json files found in " +
                             path);
  }
  return docs;
}

// Same-kind documents compare exactly; keys embed the kind, so a key match
// never pairs a profile with a result.
bench::CompareReport compare(const Document& baseline,
                             const Document& current) {
  return std::visit(
      [&](const auto& b) {
        return bench::compare_exact(
            b, std::get<std::decay_t<decltype(b)>>(current));
      },
      baseline);
}

// Shortest round-trip form, so a one-ulp delta still reads as two values; a
// field that is not a number, or absent on that side, reads "n/a".
std::string show(double v) {
  return std::isfinite(v) ? bench::json_num(v) : "n/a";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, kUsage);
  const std::string baseline_path = args.get_string("baseline", "");
  const std::string current_path = args.get_string("current", "");
  if (baseline_path.empty() || current_path.empty()) {
    slog::error("%s\n", kUsage);
    return 2;
  }

  std::map<std::string, Loaded> baseline;
  std::map<std::string, Loaded> current;
  try {
    baseline = load(baseline_path);
    current = load(current_path);
  } catch (const std::runtime_error& e) {
    slog::error("error: %s\n", e.what());
    return 2;
  }

  bench::CompareReport total;
  int missing_files = 0;
  int byte_diffs = 0;
  for (const auto& [key, base] : baseline) {
    const auto it = current.find(key);
    if (it == current.end()) {
      std::printf("%-40s MISSING from current\n", key.c_str());
      ++missing_files;
      continue;
    }
    bench::CompareReport rep;
    try {
      rep = compare(base.doc, it->second.doc);
    } catch (const std::exception& e) {
      slog::error("error: %s: %s\n", key.c_str(), e.what());
      return 2;
    }
    const bool bytes_differ = base.bytes != it->second.bytes;
    byte_diffs += bytes_differ ? 1 : 0;
    std::printf("%-40s matched=%d missing=%d added=%d%s%s\n", key.c_str(),
                rep.matched, rep.missing, rep.added,
                rep.has_regression() ? "  REGRESSION" : "",
                bytes_differ ? "  BYTES DIFFER" : "");
    bench::merge_compare_reports(total, rep);
  }
  for (const auto& [key, cur] : current) {
    if (!baseline.count(key)) {
      std::printf("%-40s new in current (no baseline)\n", key.c_str());
    }
  }

  for (const bench::MetricDelta& d : total.deltas) {
    std::printf("REGRESSION %s/%s %s: %s -> %s", d.suite.c_str(),
                d.key.c_str(), d.metric.c_str(), show(d.baseline).c_str(),
                show(d.current).c_str());
    if (std::isfinite(d.rel_delta)) {
      std::printf(" (%+.2f%%)", d.rel_delta * 100.0);
    }
    std::printf("\n");
  }

  const bool regressed =
      total.has_regression() || missing_files > 0 || byte_diffs > 0;
  std::printf("\n%zu file(s) compared, %d missing; %d record pairs compared, "
              "%d missing, %d added, %zu field delta(s), %d file(s) with "
              "byte differences; exact -> %s\n",
              baseline.size() - missing_files, missing_files, total.matched,
              total.missing, total.added, total.deltas.size(), byte_diffs,
              regressed ? "REGRESSIONS FOUND" : "clean");
  return regressed ? 1 : 0;
}
