// Regression gate for the BENCH_<suite>.json, SERVE_<suite>.json and
// PROF_<suite>.json files the bench driver writes.
//
//   compare_results --baseline=PATH --current=PATH
//
// Each PATH is either one such file or a directory of them. Files pair by
// file name (BENCH_x.json with BENCH_x.json); two single files pair with
// each other whatever their names. Every file first goes through its
// kind's parser, so a malformed file or a stale schema is an error, not a
// difference.
//
// The gate is exact and has one check: a pair matches when its bytes are
// equal once the `extra_volatile` members are stripped from both sides
// (bench::first_difference). A changed field in either direction, a record
// added, dropped or moved, a number written in another format, or a
// baseline file with no current counterpart is a regression. Modeled
// numbers are deterministic, so any drift means the model or the schedule
// changed. The report names each differing file's first differing line;
// a change that moves the model on purpose regenerates the baselines and
// reads the whole change with `git diff --word-diff bench/baselines`.
//
// Exit codes: 0 no regressions, 1 regressions found, 2 usage or I/O error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_util.h"
#include "results.h"
#include "src/simt/log.h"

namespace {

namespace fs = std::filesystem;
namespace bench = nestpar::bench;
namespace slog = nestpar::simt::log;

constexpr const char* kUsage =
    "usage: compare_results --baseline=PATH --current=PATH\n"
    "  PATH is a BENCH_/SERVE_/PROF_<suite>.json file or a directory of them;\n"
    "  every byte outside extra_volatile must match exactly";

bool is_result_file(const std::string& name) {
  return (name.starts_with("BENCH_") || name.starts_with("SERVE_") ||
          name.starts_with("PROF_")) &&
         name.ends_with(".json");
}

// Parses `path` as the kind its name announces (a name with no known prefix
// parses as BENCH) and returns its text.
std::string load(const fs::path& path) {
  const std::string name = path.filename().string();
  if (name.starts_with("PROF_")) {
    (void)bench::load_profile_file(path.string());
  } else if (name.starts_with("SERVE_")) {
    (void)bench::load_serve_file(path.string());
  } else {
    (void)bench::load_result_file(path.string());
  }
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

// One file, or every BENCH_/SERVE_/PROF_*.json inside a directory, keyed by
// file name.
std::map<std::string, std::string> load_all(const std::string& path) {
  std::map<std::string, std::string> docs;
  if (!fs::is_directory(path)) {
    docs.emplace(fs::path(path).filename().string(), load(path));
    return docs;
  }
  for (const fs::directory_entry& e : fs::directory_iterator(path)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && is_result_file(name)) {
      docs.emplace(name, load(e.path()));
    }
  }
  if (docs.empty()) {
    throw std::runtime_error("no BENCH_/SERVE_/PROF_*.json files found in " +
                             path);
  }
  return docs;
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

  std::map<std::string, std::string> baseline;
  std::map<std::string, std::string> current;
  try {
    baseline = load_all(baseline_path);
    current = load_all(current_path);
  } catch (const std::runtime_error& e) {
    slog::error("error: %s\n", e.what());
    return 2;
  }
  // Two single files compare with each other whatever their names.
  if (!fs::is_directory(baseline_path) && !fs::is_directory(current_path)) {
    current = {{baseline.begin()->first, current.begin()->second}};
  }

  int missing = 0;
  int differ = 0;
  for (const auto& [name, base] : baseline) {
    const auto it = current.find(name);
    if (it == current.end()) {
      std::printf("%-40s MISSING from current\n", name.c_str());
      ++missing;
      continue;
    }
    const std::optional<bench::ByteDiff> d =
        bench::first_difference(base, it->second);
    if (!d) {
      std::printf("%-40s same\n", name.c_str());
      continue;
    }
    ++differ;
    std::printf("%-40s DIFFERS at line %zu (baseline %zu lines, current "
                "%zu lines)\n  - %s\n  + %s\n",
                name.c_str(), d->line, d->baseline_lines, d->current_lines,
                d->baseline_line.c_str(), d->current_line.c_str());
  }
  for (const auto& [name, cur] : current) {
    if (!baseline.count(name)) {
      std::printf("%-40s new in current (no baseline)\n", name.c_str());
    }
  }

  const bool regressed = missing > 0 || differ > 0;
  std::printf("\n%zu file(s) compared, %d missing, %d differ; exact -> %s\n",
              baseline.size() - missing, missing, differ,
              regressed ? "REGRESSIONS FOUND" : "clean");
  return regressed ? 1 : 0;
}
