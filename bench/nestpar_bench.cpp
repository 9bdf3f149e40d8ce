// The benchmark driver: every bench/*.cpp suite is compiled into this
// binary, so their static Registration objects populate the registry and
// this main dispatches over it.
//
//   nestpar_bench --list                 enumerate registered suites
//   nestpar_bench --suite=fig5_sssp ...  run one suite (extra flags forwarded;
//                                        with --smoke they override the
//                                        suite's smoke flags; --help prints
//                                        the suite's usage)
//   nestpar_bench --all [--out=DIR]      run every suite, optionally writing
//                                        one BENCH_<suite>.json per suite
//   nestpar_bench --smoke [--out=DIR]    run every suite on its fast smoke
//                                        flags and validate that the emitted
//                                        JSON parses back (CI entry point)
//   nestpar_bench ... --profile          record one simt::Profile per suite;
//                                        with --out=DIR also writes it as
//                                        PROF_<suite>.json
//   nestpar_bench ... --verbose|--quiet  raise/lower the stderr log level
//
// Exit codes: 0 success, 1 a suite failed or its JSON failed validation,
// 2 usage or I/O error.
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/simt/log.h"
#include "src/simt/profiler.h"

namespace {

namespace bench = nestpar::bench;
namespace simt = nestpar::simt;
namespace slog = nestpar::simt::log;

constexpr const char* kUsage =
    "usage: nestpar_bench (--list | --suite=NAME [suite flags...] |\n"
    "                      --all | --smoke) [--out=DIR] [--profile]\n"
    "                     [--verbose | --quiet]\n"
    "  --list        list registered suites and their paper anchors\n"
    "  --suite=NAME  run one suite; remaining flags are forwarded to it\n"
    "                (after its smoke flags with --smoke, so they win)\n"
    "  --all         run every registered suite with default flags\n"
    "  --smoke       run every suite with its fast smoke flags and validate\n"
    "                the JSON it produces round-trips through the parser\n"
    "  --out=DIR     write BENCH_<suite>.json for each suite run to DIR\n"
    "  --profile     collect load-imbalance/warp/nesting distributions, one\n"
    "                profile per suite, and with --out=DIR write each as\n"
    "                PROF_<suite>.json\n"
    "  --verbose     show debug diagnostics on stderr\n"
    "  --quiet       suppress warnings (errors still print)";

void list_suites() {
  std::printf("%-24s %-22s %s\n", "suite", "figure", "description");
  std::printf("%s\n", std::string(78, '-').c_str());
  for (const bench::SuiteSpec& s : bench::Registry::instance().suites()) {
    std::printf("%-24s %-22s %s\n", std::string(s.name).c_str(),
                std::string(s.figure).c_str(),
                std::string(s.description).c_str());
  }
}

// A suite's flags: its compile-time smoke flags when `smoke` is set, then
// the explicit ones, which win because Args keeps a repeated flag's last
// value.
std::vector<std::string> suite_args(const bench::SuiteSpec& spec, bool smoke,
                                    const std::vector<std::string>& given) {
  std::vector<std::string> flags;
  if (smoke) flags.assign(spec.smoke_flags.begin(), spec.smoke_flags.end());
  flags.insert(flags.end(), given.begin(), given.end());
  return flags;
}

// Runs one suite on the given flags. Writes DIR/BENCH_<suite>.json when
// out_dir is set; when validate is set, additionally re-parses the JSON and
// checks the record count survived the round trip. With `profiling` set, the
// suite runs under its own simt::ProfileScope and the profile is written as
// DIR/PROF_<suite>.json afterwards.
int run_suite(const bench::SuiteSpec& spec,
              const std::vector<std::string>& flags,
              const std::string& out_dir, bool validate, bool profiling) {
  const std::string name(spec.name);
  const bench::Args args(flags, spec.usage);
  bench::SuiteProfile profile{name, {}};
  bench::SuiteResult result;
  int rc = 0;
  try {
    std::optional<simt::ProfileScope> scope;
    if (profiling) scope.emplace(profile.prof);
    rc = spec.run(args, result);
  } catch (const std::invalid_argument& e) {
    slog::error("suite '%s': %s\n", name.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    // Any other failure fails this suite only; --all runs the rest.
    slog::error("suite '%s' threw: %s\n", name.c_str(), e.what());
    return 1;
  }
  result.suite = spec.name;
  result.figure = spec.figure;
  if (rc != 0) {
    slog::error("suite '%s' failed (exit %d)\n", name.c_str(), rc);
    return 1;
  }
  try {
    if (validate) {
      const std::string text = bench::to_json(result);
      const bench::SuiteResult parsed = bench::parse_result_json(text);
      if (parsed.suite != result.suite ||
          parsed.measurements.size() != result.measurements.size()) {
        slog::error("suite '%s': JSON round-trip mismatch\n", name.c_str());
        return 1;
      }
      if (!result.serve.empty()) {
        const bench::SuiteResult sparsed =
            bench::parse_serve_json(bench::to_serve_json(result));
        if (sparsed.suite != result.suite ||
            sparsed.serve.size() != result.serve.size()) {
          slog::error("suite '%s': serve JSON round-trip mismatch\n",
                      name.c_str());
          return 1;
        }
      }
      std::printf("[smoke] %s: %zu records, JSON ok\n", name.c_str(),
                  result.measurements.size());
    }
    if (!out_dir.empty()) {
      const std::string path = bench::write_result_file(result, out_dir);
      std::printf("[out] wrote %s\n", path.c_str());
      if (!result.serve.empty()) {
        const std::string spath = bench::write_serve_file(result, out_dir);
        std::printf("[out] wrote %s\n", spath.c_str());
      }
      if (profiling) {
        const std::string ppath = bench::write_profile_file(profile, out_dir);
        std::printf("[out] wrote %s\n", ppath.c_str());
      }
    }
  } catch (const std::exception& e) {
    slog::error("suite '%s': %s\n", name.c_str(), e.what());
    return validate ? 1 : 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool all = false;
  bool smoke = false;
  bool help = false;
  bool profiling = false;
  std::string suite;
  std::string out_dir;
  std::vector<std::string> forwarded;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--profile") {
      profiling = true;
    } else if (arg == "--verbose") {
      slog::set_level(slog::Level::kDebug);
    } else if (arg == "--quiet") {
      slog::set_level(slog::Level::kError);
    } else if (arg.rfind("--suite=", 0) == 0) {
      suite = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_dir = arg.substr(6);
    } else {
      forwarded.push_back(arg);
    }
  }

  if (help && suite.empty()) {
    std::printf("%s\n", kUsage);
    return 0;
  }
  if (list) {
    list_suites();
    return 0;
  }
  if (!suite.empty()) {
    const bench::SuiteSpec* spec = bench::Registry::instance().find(suite);
    if (spec == nullptr) {
      slog::error("suite '%s' is not registered; --list shows all\n",
                  suite.c_str());
      return 2;
    }
    if (help) {
      std::printf("%.*s\n", static_cast<int>(spec->usage.size()),
                  spec->usage.data());
      return 0;
    }
    return run_suite(*spec, suite_args(*spec, smoke, forwarded), out_dir,
                     smoke, profiling);
  }
  if (all || smoke) {
    if (!forwarded.empty()) {
      slog::error("unexpected argument '%s' (suite flags need "
                  "--suite=NAME)\n%s\n",
                  forwarded.front().c_str(), kUsage);
      return 2;
    }
    int worst = 0;
    for (const bench::SuiteSpec& spec : bench::Registry::instance().suites()) {
      std::printf("\n### %s\n", std::string(spec.name).c_str());
      slog::debug("[bench] starting suite '%s'\n",
                  std::string(spec.name).c_str());
      const int rc = run_suite(spec, suite_args(spec, smoke, {}), out_dir,
                               smoke, profiling);
      if (rc > worst) worst = rc;
    }
    return worst;
  }
  slog::error("%s\n", kUsage);
  return 2;
}
