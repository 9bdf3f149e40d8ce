#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "results.h"
#include "src/graph/csr.h"
#include "src/simt/device.h"

namespace nestpar::bench {

/// Minimal flag parser shared by the bench suites and tools. Flags look like
/// `--scale=0.25` or `--full`. Unknown flags abort with a usage message so a
/// typo cannot silently run the wrong experiment. A flag given twice keeps
/// the *last* value and warns on stderr (so scripted flag overrides work:
/// `nestpar_bench --suite=fig5_sssp $COMMON_FLAGS --scale=0.5`).
///
/// ```cpp
///   const bench::Args args(argc, argv, "fig5_sssp [--scale=0.1] [--out=DIR]");
///   const double scale = args.get_double("scale", 0.1);
///   const std::string out = args.get_string("out", "");
/// ```
class Args {
 public:
  Args(int argc, char** argv, std::string_view usage);
  /// Same parse from pre-split flag strings (e.g. `{"--scale=0.02"}`) — the
  /// form the suite driver uses to run registered suites without a real argv.
  Args(const std::vector<std::string>& flags, std::string_view usage);

  /// Numeric value of `--name=value` (def when absent). The whole value must
  /// parse as one finite number (an integer for get_int); otherwise throws
  /// std::invalid_argument naming the flag.
  double get_double(const std::string& name, double def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// Raw string value of `--name=value` (def when absent) — for path-valued
  /// flags such as `--out=results/` and `--baseline=bench/baselines`.
  std::string get_string(const std::string& name, const std::string& def) const;
  bool get_flag(const std::string& name) const;

 private:
  void parse(const std::vector<std::string>& flags, std::string_view usage);

  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------------
// Suite registry: every bench/*.cpp suite registers its experiment here, and
// the `nestpar_bench` driver, which links them all, runs one
// (`--suite=fig5_sssp`) or all of them through it.

/// A registered experiment. `run` prints the suite's text tables and
/// appends typed `Measurement` records to `out` for the JSON results
/// pipeline.
///
/// All fields are views over static storage (string literals and
/// file-local arrays): registration performs **no heap allocation**, so the
/// serial-CPU cache model — which is sensitive to heap layout — sees the
/// same addresses however many suites are registered.
struct SuiteSpec {
  std::string_view name;         ///< Registry key (`--suite=NAME`).
  std::string_view figure;       ///< Paper anchor ("Figure 5", "Table I").
  std::string_view description;  ///< One-line summary for `--list`.
  /// Usage string (must mention every flag); `nestpar_bench --suite=NAME
  /// --help` prints it.
  std::string_view usage;
  /// Flags for a fast-but-nonempty run; `nestpar_bench --smoke` uses these
  /// to validate that every suite emits schema-valid JSON in seconds
  /// (explicit flags given with `--suite=NAME --smoke` override them). Must
  /// point at a static array, e.g.
  /// `constexpr const char* kSmoke[] = {"--scale=0.01"};`.
  std::span<const char* const> smoke_flags{};
  int (*run)(const Args& args, SuiteResult& out) = nullptr;
};

/// Process-wide suite registry, populated by static `Registration` objects
/// at load time. Fixed-capacity (no heap); suites are kept sorted by name.
class Registry {
 public:
  static Registry& instance();
  void add(const SuiteSpec& spec);
  const SuiteSpec* find(std::string_view name) const;
  std::span<const SuiteSpec> suites() const { return {suites_, count_}; }

 private:
  static constexpr std::size_t kCapacity = 64;
  SuiteSpec suites_[kCapacity];
  std::size_t count_ = 0;
};

/// Registers a suite from a static initializer:
/// ```cpp
///   const bench::Registration reg{{.name = "fig5_sssp", ...,  .run = &run}};
/// ```
struct Registration {
  explicit Registration(const SuiteSpec& spec);
};

// ---------------------------------------------------------------------------
// Shared output helpers.

/// Print the experiment banner: what the paper's figure/table showed and what
/// shape we expect to reproduce.
void banner(const std::string& title, const std::string& paper_expectation);

/// Fixed-width table helpers (plain text so output diffs cleanly).
void table_header(const std::vector<std::string>& columns);
void table_row(const std::vector<std::string>& cells);

std::string fmt(double v, int precision = 2);
std::string fmt_pct(double ratio);  ///< 0.756 -> "75.6%"

/// Suffix for rows produced under the fault model: "" when the run was clean
/// (so fault-free bench output stays byte-identical), else
/// " [refused=N retried=N degraded=N]".
std::string robustness_note(const simt::RunReport& rep);

/// First node with at least one outgoing edge (BFS/SSSP source that is
/// guaranteed to produce a traversal).
std::uint32_t first_active_source(const graph::Csr& g);

/// Paper-calibrated datasets at a scale factor (1.0 = published size).
graph::Csr citeseer(double scale, bool weighted = false);
graph::Csr wikivote(double scale);

}  // namespace nestpar::bench
