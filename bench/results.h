#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/serve/server.h"
#include "src/serve/telemetry.h"
#include "src/simt/metrics.h"
#include "src/simt/profiler.h"

namespace nestpar::simt {
struct RunReport;  // defined in src/simt/device.h
}

namespace nestpar::bench {

/// Version of the BENCH_<suite>.json schema. Bump on any incompatible layout
/// change; `parse_result_json` rejects files written under a different
/// version so a stale baseline can never be silently compared against a new
/// record shape.
inline constexpr int kResultSchemaVersion = 1;

/// One typed benchmark record: a single (template, dataset, scale, params)
/// point of an experiment, with the deterministic model-side metrics pulled
/// from its `simt::RunReport`.
///
/// Three kinds of fields coexist:
///  - *Deterministic* fields (`cycles`, `warp_efficiency`, launch counts,
///    `robustness`): pure functions of the workload and the device model,
///    bit-stable across runs, engines, and build types.
///  - *Informational* extras (`extra`): paper-reference values and other
///    deterministic side data carried through the JSON for plotting. The
///    exact gate compares them like every other deterministic field.
///  - *Volatile* extras (`volatile_extra`, e.g. wall-clock-derived CPU
///    speedups): serialized under a separate `"extra_volatile"` key that
///    byte-stability comparisons exclude structurally — wall/cpu time
///    jitters run-to-run (heap ASLR), so tagging it at the serializer is
///    what lets everything else stay byte-identical without special-casing
///    columns in the comparison scripts.
///
/// Typical producer code inside a suite run function:
/// ```cpp
///   simt::Session session = dev.session();
///   apps::run_sssp(dev, g, 0, t, p);
///   Measurement m = Measurement::from_report(session.report());
///   m.tmpl = std::string(nested::name(t));
///   m.dataset = "citeseer";
///   m.scale = scale;
///   m.params["lb_threshold"] = lb;
///   out.measurements.push_back(std::move(m));
/// ```
struct Measurement {
  std::string tmpl;     ///< Template/variant name ("dual-queue", "flat", ...).
  std::string dataset;  ///< Input name ("citeseer", "tree", "random", ...).
  double scale = 1.0;   ///< Dataset scale factor (1.0 = published size).
  /// Extra identity coordinates (lb_threshold, block_size, outdegree, ...).
  std::map<std::string, double> params;

  // Deterministic model-side metrics.
  double cycles = 0.0;            ///< Modeled cycles of the whole run.
  double warp_efficiency = 0.0;   ///< Aggregate warp execution efficiency.
  std::uint64_t host_launches = 0;
  std::uint64_t device_launches = 0;
  simt::RobustnessCounters robustness;

  /// Informational metrics: paper-reference values and other deterministic
  /// side data.
  std::map<std::string, double> extra;

  /// Wall-clock-derived metrics (CPU speedups, ...): serialized as
  /// `"extra_volatile"` (only when non-empty) so byte-stability tooling can
  /// strip the one non-deterministic section structurally. Never compared.
  std::map<std::string, double> volatile_extra;

  /// Seed the deterministic fields from a finished run's report.
  static Measurement from_report(const simt::RunReport& rep);

  /// True when a metric name denotes a wall-clock-derived quantity
  /// ("wall_us", "sim_cycles_per_sec", "cpu_speedup", ...). The BENCH and
  /// SERVE serializers reject such keys in `extra` and `params` (throwing
  /// std::invalid_argument naming the key), so a checked-in baseline can
  /// never become byte-unstable — and the comparator can never gate — on
  /// host timing. The convention: the name contains "wall" or "cpu_", or
  /// ends in "_per_sec".
  static bool is_wall_derived(const std::string& metric);

  /// Identity within a suite: "tmpl|dataset|scale|k=v,k=v". Names the
  /// record in the serializer's errors.
  std::string key() const;
};

/// Version of the SERVE_<suite>.json schema (independent of the result
/// schema; bump on any incompatible layout change). SERVE files carry the
/// serving runtime's per-scenario outcome records — request counts by
/// terminal status, retry/hedge/breaker activity, latency percentiles with
/// their p99 phase split, device-cost attribution, per-tenant usage, and
/// telemetry time-series. `parse_serve_json` rejects any other version.
inline constexpr int kServeSchemaVersion = 3;

/// One serving-scenario record: the deterministic outcome of one Server run
/// (see src/serve/server.h), held in the serving runtime's own types. All
/// counters, percentiles, tenant rollups and series are pure functions of
/// (config, workload, pool), so the comparator can gate them exactly like
/// the model-side bench metrics.
struct ServeRecord {
  std::string scenario;  ///< Load point name ("steady", "overload", ...).
  /// Identity coordinates (qps, shards, fault rates, ...).
  std::map<std::string, double> params;

  serve::ServeStats stats;
  /// Per-tenant usage rollups (serialized when non-empty).
  std::vector<serve::TenantUsage> tenants;

  /// Informational metrics (serialized when non-empty).
  std::map<std::string, double> extra;

  /// Wall-clock-derived metrics, serialized as `"extra_volatile"` (only when
  /// non-empty) so byte-stability tooling can strip them structurally.
  std::map<std::string, double> volatile_extra;

  /// Telemetry time-series (serialized when non-empty).
  std::vector<serve::TimeSeries> telemetry;
};

/// All measurements one registered suite produced in one run, written as one
/// `BENCH_<suite>.json` file.
struct SuiteResult {
  std::string suite;   ///< Registry name, also the JSON file stem.
  std::string figure;  ///< Paper anchor ("Figure 5", "Table I", "—").
  std::vector<Measurement> measurements;
  /// Serving-scenario records, written as a separate `SERVE_<suite>.json`
  /// file (never part of the BENCH JSON — BENCH bytes stay untouched for
  /// suites that don't serve).
  std::vector<ServeRecord> serve;
};

/// Serialize to the schema-versioned JSON document (stable field order and
/// number formatting, so identical results are byte-identical files).
std::string to_json(const SuiteResult& result);

/// Parse a document produced by `to_json`. Throws std::runtime_error on
/// malformed JSON, missing required fields, or a schema-version mismatch.
SuiteResult parse_result_json(const std::string& text);

/// Write `to_json(result)` to `<dir>/BENCH_<suite>.json`, creating `dir` if
/// needed. Returns the path written. Throws std::runtime_error on I/O error.
std::string write_result_file(const SuiteResult& result,
                              const std::string& dir);

/// Read and parse one result file. Throws std::runtime_error on I/O or
/// parse/schema failure.
SuiteResult load_result_file(const std::string& path);

/// Serialize the suite's serving records to the schema-versioned SERVE JSON
/// document (stable field order and number formatting).
std::string to_serve_json(const SuiteResult& result);

/// Parse a document produced by `to_serve_json` (fills suite/figure/serve;
/// measurements stay empty). Throws std::runtime_error on malformed JSON,
/// missing fields, or a schema-version mismatch.
SuiteResult parse_serve_json(const std::string& text);

/// Write `to_serve_json(result)` to `<dir>/SERVE_<suite>.json`, creating
/// `dir` if needed. Returns the path written.
std::string write_serve_file(const SuiteResult& result,
                             const std::string& dir);

/// Read and parse one SERVE file. Throws std::runtime_error on I/O or
/// parse/schema failure.
SuiteResult load_serve_file(const std::string& path);

/// Version of the PROF_<suite>.json schema (independent of the result
/// schema; bump on any incompatible layout change). `parse_profile_json`
/// rejects any other version.
inline constexpr int kProfileSchemaVersion = 2;

/// One suite's profile: everything recorded while the suite ran under its
/// own simt::ProfileScope, written as one `PROF_<suite>.json` file.
struct SuiteProfile {
  std::string suite;  ///< Registry name, also the JSON file stem.
  simt::Profile prof;
};

/// Serialize to the schema-versioned profile JSON document (stable field
/// order and number formatting: identical profiles are byte-identical files).
std::string to_json(const SuiteProfile& profile);

/// Parse a document produced by `to_json(SuiteProfile)`. Throws
/// std::runtime_error on malformed JSON, missing required fields, or a
/// schema-version mismatch.
SuiteProfile parse_profile_json(const std::string& text);

/// Write `to_json(profile)` to `<dir>/PROF_<suite>.json`, creating `dir` if
/// needed. Returns the path written. Throws std::runtime_error on I/O error.
std::string write_profile_file(const SuiteProfile& profile,
                               const std::string& dir);

/// Read and parse one profile file. Throws std::runtime_error on I/O or
/// parse/schema failure.
SuiteProfile load_profile_file(const std::string& path);

/// `text`, a result file's contents, with every `"extra_volatile"` member
/// and the comma before it removed: what the exact gate compares.
std::string strip_volatile(std::string_view text);

/// Where two result files first part once both are stripped of their
/// `extra_volatile` members. Lines are 1-based; one longer than 160
/// characters is clipped to a window around the first differing column.
struct ByteDiff {
  std::size_t line = 0;         ///< First line that differs.
  std::string baseline_line;    ///< That line in the baseline ("" past EOF).
  std::string current_line;     ///< That line in the current file.
  std::size_t baseline_lines = 0;
  std::size_t current_lines = 0;
};

/// The exact gate, the one answer to "is this output the same?": nullopt
/// when `baseline` and `current` have the same bytes outside
/// `extra_volatile`, otherwise where they first differ. Any changed field,
/// a record added, dropped or moved, or a number written in another format
/// (`1e+06` as `1000000`) changes the bytes.
std::optional<ByteDiff> first_difference(std::string_view baseline,
                                         std::string_view current);

}  // namespace nestpar::bench
