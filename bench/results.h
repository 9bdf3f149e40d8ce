#pragma once

#include <cstdint>
#include <map>
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
  /// Part of the match key: records with different params never compare.
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

  /// Identity within a suite: "tmpl|dataset|scale|k=v,k=v". The comparator
  /// matches baseline and current records by (suite, key()).
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
  /// Identity coordinates (qps, shards, fault rates, ...). Part of the match
  /// key, so chaos records never compare against clean baselines.
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

  /// Identity within a suite: "scenario|k=v,k=v".
  std::string key() const;
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

/// One suite's profile: the simt::Profiler snapshot taken right after the
/// suite ran with profiling on, written as one `PROF_<suite>.json` file.
struct SuiteProfile {
  std::string suite;  ///< Registry name, also the JSON file stem.
  simt::ProfileSnapshot prof;
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

/// One field that differs between a matched baseline/current record pair.
struct MetricDelta {
  std::string suite;
  std::string key;       ///< Match key of the record pair.
  std::string metric;    ///< JSON path of the field ("cycles", ...).
  double baseline = 0.0;
  double current = 0.0;
  double rel_delta = 0.0;  ///< (current - baseline) / max(|baseline|, eps).
};

/// Result of comparing one file (or a whole directory of files).
struct CompareReport {
  std::vector<MetricDelta> deltas;  ///< Every field that differs.
  int matched = 0;      ///< Record pairs present on both sides.
  int missing = 0;      ///< Baseline records absent from current (regression).
  int added = 0;        ///< Current records absent from baseline (fine).
  /// Any delta, in either direction, or any missing record.
  bool has_regression() const;
};

/// The exact gate: match BENCH records by Measurement::key() and SERVE
/// records by ServeRecord::key(), and diff every serialized field outside
/// `extra_volatile`. Any delta, in either direction, is a regression. Fields
/// are named by their JSON path ("cycles", "robustness/retries",
/// "tenants/1/ok"); a field that is not a number, or is absent on one side,
/// reports NaN for that side. Matched records must also keep their relative
/// order: one that sits elsewhere in the sequence reports a "position" delta
/// (its record index on each side). Missing baseline records are
/// regressions; added records are not.
CompareReport compare_exact(const SuiteResult& baseline,
                            const SuiteResult& current);

/// The same exact gate over PROF documents. The records are the `kernels`
/// entries, keyed by name, preceded by one record (key "(profile)") that
/// holds every other field of the document: totals, `depth_grids`,
/// `tracks`, `counters`, `instants`, `critical_path` and `attribution`.
CompareReport compare_exact(const SuiteProfile& baseline,
                            const SuiteProfile& current);

/// Merge `b` into `a` (summing match counts and concatenating deltas).
void merge_compare_reports(CompareReport& a, const CompareReport& b);

/// The byte half of the exact gate: `text`, a result file's contents, with
/// every `"extra_volatile"` member and the comma before it removed.
/// compare_results fails a file whose stripped bytes differ from its
/// baseline's even when every parsed field matches, so a change in number
/// formatting alone (`1000000` written as `1e+06`) fails too.
std::string strip_volatile(std::string_view text);

}  // namespace nestpar::bench
