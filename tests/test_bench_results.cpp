// Tests for the benchmark results pipeline (bench/results.{h,cpp}) and the
// bench::Args flag parser: JSON round-trip fidelity, schema-version
// rejection, byte identity and mutation robustness on the checked-in
// baselines, regression detection in the comparator, and flag semantics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/results.h"

namespace {

using nestpar::bench::Args;
using nestpar::bench::CompareOptions;
using nestpar::bench::CompareReport;
using nestpar::bench::compare_results;
using nestpar::bench::kResultSchemaVersion;
using nestpar::bench::Measurement;
using nestpar::bench::merge_compare_reports;
using nestpar::bench::parse_result_json;
using nestpar::bench::SuiteResult;
using nestpar::bench::to_json;

SuiteResult sample_result() {
  SuiteResult r;
  r.suite = "fig5_sssp";
  r.figure = "Figure 5";
  Measurement a;
  a.tmpl = "dual-queue";
  a.dataset = "citeseer";
  a.scale = 0.1;
  a.params["lb_threshold"] = 32;
  a.cycles = 1234567.0;
  a.warp_efficiency = 0.425;
  a.host_launches = 17;
  a.device_launches = 243;
  a.robustness.launches_attempted = 260;
  a.robustness.retries = 2;
  a.extra["speedup"] = 1.87;
  r.measurements.push_back(a);
  Measurement b;
  b.tmpl = "baseline";
  b.dataset = "citeseer";
  b.scale = 0.1;
  b.cycles = 2000000.0;
  b.warp_efficiency = 0.19;
  b.host_launches = 17;
  r.measurements.push_back(b);
  return r;
}

TEST(BenchResults, JsonRoundTripPreservesEveryField) {
  const SuiteResult original = sample_result();
  const SuiteResult parsed = parse_result_json(to_json(original));
  ASSERT_EQ(parsed.suite, original.suite);
  ASSERT_EQ(parsed.figure, original.figure);
  ASSERT_EQ(parsed.measurements.size(), original.measurements.size());
  const Measurement& m = parsed.measurements[0];
  const Measurement& o = original.measurements[0];
  EXPECT_EQ(m.tmpl, o.tmpl);
  EXPECT_EQ(m.dataset, o.dataset);
  EXPECT_EQ(m.scale, o.scale);
  EXPECT_EQ(m.params, o.params);
  EXPECT_EQ(m.cycles, o.cycles);
  EXPECT_EQ(m.warp_efficiency, o.warp_efficiency);
  EXPECT_EQ(m.host_launches, o.host_launches);
  EXPECT_EQ(m.device_launches, o.device_launches);
  EXPECT_EQ(m.robustness.launches_attempted,
            o.robustness.launches_attempted);
  EXPECT_EQ(m.robustness.retries, o.robustness.retries);
  EXPECT_EQ(m.extra, o.extra);
}

TEST(BenchResults, VolatileExtrasRoundTripUnderSeparateKey) {
  SuiteResult r = sample_result();
  r.measurements[0].volatile_extra["cpu_speedup"] = 8.21;
  const std::string text = to_json(r);
  // The wall-clock-derived section is structurally separated so byte-
  // stability tooling can strip it without knowing column names.
  EXPECT_NE(text.find("\"extra_volatile\""), std::string::npos);
  const SuiteResult parsed = parse_result_json(text);
  EXPECT_EQ(parsed.measurements[0].volatile_extra,
            r.measurements[0].volatile_extra);
  EXPECT_TRUE(parsed.measurements[1].volatile_extra.empty());
}

TEST(BenchResults, NoVolatileExtrasMeansNoKey) {
  // Suites without wall-clock metrics keep their files byte-identical to
  // the pre-volatile-extras schema.
  const std::string text = to_json(sample_result());
  EXPECT_EQ(text.find("extra_volatile"), std::string::npos);
}

TEST(BenchResults, SerializationIsByteStable) {
  // Identical results must produce identical files: serialize, parse, and
  // serialize again — the bytes may not change.
  const std::string first = to_json(sample_result());
  const std::string second = to_json(parse_result_json(first));
  EXPECT_EQ(first, second);
}

TEST(BenchResults, RejectsWrongSchemaVersion) {
  std::string text = to_json(sample_result());
  const std::string needle =
      "\"schema_version\": " + std::to_string(kResultSchemaVersion);
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"schema_version\": 999");
  EXPECT_THROW(parse_result_json(text), std::runtime_error);
}

TEST(BenchResults, RejectsMalformedAndIncompleteDocuments) {
  EXPECT_THROW(parse_result_json("not json"), std::runtime_error);
  EXPECT_THROW(parse_result_json("{\"schema_version\": 1}"),
               std::runtime_error);
  // Truncated document.
  const std::string text = to_json(sample_result());
  EXPECT_THROW(parse_result_json(text.substr(0, text.size() / 2)),
               std::runtime_error);
}

TEST(BenchResults, KeyIncludesParams) {
  Measurement a;
  a.tmpl = "dual-queue";
  a.dataset = "citeseer";
  a.scale = 0.1;
  a.params["lb_threshold"] = 32;
  Measurement b = a;
  b.params["lb_threshold"] = 64;
  EXPECT_NE(a.key(), b.key());
  b.params["lb_threshold"] = 32;
  EXPECT_EQ(a.key(), b.key());
}

// ---------------------------------------------------------------------------
// SERVE documents: round-trip, wall-derived rejection, schema-version
// rejection, and the observability-metric gating in compare_serve.

using nestpar::bench::compare_serve;
using nestpar::bench::kServeSchemaVersion;
using nestpar::bench::parse_serve_json;
using nestpar::bench::ServeRecord;
using nestpar::bench::to_serve_json;

SuiteResult sample_serve_result() {
  SuiteResult r;
  r.suite = "serve_latency";
  r.figure = "— (serving extension)";
  ServeRecord rec;
  rec.scenario = "steady";
  rec.params["qps"] = 8000;
  rec.params["shards"] = 3;
  nestpar::serve::ServeStats& s = rec.stats;
  s.submitted = 80;
  s.ok = 78;
  s.expired = 1;
  s.shed = 1;
  s.attempts = 85;
  s.retries = 7;
  s.batches = 40;
  s.makespan_us = 10500.0;
  s.qps_ok = 7428.5;
  s.p50_us = 250.0;
  s.p95_us = 380.0;
  s.p99_us = 410.0;
  s.mean_us = 280.0;
  s.max_us = 410.0;
  s.p99_queue_us = 200.0;
  s.p99_batch_us = 5.0;
  s.p99_exec_us = 195.0;
  s.p99_retry_us = 10.0;
  rec.extra["deadline_budget_burn"] = 0.12;
  rec.volatile_extra["wall_elapsed_ms"] = 12.5;
  nestpar::serve::TimeSeries ts;
  ts.name = "shard0/queue_depth";
  ts.unit = "queries";
  ts.points = {{0.0, 0.0}, {1000.0, 2.0}, {2000.0, 1.0}};
  rec.telemetry.push_back(ts);
  r.serve.push_back(std::move(rec));
  return r;
}

TEST(ServeResults, RoundTripPreservesObservabilityFields) {
  const SuiteResult original = sample_serve_result();
  const SuiteResult parsed = parse_serve_json(to_serve_json(original));
  ASSERT_EQ(parsed.serve.size(), 1u);
  const ServeRecord& r = parsed.serve[0];
  EXPECT_EQ(r.stats.p99_queue_us, 200.0);
  EXPECT_EQ(r.stats.p99_batch_us, 5.0);
  EXPECT_EQ(r.stats.p99_exec_us, 195.0);
  EXPECT_EQ(r.stats.p99_retry_us, 10.0);
  EXPECT_EQ(r.extra.at("deadline_budget_burn"), 0.12);
  EXPECT_EQ(r.volatile_extra.at("wall_elapsed_ms"), 12.5);
  ASSERT_EQ(r.telemetry.size(), 1u);
  EXPECT_EQ(r.telemetry[0].name, "shard0/queue_depth");
  EXPECT_EQ(r.telemetry[0].unit, "queries");
  ASSERT_EQ(r.telemetry[0].points.size(), 3u);
  EXPECT_EQ(r.telemetry[0].points[1].t_us, 1000.0);
  EXPECT_EQ(r.telemetry[0].points[1].value, 2.0);
  // And the document is byte-stable through a round trip.
  EXPECT_EQ(to_serve_json(original), to_serve_json(parsed));
}

TEST(ServeResults, SerializerRejectsUnlabeledWallDerivedKeys) {
  // Both serializers throw: records are baseline-pinned, so a wall-derived
  // key in a deterministic section is a bug at the call site, not a salvage
  // case.
  SuiteResult r = sample_serve_result();
  r.serve[0].extra["wall_elapsed_ms"] = 3.0;
  EXPECT_THROW(to_serve_json(r), std::invalid_argument);

  r = sample_serve_result();
  r.serve[0].extra["ops_per_sec"] = 100.0;
  EXPECT_THROW(to_serve_json(r), std::invalid_argument);

  r = sample_serve_result();
  r.serve[0].params["cpu_cores"] = 8.0;
  EXPECT_THROW(to_serve_json(r), std::invalid_argument);

  // The same names are fine under extra_volatile.
  r = sample_serve_result();
  r.serve[0].volatile_extra["ops_per_sec"] = 100.0;
  EXPECT_NO_THROW(to_serve_json(r));

  // The BENCH serializer applies the same rule.
  SuiteResult b = sample_result();
  b.measurements[0].extra["wall_us"] = 3.0;
  EXPECT_THROW(to_json(b), std::invalid_argument);

  b = sample_result();
  b.measurements[1].extra["sim_cycles_per_sec"] = 1e6;
  EXPECT_THROW(to_json(b), std::invalid_argument);

  b = sample_result();
  b.measurements[0].params["cpu_threads"] = 4.0;
  EXPECT_THROW(to_json(b), std::invalid_argument);

  b = sample_result();
  b.measurements[0].volatile_extra["wall_us"] = 3.0;
  EXPECT_NO_THROW(to_json(b));
}

TEST(ServeResults, RejectsOlderSchemaVersions) {
  // Files are regenerated, never migrated: v1 (no p99_split) and v2 (no
  // device-cost attribution) documents are refused with the version named.
  const std::string v1 =
      "{\n"
      "  \"schema_version\": 1,\n"
      "  \"generator\": \"nestpar_bench\",\n"
      "  \"kind\": \"serve\",\n"
      "  \"suite\": \"serve_latency\",\n"
      "  \"figure\": \"x\",\n"
      "  \"records\": [\n"
      "    {\"scenario\": \"steady\",\n"
      "     \"params\": {\"qps\": 8000},\n"
      "     \"submitted\": 10, \"ok\": 10, \"expired\": 0, \"shed\": 0, "
      "\"wrong\": 0,\n"
      "     \"attempts\": 10, \"retries\": 0, \"hedges\": 0, \"batches\": 5, "
      "\"probes\": 0,\n"
      "     \"breaker_trips\": 0, \"faults_injected\": 0, \"degraded\": 0,\n"
      "     \"makespan_us\": 1000, \"qps_ok\": 10000,\n"
      "     \"p50_us\": 100, \"p95_us\": 150, \"p99_us\": 160, "
      "\"mean_us\": 110, \"max_us\": 160}\n"
      "  ]\n}\n";
  const std::string needle = "\"schema_version\": 1";
  for (const char* version : {"1", "2", "999"}) {
    SCOPED_TRACE(version);
    std::string doc = v1;
    doc.replace(doc.find(needle), needle.size(),
                std::string("\"schema_version\": ") + version);
    try {
      (void)parse_serve_json(doc);
      ADD_FAILURE() << "schema_version " << version << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    std::string("schema_version ") + version + " "),
                std::string::npos)
          << e.what();
    }
  }
  // The current version parses as soon as the document carries its
  // sections.
  std::string current = to_serve_json(sample_serve_result());
  EXPECT_NE(current.find("\"schema_version\": " +
                         std::to_string(kServeSchemaVersion)),
            std::string::npos);
  EXPECT_NO_THROW((void)parse_serve_json(current));
}

SuiteResult sample_serve_result_with_tenants() {
  SuiteResult r = sample_serve_result();
  ServeRecord& rec = r.serve[0];
  rec.stats.device_cycles_total = 2522737.25;
  rec.stats.fault_device_cycles_total = 1204.5;
  rec.stats.launches_total = 538;
  nestpar::serve::TenantUsage t0;
  t0.tenant = 0;
  t0.requests = 41;
  t0.ok = 40;
  t0.launches = 300;
  t0.retries = 3;
  t0.device_cycles = 1500000.125;
  t0.fault_device_cycles = 1000.25;
  nestpar::serve::TenantUsage t1;
  t1.tenant = 2;
  t1.requests = 39;
  t1.ok = 38;
  t1.launches = 238;
  t1.retries = 4;
  t1.device_cycles = 1022737.125;
  t1.fault_device_cycles = 204.25;
  rec.tenants = {t0, t1};
  return r;
}

TEST(ServeResults, RoundTripPreservesAttributionFields) {
  const SuiteResult original = sample_serve_result_with_tenants();
  const SuiteResult parsed = parse_serve_json(to_serve_json(original));
  ASSERT_EQ(parsed.serve.size(), 1u);
  const ServeRecord& r = parsed.serve[0];
  // Doubles survive bit-exactly: json_num serializes with round-trip
  // precision, which is what lets the comparator gate attributed cycles
  // with zero threshold slack.
  EXPECT_EQ(r.stats.device_cycles_total, 2522737.25);
  EXPECT_EQ(r.stats.fault_device_cycles_total, 1204.5);
  EXPECT_EQ(r.stats.launches_total, 538u);
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenants[0].tenant, 0u);
  EXPECT_EQ(r.tenants[0].requests, 41u);
  EXPECT_EQ(r.tenants[0].ok, 40u);
  EXPECT_EQ(r.tenants[0].launches, 300u);
  EXPECT_EQ(r.tenants[0].retries, 3u);
  EXPECT_EQ(r.tenants[0].device_cycles, 1500000.125);
  EXPECT_EQ(r.tenants[0].fault_device_cycles, 1000.25);
  EXPECT_EQ(r.tenants[1].tenant, 2u);
  EXPECT_EQ(to_serve_json(original), to_serve_json(parsed));
}

TEST(ServeResults, AttributionTotalsAreAlwaysWritten) {
  // The device-cost totals are part of every record, zero or not; only the
  // tenant rollups are omitted when empty.
  const std::string doc = to_serve_json(sample_serve_result());
  EXPECT_NE(doc.find("\"device_cycles_total\": 0, "
                     "\"fault_device_cycles_total\": 0, "
                     "\"launches_total\": 0"),
            std::string::npos);
  EXPECT_EQ(doc.find("\"tenants\""), std::string::npos);
  const SuiteResult parsed = parse_serve_json(doc);
  EXPECT_EQ(parsed.serve[0].stats.device_cycles_total, 0.0);
  EXPECT_EQ(parsed.serve[0].stats.launches_total, 0u);
  EXPECT_TRUE(parsed.serve[0].tenants.empty());

  // A record missing them is not a current-schema document.
  std::string bad = doc;
  const std::string field = "\"launches_total\": 0";
  bad.replace(bad.find(field), field.size(), "\"launches_totals\": 0");
  EXPECT_THROW((void)parse_serve_json(bad), std::runtime_error);
}

TEST(ServeCompare, TenantDriftIsTwoSided) {
  const SuiteResult baseline = sample_serve_result_with_tenants();

  // Cycles moving *down* for a tenant is still a regression: attribution is
  // deterministic, so drift either way means the schedule changed.
  SuiteResult current = baseline;
  current.serve[0].tenants[0].device_cycles *= 0.9;
  CompareReport report = compare_serve(baseline, current, CompareOptions{});
  EXPECT_TRUE(report.has_regression());
  bool found = false;
  for (const auto& d : report.deltas) {
    if (d.metric == "tenant/0/device_cycles") {
      found = d.regression;
      EXPECT_FALSE(d.improvement);
    }
  }
  EXPECT_TRUE(found);

  // A tenant the current run dropped diffs against zero.
  current = baseline;
  current.serve[0].tenants.erase(current.serve[0].tenants.begin() + 1);
  report = compare_serve(baseline, current, CompareOptions{});
  bool dropped = false;
  for (const auto& d : report.deltas) {
    if (d.metric == "tenant/2/requests") {
      dropped = d.regression;
      EXPECT_EQ(d.current, 0.0);
    }
  }
  EXPECT_TRUE(dropped);

  // Total device cycles gate two-sided as well.
  current = baseline;
  current.serve[0].stats.device_cycles_total *= 1.1;
  report = compare_serve(baseline, current, CompareOptions{});
  bool total = false;
  for (const auto& d : report.deltas) {
    if (d.metric == "device_cycles_total") total = d.regression;
  }
  EXPECT_TRUE(total);

  // Identical records: no deltas.
  report = compare_serve(baseline, baseline, CompareOptions{});
  EXPECT_TRUE(report.deltas.empty());
}

TEST(ServeCompare, P99SplitGrowthIsARegression) {
  const SuiteResult baseline = sample_serve_result();
  SuiteResult current = baseline;
  current.serve[0].stats.p99_queue_us *= 1.5;  // Tail moved into queueing.
  const CompareReport report =
      compare_serve(baseline, current, CompareOptions{});
  EXPECT_TRUE(report.has_regression());
  bool found = false;
  for (const auto& d : report.deltas) {
    if (d.metric == "p99_queue_us") found = d.regression;
  }
  EXPECT_TRUE(found);
}

TEST(ServeCompare, TelemetryDriftIsTwoSided) {
  const SuiteResult baseline = sample_serve_result();

  // Mean moving *down* is still a regression: the series is deterministic,
  // so any drift means the schedule changed.
  SuiteResult current = baseline;
  for (auto& p : current.serve[0].telemetry[0].points) p.value *= 0.5;
  CompareReport report = compare_serve(baseline, current, CompareOptions{});
  EXPECT_TRUE(report.has_regression());
  bool improvement = false;
  for (const auto& d : report.deltas) improvement |= d.improvement;
  EXPECT_FALSE(improvement) << "two-sided metrics have no improvements";

  // A dropped series diffs its sample count against zero.
  current = baseline;
  current.serve[0].telemetry.clear();
  report = compare_serve(baseline, current, CompareOptions{});
  EXPECT_TRUE(report.has_regression());
  bool samples = false;
  for (const auto& d : report.deltas) {
    if (d.metric == "telemetry/shard0/queue_depth/samples") {
      samples = d.regression;
      EXPECT_EQ(d.current, 0.0);
    }
  }
  EXPECT_TRUE(samples);

  // Unchanged telemetry produces no deltas at all.
  report = compare_serve(baseline, baseline, CompareOptions{});
  EXPECT_FALSE(report.has_regression());
  EXPECT_TRUE(report.deltas.empty());
}

TEST(BenchCompare, FlagsInjectedCycleRegression) {
  const SuiteResult baseline = sample_result();
  SuiteResult current = baseline;
  current.measurements[0].cycles *= 1.20;  // 20% slower than baseline
  const CompareReport rep =
      compare_results(baseline, current, CompareOptions{.threshold = 0.05});
  EXPECT_TRUE(rep.has_regression());
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_EQ(rep.deltas[0].metric, "cycles");
  EXPECT_TRUE(rep.deltas[0].regression);
  EXPECT_NEAR(rep.deltas[0].rel_delta, 0.20, 1e-9);
  EXPECT_EQ(rep.matched, 2);
}

TEST(BenchCompare, ImprovementsAndSmallDeltasAreNotRegressions) {
  const SuiteResult baseline = sample_result();
  SuiteResult current = baseline;
  current.measurements[0].cycles *= 0.80;           // faster: fine
  current.measurements[1].warp_efficiency += 0.10;  // better: fine
  const CompareReport rep =
      compare_results(baseline, current, CompareOptions{.threshold = 0.05});
  EXPECT_FALSE(rep.has_regression());
  EXPECT_EQ(rep.deltas.size(), 2u);  // reported as plain deltas
}

TEST(BenchCompare, WarpEfficiencyDropIsARegression) {
  const SuiteResult baseline = sample_result();
  SuiteResult current = baseline;
  current.measurements[1].warp_efficiency *= 0.5;
  const CompareReport rep =
      compare_results(baseline, current, CompareOptions{.threshold = 0.05});
  EXPECT_TRUE(rep.has_regression());
}

TEST(BenchCompare, MissingBaselineRecordIsARegression) {
  const SuiteResult baseline = sample_result();
  SuiteResult current = baseline;
  current.measurements.pop_back();
  const CompareReport rep =
      compare_results(baseline, current, CompareOptions{});
  EXPECT_EQ(rep.missing, 1);
  EXPECT_TRUE(rep.has_regression());
}

TEST(BenchCompare, AddedRecordsAreFine) {
  const SuiteResult baseline = sample_result();
  SuiteResult current = baseline;
  Measurement extra;
  extra.tmpl = "new-variant";
  extra.dataset = "citeseer";
  current.measurements.push_back(extra);
  const CompareReport rep =
      compare_results(baseline, current, CompareOptions{});
  EXPECT_EQ(rep.added, 1);
  EXPECT_FALSE(rep.has_regression());
}

TEST(BenchCompare, ThresholdIsConfigurable) {
  const SuiteResult baseline = sample_result();
  SuiteResult current = baseline;
  current.measurements[0].cycles *= 1.20;
  EXPECT_FALSE(compare_results(baseline, current,
                               CompareOptions{.threshold = 0.25})
                   .has_regression());
  EXPECT_TRUE(compare_results(baseline, current,
                              CompareOptions{.threshold = 0.10})
                  .has_regression());
}

TEST(BenchCompare, MergeAccumulatesCounts) {
  const SuiteResult baseline = sample_result();
  SuiteResult current = baseline;
  current.measurements[0].cycles *= 1.5;
  const CompareReport one =
      compare_results(baseline, current, CompareOptions{});
  CompareReport total;
  merge_compare_reports(total, one);
  merge_compare_reports(total, one);
  EXPECT_EQ(total.matched, 2 * one.matched);
  EXPECT_EQ(total.deltas.size(), 2 * one.deltas.size());
  EXPECT_TRUE(total.has_regression());
}

TEST(BenchArgs, DuplicateFlagKeepsLastValue) {
  const Args args({"--scale=0.1", "--scale=0.5"},
                  "test [--scale=F]");
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), 0.5);
}

TEST(BenchArgs, GetStringReturnsRawValueOrDefault) {
  const Args args({"--out=results/dir", "--scale=0.1"},
                  "test [--scale=F] [--out=DIR]");
  EXPECT_EQ(args.get_string("out", ""), "results/dir");
  EXPECT_EQ(args.get_string("baseline", "bench/baselines"),
            "bench/baselines");
}

TEST(BenchArgs, ValuelessFlagActsAsBoolean) {
  const Args args({"--full"}, "test [--full] [--scale=F]");
  EXPECT_TRUE(args.get_flag("full"));
  EXPECT_FALSE(args.get_flag("scale"));
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.25), 0.25);
}

// ---------------------------------------------------------------------------
// Checked-in baselines: every file is at the current schema and reproduces
// itself byte for byte, and no mutation of one escapes the parsers as
// anything but std::runtime_error.

using nestpar::bench::parse_profile_json;

std::string read_baseline(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// Parses `text` as the kind its file name announces and serializes it
/// back; with `parse_only`, stops after the parse and returns "".
std::string reserialize(const std::string& file, const std::string& text,
                        bool parse_only = false) {
  if (file.starts_with("BENCH_")) {
    const SuiteResult r = parse_result_json(text);
    return parse_only ? "" : to_json(r);
  }
  if (file.starts_with("SERVE_")) {
    const SuiteResult r = parse_serve_json(text);
    return parse_only ? "" : to_serve_json(r);
  }
  if (file.starts_with("PROF_")) {
    const nestpar::bench::SuiteProfile p = parse_profile_json(text);
    return parse_only ? "" : to_json(p);
  }
  throw std::logic_error("not a results file: " + file);
}

TEST(ResultBaselines, ReserializeByteForByte) {
  int seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(NESTPAR_BASELINE_DIR)) {
    const std::string file = entry.path().filename().string();
    SCOPED_TRACE(file);
    const std::string text = read_baseline(entry.path());
    EXPECT_EQ(reserialize(file, text), text);
    ++seen;
  }
  EXPECT_GE(seen, 36);
}

/// One seeded mutation: flip a bit, overwrite a byte with a JSON-structural
/// character, delete a short span, or truncate.
std::string mutate(const std::string& text, std::mt19937_64& rng) {
  static constexpr char kStructural[] = "{}[]\",:-.0123456789eEtfn ";
  std::string m = text;
  const std::size_t pos = rng() % m.size();
  switch (rng() % 4) {
    case 0:
      m[pos] = static_cast<char>(m[pos] ^ (1u << (rng() % 8)));
      break;
    case 1:
      m[pos] = kStructural[rng() % (sizeof(kStructural) - 1)];
      break;
    case 2:
      m.erase(pos, 1 + rng() % 16);
      break;
    default:
      m.resize(pos);
      break;
  }
  return m;
}

TEST(ResultBaselines, MutantsParseOrThrowRuntimeError) {
  const char* const files[] = {"BENCH_simulator_throughput.json",
                               "SERVE_serve_latency.json",
                               "PROF_device_sensitivity.json"};
  std::mt19937_64 rng(20150707);
  for (const char* file : files) {
    SCOPED_TRACE(file);
    const std::string text = read_baseline(
        std::filesystem::path(NESTPAR_BASELINE_DIR) / file);
    ASSERT_FALSE(text.empty());
    int rejected = 0;
    for (int i = 0; i < 1500; ++i) {
      const std::string m = mutate(text, rng);
      try {
        (void)reserialize(file, m, /*parse_only=*/true);
      } catch (const std::runtime_error&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << i << " escaped as "
                      << typeid(e).name() << ": " << e.what();
      }
    }
    EXPECT_GT(rejected, 0);
  }
}

TEST(ResultBaselines, MistypedProfileEntriesThrowRuntimeError) {
  // Hand-placed mutants the random ones rarely hit: array items that are
  // not objects, and index keys that are not numbers.
  const std::string text = read_baseline(
      std::filesystem::path(NESTPAR_BASELINE_DIR) /
      "PROF_device_sensitivity.json");
  const std::pair<const char*, const char*> edits[] = {
      {"\"counters\": [\n    {", "\"counters\": [\n    7, {"},
      {"\"instants\": [\n    {", "\"instants\": [\n    \"x\", {"},
      {"\"chain\": [\n      {", "\"chain\": [\n      [], {"},
      {"\"buckets\": {\"", "\"buckets\": {\"x"},
      {"\"depth_grids\": {\"", "\"depth_grids\": {\"x"},
      {"\"lane_hist\": {\"", "\"lane_hist\": {\"x"},
  };
  for (const auto& [from, to] : edits) {
    SCOPED_TRACE(to);
    std::string m = text;
    const auto pos = m.find(from);
    ASSERT_NE(pos, std::string::npos);
    m.replace(pos, std::string(from).size(), to);
    EXPECT_THROW((void)parse_profile_json(m), std::runtime_error);
  }
}

}  // namespace
