// Tests for the benchmark results pipeline (bench/results.{h,cpp}) and the
// bench::Args flag parser: JSON round-trip fidelity, schema-version
// rejection, byte identity and mutation robustness on the checked-in
// baselines, the exact byte gate, and flag semantics.
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
#include "tests/mutate.h"

namespace {

using nestpar::bench::Args;
using nestpar::bench::kResultSchemaVersion;
using nestpar::bench::load_profile_file;
using nestpar::bench::Measurement;
using nestpar::bench::parse_result_json;
using nestpar::bench::strip_volatile;
using nestpar::bench::SuiteProfile;
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
// SERVE documents: round-trip, wall-derived rejection, and schema-version
// rejection.

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

// The exact gate (bench::first_difference): any change to a record moves
// the bytes outside extra_volatile, and a change inside it does not.

using nestpar::bench::first_difference;

TEST(ExactGate, FailsEveryMutationAndPassesVolatileOnlyChanges) {
  const SuiteResult result = sample_result();
  const SuiteResult serve = sample_serve_result_with_tenants();
  const SuiteProfile prof = load_profile_file(
      (std::filesystem::path(NESTPAR_BASELINE_DIR) / "PROF_fig5_sssp.json")
          .string());
  ASSERT_GE(prof.prof.kernels.size(), 3u);
  ASSERT_FALSE(prof.prof.crit_chain.empty());
  ASSERT_GT(prof.prof.kernels[0].lane_hist[1], 0u);
  const auto bench_with = [&](auto edit) {
    SuiteResult r = result;
    edit(r.measurements);
    return to_json(r);
  };
  const auto serve_with = [&](auto edit) {
    SuiteResult r = serve;
    edit(r.serve);
    return to_serve_json(r);
  };
  const auto prof_with = [&](auto edit) {
    SuiteProfile p = prof;
    edit(p.prof);
    return to_json(p);
  };
  using Ms = std::vector<Measurement>;
  using Ss = std::vector<ServeRecord>;
  using nestpar::simt::CritCategory;
  using nestpar::simt::Profile;

  // The writer prints the shortest form, 2e+06; 2000000 parses to the same
  // double, so only the bytes tell the two apart.
  const std::string bench = to_json(result);
  const std::string needle = "\"cycles\": 2e+06,";
  ASSERT_NE(bench.find(needle), std::string::npos);
  std::string long_form = bench;
  long_form.replace(long_form.find(needle), needle.size(),
                    "\"cycles\": 2000000,");

  const auto two_scenarios = [](Ss& s) {
    s.push_back(s[0]);
    s[1].scenario = "burst";
  };
  Ms twins = result.measurements;
  twins.push_back(twins[0]);
  twins.back().cycles += 1.0;

  struct Case {
    const char* name;
    std::string baseline;
    std::string current;
    bool same;
  };
  const Case cases[] = {
      {"identical", bench, bench, true},
      {"volatile extras added", bench,
       bench_with([](Ms& m) {
         m[0].volatile_extra["wall_us"] = 12.5;
         m[1].volatile_extra["cpu_speedup"] = 3.5;
       }),
       true},
      {"serve volatile extra changed", to_serve_json(serve),
       serve_with([](Ss& s) { s[0].volatile_extra["wall_elapsed_ms"] = 99; }),
       true},
      {"volatile key holding a brace", R"({"b": 2})",
       R"({"b": 2, "extra_volatile": {"a}": 1}})", true},
      {"cycles - 1", bench, bench_with([](Ms& m) { m[0].cycles -= 1.0; }),
       false},
      {"warp_efficiency + 1e-9", bench,
       bench_with([](Ms& m) { m[1].warp_efficiency += 1e-9; }), false},
      {"robustness field", bench,
       bench_with([](Ms& m) { m[0].robustness.retries = 3; }), false},
      {"extra field", bench,
       bench_with([](Ms& m) { m[0].extra["speedup"] = 1.88; }), false},
      {"one-sided extra key", bench,
       bench_with([](Ms& m) { m[1].extra["new_metric"] = 2.0; }), false},
      {"2e+06 written as 2000000", bench, long_form, false},
      {"reordered records", bench,
       bench_with([](Ms& m) { std::swap(m[0], m[1]); }), false},
      {"missing record", bench, bench_with([](Ms& m) { m.pop_back(); }),
       false},
      {"added record", bench,
       bench_with([](Ms& m) { m.emplace_back().tmpl = "new-variant"; }),
       false},
      {"record inserted between others", bench,
       bench_with([](Ms& m) {
         m.insert(m.begin() + 1, Measurement{})->tmpl = "new-variant";
       }),
       false},
      {"repeated key swapped with its twin", bench_with([&](Ms& m) {
         m = twins;
       }),
       bench_with([&](Ms& m) {
         m = twins;
         std::swap(m[0], m[2]);
       }),
       false},
      {"serve field", to_serve_json(serve),
       serve_with([](Ss& s) { s[0].stats.p95_us = 379.0; }), false},
      {"serve device cycles", to_serve_json(serve),
       serve_with([](Ss& s) { s[0].stats.device_cycles_total *= 0.9; }),
       false},
      {"telemetry point", to_serve_json(serve),
       serve_with([](Ss& s) { s[0].telemetry[0].points[1].value = 3.0; }),
       false},
      {"telemetry series dropped", to_serve_json(serve),
       serve_with([](Ss& s) { s[0].telemetry.clear(); }), false},
      {"tenant dropped", to_serve_json(serve),
       serve_with([](Ss& s) { s[0].tenants.pop_back(); }), false},
      {"serve records reordered", serve_with(two_scenarios),
       serve_with([&](Ss& s) {
         two_scenarios(s);
         std::swap(s[0], s[1]);
       }),
       false},
      {"lane histogram bucket", to_json(prof),
       prof_with([](Profile& p) { p.kernels[0].lane_hist[1] += 1; }),
       false},
      {"busy cycles", to_json(prof),
       prof_with([](Profile& p) { p.kernels[0].busy_cycles *= 1.01; }),
       false},
      {"critical-path category", to_json(prof),
       prof_with([](Profile& p) {
         CritCategory& c = p.crit_chain[0].category;
         c = c == CritCategory::kLaunch ? CritCategory::kCompute
                                        : CritCategory::kLaunch;
       }),
       false},
      {"missing kernel", to_json(prof),
       prof_with([](Profile& p) {
         p.kernels.erase(p.kernels.begin() + 1);
       }),
       false},
      {"reordered kernels", to_json(prof),
       prof_with([](Profile& p) {
         std::swap(p.kernels[0], p.kernels[2]);
       }),
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(!first_difference(c.baseline, c.current).has_value(), c.same);
  }
}

TEST(ExactGate, ReportsTheFirstDifferingLineClipped) {
  // Line 3 differs at column 200 of 300: the report keeps a 160-character
  // window around it on each side.
  const std::string baseline = "a\nb\n" + std::string(300, 'x') + "\n";
  std::string current = baseline;
  current[4 + 200] = 'y';
  auto d = first_difference(baseline, current);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->line, 3u);
  EXPECT_EQ(d->baseline_lines, 3u);
  EXPECT_EQ(d->current_lines, 3u);
  EXPECT_EQ(d->baseline_line, "..." + std::string(160, 'x') + "...");
  EXPECT_EQ(d->current_line,
            "..." + std::string(80, 'x') + "y" + std::string(79, 'x') + "...");

  // A file that ends early shows an empty line and its shorter count.
  d = first_difference("a\nb\n", "a\nb\nc");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->line, 3u);
  EXPECT_EQ(d->baseline_line, "");
  EXPECT_EQ(d->current_line, "c");
  EXPECT_EQ(d->baseline_lines, 2u);
  EXPECT_EQ(d->current_lines, 3u);
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

TEST(BenchArgs, NumericFlagsParseTheWholeValue) {
  const Args args({"--scale=0.25", "--lb=-7", "--tiny=1e-3"},
                  "test [--scale=F] [--lb=N] [--tiny=F]");
  EXPECT_EQ(args.get_double("scale", 0.0), 0.25);
  EXPECT_EQ(args.get_int("lb", 0), -7);
  EXPECT_EQ(args.get_double("tiny", 0.0), 1e-3);
}

TEST(BenchArgs, MalformedNumbersThrowNamingTheFlag) {
  for (const char* value : {"abc", "0.001xyz", "", "inf", "nan", "1e999",
                            " 1", "0x10"}) {
    SCOPED_TRACE(value);
    const Args args({std::string("--scale=") + value}, "test [--scale=F]");
    try {
      (void)args.get_double("scale", 1.0);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'--scale'"), std::string::npos)
          << e.what();
    }
  }
  for (const char* value : {"1.5", "12abc", "x", "99999999999999999999"}) {
    SCOPED_TRACE(value);
    const Args args({std::string("--top=") + value}, "test [--top=N]");
    EXPECT_THROW((void)args.get_int("top", 10), std::invalid_argument);
  }
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
      const std::string m = nestpar::test::mutate(text, rng);
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
