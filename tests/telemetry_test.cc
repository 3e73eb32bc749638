// Tests for the telemetry subsystem: JSON writer round-trips, registry
// instruments (enabled/disabled semantics, concurrency from a ThreadPool),
// dual-clock trace spans and their nesting, exporter schema stability, and
// the bench run-artifact schema validator.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "monitor/monitor.h"
#include "telemetry/artifact.h"
#include "telemetry/json_writer.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "topo/generator.h"
#include "util/thread_pool.h"

namespace sdnprobe::telemetry {
namespace {

// --- JSON writer ---

TEST(JsonWriter, ScalarsSerialize) {
  EXPECT_EQ(JsonValue().to_string(), "null");
  EXPECT_EQ(JsonValue(true).to_string(), "true");
  EXPECT_EQ(JsonValue(false).to_string(), "false");
  EXPECT_EQ(JsonValue(42).to_string(), "42");
  EXPECT_EQ(JsonValue(-7).to_string(), "-7");
  EXPECT_EQ(JsonValue(1.5).to_string(), "1.5");
  EXPECT_EQ(JsonValue("hi").to_string(), "\"hi\"");
}

TEST(JsonWriter, EscapesStringsPerRfc8259) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

TEST(JsonWriter, NumbersRoundTripAndNonFiniteAreSanitized) {
  for (const double v : {0.0, 1.0, -1.0, 0.1, 1e-9, 1e300, 3.141592653589793,
                         12345.6789, 2.2250738585072014e-308}) {
    const std::string s = json_number(v);
    EXPECT_DOUBLE_EQ(std::strtod(s.c_str(), nullptr), v) << "formatted " << s;
  }
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonWriter, ObjectsPreserveInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj["zulu"] = 1;
  obj["alpha"] = 2;
  obj["mike"] = 3;
  EXPECT_EQ(obj.to_string(), "{\"zulu\":1,\"alpha\":2,\"mike\":3}");
  // operator[] on an existing key updates in place, keeping its position.
  obj["alpha"] = 20;
  EXPECT_EQ(obj.to_string(), "{\"zulu\":1,\"alpha\":20,\"mike\":3}");
  EXPECT_EQ(obj.size(), 3u);
  ASSERT_NE(obj.find("mike"), nullptr);
  EXPECT_EQ(obj.find("mike")->to_string(), "3");
  EXPECT_EQ(obj.find("absent"), nullptr);
}

TEST(JsonWriter, NestedStructuresAndPrettyPrinting) {
  JsonValue root = JsonValue::object();
  root["list"] = JsonValue::array();
  root["list"].append(1);
  root["list"].append("two");
  root["nested"] = JsonValue::object();
  root["nested"]["k"] = true;
  EXPECT_EQ(root.to_string(),
            "{\"list\":[1,\"two\"],\"nested\":{\"k\":true}}");
  const std::string pretty = root.to_pretty_string();
  EXPECT_NE(pretty.find("  \"list\": [\n"), std::string::npos);
  EXPECT_EQ(pretty.back(), '\n');
  // Serialization is deterministic: same document, same bytes.
  EXPECT_EQ(root.to_string(), root.to_string());
  EXPECT_EQ(root.to_pretty_string(), pretty);
}

// --- Registry instruments ---

TEST(MetricsRegistry, DisabledInstrumentsRecordNothing) {
  MetricsRegistry reg(/*enabled=*/false);
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.add(5);
  g.set(3.0);
  h.record(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // Spans against a disabled registry do not record or change depth.
  {
    TraceSpan span(reg, "quiet");
    EXPECT_FALSE(span.recording());
    EXPECT_EQ(current_span_depth(), 0);
  }
  EXPECT_TRUE(reg.spans().empty());
}

TEST(MetricsRegistry, EnabledInstrumentsRecord) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter& c = reg.counter("events");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  // Lookup by the same name returns the same instrument.
  EXPECT_EQ(&reg.counter("events"), &c);

  Gauge& g = reg.gauge("depth");
  g.set(4.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 4.0);
  g.set_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);

  Histogram& h = reg.histogram("lat", {1.0, 10.0});
  for (const double v : {0.5, 2.0, 5.0, 50.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);  // <=1, <=10, overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsInstrumentIdentity) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter& c = reg.counter("n");
  Histogram& h = reg.histogram("d");
  c.add(3);
  h.record(1.5);
  { TraceSpan span(reg, "s"); }
  ASSERT_EQ(reg.spans().size(), 1u);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(reg.spans().empty());
  // The old references still work after reset.
  c.add();
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(&reg.counter("n"), &c);
}

TEST(MetricsRegistry, CountersAreExactUnderThreadPoolHammering) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter& c = reg.counter("hammered");
  Histogram& h = reg.histogram("hammered_h");
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  {
    util::ThreadPool pool(4);
    util::parallel_for(&pool, kTasks, [&](std::size_t i) {
      for (int k = 0; k < kAddsPerTask; ++k) {
        c.add();
        h.record(static_cast<double>(i));
      }
    });
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
  EXPECT_EQ(h.count(), static_cast<std::size_t>(kTasks) * kAddsPerTask);
}

TEST(MetricsRegistry, ConcurrentInstrumentResolutionIsSafe) {
  MetricsRegistry reg(/*enabled=*/true);
  constexpr int kTasks = 32;
  {
    util::ThreadPool pool(4);
    util::parallel_for(&pool, kTasks, [&](std::size_t i) {
      // Half the tasks resolve the same name, half resolve distinct ones.
      reg.counter("shared").add();
      reg.counter("task." + std::to_string(i % 8)).add();
      reg.histogram("hist." + std::to_string(i % 4)).record(1.0);
    });
  }
  EXPECT_EQ(reg.counter("shared").value(), static_cast<std::uint64_t>(kTasks));
}

TEST(MetricsRegistry, SpanCapDropsExcessSpansAndCountsThem) {
  MetricsRegistry reg(/*enabled=*/true);
  for (std::size_t i = 0; i < MetricsRegistry::span_cap() + 10; ++i) {
    SpanRecord s;
    s.name = "x";
    reg.record_span(std::move(s));
  }
  EXPECT_EQ(reg.spans().size(), MetricsRegistry::span_cap());
  const std::string json = reg.to_json().to_string();
  EXPECT_NE(json.find("\"spans_dropped\":10"), std::string::npos);
}

// --- Trace spans ---

TEST(TraceSpan, RecordsWallTimeDepthAndAnnotations) {
  MetricsRegistry reg(/*enabled=*/true);
  EXPECT_EQ(current_span_depth(), 0);
  {
    TraceSpan outer(reg, "outer");
    EXPECT_TRUE(outer.recording());
    EXPECT_EQ(current_span_depth(), 1);
    {
      TraceSpan inner(reg, "inner");
      EXPECT_EQ(current_span_depth(), 2);
      inner.annotate("k", 7.0);
    }
    EXPECT_EQ(current_span_depth(), 1);
  }
  EXPECT_EQ(current_span_depth(), 0);

  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 2u);  // completion order: inner first
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].first, "k");
  EXPECT_DOUBLE_EQ(spans[0].attrs[0].second, 7.0);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_GE(spans[1].wall_ms, 0.0);
  EXPECT_FALSE(spans[0].has_sim);
  // Each span also feeds a per-name duration histogram.
  EXPECT_EQ(reg.histogram("span.inner.wall_ms").count(), 1u);
}

TEST(TraceSpan, DualClockCapturesSimulatedInterval) {
  MetricsRegistry reg(/*enabled=*/true);
  double sim_now = 10.0;
  {
    TraceSpan span(reg, "round", [&sim_now] { return sim_now; });
    sim_now = 12.5;  // the guarded region advances simulated time
  }
  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].has_sim);
  EXPECT_DOUBLE_EQ(spans[0].sim_start_s, 10.0);
  EXPECT_DOUBLE_EQ(spans[0].sim_end_s, 12.5);
}

// --- Exporters ---

TEST(Exporters, TextSkipsZeroInstrumentsAndShowsNonZero) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("silent");
  reg.counter("loud").add(3);
  const std::string text = reg.to_text();
  EXPECT_EQ(text.find("silent"), std::string::npos);
  EXPECT_NE(text.find("counter   loud = 3"), std::string::npos);
}

TEST(Exporters, JsonSchemaIsStableAndOrdered) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("b.two").add(2);
  reg.counter("a.one").add(1);
  reg.gauge("g").set(1.5);
  reg.histogram("h").record(0.5);
  { TraceSpan span(reg, "s", [] { return 1.0; }); }

  const JsonValue doc = reg.to_json();
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->to_string(), "\"sdnprobe.metrics.v1\"");
  for (const char* key :
       {"counters", "gauges", "histograms", "spans", "spans_dropped"}) {
    EXPECT_NE(doc.find(key), nullptr) << key;
  }
  const std::string s = doc.to_string();
  // Counters export in name order regardless of creation order.
  EXPECT_LT(s.find("a.one"), s.find("b.two"));
  // Histogram entries carry the full stat block.
  for (const char* key : {"\"count\"", "\"mean\"", "\"p50\"", "\"p90\"",
                          "\"p99\"", "\"bucket_bounds\"", "\"bucket_counts\""}) {
    EXPECT_NE(s.find(key), std::string::npos) << key;
  }
  // Span with a sim clock exports the simulated interval.
  EXPECT_NE(s.find("\"sim_duration_s\""), std::string::npos);
  // Exporting twice yields byte-identical output (artifact diffability).
  EXPECT_EQ(reg.to_json().to_string(), s);
}

TEST(Exporters, WriteMetricsFileProducesParseableDocument) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("written").add(1);
  const std::string path = ::testing::TempDir() + "telemetry_export.json";
  ASSERT_TRUE(write_metrics_file(reg, path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"sdnprobe.metrics.v1\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"written\": 1"), std::string::npos);
  std::remove(path.c_str());
}

// --- Run artifacts ---

TEST(RunArtifact, BuildsSchemaValidDocument) {
  RunArtifact art("unit_test", "telemetry_test.cc", /*full_scale=*/false);
  art.set_param("switches", 8);
  auto& row = art.add_row();
  row["rules"] = 100;
  row["probes"] = 7;
  art.set_summary("headline", 1.25);
  EXPECT_EQ(validate_bench_artifact(art.json()), "");
  const std::string s = art.json().to_string();
  EXPECT_NE(s.find("\"schema\":\"sdnprobe.bench.v1\""), std::string::npos);
  EXPECT_NE(s.find("\"bench\":\"unit_test\""), std::string::npos);
}

TEST(RunArtifact, SummaryOnlyDocumentIsValid) {
  RunArtifact art("single_config", "ref", false);
  art.set_summary("value", 42);
  EXPECT_EQ(validate_bench_artifact(art.json()), "");
}

TEST(RunArtifact, ValidatorRejectsMalformedDocuments) {
  EXPECT_NE(validate_bench_artifact(JsonValue(3)), "");
  EXPECT_NE(validate_bench_artifact(JsonValue::object()), "");

  JsonValue wrong_schema = JsonValue::object();
  wrong_schema["schema"] = "sdnprobe.bench.v0";
  EXPECT_NE(validate_bench_artifact(wrong_schema), "");

  // An otherwise-valid doc with no data at all is rejected.
  RunArtifact empty("no_data", "ref", true);
  EXPECT_NE(validate_bench_artifact(empty.json()), "");

  // Missing rows array.
  JsonValue doc = JsonValue::object();
  doc["schema"] = "sdnprobe.bench.v1";
  doc["bench"] = "x";
  doc["reproduces"] = "y";
  doc["full"] = false;
  doc["params"] = JsonValue::object();
  doc["summary"] = JsonValue::object();
  EXPECT_NE(validate_bench_artifact(doc), "");
}

TEST(RunArtifact, WriteToEmitsBenchPrefixedFile) {
  RunArtifact art("write_test", "ref", false);
  art.set_summary("k", 1);
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  const std::string path = art.write_to(dir);
  ASSERT_EQ(path, dir + "/BENCH_write_test.json");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"sdnprobe.bench.v1\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunArtifact, AttachMetricsEmbedsRegistryExport) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("embedded").add(4);
  RunArtifact art("with_metrics", "ref", false);
  art.set_summary("k", 1);
  art.attach_metrics(reg);
  EXPECT_EQ(validate_bench_artifact(art.json()), "");
  const std::string s = art.json().to_string();
  EXPECT_NE(s.find("\"metrics\":{\"schema\":\"sdnprobe.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(s.find("\"embedded\":4"), std::string::npos);
}

// --- Monitor health instruments (DESIGN.md §12) ---

TEST(MonitorTelemetry, UptimeGaugesTrackBothClocks) {
  auto& reg = MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);

  topo::GeneratorConfig tc;
  tc.node_count = 8;
  tc.link_count = 13;
  tc.seed = 3;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 300;
  sc.seed = 4;
  flow::RuleSet rules = flow::synthesize_ruleset(g, sc);
  sim::EventLoop loop;
  dataplane::Network net(rules, loop);
  controller::Controller ctrl(rules, net);
  monitor::Monitor mon(rules, ctrl, loop, {});

  // Advance the simulated clock, then run a round: the live-session gauges
  // must track both clocks independently (sim uptime from the event loop,
  // wall uptime from the host stopwatch).
  loop.schedule_in(2.5, [] {});
  loop.run();
  mon.run_round();
  EXPECT_GE(reg.gauge("monitor.uptime_sim_s").value(), 2.5);
  EXPECT_GT(reg.gauge("monitor.uptime_wall_s").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("monitor.epoch").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("monitor.coverage_fraction").value(), 1.0);
  EXPECT_EQ(reg.counter("monitor.rounds_run").value(), 1u);
  // The same numbers surface in status() for the JSON artifact path.
  const monitor::MonitorStatus st = mon.status();
  EXPECT_GE(st.uptime_sim_s, reg.gauge("monitor.uptime_sim_s").value());
  EXPECT_GE(st.uptime_wall_s, reg.gauge("monitor.uptime_wall_s").value());

  reg.set_enabled(was_enabled);
  reg.reset();
}

}  // namespace
}  // namespace sdnprobe::telemetry
