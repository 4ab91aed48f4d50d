//===- tests/TelemetryTest.cpp - Time-series sampler tests ----------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the continuous telemetry pipeline: sampler start/stop lifecycle
// with the flush-on-exit record, the otm-telemetry-v1 JSONL schema, the
// clamped-delta guarantee across a concurrent stats reset, and the
// Prometheus text exposition. The sampler thread is started and joined
// inside the tests, so running this binary under TSan/LSan exercises the
// shutdown path.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/Telemetry.h"
#include "stm/Stm.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace otm;
using namespace otm::obs;

namespace {

/// Reads every line of \p Path as a parsed JSON record.
std::vector<JsonValue> readJsonl(const std::string &Path) {
  std::vector<JsonValue> Records;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::string Error;
    JsonValue V = JsonValue::parse(Line, &Error);
    EXPECT_TRUE(Error.empty()) << "bad JSONL line: " << Line << ": " << Error;
    Records.push_back(std::move(V));
  }
  return Records;
}

std::string tempJsonlPath(const char *Tag) {
  std::ostringstream Name;
  Name << "telemetry_test_" << Tag << ".jsonl";
  return Name.str();
}

TEST(TelemetryTest, ClampedDelta) {
  EXPECT_EQ(Telemetry::clampedDelta(10, 4), 6u);
  EXPECT_EQ(Telemetry::clampedDelta(4, 4), 0u);
  // A counter that shrank was reset underneath us: the new value IS the
  // delta since the restart, never an underflowed giant.
  EXPECT_EQ(Telemetry::clampedDelta(3, 1000), 3u);
  EXPECT_EQ(Telemetry::clampedDelta(0, ~uint64_t(0)), 0u);
}

TEST(TelemetryTest, SampleOnceProducesSchemaRecord) {
  JsonValue Rec = Telemetry::instance().sampleOnce();
  ASSERT_NE(Rec.get("schema"), nullptr);
  EXPECT_EQ(Rec.get("schema")->asString(), TelemetrySchema);
  EXPECT_NE(Rec.get("seq"), nullptr);
  EXPECT_NE(Rec.get("t_us"), nullptr);
  EXPECT_NE(Rec.get("interval_ms"), nullptr);
  ASSERT_NE(Rec.get("totals"), nullptr);
  ASSERT_NE(Rec.get("deltas"), nullptr);
  // The stm library registered its sources during static init.
  EXPECT_NE(Rec.get("totals")->get("stm"), nullptr);
  EXPECT_NE(Rec.get("totals")->get("txn_cm"), nullptr);
  EXPECT_NE(Rec.get("totals")->get("abort_sites"), nullptr);
  EXPECT_NE(Rec.get("totals")->get("phases"), nullptr);
}

TEST(TelemetryTest, StartStopEmitsAtLeastOneRecord) {
  Telemetry &T = Telemetry::instance();
  ASSERT_FALSE(T.running());
  std::string Path = tempJsonlPath("lifecycle");
  // A long interval relative to the test: the only guaranteed record is
  // the flush-on-exit one, which is exactly what this test pins down.
  ASSERT_TRUE(T.start(/*IntervalMs=*/10000, Path));
  EXPECT_TRUE(T.running());
  EXPECT_FALSE(T.start(10000, Path)) << "double start must refuse";
  // Commit a little work so the totals move while the sampler is up.
  stm::Stm::atomic([](stm::TxManager &) {});
  T.stop();
  EXPECT_FALSE(T.running());
  T.stop(); // idempotent

  std::vector<JsonValue> Records = readJsonl(Path);
  ASSERT_GE(Records.size(), 1u) << "stop() must flush a final record";
  for (std::size_t I = 0; I < Records.size(); ++I) {
    ASSERT_NE(Records[I].get("schema"), nullptr);
    EXPECT_EQ(Records[I].get("schema")->asString(), TelemetrySchema);
    ASSERT_NE(Records[I].get("seq"), nullptr);
    EXPECT_EQ(Records[I].get("seq")->asUInt(), I) << "seq must be contiguous";
  }
  std::remove(Path.c_str());
}

TEST(TelemetryTest, RestartBeginsNewSequence) {
  Telemetry &T = Telemetry::instance();
  std::string Path = tempJsonlPath("restart");
  ASSERT_TRUE(T.start(10000, Path));
  T.stop();
  ASSERT_TRUE(T.start(10000, Path)); // same sink, fresh stream
  T.stop();
  std::vector<JsonValue> Records = readJsonl(Path);
  ASSERT_GE(Records.size(), 1u);
  EXPECT_EQ(Records[0].get("seq")->asUInt(), 0u)
      << "restart must rewind seq (the file was rewritten)";
  std::remove(Path.c_str());
}

TEST(TelemetryTest, DeltasClampAcrossReset) {
  Telemetry &T = Telemetry::instance();
  // A controllable counter standing in for GlobalTxStats: the sampler must
  // survive the value shrinking between two samples (a concurrent reset).
  static uint64_t Counter;
  Counter = 100;
  T.registerSource("clamp_test", [] {
    JsonValue V = JsonValue::object();
    V.set("events", Counter);
    return V;
  });
  (void)T.sampleOnce(); // prev = 100
  Counter = 130;
  JsonValue Up = T.sampleOnce();
  EXPECT_EQ(Up.get("deltas")->get("clamp_test")->get("events")->asUInt(),
            30u);
  Counter = 7; // reset happened, then 7 new events
  JsonValue Down = T.sampleOnce();
  EXPECT_EQ(Down.get("deltas")->get("clamp_test")->get("events")->asUInt(),
            7u)
      << "shrinking counter must clamp, not underflow";
  // Deregistration is not needed: replacing with an empty-object source
  // keeps later tests' records clean.
  T.registerSource("clamp_test", [] { return JsonValue::object(); });
}

TEST(TelemetryTest, StmDeltasTrackCommits) {
  Telemetry &T = Telemetry::instance();
  (void)T.sampleOnce(); // baseline
  constexpr int N = 32;
  for (int I = 0; I < N; ++I)
    stm::Stm::atomic([](stm::TxManager &) {});
  stm::TxManager::current().flushStats(); // deltas read the global aggregate
  JsonValue Rec = T.sampleOnce();
  const JsonValue *Commits = Rec.get("deltas")->get("stm")->get("Commits");
  ASSERT_NE(Commits, nullptr);
  EXPECT_GE(Commits->asUInt(), static_cast<uint64_t>(N));
}

TEST(TelemetryTest, PrometheusTextExposition) {
  JsonValue Totals = JsonValue::object();
  JsonValue Stm = JsonValue::object();
  Stm.set("Commits", uint64_t{42});
  JsonValue Latency = JsonValue::object();
  Latency.set("p99_cycles", 1234.5);
  Stm.set("commit_latency", std::move(Latency));
  Totals.set("stm", std::move(Stm));

  std::string Text = Telemetry::prometheusText(Totals);
  EXPECT_NE(Text.find("# TYPE otm_stm_Commits gauge"), std::string::npos);
  EXPECT_NE(Text.find("otm_stm_Commits 42"), std::string::npos);
  EXPECT_NE(Text.find("otm_stm_commit_latency_p99_cycles 1234.5"),
            std::string::npos);
}

TEST(TelemetryTest, PrometheusFileRewrittenPerSample) {
  Telemetry &T = Telemetry::instance();
  std::string Path = tempJsonlPath("prom");
  std::string PromPath = "telemetry_test_prom.txt";
  ASSERT_TRUE(T.start(10000, Path, PromPath));
  T.stop(); // final record rewrites the exposition file
  std::ifstream In(PromPath);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_NE(Buf.str().find("otm_stm_"), std::string::npos);
  std::remove(Path.c_str());
  std::remove(PromPath.c_str());
}

} // namespace
