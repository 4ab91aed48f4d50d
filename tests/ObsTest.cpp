//===- tests/ObsTest.cpp - Observability layer tests ----------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the obs subsystem: trace-ring wrap-around under concurrent
// writers, power-of-two histogram bucket boundaries, JSON round-tripping
// (including the StatsReporter document), the statistic registry, the
// STM-side stats-to-JSON conversion, and the runtime sampling gate on a
// real commit.
//
//===----------------------------------------------------------------------===//

#include "obs/AbortSites.h"
#include "obs/Histogram.h"
#include "obs/Json.h"
#include "obs/PhaseProfile.h"
#include "obs/StatsReporter.h"
#include "obs/Statistic.h"
#include "obs/TraceRing.h"
#include "obs/TxObs.h"
#include "stm/StatsJson.h"
#include "stm/TxManager.h"
#include "stm/TxStats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace otm;
using namespace otm::obs;

namespace {

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds only zero; bucket B (B >= 1) holds [2^(B-1), 2^B - 1].
  EXPECT_EQ(HistogramBuckets::bucketFor(0), 0u);
  EXPECT_EQ(HistogramBuckets::bucketFor(1), 1u);
  EXPECT_EQ(HistogramBuckets::bucketFor(2), 2u);
  EXPECT_EQ(HistogramBuckets::bucketFor(3), 2u);
  EXPECT_EQ(HistogramBuckets::bucketFor(4), 3u);
  EXPECT_EQ(HistogramBuckets::bucketFor(7), 3u);
  EXPECT_EQ(HistogramBuckets::bucketFor(8), 4u);
  for (unsigned Shift = 1; Shift < 63; ++Shift) {
    uint64_t Edge = uint64_t(1) << Shift;
    EXPECT_EQ(HistogramBuckets::bucketFor(Edge), Shift + 1)
        << "lower edge 2^" << Shift;
    EXPECT_EQ(HistogramBuckets::bucketFor(Edge - 1), Shift)
        << "upper edge 2^" << Shift << " - 1";
  }
  // The top bucket absorbs everything that would overflow the bucket count.
  EXPECT_EQ(HistogramBuckets::bucketFor(~uint64_t(0)),
            HistogramBuckets::Num - 1);
}

TEST(HistogramTest, RecordAndSummarize) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_DOUBLE_EQ(H.mean(), 0.0);
  H.record(0);
  H.record(1);
  H.record(5);
  H.record(1000);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 1006u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_DOUBLE_EQ(H.mean(), 1006.0 / 4.0);
  EXPECT_EQ(H.bucket(HistogramBuckets::bucketFor(5)), 1u);

  Histogram Other;
  Other.record(5);
  H.merge(Other);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.bucket(HistogramBuckets::bucketFor(5)), 2u);

  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.max(), 0u);
}

TEST(HistogramTest, AtomicAddAndSnapshot) {
  AtomicHistogram A;
  Histogram H;
  H.record(3);
  H.record(300);
  A.add(H);
  A.add(H);
  Histogram S = A.snapshot();
  EXPECT_EQ(S.count(), 4u);
  EXPECT_EQ(S.sum(), 606u);
  EXPECT_EQ(S.max(), 300u);
  A.reset();
  EXPECT_EQ(A.snapshot().count(), 0u);
}

//===----------------------------------------------------------------------===//
// TraceRing
//===----------------------------------------------------------------------===//

TEST(TraceRingTest, WrapAroundUnderConcurrentWriters) {
  constexpr std::size_t Capacity = 1 << 8;
  constexpr unsigned NumThreads = 4;
  constexpr unsigned PerThread = 1000; // 4000 records into 256 slots
  TraceRing *Ring = TraceRing::createDetached(Capacity);
  ASSERT_NE(Ring, nullptr);
  EXPECT_EQ(Ring->capacity(), Capacity);

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I)
        Ring->record(T % 2 ? EventKind::GcEnd : EventKind::GcBegin,
                     uint16_t(T));
    });
  for (std::thread &T : Threads)
    T.join();

  // Every record landed (the head is a fetch_add, nothing is lost silently)
  // and the ring holds exactly the last `Capacity` slots.
  EXPECT_EQ(Ring->recorded(), uint64_t(NumThreads) * PerThread);
  std::vector<TraceEvent> Events = Ring->snapshot();
  EXPECT_EQ(Events.size(), Capacity);
  for (const TraceEvent &E : Events) {
    EXPECT_LT(E.Aux, NumThreads);
    // Each slot was written by one record() call: kind and aux agree.
    EXPECT_EQ(E.Kind, uint16_t(E.Aux % 2 ? EventKind::GcEnd
                                         : EventKind::GcBegin));
  }
}

TEST(TraceRingTest, SnapshotBeforeWrapKeepsOrder) {
  TraceRing *Ring = TraceRing::createDetached(1 << 8);
  for (int I = 0; I < 10; ++I)
    Ring->record(EventKind::TxBegin, uint16_t(I));
  std::vector<TraceEvent> Events = Ring->snapshot();
  ASSERT_EQ(Events.size(), 10u);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Events[I].Aux, I); // oldest first
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(JsonTest, RoundTrip) {
  JsonValue Doc = JsonValue::object();
  Doc.set("name", std::string("otm"));
  Doc.set("answer", uint64_t(42));
  Doc.set("delta", int64_t(-7));
  Doc.set("ratio", 2.5);
  Doc.set("on", true);
  Doc.set("off", false);
  Doc.set("nothing", JsonValue());
  Doc.set("escaped", std::string("line\n\"quoted\"\ttab\\slash"));
  JsonValue Arr = JsonValue::array();
  for (uint64_t I = 0; I < 5; ++I)
    Arr.push(I * 1000);
  Doc.set("values", std::move(Arr));
  JsonValue Nested = JsonValue::object();
  Nested.set("big", ~uint64_t(0)); // must survive exactly, not via double
  Doc.set("nested", std::move(Nested));

  std::string Text = Doc.dump(2);
  std::string Error;
  JsonValue Parsed = JsonValue::parse(Text, &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Parsed, Doc);
  // And a second trip through the compact form.
  JsonValue Again = JsonValue::parse(Parsed.dump(0), &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Again, Doc);
}

TEST(JsonTest, ParseErrors) {
  std::string Error;
  JsonValue V = JsonValue::parse("{\"a\": }", &Error);
  EXPECT_FALSE(Error.empty());
  Error.clear();
  JsonValue W = JsonValue::parse("[1, 2", &Error);
  EXPECT_FALSE(Error.empty());
}

TEST(StatsReporterTest, DocumentRoundTrip) {
  StatsReporter Reporter("unit_test_bench");
  JsonValue Run = JsonValue::object();
  Run.set("label", std::string("cfg-a"));
  Run.set("ops_per_sec", 123.5);
  Reporter.addRun(std::move(Run));
  JsonValue Extra = JsonValue::object();
  Extra.set("k", uint64_t(9));
  Reporter.addSection("extra", std::move(Extra));

  std::string Error;
  JsonValue Doc = JsonValue::parse(Reporter.toJson(), &Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Doc.get("schema")->asString(), "otm-bench-stats-v1");
  EXPECT_EQ(Doc.get("bench")->asString(), "unit_test_bench");
  ASSERT_NE(Doc.get("runs"), nullptr);
  EXPECT_EQ(Doc.get("runs")->size(), 1u);
  EXPECT_EQ(Doc.get("runs")->at(0).get("label")->asString(), "cfg-a");
  EXPECT_EQ(Doc.get("extra")->get("k")->asUInt(), 9u);
}

TEST(StatsJsonTest, TxStatsSerializes) {
  stm::TxStats S;
  S.Starts = 10;
  S.Commits = 8;
  S.Aborts = 2;
  S.CommitTscCycles.record(1024);
  S.RetriesPerCommit.record(1);
  JsonValue V = stm::statsToJson(S);
  EXPECT_EQ(V.get("counters")->get("Starts")->asUInt(), 10u);
  EXPECT_EQ(V.get("counters")->get("Commits")->asUInt(), 8u);
  const JsonValue *H = V.get("histograms")->get("CommitTscCycles");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->get("count")->asUInt(), 1u);
  EXPECT_EQ(H->get("sum")->asUInt(), 1024u);
  // Round-trips through text without loss.
  std::string Error;
  JsonValue Back = JsonValue::parse(V.dump(2), &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Back, V);
}

//===----------------------------------------------------------------------===//
// X-macro generated stats plumbing
//===----------------------------------------------------------------------===//

TEST(TxStatsTest, AddAndResetCoverEveryField) {
  stm::TxStats A;
  unsigned NumCounters = 0;
  A.forEachCounter([&](const char *, uint64_t) { ++NumCounters; });
  EXPECT_GE(NumCounters, 13u);

  A.Starts = 3;
  A.UndosFiltered = 7;
  A.CommitTscCycles.record(100);
  stm::TxStats B;
  B.Starts = 2;
  B.CommitTscCycles.record(50);
  A.add(B);
  EXPECT_EQ(A.Starts, 5u);
  EXPECT_EQ(A.UndosFiltered, 7u);
  EXPECT_EQ(A.CommitTscCycles.count(), 2u);
  A.reset();
  A.forEachCounter([&](const char *Name, uint64_t V) {
    EXPECT_EQ(V, 0u) << Name;
  });
  EXPECT_EQ(A.CommitTscCycles.count(), 0u);
}

TEST(TxStatsTest, GlobalAggregateResets) {
  // Use the real singleton but restore it: add, snapshot, reset.
  stm::GlobalTxStats &G = stm::GlobalTxStats::instance();
  stm::TxStats Before = G.snapshot();
  stm::TxStats Delta;
  Delta.Starts = 11;
  Delta.RetriesPerCommit.record(2);
  G.add(Delta);
  stm::TxStats After = G.snapshot();
  EXPECT_EQ(After.Starts, Before.Starts + 11);
  EXPECT_EQ(After.RetriesPerCommit.count(),
            Before.RetriesPerCommit.count() + 1);
  G.reset();
  stm::TxStats Zero = G.snapshot();
  Zero.forEachCounter([&](const char *Name, uint64_t V) {
    EXPECT_EQ(V, 0u) << Name;
  });
  EXPECT_EQ(Zero.CommitTscCycles.count(), 0u);
  EXPECT_EQ(Zero.RetriesPerCommit.count(), 0u);
}

//===----------------------------------------------------------------------===//
// Runtime sampling gate through a real transaction
//===----------------------------------------------------------------------===//

struct SampledCell : stm::TxObject {
  stm::Field<int64_t> Value;
};

/// This thread's stats for one object-STM writer commit run with latency
/// sampling set to \p On. Restores the sampling switch afterwards.
stm::TxStats writerCommitStats(bool On) {
  stm::TxManager &Tx = stm::TxManager::current();
  Tx.flushStats(); // start from a zeroed per-thread block
  bool Was = samplingEnabled();
  setSampling(On);
  SampledCell C;
  Tx.begin();
  Tx.openForUpdate(&C);
  EXPECT_TRUE(Tx.tryCommit());
  setSampling(Was);
  stm::TxStats S = Tx.stats();
  Tx.flushStats();
  return S;
}

TEST(SamplingGateTest, WriterCommitRecordsOneSamplePerPhase) {
  stm::TxStats S = writerCommitStats(true);
  EXPECT_EQ(S.Commits, 1u);
  EXPECT_EQ(S.CommitTscCycles.count(), 1u);
  EXPECT_EQ(S.RetriesPerCommit.count(), 1u);
  EXPECT_EQ(S.PhaseValidateCycles.count(), 1u);
  EXPECT_EQ(S.PhaseWriteBackCycles.count(), 1u);
  EXPECT_EQ(S.PhaseCommitLockCycles.count(), 0u); // word STM only
  EXPECT_EQ(S.PhaseCmWaitCycles.count(), 0u);
  EXPECT_EQ(S.PhaseBackoffCycles.count(), 0u);
}

TEST(SamplingGateTest, UnsampledCommitRecordsNothing) {
  stm::TxStats S = writerCommitStats(false);
  EXPECT_EQ(S.Commits, 1u);
  S.forEachHistogram([](const char *Name, const Histogram &H) {
    EXPECT_EQ(H.count(), 0u) << Name;
  });
}

TEST(SamplingGateTest, PhaseBreakdownListsTheFivePhases) {
  JsonValue V = stm::phaseBreakdownToJson(stm::TxStats());
  std::vector<std::string> Keys;
  for (const auto &Member : V.members())
    Keys.push_back(Member.first);
  EXPECT_EQ(Keys, (std::vector<std::string>{"validate", "commit_lock",
                                            "write_back", "cm_wait",
                                            "backoff"}));
  EXPECT_EQ(Keys.size(), NumPhases);
}

//===----------------------------------------------------------------------===//
// Statistic registry
//===----------------------------------------------------------------------===//

OTM_STATISTIC(TestStatA, "obs-test", "stat-a", "first test counter");
OTM_STATISTIC(TestStatB, "obs-test", "stat-b", "second test counter");

TEST(StatisticTest, RegistrationAndReset) {
  TestStatA += 5;
  ++TestStatB;
  EXPECT_EQ(TestStatA.value(), 5u);
  EXPECT_EQ(TestStatB.value(), 1u);

  bool SawA = false, SawB = false;
  Statistic::forEach([&](const Statistic &S) {
    if (std::string(S.group()) == "obs-test") {
      if (std::string(S.name()) == "stat-a") {
        SawA = true;
        EXPECT_EQ(S.value(), 5u);
      }
      if (std::string(S.name()) == "stat-b")
        SawB = true;
    }
  });
  EXPECT_TRUE(SawA);
  EXPECT_TRUE(SawB);

  JsonValue All = Statistic::allToJson();
  bool InJson = false;
  for (std::size_t I = 0; I < All.size(); ++I)
    if (All.at(I).get("name") &&
        All.at(I).get("name")->asString() == "stat-a")
      InJson = true;
  EXPECT_TRUE(InJson);

  Statistic::resetAll();
  EXPECT_EQ(TestStatA.value(), 0u);
  EXPECT_EQ(TestStatB.value(), 0u);
}

//===----------------------------------------------------------------------===//
// Abort attribution
//===----------------------------------------------------------------------===//

TEST(AbortSitesTest, RecordAndTopK) {
  AbortSites &Sites = AbortSites::instance();
  Sites.reset();
  int Obj1 = 0, Obj2 = 0;
  for (int I = 0; I < 5; ++I)
    Sites.record(&Obj1, AbortCause::Conflict, 7);
  Sites.record(&Obj2, AbortCause::Validation, 9);

  auto Top = Sites.topK(2);
  ASSERT_GE(Top.size(), 2u);
  EXPECT_EQ(Top[0].Addr, reinterpret_cast<uintptr_t>(&Obj1));
  EXPECT_EQ(Top[0].Conflicts, 5u);
  EXPECT_EQ(Top[0].LastOwnerSite, 7u);
  EXPECT_EQ(Top[1].Addr, reinterpret_cast<uintptr_t>(&Obj2));
  EXPECT_EQ(Top[1].Validations, 1u);

  JsonValue J = Sites.toJson(4);
  ASSERT_GE(J.size(), 1u);
  EXPECT_EQ(J.at(0).get("conflicts")->asUInt(), 5u);
  Sites.reset();
  EXPECT_TRUE(Sites.topK(4).empty());
}

//===----------------------------------------------------------------------===//
// Percentile interpolation
//===----------------------------------------------------------------------===//

TEST(HistogramPercentileTest, EmptyHistogramIsZero) {
  Histogram H;
  EXPECT_DOUBLE_EQ(H.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(H.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(H.percentile(100.0), 0.0);
}

TEST(HistogramPercentileTest, ZeroBucketIsExact) {
  Histogram H;
  for (int I = 0; I < 10; ++I)
    H.record(0);
  EXPECT_DOUBLE_EQ(H.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(H.percentile(99.9), 0.0);
}

TEST(HistogramPercentileTest, SingleBucketInterpolates) {
  // 100 samples of value 5 all land in bucket [4, 8); the upper edge is
  // clamped to the observed maximum, so every quantile stays in [4, 5].
  Histogram H;
  for (int I = 0; I < 100; ++I)
    H.record(5);
  EXPECT_DOUBLE_EQ(H.percentile(0.0), 4.0);   // bucket lower bound
  EXPECT_DOUBLE_EQ(H.percentile(50.0), 4.5);  // halfway through the bucket
  EXPECT_DOUBLE_EQ(H.percentile(100.0), 5.0); // observed max
  EXPECT_GE(H.percentile(99.0), 4.0);
  EXPECT_LE(H.percentile(99.0), 5.0);
}

TEST(HistogramPercentileTest, TailBucketClampsToMax) {
  // The top bucket's nominal upper edge is 2^63; the observed max must cap
  // the interpolation so p999 never extrapolates past a real sample.
  Histogram H;
  uint64_t Huge = ~uint64_t(0);
  for (int I = 0; I < 8; ++I)
    H.record(Huge);
  EXPECT_DOUBLE_EQ(H.percentile(100.0), static_cast<double>(Huge));
  EXPECT_LE(H.percentile(99.9), static_cast<double>(Huge));
  EXPECT_GE(H.percentile(50.0),
            static_cast<double>(HistogramBuckets::lowerBound(
                HistogramBuckets::Num - 1)));
}

TEST(HistogramPercentileTest, QuantilesAreMonotone) {
  Histogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  double P50 = H.percentile(50.0);
  double P99 = H.percentile(99.0);
  double P999 = H.percentile(99.9);
  EXPECT_LE(P50, P99);
  EXPECT_LE(P99, P999);
  EXPECT_LE(P999, 1000.0);
  // p50 of 1..1000 sits in the [512, 1000] bucket span.
  EXPECT_GE(P50, 256.0);
}

//===----------------------------------------------------------------------===//
// Conflict-graph edge table
//===----------------------------------------------------------------------===//

TEST(AbortSitesEdgeTest, RecordAndTopEdges) {
  AbortSites &Sites = AbortSites::instance();
  Sites.reset();
  // Victim site 1 aborted by owner site 2 (conflicts), 3 by 4 (validation).
  for (int I = 0; I < 5; ++I)
    Sites.record(nullptr, AbortCause::Conflict, /*OwnerSite=*/2,
                 /*VictimSite=*/1);
  Sites.record(nullptr, AbortCause::Validation, 4, 3);

  auto Edges = Sites.topEdges(4);
  ASSERT_EQ(Edges.size(), 2u);
  EXPECT_EQ(Edges[0].Victim, 1u);
  EXPECT_EQ(Edges[0].Owner, 2u);
  EXPECT_EQ(Edges[0].Conflicts, 5u);
  EXPECT_EQ(Edges[1].Victim, 3u);
  EXPECT_EQ(Edges[1].Owner, 4u);
  EXPECT_EQ(Edges[1].Validations, 1u);
  EXPECT_EQ(Sites.edgeOccupancy(), 2u);
  EXPECT_EQ(Sites.edgesDropped(), 0u);

  JsonValue J = Sites.edgesToJson(4);
  ASSERT_EQ(J.size(), 2u);
  EXPECT_EQ(J.at(0).get("victim_site")->asUInt(), 1u);
  EXPECT_EQ(J.at(0).get("owner_site")->asUInt(), 2u);
  EXPECT_EQ(J.at(0).get("conflicts")->asUInt(), 5u);

  std::string Dot = Sites.dotGraph();
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("s1 -> s2"), std::string::npos);
  EXPECT_NE(Dot.find("s3 -> s4"), std::string::npos);
  Sites.reset();
}

TEST(AbortSitesEdgeTest, VictimZeroRecordsNoEdge) {
  AbortSites &Sites = AbortSites::instance();
  Sites.reset();
  int Obj = 0;
  Sites.record(&Obj, AbortCause::Conflict, 7); // default victim = 0
  EXPECT_EQ(Sites.edgeOccupancy(), 0u);
  EXPECT_TRUE(Sites.topEdges(4).empty());
  Sites.reset();
}

TEST(AbortSitesEdgeTest, UnknownOwnerRendersDashed) {
  AbortSites &Sites = AbortSites::instance();
  Sites.reset();
  // Owner 0 = "owner released before we sampled it": the weight must still
  // appear in the graph, as a dashed edge into a distinct sink.
  Sites.record(nullptr, AbortCause::Conflict, 0, 5);
  std::string Dot = Sites.dotGraph();
  EXPECT_NE(Dot.find("s5 -> unknown"), std::string::npos);
  Sites.reset();
}

TEST(AbortSitesEdgeTest, WraparoundDropsAndReset) {
  AbortSites &Sites = AbortSites::instance();
  Sites.reset();
  // Far more distinct (victim, owner) pairs than the table holds: the
  // bounded open-addressed table must fill, count the overflow, and never
  // grow.
  const std::size_t Pairs = 4 * AbortSites::edgeCapacity();
  for (std::size_t I = 0; I < Pairs; ++I)
    Sites.record(nullptr, AbortCause::Conflict,
                 static_cast<uint32_t>(1000 + I),
                 static_cast<uint32_t>(1 + (I % 97)));
  EXPECT_LE(Sites.edgeOccupancy(), AbortSites::edgeCapacity());
  EXPECT_GT(Sites.edgesDropped(), 0u);
  EXPECT_EQ(Sites.edgeOccupancy() + Sites.edgesDropped(), Pairs);

  // Recording an edge that already has a slot still counts after overflow.
  auto Edges = Sites.topEdges(1);
  ASSERT_EQ(Edges.size(), 1u);
  Sites.record(nullptr, AbortCause::Conflict, Edges[0].Owner,
               Edges[0].Victim);
  EXPECT_EQ(Sites.topEdges(1)[0].Conflicts, Edges[0].Conflicts + 1);

  Sites.reset();
  EXPECT_EQ(Sites.edgeOccupancy(), 0u);
  EXPECT_EQ(Sites.edgesDropped(), 0u);
  EXPECT_TRUE(Sites.topEdges(4).empty());
}

} // namespace
