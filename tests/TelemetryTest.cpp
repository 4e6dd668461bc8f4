//===- TelemetryTest.cpp - instrumentation layer tests -------------------------===//
//
// Covers the observability substrate: RAII span nesting, counter and
// histogram bookkeeping, exact hot-path counter totals on fixture
// programs, JSON validity of both exporters, and the disabled
// (null-sink) mode recording nothing.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/FlightRecorder.h"
#include "support/Telemetry.h"

#include <sstream>
#include <thread>
#include <vector>

using namespace mcpta;
using namespace mcpta::support;
using namespace mcpta::testutil;

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON validator (syntax only) for exporter output.
//===----------------------------------------------------------------------===//

struct JsonChecker {
  const std::string &S;
  size_t I = 0;
  bool Ok = true;

  explicit JsonChecker(const std::string &S) : S(S) {}

  void ws() {
    while (I < S.size() && (S[I] == ' ' || S[I] == '\n' || S[I] == '\t' ||
                            S[I] == '\r'))
      ++I;
  }
  bool eat(char C) {
    ws();
    if (I < S.size() && S[I] == C) {
      ++I;
      return true;
    }
    return false;
  }
  void fail() { Ok = false; }

  void value() {
    if (!Ok)
      return;
    ws();
    if (I >= S.size())
      return fail();
    char C = S[I];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"')
      return string();
    if (C == '-' || (C >= '0' && C <= '9'))
      return number();
    if (S.compare(I, 4, "true") == 0) {
      I += 4;
      return;
    }
    if (S.compare(I, 5, "false") == 0) {
      I += 5;
      return;
    }
    if (S.compare(I, 4, "null") == 0) {
      I += 4;
      return;
    }
    fail();
  }
  void object() {
    if (!eat('{'))
      return fail();
    if (eat('}'))
      return;
    do {
      string();
      if (!Ok || !eat(':'))
        return fail();
      value();
      if (!Ok)
        return;
    } while (eat(','));
    if (!eat('}'))
      fail();
  }
  void array() {
    if (!eat('['))
      return fail();
    if (eat(']'))
      return;
    do {
      value();
      if (!Ok)
        return;
    } while (eat(','));
    if (!eat(']'))
      fail();
  }
  void string() {
    if (!eat('"'))
      return fail();
    while (I < S.size() && S[I] != '"') {
      if (S[I] == '\\')
        ++I;
      ++I;
    }
    if (!eat('"'))
      fail();
  }
  void number() {
    if (S[I] == '-')
      ++I;
    while (I < S.size() && ((S[I] >= '0' && S[I] <= '9') || S[I] == '.' ||
                            S[I] == 'e' || S[I] == 'E' || S[I] == '+' ||
                            S[I] == '-'))
      ++I;
  }

  bool validate() {
    value();
    ws();
    return Ok && I == S.size();
  }
};

bool isValidJson(const std::string &S) { return JsonChecker(S).validate(); }

//===----------------------------------------------------------------------===//
// Core primitives
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, SpanNestingRecorded) {
  Telemetry T;
  {
    Telemetry::Span Outer(&T, "outer");
    {
      Telemetry::Span Inner(&T, "inner");
    }
  }
  ASSERT_EQ(T.spans().size(), 2u);
  // Inner spans close first.
  EXPECT_EQ(T.spans()[0].Name, "inner");
  EXPECT_EQ(T.spans()[0].Depth, 1u);
  EXPECT_EQ(T.spans()[1].Name, "outer");
  EXPECT_EQ(T.spans()[1].Depth, 0u);
  // The inner span is contained in the outer one.
  EXPECT_GE(T.spans()[0].StartUs, T.spans()[1].StartUs);
  EXPECT_GE(T.phaseUs("outer"), T.phaseUs("inner"));
}

TEST(TelemetryTest, RepeatedSpansAggregateInPhaseUs) {
  Telemetry T;
  for (int I = 0; I < 3; ++I)
    Telemetry::Span S(&T, "phase");
  EXPECT_EQ(T.spans().size(), 3u);
  EXPECT_EQ(T.phaseUs("nonexistent"), 0u);
}

TEST(TelemetryTest, CountersAccumulateByName) {
  Telemetry T;
  ++T.counter("a");
  T.counter("a") += 4;
  T.add("b", 2);
  T.add("zero", 0); // registers the key even with no traffic
  EXPECT_EQ(T.counters().at("a").Value, 5u);
  EXPECT_EQ(T.counters().at("b").Value, 2u);
  EXPECT_EQ(T.counters().at("zero").Value, 0u);
  EXPECT_EQ(T.counters().size(), 3u);
}

TEST(TelemetryTest, CountersSnapshotIsALockedCopy) {
  Telemetry T;
  T.add("a", 5);
  T.add("b", 2);
  std::map<std::string, uint64_t, std::less<>> Snap = T.countersSnapshot();
  EXPECT_EQ(Snap.size(), 2u);
  EXPECT_EQ(Snap.at("a"), 5u);
  EXPECT_EQ(Snap.at("b"), 2u);
  // The copy is decoupled from later traffic.
  T.add("a", 1);
  EXPECT_EQ(Snap.at("a"), 5u);
  EXPECT_EQ(T.countersSnapshot().at("a"), 6u);
}

TEST(TelemetryTest, EmptyHistogramSummariesAreSafe) {
  // min() must not report the ~0 sentinel and mean() must not divide by
  // zero for a histogram that never recorded.
  Telemetry T;
  const Histogram &H = T.histogram("empty");
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.mean(), 0.0);
  // The exporter renders it without NaN/inf artifacts.
  std::ostringstream OS;
  T.writeStatsJson(OS);
  EXPECT_TRUE(isValidJson(OS.str())) << OS.str();
  EXPECT_NE(OS.str().find("\"empty\":{\"count\":0,\"sum\":0,\"min\":0,"
                          "\"max\":0,\"mean\":0.000}"),
            std::string::npos)
      << OS.str();
}

TEST(TelemetryTest, HistogramSummaries) {
  Telemetry T;
  for (uint64_t V : {0u, 1u, 2u, 5u, 8u})
    T.record("h", V);
  const Histogram &H = T.histograms().at("h");
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 16u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 8u);
  EXPECT_NEAR(H.mean(), 3.2, 1e-9);
  EXPECT_EQ(H.bucket(Histogram::bucketOf(0)), 1u);
  // 5 and... bucketOf(5)=3 ([4,8)); bucketOf(8)=4 ([8,16)).
  EXPECT_EQ(H.bucket(3), 1u);
  EXPECT_EQ(H.bucket(4), 1u);
}

TEST(TelemetryTest, DisabledModeIsANullSink) {
  Telemetry T(/*Enabled=*/false);
  {
    Telemetry::Span S(&T, "never");
    ++T.counter("x");
    T.add("y", 10);
    T.record("h", 3);
  }
  EXPECT_FALSE(T.enabled());
  EXPECT_TRUE(T.spans().empty());
  EXPECT_TRUE(T.counters().empty());
  EXPECT_TRUE(T.histograms().empty());
  // Exporters still emit syntactically valid (empty) documents.
  std::ostringstream Trace, Stats;
  T.writeTraceJson(Trace);
  T.writeStatsJson(Stats);
  EXPECT_TRUE(isValidJson(Trace.str())) << Trace.str();
  EXPECT_TRUE(isValidJson(Stats.str())) << Stats.str();
}

TEST(TelemetryTest, NullTelemetrySpanIsSafe) {
  Telemetry::Span S(nullptr, "no-op"); // must not crash
}

//===----------------------------------------------------------------------===//
// Concurrency: the thread-safety contract the serve daemon and the
// in-process batch rely on.
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, ConcurrentCounterHammerKeepsExactTotals) {
  // N threads x M increments through shared handles: relaxed atomics
  // must lose nothing, and concurrent first-use registration of fresh
  // names must not corrupt the registries.
  constexpr unsigned NumThreads = 8;
  constexpr uint64_t PerThread = 20000;
  Telemetry T;
  Counter &Shared = T.counter("hammer.shared");
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&T, &Shared, I] {
      Histogram &H = T.histogram("hammer.hist");
      LatencyRecorder &L = T.latency("hammer.lat");
      std::string Own = "hammer.t" + std::to_string(I);
      for (uint64_t J = 0; J < PerThread; ++J) {
        ++Shared;
        T.add(Own, 1);
        H.record(J & 0xff);
        L.recordUs(J & 0xfff);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(T.counters().at("hammer.shared").load(), NumThreads * PerThread);
  for (unsigned I = 0; I < NumThreads; ++I)
    EXPECT_EQ(T.counters().at("hammer.t" + std::to_string(I)).load(),
              PerThread);
  EXPECT_EQ(T.histograms().at("hammer.hist").count(),
            NumThreads * PerThread);
  EXPECT_EQ(T.latencies().at("hammer.lat").count(), NumThreads * PerThread);
}

TEST(TelemetryTest, ConcurrentSpansAndExports) {
  // Spans opened on several threads while another thread exports: the
  // registration mutex must keep the span vector and the exporters
  // coherent (exact interleaving is unspecified; no crash, valid JSON).
  Telemetry T;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < 4; ++I)
    Threads.emplace_back([&T] {
      for (int J = 0; J < 200; ++J) {
        Telemetry::Span S(&T, "worker");
        ++T.counter("spun");
      }
    });
  for (int J = 0; J < 20; ++J) {
    std::ostringstream OS;
    T.writeStatsJson(OS);
    EXPECT_TRUE(isValidJson(OS.str()));
    // The locked copy the serve stats path iterates must also be safe
    // against concurrent name registration ("spun" may not be
    // registered yet on early iterations).
    std::map<std::string, uint64_t, std::less<>> Snap = T.countersSnapshot();
    auto It = Snap.find("spun");
    if (It != Snap.end())
      EXPECT_LE(It->second, 800u);
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(T.spans().size(), 800u);
  EXPECT_EQ(T.counters().at("spun").load(), 800u);
}

TEST(TelemetryTest, MergeFromFoldsChildIntoAggregate) {
  Telemetry Daemon;
  Daemon.add("serve.requests", 3);
  Daemon.record("sizes", 10);
  {
    Telemetry Child;
    Child.setCorrelationId("r7");
    Child.add("serve.requests", 1);
    Child.add("pta.body_analyses", 5);
    Child.record("sizes", 2);
    Child.latency("serve.latency.analyze").recordUs(1500);
    Child.gauge("mem.peak_rss_kb", 4096);
    {
      Telemetry::Span S(&Child, "analyze");
    }
    Daemon.mergeFrom(Child);
  }
  EXPECT_EQ(Daemon.counters().at("serve.requests").load(), 4u);
  EXPECT_EQ(Daemon.counters().at("pta.body_analyses").load(), 5u);
  const Histogram &H = Daemon.histograms().at("sizes");
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.min(), 2u);
  EXPECT_EQ(H.max(), 10u);
  EXPECT_EQ(Daemon.latencies().at("serve.latency.analyze").count(), 1u);
  EXPECT_EQ(Daemon.gauges().at("mem.peak_rss_kb"), 4096u);
  // Spans stay request-scoped: the aggregate never accumulates them.
  EXPECT_TRUE(Daemon.spans().empty());
  // The child's correlation id does not leak into the aggregate.
  EXPECT_EQ(Daemon.correlationId(), "");
  // Self-merge is a guarded no-op, not a deadlock or a doubling.
  Daemon.mergeFrom(Daemon);
  EXPECT_EQ(Daemon.counters().at("serve.requests").load(), 4u);
}

TEST(TelemetryTest, MergeFromToleratesRacingChildRegistration) {
  // Exact totals want a quiescent child, but a child that is still
  // registering names while an aggregate merges must be structurally
  // safe: mergeFrom snapshots the child's registries under its lock.
  Telemetry Daemon;
  Telemetry Child;
  std::thread Writer([&Child] {
    for (int I = 0; I < 500; ++I)
      Child.add("race." + std::to_string(I), 1);
  });
  for (int I = 0; I < 20; ++I)
    Daemon.mergeFrom(Child);
  Writer.join();
  // One merge after quiescence: every counter lands with its final
  // value (merges add, so totals are >= 1; exactness is not the point).
  Daemon.mergeFrom(Child);
  std::map<std::string, uint64_t, std::less<>> Snap =
      Daemon.countersSnapshot();
  EXPECT_EQ(Snap.count("race.0"), 1u);
  EXPECT_EQ(Snap.count("race.499"), 1u);
  EXPECT_GE(Snap.at("race.499"), 1u);
}

TEST(TelemetryTest, LatencyQuantilesAreConservative) {
  Telemetry T;
  LatencyRecorder &L = T.latency("lat");
  // 100 samples 1..100 ms: p50 must cover 50ms, p99 must cover 99ms,
  // and the log-linear buckets overstate by at most ~12.5%.
  for (uint64_t Ms = 1; Ms <= 100; ++Ms)
    L.recordUs(Ms * 1000);
  EXPECT_EQ(L.count(), 100u);
  EXPECT_GE(L.quantileUs(0.50), 50u * 1000);
  EXPECT_LE(L.quantileUs(0.50), 57u * 1000);
  EXPECT_GE(L.quantileUs(0.99), 99u * 1000);
  EXPECT_LE(L.quantileUs(0.99), 112u * 1000);
  EXPECT_GE(L.quantileUs(1.0), L.quantileUs(0.5));
  EXPECT_NEAR(L.maxMs(), 100.0, 1e-9);
  EXPECT_NEAR(L.meanMs(), 50.5, 1e-9);
  // Empty recorder: all summaries zero.
  const LatencyRecorder &E = T.latency("empty");
  EXPECT_EQ(E.quantileUs(0.5), 0u);
  EXPECT_EQ(E.maxMs(), 0.0);
  EXPECT_EQ(E.meanMs(), 0.0);
}

TEST(TelemetryTest, LatencyBucketBoundsRoundTrip) {
  // Every value maps into a bucket whose upper bound covers it, within
  // one sub-bucket of log-linear resolution.
  for (uint64_t V : {0ull, 1ull, 7ull, 8ull, 9ull, 15ull, 16ull, 100ull,
                     1000ull, 123456ull, 10000000ull}) {
    unsigned B = LatencyRecorder::bucketOf(V);
    EXPECT_GE(LatencyRecorder::bucketUpperUs(B), V) << V;
    if (B > 0) {
      EXPECT_LT(LatencyRecorder::bucketUpperUs(B - 1), V) << V;
    }
  }
}

TEST(TelemetryTest, GaugesExportAndOverwrite) {
  Telemetry T;
  T.gauge("mem.peak_rss_kb", 100);
  T.gauge("mem.peak_rss_kb", 250); // last write wins
  T.gauge("mem.cache_resident_bytes", 12345);
  EXPECT_EQ(T.gauges().at("mem.peak_rss_kb"), 250u);
  std::ostringstream OS;
  T.writeStatsJson(OS);
  EXPECT_TRUE(isValidJson(OS.str())) << OS.str();
  EXPECT_NE(OS.str().find("\"gauges\":{\"mem.cache_resident_bytes\":12345,"
                          "\"mem.peak_rss_kb\":250}"),
            std::string::npos)
      << OS.str();
}

TEST(TelemetryTest, PeakRssKbReportsSomethingPlausible) {
  uint64_t Kb = peakRssKb();
  // A running test process holds at least a megabyte and (sanity bound)
  // less than a terabyte.
  EXPECT_GT(Kb, 1024u);
  EXPECT_LT(Kb, uint64_t(1) << 30);
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorderTest, RingKeepsMostRecentAndCountsDrops) {
  FlightRecorder FR(/*Capacity=*/4);
  for (int I = 1; I <= 6; ++I)
    FR.record("request.start", "r" + std::to_string(I), "method=analyze");
  EXPECT_EQ(FR.totalRecorded(), 6u);
  EXPECT_EQ(FR.dropped(), 2u);
  std::vector<FlightRecorder::Event> Events = FR.snapshot();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events.front().Cid, "r3"); // oldest retained
  EXPECT_EQ(Events.back().Cid, "r6");
  EXPECT_EQ(Events.back().Seq, 6u);
  // Limited snapshot returns the most recent events, oldest first.
  std::vector<FlightRecorder::Event> Two = FR.snapshot(2);
  ASSERT_EQ(Two.size(), 2u);
  EXPECT_EQ(Two[0].Cid, "r5");
  EXPECT_EQ(Two[1].Cid, "r6");
  // Timestamps are monotone.
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_GE(Events[I].TsUs, Events[I - 1].TsUs);
}

TEST(FlightRecorderTest, EventJsonIsValid) {
  FlightRecorder FR;
  FR.record("degradation", "r1", "kind=\"deadline\"\ncontext=f");
  std::string J = FlightRecorder::eventJson(FR.snapshot().front());
  EXPECT_TRUE(isValidJson(J)) << J;
  EXPECT_NE(J.find("\"kind\":\"degradation\""), std::string::npos);
  EXPECT_NE(J.find("\"cid\":\"r1\""), std::string::npos);
}

TEST(FlightRecorderTest, ConcurrentRecordersLoseNothing) {
  FlightRecorder FR(/*Capacity=*/64);
  constexpr unsigned NumThreads = 4;
  constexpr uint64_t PerThread = 5000;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&FR, I] {
      for (uint64_t J = 0; J < PerThread; ++J)
        FR.record("tick", "t" + std::to_string(I), "");
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(FR.totalRecorded(), NumThreads * PerThread);
  EXPECT_EQ(FR.dropped(), NumThreads * PerThread - 64);
  EXPECT_EQ(FR.snapshot().size(), 64u);
}

//===----------------------------------------------------------------------===//
// Pipeline integration: exact counts on fixture programs
//===----------------------------------------------------------------------===//

// A direct call evaluated twice with identical inputs inside a loop
// fixed point: first evaluation analyzes the body (miss), the second is
// answered from the node's memoized IN/OUT pair.
constexpr const char *TwoEvaluationFixture = R"(
  int g1; int g2;
  void f(void) { }
  int main(void) {
    int c; int *q;
    q = &g1;
    while (c) { f(); q = &g2; }
    return 0;
  })";

TEST(TelemetryTest, MemoHitCountOnLoopFixture) {
  Pipeline P = Pipeline::analyzeSourceTraced(TwoEvaluationFixture);
  ASSERT_TRUE(P.ok());
  ASSERT_NE(P.Telem, nullptr);
  const auto &C = P.Telem->counters();
  // Loop converges in two passes: f() is evaluated once per pass.
  EXPECT_EQ(C.at("pta.loop_iterations").Value, 2u);
  EXPECT_EQ(C.at("pta.memo_hits").Value, 1u);
  // Bodies analyzed: main + f (once; the second call is the memo hit).
  EXPECT_EQ(C.at("pta.body_analyses").Value, 2u);
  EXPECT_EQ(C.at("mu.map_calls").Value, 2u);
  EXPECT_EQ(C.at("mu.unmap_calls").Value, 2u);
  // The per-loop iteration histogram saw one loop with two passes.
  const Histogram &H = P.Telem->histograms().at("pta.loop_fixpoint_iters");
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(H.max(), 2u);
}

TEST(TelemetryTest, InvisibleVariableCounter) {
  // writeThrough's **pp reaches caller-invisible storage: mapping must
  // create symbolic stand-ins (1_pp for p, 2_pp for x).
  Pipeline P = Pipeline::analyzeSourceTraced(R"(
    int writeThrough(int **pp) { **pp = 1; return **pp; }
    int main(void) {
      int x; int *p;
      p = &x;
      return writeThrough(&p);
    })");
  ASSERT_TRUE(P.ok());
  EXPECT_GE(P.Telem->counters().at("mu.invisible_vars").Value, 2u);
}

TEST(TelemetryTest, ThinResultFieldsMatchTelemetryCounters) {
  Pipeline P = Pipeline::analyzeSourceTraced(TwoEvaluationFixture);
  ASSERT_TRUE(P.ok());
  const auto &C = P.Telem->counters();
  EXPECT_EQ(P.Analysis.BodyAnalyses, C.at("pta.body_analyses").Value);
  EXPECT_EQ(P.Analysis.LoopIterations, C.at("pta.loop_iterations").Value);
  EXPECT_EQ(P.Analysis.MemoHits, C.at("pta.memo_hits").Value);
}

TEST(TelemetryTest, UntracedPipelineHasNoTelemetryButKeepsCounters) {
  Pipeline P = analyze(TwoEvaluationFixture);
  EXPECT_EQ(P.Telem, nullptr);
  // The legacy thin-read fields are still populated without telemetry.
  EXPECT_EQ(P.Analysis.BodyAnalyses, 2u);
  EXPECT_EQ(P.Analysis.MemoHits, 1u);
  EXPECT_EQ(P.Analysis.LoopIterations, 2u);
}

TEST(TelemetryTest, PipelineRecordsAllPhases) {
  Pipeline P = Pipeline::analyzeSourceTraced(TwoEvaluationFixture);
  ASSERT_TRUE(P.ok());
  auto HasSpan = [&](const char *Name) {
    for (const auto &S : P.Telem->spans())
      if (S.Name == Name)
        return true;
    return false;
  };
  for (const char *Phase :
       {"lex", "parse", "simplify", "analyze", "ig-build", "pointsto"})
    EXPECT_TRUE(HasSpan(Phase)) << Phase;
  // ig-build and pointsto nest inside analyze.
  for (const auto &S : P.Telem->spans())
    if (S.Name == "ig-build" || S.Name == "pointsto") {
      EXPECT_EQ(S.Depth, 1u) << S.Name;
    }
}

TEST(TelemetryTest, WarningsSurfaceThroughDiagnostics) {
  // An unresolvable indirect call produces an analysis warning; it must
  // be mirrored into the DiagnosticsEngine, not silently dropped.
  Pipeline P = Pipeline::analyzeSource(R"(
    int main(void) {
      int (*fp)(void);
      return fp();
    })");
  ASSERT_FALSE(P.Analysis.Warnings.empty());
  bool Mirrored = false;
  for (const Diagnostic &D : P.Diags.diagnostics())
    if (D.Level == DiagLevel::Warning &&
        D.Message == P.Analysis.Warnings.front())
      Mirrored = true;
  EXPECT_TRUE(Mirrored) << P.Diags.dump();
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, StatsJsonIsValidAndComplete) {
  Pipeline P = Pipeline::analyzeSourceTraced(TwoEvaluationFixture);
  ASSERT_TRUE(P.ok());
  std::ostringstream OS;
  P.Telem->writeStatsJson(OS);
  std::string J = OS.str();
  EXPECT_TRUE(isValidJson(J)) << J;
  // The acceptance bar: at least 10 named counters, including the
  // headline ones.
  EXPECT_GE(P.Telem->counters().size(), 10u);
  for (const char *Key :
       {"\"pta.memo_hits\"", "\"pta.body_analyses\"", "\"mu.map_calls\"",
        "\"mu.unmap_calls\"", "\"pta.loop_iterations\"",
        "\"mu.invisible_vars\"", "\"ig.nodes\"", "\"counters\"",
        "\"histograms\"", "\"phases_us\""})
    EXPECT_NE(J.find(Key), std::string::npos) << Key;
}

TEST(TelemetryTest, TraceJsonIsValidTraceEventFormat) {
  Pipeline P = Pipeline::analyzeSourceTraced(TwoEvaluationFixture);
  ASSERT_TRUE(P.ok());
  std::ostringstream OS;
  P.Telem->writeTraceJson(OS);
  std::string J = OS.str();
  EXPECT_TRUE(isValidJson(J)) << J;
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"pointsto\""), std::string::npos);
  // Every complete event needs ts and dur for trace viewers.
  EXPECT_NE(J.find("\"ts\":"), std::string::npos);
  EXPECT_NE(J.find("\"dur\":"), std::string::npos);
}

TEST(TelemetryTest, JsonEscaping) {
  EXPECT_EQ(Telemetry::jsonEscape("plain"), "plain");
  EXPECT_EQ(Telemetry::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(Telemetry::jsonEscape("x\ny"), "x\\ny");
}

TEST(TelemetryTest, ProfileTableListsPhases) {
  Pipeline P = Pipeline::analyzeSourceTraced(TwoEvaluationFixture);
  ASSERT_TRUE(P.ok());
  std::string Table = P.Telem->profileTable();
  for (const char *Phase : {"lex", "parse", "simplify", "pointsto", "total"})
    EXPECT_NE(Table.find(Phase), std::string::npos) << Table;
}

TEST(TelemetryTest, ProfileTableSortsByWallTimeAndShowsMem) {
  Telemetry T;
  {
    Telemetry::Span Slow(&T, "slow");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  { Telemetry::Span Fast(&T, "fast"); }
  T.gauge("mem.peak_rss_kb", 777);
  std::string Table = T.profileTable();
  // Hottest phase first, regardless of start order.
  EXPECT_LT(Table.find("slow"), Table.find("fast")) << Table;
  // mem.* gauges surface as a final summary line.
  EXPECT_NE(Table.find("mem:"), std::string::npos) << Table;
  EXPECT_NE(Table.find("peak_rss_kb=777"), std::string::npos) << Table;
}

//===----------------------------------------------------------------------===//
// Resource-governance counters (docs/ROBUSTNESS.md)
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, LoopLimitHitsCounter) {
  // Same fixture as AnalyzerOptionsTest.LoopIterationLimitWarnsButStaysSafe:
  // the three-stage copy chain needs three head merges; a cap of one
  // trips the safety valve, which must now also bump the counter.
  const char *Src = R"(
    int main(void) {
      int a; int b; int n;
      int *p1; int *p2; int *p3;
      p1 = &a;
      n = 10;
      while (n > 0) {
        p3 = p2;
        p2 = p1;
        p1 = &b;
        n = n - 1;
      }
      return *p3;
    })";
  pta::Analyzer::Options Capped;
  Capped.MaxLoopIterations = 1;
  Pipeline P = Pipeline::analyzeSourceTraced(Src, Capped);
  ASSERT_TRUE(P.ok());
  EXPECT_EQ(P.Telem->counters().at("pta.loop_limit_hits").Value, 1u);

  Pipeline Clean = Pipeline::analyzeSourceTraced(Src);
  ASSERT_TRUE(Clean.ok());
  EXPECT_EQ(Clean.Telem->counters().at("pta.loop_limit_hits").Value, 0u);
}

TEST(TelemetryTest, DegradationCountersPublished) {
  // pta.degraded.<kind> exists for every limit kind (zero-filled), and
  // a tripped budget shows up in both its kind counter and the total.
  const char *Src = R"(
    int g; int *gp;
    void touch(int *p) { gp = p; }
    int main(void) { touch(&g); touch(gp); return 0; })";
  pta::Analyzer::Options Governed;
  Governed.Limits.MaxStmtVisits = 3;
  Pipeline P = Pipeline::analyzeSourceTraced(Src, Governed);
  ASSERT_TRUE(P.Analysis.Analyzed);
  const auto &C = P.Telem->counters();
  for (const char *Key :
       {"pta.degraded.deadline", "pta.degraded.stmt_visits",
        "pta.degraded.locations", "pta.degraded.ig_nodes",
        "pta.degraded.rec_passes", "pta.degradations"})
    EXPECT_TRUE(C.count(Key)) << Key;
  EXPECT_GE(C.at("pta.degraded.stmt_visits").Value, 1u);
  EXPECT_EQ(C.at("pta.degradations").Value, P.Analysis.Degradations.size());

  std::ostringstream OS;
  P.Telem->writeStatsJson(OS);
  EXPECT_NE(OS.str().find("\"pta.degraded.stmt_visits\""),
            std::string::npos);
  EXPECT_NE(OS.str().find("\"pta.loop_limit_hits\""), std::string::npos);
}

} // namespace
