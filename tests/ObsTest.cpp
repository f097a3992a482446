//===- ObsTest.cpp - Metrics registry + pipeline tracer tests ---------------===//
//
// Covers the observability subsystem (src/obs/, docs/OBSERVABILITY.md):
// counter correctness under contention, histogram bucket boundaries
// ("le" semantics), span nesting/ordering in the JSONL export, a
// golden-file check of the Chrome trace_event export under an injected
// test clock, ring bounding, the JSON validator itself, and an
// end-to-end check that a real reconstruction emits the documented spans
// and metrics.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/PromExport.h"
#include "obs/Tracer.h"

#include "er/Driver.h"
#include "fleet/FleetScheduler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace er;

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(ObsMetrics, CounterConcurrentAddsSumExactly) {
  obs::MetricsRegistry Reg;
  obs::Counter &C = Reg.counter("t.concurrent");
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 100'000;

  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < Threads; ++I)
    Ts.emplace_back([&C] {
      for (uint64_t K = 0; K < PerThread; ++K)
        C.add(1);
    });
  for (auto &T : Ts)
    T.join();

  EXPECT_EQ(C.value(), Threads * PerThread);
}

TEST(ObsMetrics, RegistryFindsSameInstanceByName) {
  obs::MetricsRegistry Reg;
  obs::Counter &A = Reg.counter("t.same");
  obs::Counter &B = Reg.counter("t.same");
  EXPECT_EQ(&A, &B);
  A.add(3);
  EXPECT_EQ(B.value(), 3u);
  EXPECT_NE(&Reg.counter("t.other"), &A);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  obs::MetricsRegistry Reg;
  // Buckets: <=10, <=100, <=1000, overflow.
  obs::Histogram &H = Reg.histogram("t.hist", {10, 100, 1000});

  H.record(0);    // <=10
  H.record(10);   // <=10 (boundary lands in its own bucket: "le")
  H.record(11);   // <=100
  H.record(100);  // <=100
  H.record(1000); // <=1000
  H.record(1001); // overflow
  H.record(~0ull); // overflow

  ASSERT_EQ(H.numBuckets(), 4u);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 2u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(3), 2u);
  EXPECT_EQ(H.count(), 7u);
  EXPECT_EQ(H.sum(), 0 + 10 + 11 + 100 + 1000 + 1001 + ~0ull);
}

TEST(ObsMetrics, HistogramQuantileBound) {
  obs::MetricsRegistry Reg;
  obs::Histogram &H = Reg.histogram("t.q", {10, 100, 1000});
  for (int I = 0; I < 90; ++I)
    H.record(5); // 90 samples <=10
  for (int I = 0; I < 10; ++I)
    H.record(500); // 10 samples <=1000

  auto Snap = Reg.snapshot();
  const obs::HistogramValue *HV = Snap.histogram("t.q");
  ASSERT_NE(HV, nullptr);
  EXPECT_EQ(HV->quantileBound(0.5), 10u);
  EXPECT_EQ(HV->quantileBound(0.99), 1000u);
  EXPECT_DOUBLE_EQ(HV->mean(), (90.0 * 5 + 10.0 * 500) / 100.0);
}

TEST(ObsMetrics, SnapshotAndResetValues) {
  obs::MetricsRegistry Reg;
  Reg.counter("t.c").add(7);
  Reg.gauge("t.g").set(-5);
  Reg.histogram("t.h").record(64);

  auto Snap = Reg.snapshot();
  EXPECT_EQ(Snap.counterValue("t.c"), 7u);
  EXPECT_EQ(Snap.gaugeValue("t.g"), -5);
  ASSERT_NE(Snap.histogram("t.h"), nullptr);
  EXPECT_EQ(Snap.histogram("t.h")->Count, 1u);
  EXPECT_EQ(Snap.counterValue("t.absent"), 0u);

  Reg.resetValues();
  auto Snap2 = Reg.snapshot();
  EXPECT_EQ(Snap2.counterValue("t.c"), 0u);
  EXPECT_EQ(Snap2.gaugeValue("t.g"), 0);
  EXPECT_EQ(Snap2.histogram("t.h")->Count, 0u);
}

TEST(ObsMetrics, MetricsJsonIsValid) {
  obs::MetricsRegistry Reg;
  Reg.counter("t.c\"quoted\\name").add(1);
  Reg.gauge("t.g").set(42);
  Reg.histogram("t.h", {1, 2}).record(2);

  std::string Doc = obs::metricsToJson(Reg.snapshot());
  std::string Err;
  EXPECT_TRUE(obs::validateJson(Doc, &Err)) << Err << "\n" << Doc;
  EXPECT_NE(Doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(Doc.find("\"histograms\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// JSON validator
//===----------------------------------------------------------------------===//

TEST(ObsJson, ValidatorAcceptsAndRejects) {
  std::string Err;
  EXPECT_TRUE(obs::validateJson("{\"a\": [1, 2.5, -3e2, true, null]}"));
  EXPECT_TRUE(obs::validateJson("  \"lone string\"  "));
  EXPECT_TRUE(obs::validateJson("{\"u\": \"\\u00e9\\n\"}"));

  EXPECT_FALSE(obs::validateJson("", &Err));
  EXPECT_FALSE(obs::validateJson("{", &Err));
  EXPECT_FALSE(obs::validateJson("{\"a\": 1,}", &Err));
  EXPECT_FALSE(obs::validateJson("{\"a\": 01}", &Err));
  EXPECT_FALSE(obs::validateJson("{\"a\": 1} trailing", &Err));
  EXPECT_FALSE(obs::validateJson("{'a': 1}", &Err));
  EXPECT_FALSE(obs::validateJson("{\"a\": \"\x01\"}", &Err));
  EXPECT_FALSE(obs::validateJson("[1 2]", &Err));
}

TEST(ObsJson, ValidateJsonLines) {
  EXPECT_TRUE(obs::validateJsonLines("{\"a\":1}\n{\"b\":2}\n\n"));
  std::string Err;
  EXPECT_FALSE(obs::validateJsonLines("{\"a\":1}\n{bad}\n", &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
}

TEST(ObsJson, WriterEscapesAndNests) {
  obs::JsonWriter W;
  W.beginObject();
  W.kv("s", std::string_view("a\"b\\c\n\t"));
  W.key("arr");
  W.beginArray();
  W.value(uint64_t(1));
  W.value(-2.5);
  W.value(false);
  W.nullValue();
  W.endArray();
  W.endObject();
  std::string Err;
  EXPECT_TRUE(obs::validateJson(W.str(), &Err)) << Err << "\n" << W.str();
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(ObsTracer, DisabledSpansRecordNothing) {
  obs::PipelineTracer T(16);
  {
    obs::ScopedSpan S(T, "t.span");
    S.arg("k", uint64_t(1));
  }
  EXPECT_TRUE(T.snapshot().empty());
  EXPECT_EQ(T.droppedSpans(), 0u);
}

TEST(ObsTracer, SpanNestingAndOrderingInJsonl) {
  obs::PipelineTracer T(64);
  // Deterministic clock: each call advances 1000ns.
  uint64_t Now = 0;
  T.setClockForTesting([&Now] { return Now += 1000; });
  T.setEnabled(true);

  {
    obs::ScopedSpan Outer(T, "outer", "er");
    Outer.arg("iter", uint64_t(1));
    {
      obs::ScopedSpan Inner(T, "inner", "solver");
      Inner.arg("status", "sat");
    }
  }

  auto Spans = T.snapshot();
  ASSERT_EQ(Spans.size(), 2u);
  // Ordered by StartNs: outer opened first.
  EXPECT_EQ(Spans[0].Name, "outer");
  EXPECT_EQ(Spans[0].Depth, 0u);
  EXPECT_EQ(Spans[1].Name, "inner");
  EXPECT_EQ(Spans[1].Depth, 1u);
  // The inner interval is contained in the outer one.
  EXPECT_GE(Spans[1].StartNs, Spans[0].StartNs);
  EXPECT_LE(Spans[1].StartNs + Spans[1].DurNs,
            Spans[0].StartNs + Spans[0].DurNs);

  std::string Jsonl = obs::spansToJsonl(Spans);
  std::string Err;
  EXPECT_TRUE(obs::validateJsonLines(Jsonl, &Err)) << Err << "\n" << Jsonl;
  // One line per span, outer first, with depth and args present.
  size_t NL1 = Jsonl.find('\n');
  ASSERT_NE(NL1, std::string::npos);
  std::string Line1 = Jsonl.substr(0, NL1);
  EXPECT_NE(Line1.find("\"name\":\"outer\""), std::string::npos) << Line1;
  EXPECT_NE(Line1.find("\"depth\":0"), std::string::npos) << Line1;
  EXPECT_NE(Line1.find("\"iter\":1"), std::string::npos) << Line1;
  EXPECT_NE(Jsonl.find("\"depth\":1"), std::string::npos);
  EXPECT_NE(Jsonl.find("\"status\":\"sat\""), std::string::npos);
}

TEST(ObsTracer, ChromeTraceGoldenFile) {
  obs::PipelineTracer T(64);
  uint64_t Now = 0;
  T.setClockForTesting([&Now] {
    uint64_t V = Now;
    Now += 2000; // 2us per clock read.
    return V;
  });
  T.setEnabled(true);

  {
    obs::ScopedSpan Outer(T, "er.iteration", "er");
    Outer.arg("iter", uint64_t(3));
    { obs::ScopedSpan Inner(T, "solver.check_sat", "solver"); }
  }

  // Span timing under the fake clock: each ScopedSpan reads the clock at
  // open and at close. Opens at t=0us (outer), t=2us (inner); closes read
  // 4us (inner: dur 2us) and 6us (outer: dur 6us).
  std::string Doc = obs::spansToChromeTrace(T.snapshot(), T.droppedSpans());
  const char *Golden =
      "{\"traceEvents\":["
      "{\"name\":\"er.iteration\",\"cat\":\"er\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":6,\"pid\":1,\"tid\":0,\"args\":{\"iter\":3}},"
      "{\"name\":\"solver.check_sat\",\"cat\":\"solver\",\"ph\":\"X\","
      "\"ts\":2,\"dur\":2,\"pid\":1,\"tid\":0,\"args\":{}}],"
      "\"displayTimeUnit\":\"ms\","
      "\"otherData\":{\"tool\":\"er-pipeline-tracer\",\"droppedSpans\":0}}";
  EXPECT_EQ(Doc, Golden);

  std::string Err;
  EXPECT_TRUE(obs::validateJson(Doc, &Err)) << Err;
}

TEST(ObsTracer, RingBoundsAndCountsDrops) {
  obs::PipelineTracer T(4);
  T.setEnabled(true);
  for (int I = 0; I < 10; ++I)
    obs::ScopedSpan S(T, "s" + std::to_string(I));
  auto Spans = T.snapshot();
  EXPECT_EQ(Spans.size(), 4u);
  EXPECT_EQ(T.droppedSpans(), 6u);
  // The survivors are the newest four.
  for (const auto &S : Spans)
    EXPECT_GE(S.Name.at(1), '6');
  T.clear();
  EXPECT_TRUE(T.snapshot().empty());
  EXPECT_EQ(T.droppedSpans(), 0u);
}

TEST(ObsTracer, PerThreadDepthsAreIndependent) {
  obs::PipelineTracer T(64);
  T.setEnabled(true);
  std::atomic<bool> Go{false};
  auto Work = [&] {
    while (!Go.load())
      std::this_thread::yield();
    obs::ScopedSpan A(T, "a");
    obs::ScopedSpan B(T, "b");
  };
  std::thread T1(Work), T2(Work);
  Go.store(true);
  T1.join();
  T2.join();

  auto Spans = T.snapshot();
  ASSERT_EQ(Spans.size(), 4u);
  for (const auto &S : Spans)
    EXPECT_EQ(S.Depth, S.Name == "a" ? 0u : 1u) << S.Name;
}

//===----------------------------------------------------------------------===//
// End to end: a real reconstruction emits the documented telemetry
//===----------------------------------------------------------------------===//

TEST(ObsEndToEnd, DriverEmitsSpansAndMetrics) {
  auto &Tracer = obs::PipelineTracer::global();
  auto &Reg = obs::MetricsRegistry::global();
  Tracer.clear();
  Tracer.setEnabled(true);
  Reg.resetValues();

  const BugSpec &Spec = *findBug("PHP-2012-2386");
  auto M = compileBug(Spec);
  DriverConfig DC;
  DC.Solver.WorkBudget = Spec.SolverWorkBudget;
  DC.Vm.ChunkSize = Spec.VmChunkSize;
  DC.Seed = 20260706;
  ReconstructionDriver Driver(*M, DC);
  ReconstructionReport Report =
      Driver.reconstruct([&](Rng &R) { return Spec.ProductionInput(R); });
  Tracer.setEnabled(false);
  ASSERT_TRUE(Report.Success);

  auto Snap = Reg.snapshot();
  EXPECT_GE(Snap.counterValue("er.iterations"), 1u);
  EXPECT_EQ(Snap.counterValue("er.reproduced"), 1u);
  EXPECT_EQ(Snap.counterValue("er.occurrences"), Report.Occurrences);
  // This bug needs >1 occurrence, so at least one stall was classified.
  EXPECT_GE(Snap.counterValue("er.stalls"), 1u);
  EXPECT_EQ(Snap.counterValue("er.stalls"),
            Snap.counterValue("er.stall.cause.write_chain") +
                Snap.counterValue("er.stall.cause.final_solve") +
                Snap.counterValue("er.stall.cause.other"));
  const obs::HistogramValue *QUs = Snap.histogram("solver.query.us");
  ASSERT_NE(QUs, nullptr);
  EXPECT_GT(QUs->Count, 0u);

  auto Spans = Tracer.snapshot();
  auto CountOf = [&Spans](std::string_view Name) {
    size_t N = 0;
    for (const auto &S : Spans)
      N += S.Name == Name;
    return N;
  };
  EXPECT_EQ(CountOf("er.reconstruct"), 1u);
  EXPECT_EQ(CountOf("er.iteration"), Snap.counterValue("er.iterations"));
  EXPECT_GE(CountOf("er.symex"), 1u);
  EXPECT_GE(CountOf("solver.check_sat"), 1u);

  // The whole span set exports as valid JSONL and a valid Chrome trace.
  std::string Err;
  EXPECT_TRUE(obs::validateJsonLines(obs::spansToJsonl(Spans), &Err)) << Err;
  EXPECT_TRUE(obs::validateJson(
      obs::spansToChromeTrace(Spans, Tracer.droppedSpans()), &Err))
      << Err;
  Tracer.clear();
}

// Both fleet execution modes step campaigns through the same helper: one
// fleet.campaign.step span per session step, the last of which names the
// outcome.
TEST(ObsEndToEnd, FleetCampaignStepSpansEndWithResult) {
  auto &Tracer = obs::PipelineTracer::global();
  for (bool Stepped : {false, true}) {
    SCOPED_TRACE(Stepped ? "stepCampaigns" : "run");
    FleetConfig FC;
    FC.Jobs = 2;
    FleetScheduler Sched(FC);
    for (const char *Id : {"Bash-108885", "PHP-2012-2386"})
      Sched.harvest(*findBug(Id), 60, /*MachineId=*/1);
    Tracer.clear();
    Tracer.setEnabled(true);
    if (Stepped)
      Sched.stepCampaigns();
    else
      Sched.run();
    Tracer.setEnabled(false);
    ASSERT_EQ(Tracer.droppedSpans(), 0u);
    auto Spans = Tracer.snapshot();
    Tracer.clear();

    auto argOf = [](const obs::SpanRecord &S, std::string_view Key) {
      for (const obs::SpanArg &A : S.Args)
        if (A.Key == Key)
          return &A;
      return static_cast<const obs::SpanArg *>(nullptr);
    };
    ASSERT_GE(Sched.numCampaigns(), 2u);
    for (const Campaign &C : Sched.getCampaigns()) {
      ASSERT_TRUE(C.Completed);
      const obs::SpanRecord *Last = nullptr;
      unsigned Steps = 0;
      for (const obs::SpanRecord &S : Spans) {
        const obs::SpanArg *Sig = argOf(S, "sig");
        if (S.Name != "fleet.campaign.step" || !Sig || Sig->Str != C.Sig.hex())
          continue;
        ++Steps;
        if (!Last || S.StartNs >= Last->StartNs)
          Last = &S;
      }
      EXPECT_EQ(Steps, C.IterationsDone) << C.BugId;
      ASSERT_NE(Last, nullptr) << C.BugId;
      const obs::SpanArg *Result = argOf(*Last, "result");
      ASSERT_NE(Result, nullptr) << C.BugId;
      EXPECT_EQ(Result->Str == "reproduced", C.Report.Success) << C.BugId;
    }
  }
}

//===----------------------------------------------------------------------===//
// Prometheus exposition (src/obs/PromExport.*)
//===----------------------------------------------------------------------===//

TEST(ObsProm, SanitizeMetricName) {
  EXPECT_EQ(obs::promSanitizeMetricName("daemon.drain.retries"),
            "daemon_drain_retries");
  EXPECT_EQ(obs::promSanitizeMetricName("solver.query.us"), "solver_query_us");
  EXPECT_EQ(obs::promSanitizeMetricName("already_fine"), "already_fine");
  EXPECT_EQ(obs::promSanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(obs::promSanitizeMetricName("a-b/c d"), "a_b_c_d");
  EXPECT_EQ(obs::promSanitizeMetricName(""), "_");
  EXPECT_EQ(obs::promSanitizeMetricName("ns:sub"), "ns:sub"); // colons legal
}

TEST(ObsProm, FamilyNamesPerKind) {
  using obs::PromKind;
  EXPECT_EQ(obs::promFamilyNames(PromKind::Counter, "a.b"),
            (std::vector<std::string>{"a_b_total"}));
  EXPECT_EQ(obs::promFamilyNames(PromKind::Gauge, "a.b"),
            (std::vector<std::string>{"a_b"}));
  EXPECT_EQ(obs::promFamilyNames(PromKind::Histogram, "a.b"),
            (std::vector<std::string>{"a_b", "a_b_bucket", "a_b_sum",
                                      "a_b_count"}));
}

TEST(ObsProm, GoldenExposition) {
  obs::MetricsRegistry Reg;
  Reg.counter("golden.requests").add(3);
  Reg.gauge("golden.queue_depth").set(-2);
  obs::Histogram &H = Reg.histogram("golden.latency.ms", {10, 100});
  H.record(5);
  H.record(50);
  H.record(5000);

  const char *Expected = "# TYPE golden_requests_total counter\n"
                         "golden_requests_total 3\n"
                         "# TYPE golden_queue_depth gauge\n"
                         "golden_queue_depth -2\n"
                         "# TYPE golden_latency_ms histogram\n"
                         "golden_latency_ms_bucket{le=\"10\"} 1\n"
                         "golden_latency_ms_bucket{le=\"100\"} 2\n"
                         "golden_latency_ms_bucket{le=\"+Inf\"} 3\n"
                         "golden_latency_ms_sum 5055\n"
                         "golden_latency_ms_count 3\n";
  std::string Doc = obs::metricsToPrometheus(Reg.snapshot());
  EXPECT_EQ(Doc, Expected);

  std::string Err;
  EXPECT_TRUE(obs::promValidateExposition(Doc, &Err)) << Err;
  EXPECT_STREQ(obs::promContentType(),
               "text/plain; version=0.0.4; charset=utf-8");
}

TEST(ObsProm, GlobalRegistryRendersValidExposition) {
  // The full live registry — every metric the pipeline has registered by
  // this point in the test binary — must render to a parseable document.
  // Register one metric of each kind so the test also passes when run
  // alone (an empty registry renders an empty document, which the strict
  // validator rightly rejects).
  obs::MetricsRegistry &G = obs::MetricsRegistry::global();
  G.counter("obstest.probe").inc();
  G.gauge("obstest.level").set(1);
  G.histogram("obstest.lat_ms", {1, 10}).record(3);
  std::string Doc =
      obs::metricsToPrometheus(obs::MetricsRegistry::global().snapshot());
  std::string Err;
  EXPECT_TRUE(obs::promValidateExposition(Doc, &Err)) << Err;
}

TEST(ObsProm, ValidatorRejectsDefects) {
  std::string Err;
  auto Check = [&Err](const char *Doc) {
    Err.clear();
    return obs::promValidateExposition(Doc, &Err);
  };

  EXPECT_FALSE(Check("")) << "empty must be invalid";
  EXPECT_FALSE(Check("# TYPE a counter\na_total 1")) // no trailing newline
      << "missing trailing newline accepted";
  EXPECT_FALSE(Check("orphan 1\n")) << "sample without # TYPE accepted";
  EXPECT_FALSE(Check("# TYPE a counter\na_total -1\n"))
      << "negative counter accepted";
  EXPECT_FALSE(Check("# TYPE a counter\na_total 1\na_total 2\n"))
      << "duplicate series accepted";
  EXPECT_FALSE(Check("# TYPE a counter\n# TYPE a counter\na_total 1\n"))
      << "duplicate TYPE accepted";
  EXPECT_FALSE(Check("# TYPE h histogram\n"
                     "h_bucket{le=\"10\"} 5\n"
                     "h_bucket{le=\"100\"} 3\n" // not cumulative
                     "h_bucket{le=\"+Inf\"} 5\n"
                     "h_sum 1\nh_count 5\n"))
      << "non-cumulative buckets accepted";
  EXPECT_FALSE(Check("# TYPE h histogram\n"
                     "h_bucket{le=\"100\"} 1\n"
                     "h_bucket{le=\"10\"} 2\n" // le not increasing
                     "h_bucket{le=\"+Inf\"} 2\n"
                     "h_sum 1\nh_count 2\n"))
      << "descending le accepted";
  EXPECT_FALSE(Check("# TYPE h histogram\n"
                     "h_bucket{le=\"10\"} 1\n"
                     "h_sum 1\nh_count 1\n"))
      << "histogram without +Inf accepted";
  EXPECT_FALSE(Check("# TYPE h histogram\n"
                     "h_bucket{le=\"10\"} 1\n"
                     "h_bucket{le=\"+Inf\"} 2\n"
                     "h_sum 1\nh_count 3\n")) // +Inf != _count
      << "+Inf/_count mismatch accepted";
  EXPECT_FALSE(Check("# TYPE a gauge\na{l=unquoted} 1\n"))
      << "unquoted label accepted";
  EXPECT_FALSE(Check("# TYPE a gauge\na nan-ish\n"))
      << "garbage value accepted";

  // And the shapes it must accept.
  EXPECT_TRUE(Check("# plain comment\n# TYPE a gauge\na 1\n")) << Err;
  EXPECT_TRUE(Check("# HELP a free text here\n# TYPE a gauge\na -3.5\n"))
      << Err;
  EXPECT_TRUE(Check("# TYPE a gauge\na{l=\"x,\\\"y\\\"\\n\"} 1 1700000\n"))
      << Err;
  EXPECT_TRUE(Check("# TYPE h histogram\n"
                    "h_bucket{le=\"10\"} 1\n"
                    "h_bucket{le=\"+Inf\"} 2\n"
                    "h_sum 12\nh_count 2\n"))
      << Err;
}

TEST(ObsMetrics, QuantileBoundContract) {
  // Pinned contract of HistogramValue::quantileBound (see Metrics.h).
  obs::MetricsRegistry Reg;

  // Empty histogram: 0 for every Q.
  {
    obs::Histogram &H = Reg.histogram("t.qc.empty", {10, 100});
    (void)H;
    auto S = Reg.snapshot();
    const obs::HistogramValue *V = S.histogram("t.qc.empty");
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(V->quantileBound(0), 0u);
    EXPECT_EQ(V->quantileBound(0.5), 0u);
    EXPECT_EQ(V->quantileBound(1), 0u);
  }

  // Endpoints: Q<=0 -> first non-empty bucket; Q>=1 -> last non-empty.
  {
    obs::Histogram &H = Reg.histogram("t.qc.mid", {10, 100, 1000});
    H.record(50);  // bucket <=100
    H.record(500); // bucket <=1000
    auto S = Reg.snapshot();
    const obs::HistogramValue *V = S.histogram("t.qc.mid");
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(V->quantileBound(0), 100u);
    EXPECT_EQ(V->quantileBound(-2.5), 100u); // clamped, no UB
    EXPECT_EQ(V->quantileBound(1), 1000u);
    EXPECT_EQ(V->quantileBound(7.0), 1000u); // clamped
  }

  // Every sample in the overflow bucket: +inf (UINT64_MAX) for all Q > 0,
  // and for Q<=0 too — the first non-empty bucket IS the overflow bucket.
  {
    obs::Histogram &H = Reg.histogram("t.qc.over", {10});
    H.record(11);
    H.record(99);
    auto S = Reg.snapshot();
    const obs::HistogramValue *V = S.histogram("t.qc.over");
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(V->quantileBound(0), UINT64_MAX);
    EXPECT_EQ(V->quantileBound(0.5), UINT64_MAX);
    EXPECT_EQ(V->quantileBound(1), UINT64_MAX);
  }

  // Q=1 with a non-empty overflow bucket answers +inf even when earlier
  // buckets hold most samples.
  {
    obs::Histogram &H = Reg.histogram("t.qc.tail", {10});
    for (int I = 0; I < 9; ++I)
      H.record(5);
    H.record(1 << 20);
    auto S = Reg.snapshot();
    const obs::HistogramValue *V = S.histogram("t.qc.tail");
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(V->quantileBound(0.5), 10u);
    EXPECT_EQ(V->quantileBound(1), UINT64_MAX);
  }
}

TEST(ObsMetrics, ExpositionNameCollisionRejected) {
  obs::MetricsRegistry Reg;
  obs::Counter &First = Reg.counter("coll.cycles");
  // Different registry name, identical exposition family after
  // sanitization: rejected with a detached instrument.
  obs::Counter &Clash = Reg.counter("coll_cycles");
  EXPECT_NE(&First, &Clash);
  EXPECT_EQ(Reg.rejectedNameCollisions(), 1u);

  First.add(2);
  Clash.add(100); // Writable, but never exported.
  auto S = Reg.snapshot();
  EXPECT_EQ(S.counterValue("coll.cycles"), 2u);
  EXPECT_EQ(S.counterValue("coll_cycles"), 0u);

  // Re-registering the same name is a find, never a collision.
  EXPECT_EQ(&Reg.counter("coll.cycles"), &First);
  EXPECT_EQ(Reg.rejectedNameCollisions(), 1u);

  // Cross-kind: a histogram owns base, _bucket, _sum and _count; a gauge
  // landing on any of them is ambiguous and must be rejected.
  Reg.histogram("coll.lat", {10});
  Reg.gauge("coll.lat.sum");
  EXPECT_EQ(Reg.rejectedNameCollisions(), 2u);
  auto S2 = Reg.snapshot();
  EXPECT_EQ(S2.gaugeValue("coll.lat.sum"), 0);

  // A counter after a gauge of the same dotted name is NOT a collision:
  // the counter exposes `_total`, the gauge the bare name.
  Reg.gauge("coll.mixed");
  Reg.counter("coll.mixed");
  EXPECT_EQ(Reg.rejectedNameCollisions(), 2u);

  // The exposition of a registry containing near-miss names stays valid.
  std::string Err;
  EXPECT_TRUE(obs::promValidateExposition(
      obs::metricsToPrometheus(Reg.snapshot()), &Err))
      << Err;
}

//===----------------------------------------------------------------------===//
// Trace context (cross-process lifecycle tracing)
//===----------------------------------------------------------------------===//

#include "obs/Lifecycle.h"
#include "obs/LockProfiler.h"
#include "obs/TraceContext.h"
#include "obs/TraceMerge.h"
#include "support/Rng.h"

TEST(ObsTrace, TraceparentRoundTrip) {
  obs::TraceContext Ctx{0x0123456789abcdefULL, 0xfedcba9876543210ULL,
                        0x1122334455667788ULL};
  std::string Header = Ctx.traceparent();
  EXPECT_EQ(Header,
            "00-0123456789abcdeffedcba9876543210-1122334455667788-01");
  obs::TraceContext Parsed;
  ASSERT_TRUE(obs::parseTraceparent(Header, Parsed));
  EXPECT_EQ(Parsed.Hi, Ctx.Hi);
  EXPECT_EQ(Parsed.Lo, Ctx.Lo);
  EXPECT_EQ(Parsed.SpanId, Ctx.SpanId);
  EXPECT_EQ(Parsed.traceHex(), "0123456789abcdeffedcba9876543210");
}

TEST(ObsTrace, ParseRejectsMalformedHeaders) {
  // The policy contract (TraceContext.h): strict parse, lenient callers —
  // every rejection below must leave Out untouched so the caller mints a
  // fresh context instead of failing the upload.
  const char *Bad[] = {
      "",                                                            // absent
      "00",                                                          // short
      "00-0123456789abcdeffedcba9876543210-1122334455667788",        // no flags
      "00-0123456789abcdeffedcba9876543210-1122334455667788-01-00",  // long
      "ff-0123456789abcdeffedcba9876543210-1122334455667788-01",     // ver ff
      "00-0123456789ABCDEFFEDCBA9876543210-1122334455667788-01",     // upper
      "00-00000000000000000000000000000000-1122334455667788-01",     // zero id
      "00-0123456789abcdeffedcba987654321g-1122334455667788-01",     // non-hex
      "00_0123456789abcdeffedcba9876543210-1122334455667788-01",     // bad dash
      "not a traceparent header at all, sorry",                      // garbage
  };
  for (const char *H : Bad) {
    obs::TraceContext Out{1, 2, 3};
    EXPECT_FALSE(obs::parseTraceparent(H, Out)) << "accepted: " << H;
    EXPECT_EQ(Out.Hi, 1u) << "clobbered Out on: " << H;
  }
}

TEST(ObsTrace, ParseTraceIdHexNormalizesCase) {
  obs::TraceContext Out;
  ASSERT_TRUE(
      obs::parseTraceIdHex("0123456789ABCDEFfedcba9876543210", Out));
  EXPECT_EQ(Out.traceHex(), "0123456789abcdeffedcba9876543210");
  EXPECT_FALSE(obs::parseTraceIdHex("0123", Out));
  EXPECT_FALSE(
      obs::parseTraceIdHex("00000000000000000000000000000000", Out));
  EXPECT_FALSE(
      obs::parseTraceIdHex("0123456789abcdeffedcba987654321x", Out));
}

TEST(ObsTrace, MakeTraceContextIsValidAndDeterministic) {
  Rng A(42), B(42);
  obs::TraceContext CA = obs::makeTraceContext(A);
  obs::TraceContext CB = obs::makeTraceContext(B);
  EXPECT_TRUE(CA.valid());
  EXPECT_EQ(CA.Hi, CB.Hi);
  EXPECT_EQ(CA.Lo, CB.Lo);
  EXPECT_EQ(CA.SpanId, CB.SpanId);
}

TEST(ObsTrace, ScopeCapturedBySpansAndRestoredOnExit) {
  obs::PipelineTracer Tracer(64);
  Tracer.setEnabled(true);
  EXPECT_FALSE(obs::currentTraceContext().valid());
  {
    obs::TraceScope Outer(obs::TraceContext{0xa, 0xb, 0});
    EXPECT_EQ(obs::currentTraceContext().Hi, 0xau);
    { obs::ScopedSpan S(Tracer, "t.traced", "t"); }
    {
      // Inner scope shadows, then restores the outer context.
      obs::TraceScope Inner(obs::TraceContext{0xc, 0xd, 0});
      EXPECT_EQ(obs::currentTraceContext().Hi, 0xcu);
      { obs::ScopedSpan S(Tracer, "t.inner", "t"); }
    }
    EXPECT_EQ(obs::currentTraceContext().Hi, 0xau);
  }
  EXPECT_FALSE(obs::currentTraceContext().valid());
  { obs::ScopedSpan S(Tracer, "t.untraced", "t"); }

  auto Spans = Tracer.snapshot();
  ASSERT_EQ(Spans.size(), 3u);
  std::string Jsonl = obs::spansToJsonl(Spans);
  // Traced spans carry the field; untraced spans omit it, keeping
  // pre-tracing output byte-identical.
  EXPECT_NE(Jsonl.find("\"trace\":\"000000000000000a000000000000000b\""),
            std::string::npos);
  EXPECT_NE(Jsonl.find("\"trace\":\"000000000000000c000000000000000d\""),
            std::string::npos);
  size_t TracedFields = 0;
  for (size_t P = Jsonl.find("\"trace\""); P != std::string::npos;
       P = Jsonl.find("\"trace\"", P + 1))
    ++TracedFields;
  EXPECT_EQ(TracedFields, 2u);
}

//===----------------------------------------------------------------------===//
// Trace merge
//===----------------------------------------------------------------------===//

TEST(ObsTraceMerge, ParseMergeValidateTwoLanes) {
  // Two hand-built "processes": each JSONL is exactly what
  // exportSpansJsonl writes (meta line + spansToJsonl lines), with
  // different wall epochs so the rebase is observable.
  obs::PipelineTracer P1(16), P2(16);
  P1.setEnabled(true);
  P2.setEnabled(true);
  {
    obs::TraceScope Scope(obs::TraceContext{0x11, 0x22, 0});
    obs::ScopedSpan S(P1, "push.frame", "net");
  }
  {
    obs::TraceScope Scope(obs::TraceContext{0x11, 0x22, 0});
    obs::ScopedSpan S(P2, "ingest.upload", "ingest");
  }
  std::string F1 = "{\"meta\":\"er-spans\",\"dropped\":3,"
                   "\"wall_epoch_us\":1000}\n" +
                   obs::spansToJsonl(P1.snapshot());
  std::string F2 = "{\"meta\":\"er-spans\",\"dropped\":0,"
                   "\"wall_epoch_us\":2500}\n" +
                   obs::spansToJsonl(P2.snapshot());

  obs::SpanFileData D1, D2;
  std::string Err;
  ASSERT_TRUE(obs::parseSpansJsonl(F1, "pusher", D1, &Err)) << Err;
  ASSERT_TRUE(obs::parseSpansJsonl(F2, "daemon", D2, &Err)) << Err;
  EXPECT_EQ(D1.Dropped, 3u);
  EXPECT_TRUE(D1.HasEpoch);
  EXPECT_EQ(D1.WallEpochUs, 1000u);
  ASSERT_EQ(D1.Spans.size(), 1u);
  EXPECT_EQ(D1.Spans[0].Name, "push.frame");
  EXPECT_EQ(D1.Spans[0].TraceHi, 0x11u);

  std::vector<obs::SpanFileData> Files{D1, D2};
  auto Ids = obs::mergedTraceIds(Files);
  ASSERT_EQ(Ids.size(), 1u);
  EXPECT_EQ(Ids[0], "00000000000000110000000000000022");

  std::string Merged = obs::mergeChromeTrace(Files);
  ASSERT_TRUE(obs::validateJson(Merged, &Err)) << Err;
  // One lane per file, named by label, with honest drop metadata.
  EXPECT_NE(Merged.find("\"process_name\""), std::string::npos);
  EXPECT_NE(Merged.find("pusher"), std::string::npos);
  EXPECT_NE(Merged.find("daemon"), std::string::npos);
  EXPECT_NE(Merged.find("\"droppedSpans\":3"), std::string::npos);
  // The joining trace id appears in the merged document.
  EXPECT_NE(Merged.find("00000000000000110000000000000022"),
            std::string::npos);
}

TEST(ObsTraceMerge, MalformedLineReportsLineNumber) {
  obs::SpanFileData D;
  std::string Err;
  EXPECT_FALSE(obs::parseSpansJsonl("this is not json\n", "x", D, &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Lock profiler
//===----------------------------------------------------------------------===//

TEST(ObsLock, NsBoundsLadderShape) {
  auto B = obs::lockNsBounds();
  ASSERT_EQ(B.size(), 16u);
  EXPECT_EQ(B[0], 64u);
  for (size_t I = 1; I < B.size(); ++I)
    EXPECT_EQ(B[I], B[I - 1] * 4) << "step " << I;
}

TEST(ObsLock, StatsInternedByName) {
  obs::LockStats &A = obs::LockStats::get("t.lock.interned");
  obs::LockStats &B = obs::LockStats::get("t.lock.interned");
  EXPECT_EQ(&A, &B);
}

TEST(ObsLock, TrackedMutexCountsAcquisitionsAndContention) {
  obs::TrackedMutex Mu("t.lock.contended");
  uint64_t Acq0 = Mu.stats().Acquisitions.value();
  uint64_t Con0 = Mu.stats().Contended.value();

  // Uncontended: acquisitions move, contention does not.
  for (int I = 0; I < 100; ++I) {
    std::lock_guard<obs::TrackedMutex> L(Mu);
  }
  EXPECT_EQ(Mu.stats().Acquisitions.value() - Acq0, 100u);
  EXPECT_EQ(Mu.stats().Contended.value() - Con0, 0u);

  // Forced contention: hold the lock, let a second thread block on it.
  std::atomic<bool> Blocked{false};
  Mu.lock();
  std::thread T([&] {
    Blocked.store(true);
    std::lock_guard<obs::TrackedMutex> L(Mu);
  });
  while (!Blocked.load())
    std::this_thread::yield();
  // Give the thread time to reach the contended slow path.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Mu.unlock();
  T.join();
  EXPECT_GE(Mu.stats().Contended.value() - Con0, 1u);
  // The contended path always records its wait.
  EXPECT_GE(Mu.stats().WaitNs.count(), 1u);
}

TEST(ObsLock, SharedMutexReadersDoNotContendEachOther) {
  obs::TrackedSharedMutex Mu("t.lock.shared");
  uint64_t Con0 = Mu.stats().Contended.value();
  constexpr unsigned Readers = 4;
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < Readers; ++I)
    Ts.emplace_back([&] {
      for (int K = 0; K < 1000; ++K) {
        Mu.lock_shared();
        Mu.unlock_shared();
      }
    });
  for (auto &T : Ts)
    T.join();
  // Shared acquisitions may occasionally hit the try_lock_shared miss
  // under writer-preference implementations, but with no writer in play
  // glibc grants them immediately.
  EXPECT_EQ(Mu.stats().Contended.value() - Con0, 0u);
}

//===----------------------------------------------------------------------===//
// Lifecycle ledger
//===----------------------------------------------------------------------===//

TEST(ObsLifecycle, StagesStampFirstWins) {
  obs::LifecycleLedger L;
  L.note("aa", obs::LifecycleStage::Upload, 100);
  L.note("aa", obs::LifecycleStage::Upload, 999); // later re-stamp loses
  L.note("aa", obs::LifecycleStage::Spool, 150);

  obs::LifecycleEntry E;
  ASSERT_TRUE(L.lookup("aa", E));
  EXPECT_EQ(E.StageNs[unsigned(obs::LifecycleStage::Upload)], 100u);
  EXPECT_EQ(E.StageNs[unsigned(obs::LifecycleStage::Spool)], 150u);
  EXPECT_EQ(E.StageNs[unsigned(obs::LifecycleStage::Drain)], 0u);
  EXPECT_FALSE(L.lookup("zz", E));
}

TEST(ObsLifecycle, TriageAssociatesSignatureAndFansOutStages) {
  obs::LifecycleLedger L;
  L.note("t1", obs::LifecycleStage::Upload, 10);
  L.note("t2", obs::LifecycleStage::Upload, 20);
  L.noteTriage("t1", "sig1", "bug-1", 30);
  L.noteTriage("t2", "sig1", "bug-1", 40);

  // Per-signature events reach every member trace.
  L.noteSignatureStage("sig1", obs::LifecycleStage::CampaignStart, 50);
  L.noteSignatureStage("sig1", obs::LifecycleStage::Reproduced, 60);
  // Unknown signature: a no-op, not a crash (the cycle loop re-stamps
  // every cycle, including signatures whose traces were all evicted).
  L.noteSignatureStage("sig-unknown", obs::LifecycleStage::Reproduced, 70);

  obs::LifecycleEntry E;
  ASSERT_TRUE(L.lookup("t2", E));
  EXPECT_EQ(E.SigHex, "sig1");
  EXPECT_EQ(E.BugId, "bug-1");
  EXPECT_EQ(E.StageNs[unsigned(obs::LifecycleStage::Triage)], 40u);
  EXPECT_EQ(E.StageNs[unsigned(obs::LifecycleStage::CampaignStart)], 50u);
  EXPECT_EQ(E.StageNs[unsigned(obs::LifecycleStage::Reproduced)], 60u);

  auto Rows = L.signatureRows();
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].SigHex, "sig1");
  EXPECT_EQ(Rows[0].Traces, 2u);
  // Aggregate keeps the earliest stamp across member traces.
  EXPECT_EQ(Rows[0].StageNs[unsigned(obs::LifecycleStage::Upload)], 10u);
}

TEST(ObsLifecycle, FifoEvictionIsBoundedAndCounted) {
  obs::LifecycleLedger L(/*MaxEntries=*/3);
  L.note("e1", obs::LifecycleStage::Upload, 1);
  L.note("e2", obs::LifecycleStage::Upload, 2);
  L.note("e3", obs::LifecycleStage::Upload, 3);
  L.note("e4", obs::LifecycleStage::Upload, 4); // evicts e1

  EXPECT_EQ(L.entries(), 3u);
  EXPECT_EQ(L.evicted(), 1u);
  obs::LifecycleEntry E;
  EXPECT_FALSE(L.lookup("e1", E));
  EXPECT_TRUE(L.lookup("e4", E));
  auto Snap = L.snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  EXPECT_EQ(Snap.front().TraceHex, "e2"); // oldest first
}
