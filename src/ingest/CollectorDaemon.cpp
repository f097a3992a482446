//===- CollectorDaemon.cpp - Long-running spool collector -------------------===//

#include "ingest/CollectorDaemon.h"

#include "ingest/ReportCodec.h"
#include "ingest/ReportSpool.h"
#include "solver/SolverCache.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/PromExport.h"
#include "obs/TraceContext.h"
#include "obs/Tracer.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

using namespace er;

namespace {
struct DaemonMetrics {
  obs::Counter &Cycles, &Drains, &DrainRetries, &DrainFailures;
  obs::Counter &Steps, &Checkpoints, &CheckpointFailures, &FilesAcked;
  obs::Counter &MetricsSnapshots, &MetricsSnapshotFailures;
  obs::Gauge &UptimeNs, &DrainIntervalNs;
  obs::Counter &Accelerated, &EarlyWakes;
  obs::Gauge &AdaptiveIntervalMs;

  static DaemonMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static DaemonMetrics M{Reg.counter("daemon.cycles"),
                           Reg.counter("daemon.drains"),
                           Reg.counter("daemon.drain.retries"),
                           Reg.counter("daemon.drain.failures"),
                           Reg.counter("daemon.steps"),
                           Reg.counter("daemon.checkpoints"),
                           Reg.counter("daemon.checkpoint.failures"),
                           Reg.counter("daemon.files.acked"),
                           Reg.counter("daemon.metrics.snapshots"),
                           Reg.counter("daemon.metrics.snapshot.failures"),
                           Reg.gauge("daemon.uptime_ns"),
                           Reg.gauge("daemon.drain_interval_ns"),
                           Reg.counter("daemon.adaptive.accelerated"),
                           Reg.counter("daemon.adaptive.early_wakes"),
                           Reg.gauge("daemon.adaptive.interval_ms")};
    return M;
  }
};

struct UploadMetrics {
  obs::Counter &Accepted, &Records, &Bytes;
  obs::Counter &Rejected, &Throttled, &Quarantined;

  static UploadMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static UploadMetrics M{Reg.counter("ingest.upload.accepted"),
                           Reg.counter("ingest.upload.records"),
                           Reg.counter("ingest.upload.bytes"),
                           Reg.counter("ingest.upload.rejected"),
                           Reg.counter("ingest.upload.throttled"),
                           Reg.counter("ingest.upload.quarantined")};
    return M;
  }
};

/// With a checkpoint file the daemon owns durability: the collector must
/// not remove drained files before the checkpoint lands, and must not
/// persist a separate high-water file that could diverge from it.
CollectorConfig adjustForDaemon(CollectorConfig CC, bool HasStateFile,
                                obs::LifecycleLedger *Ledger,
                                ClockSource *Clock) {
  if (HasStateFile) {
    CC.DeferRemoval = true;
    CC.PersistHighWater = false;
  }
  // The daemon's drain stamps lifecycle stages into the daemon's ledger,
  // on the daemon's clock.
  CC.Ledger = Ledger;
  CC.Clock = Clock;
  return CC;
}

obs::WatchdogConfig watchdogConfig(const DaemonConfig &DC) {
  obs::WatchdogConfig WC;
  WC.DeadlineMs = DC.CycleDeadlineMs;
  WC.Clock = DC.Clock;
  WC.DiagnosticsDir = DC.StallDiagDir;
  WC.Fs = DC.Collector.Fs;
  return WC;
}
} // namespace


const char *er::daemonPhaseName(DaemonPhase P) {
  switch (P) {
  case DaemonPhase::Idle:
    return "idle";
  case DaemonPhase::Draining:
    return "draining";
  case DaemonPhase::Backoff:
    return "backoff";
  case DaemonPhase::Stepping:
    return "stepping";
  case DaemonPhase::Checkpointing:
    return "checkpointing";
  case DaemonPhase::Stopping:
    return "stopping";
  }
  return "unknown";
}

CollectorDaemon::CollectorDaemon(DaemonConfig Config, FleetScheduler &Sched)
    : Config(Config), Sched(Sched),
      Collector(adjustForDaemon(Config.Collector, !Config.StateFile.empty(),
                                &Ledger, Config.Clock)),
      Pressure(Config.Collector.SpoolDir, Config.Pressure,
               Config.Collector.Fs),
      Watchdog(watchdogConfig(Config)) {}

ClockSource &CollectorDaemon::clock() const {
  return Config.Clock ? *Config.Clock : ClockSource::real();
}

FsOps &CollectorDaemon::fsOps() const {
  return Config.Collector.Fs ? *Config.Collector.Fs : FsOps::real();
}

uint64_t CollectorDaemon::uptimeNs() const {
  uint64_t Now = clock().nowNs();
  // A backwards clock jump must clamp, not wrap the unsigned difference.
  return Now >= StartNs ? Now - StartNs : 0;
}

void CollectorDaemon::sleepMs(uint64_t Ms) {
  if (!Ms)
    return;
  if (Config.Sleep) {
    Config.Sleep(Ms);
    return;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

bool CollectorDaemon::start(std::string *Error) {
  if (Started)
    return true;
  FsOps &Fs = fsOps();
  if (!Config.StateFile.empty() && Fs.exists(Config.StateFile)) {
    std::map<uint64_t, uint64_t> HighWater;
    if (!Sched.loadState(Config.StateFile, Error, &HighWater))
      return false; // Corrupt checkpoint: refuse rather than double-count.
    Collector.setHighWater(std::move(HighWater));
  }
  // Warm the shared solver cache from the last life's checkpoint. Unlike
  // the state file, a bad image here is survivable by construction (the
  // cache changes cost, never results), so failures load as empty.
  if (!Config.SolverCacheFile.empty()) {
    CacheLoadStats CLS;
    Sched.solverCache().loadFromFile(Config.SolverCacheFile, &Fs, &CLS);
    Stats.CacheEntriesLoaded += CLS.EntriesLoaded;
  }
  // A previous life may have died between a drain and its checkpoint;
  // its claimed files still hold records nobody durably owns. Un-claim
  // them so this life's first drain re-delivers (the restored high-water
  // marks drop anything the old checkpoint did own).
  Stats.FilesRecovered += Collector.recoverClaimedFiles();
  StartNs = clock().nowNs();
  DaemonMetrics::get().DrainIntervalNs.set(
      static_cast<int64_t>(Config.DrainIntervalMs * 1000000));
  // The live telemetry listener comes up last, once the state it serves
  // is recovered. A listener that cannot bind is a startup failure — an
  // operator who asked for telemetry must not silently run blind.
  if (!Config.Listen.empty() && !Http) {
    net::HttpServerConfig HC = Config.Http;
    if (!net::parseHostPort(Config.Listen, HC.Host, HC.Port, Error))
      return false;
    Http = std::make_unique<net::HttpServer>(
        HC, [this](const net::HttpRequest &Req) { return handleHttp(Req); });
    if (!Http->start(Error)) {
      Http.reset();
      return false;
    }
  }
  publishStatus(); // /status answers sensibly before the first cycle.
  Started = true;
  return true;
}

bool CollectorDaemon::drainWithRetry(std::string *Error) {
  DaemonMetrics &DM = DaemonMetrics::get();
  uint64_t BackoffMs = Config.RetryBackoffBaseMs;
  std::string DrainError;
  for (unsigned Attempt = 0;; ++Attempt) {
    setPhase(DaemonPhase::Draining);
    if (Collector.drainInto(Sched, &DrainError)) {
      ++Stats.Drains;
      DM.Drains.inc();
      return true;
    }
    if (Attempt >= Config.MaxDrainRetries)
      break;
    // Transient I/O (EIO on the quarantine dir, the high-water file, ...):
    // back off and retry within the cycle. Doubling with a cap keeps the
    // worst case bounded while not hammering a struggling disk.
    ++Stats.DrainRetries;
    DM.DrainRetries.inc();
    setPhase(DaemonPhase::Backoff);
    sleepMs(BackoffMs);
    BackoffMs = std::min(BackoffMs * 2, Config.RetryBackoffCapMs);
  }
  ++Stats.DrainFailures;
  DM.DrainFailures.inc();
  if (Error)
    *Error = DrainError;
  return false;
}

bool CollectorDaemon::checkpoint(std::string *Error) {
  if (Config.StateFile.empty())
    return true;
  DaemonMetrics &DM = DaemonMetrics::get();
  FsOps &Fs = fsOps();
  // Fleet state + high-water marks written as one file, published by one
  // atomic rename: the two can never be observed out of sync.
  std::string Tmp = Config.StateFile + ".tmp";
  std::string SaveError;
  if (!Sched.saveState(Tmp, &SaveError, &Collector.getHighWater()) ||
      Fs.rename(Tmp, Config.StateFile, &SaveError) != FsStatus::Ok) {
    Fs.remove(Tmp);
    ++Stats.CheckpointFailures;
    DM.CheckpointFailures.inc();
    if (Error)
      *Error = SaveError;
    return false;
  }
  ++Stats.Checkpoints;
  DM.Checkpoints.inc();
  LastCheckpointNs.store(clock().nowNs(), std::memory_order_relaxed);
  return true;
}

void CollectorDaemon::saveSolverCache() {
  if (Config.SolverCacheFile.empty())
    return;
  if (Sched.solverCache().saveToFile(Config.SolverCacheFile, &fsOps()))
    ++Stats.CacheSaves;
  else
    ++Stats.CacheSaveFailures;
}

void CollectorDaemon::writeMetricsSnapshot() {
  DaemonMetrics &DM = DaemonMetrics::get();
  std::string Path =
      Config.MetricsJsonPath.empty() ? "metrics.json" : Config.MetricsJsonPath;
  std::string Doc =
      obs::metricsToJson(obs::MetricsRegistry::global().snapshot());
  // Temp + rename so a reader polling the path never sees a torn file.
  std::string Tmp = Path + ".tmp";
  FsOps &Fs = fsOps();
  if (Fs.writeFile(Tmp, Doc) != FsStatus::Ok ||
      Fs.rename(Tmp, Path) != FsStatus::Ok) {
    Fs.remove(Tmp);
    ++Stats.MetricsSnapshotFailures;
    DM.MetricsSnapshotFailures.inc();
    return;
  }
  ++Stats.MetricsSnapshots;
  DM.MetricsSnapshots.inc();
}

void CollectorDaemon::publishStatus() {
  // One spool scan serves both the status snapshot and the pressure
  // signal (gauges, 429/503 decisions, adaptive schedule).
  Pressure.sample();
  // Process-level scrape hygiene, same once-per-cycle cadence:
  // obs.proc.{rss_bytes,cpu_seconds,open_fds,threads}.
  obs::sampleProcessGauges(obs::MetricsRegistry::global());
  // Accept-shed tracks the critical watermark with the same hysteresis
  // as the signal itself.
  if (Http)
    Http->setAcceptShed(Pressure.level() == PressureLevel::Critical);

  DaemonStatus S;
  S.Cycle = Stats.Cycles;
  S.UptimeNs = uptimeNs();
  S.LastCheckpointNs = LastCheckpointNs.load(std::memory_order_relaxed);
  S.SpoolDepth = Pressure.sampledFiles();
  S.SpoolBytes = Pressure.sampledBytes();
  S.PressureRatio = Pressure.ratio();
  S.Pressure = Pressure.level();
  S.UploadsAccepted = UploadsAccepted.load(std::memory_order_relaxed);
  S.UploadsRejected = UploadsRejected.load(std::memory_order_relaxed);
  S.UploadsThrottled = UploadsThrottled.load(std::memory_order_relaxed);
  S.LastDrainDelayMs = LastDrainDelayMs.load(std::memory_order_relaxed);
  S.EarlyWakes = EarlyWakes.load(std::memory_order_relaxed);
  S.PendingAckFiles = Collector.pendingAckCount();
  S.ClaimRetries = Collector.getStats().ClaimRetries;
  S.ClaimFailures = Collector.getStats().ClaimFailures;
  S.Preemptions = Sched.totalPreemptions();
  S.Stats = Stats;
  S.Campaigns = Sched.campaignStatuses();
  std::lock_guard<std::mutex> Lock(StatusMu);
  Status = std::move(S);
}

DaemonStatus CollectorDaemon::statusSnapshot() const {
  std::lock_guard<std::mutex> Lock(StatusMu);
  return Status;
}

bool CollectorDaemon::runCycle(std::string *Error) {
  if (!start(Error))
    return false;
  DaemonMetrics &DM = DaemonMetrics::get();
  obs::ScopedSpan Span("daemon.cycle", "daemon");
  Span.arg("cycle", Stats.Cycles);
  ++Stats.Cycles;
  DM.Cycles.inc();
  Watchdog.arm(Stats.Cycles);

  // 1. Drain. A cycle whose drain fails even after retries still steps
  // campaigns — existing work must not starve behind a sick disk.
  uint64_t ClaimedBefore = Collector.getStats().FilesClaimed;
  std::string DrainError;
  bool Drained = drainWithRetry(&DrainError);
  Span.arg("drained", static_cast<uint64_t>(Drained));
  // How much this drain swallowed is the adaptive schedule's arrival-rate
  // term: a cycle that claimed a full batch implies more is coming at
  // this cadence, even though the spool now scans empty.
  DrainedLastCycle.store(Collector.getStats().FilesClaimed - ClaimedBefore,
                         std::memory_order_relaxed);

  // 2. Advance campaigns incrementally; new reports merged by drain feed
  // existing buckets without restarting them.
  setPhase(DaemonPhase::Stepping);
  unsigned Steps = Sched.stepCampaigns(Config.MaxStepsPerCycle);
  Stats.StepsRun += Steps;
  DM.Steps.add(Steps);
  Span.arg("steps", static_cast<uint64_t>(Steps));

  // Campaign phase transitions become lifecycle stamps. noteSignatureStage
  // is first-wins and ignores signatures no traced report triaged into,
  // so re-stamping every cycle is cheap and idempotent.
  uint64_t StampNs = clock().nowNs();
  for (const CampaignStatus &CS : Sched.campaignStatuses()) {
    if (CS.Phase != CampaignPhase::Pending)
      Ledger.noteSignatureStage(CS.SigHex, obs::LifecycleStage::CampaignStart,
                                StampNs);
    if (CS.Reproduced)
      Ledger.noteSignatureStage(CS.SigHex, obs::LifecycleStage::Reproduced,
                                StampNs);
  }

  // 3. Checkpoint, then 4. ack: records become removable only once the
  // state that owns them is durable. A failed checkpoint simply leaves
  // the files claimed — the next cycle's checkpoint acks them.
  setPhase(DaemonPhase::Checkpointing);
  if (checkpoint(Error)) {
    size_t Acked = Collector.ackDrained();
    Stats.FilesAcked += Acked;
    DM.FilesAcked.add(Acked);
    Span.arg("acked", static_cast<uint64_t>(Acked));
  }

  if (Config.MetricsEveryCycles &&
      Stats.Cycles % Config.MetricsEveryCycles == 0)
    writeMetricsSnapshot();

  // The solver-cache image is a full rewrite, so its cadence is coarser
  // than the state checkpoint's; shutdown writes a final image either way.
  if (!Config.SolverCacheFile.empty() && Config.SolverCacheEveryCycles &&
      Stats.Cycles % Config.SolverCacheEveryCycles == 0)
    saveSolverCache();

  DM.UptimeNs.set(static_cast<int64_t>(uptimeNs()));
  publishStatus();
  // Disarm last: an overdue cycle records its trip even when nothing
  // polled /healthz while it was stuck.
  Watchdog.disarm();
  setPhase(DaemonPhase::Idle);
  return true;
}

bool CollectorDaemon::runLoop(std::string *Error) {
  if (!start(Error))
    return false;
  bool Ok = true;
  for (;;) {
    if (!runCycle(Error)) {
      Ok = false;
      break;
    }
    if (stopRequested())
      break;
    if (Config.MaxCycles && Stats.Cycles >= Config.MaxCycles)
      break;
    interCycleSleep();
    if (stopRequested())
      break;
  }
  setPhase(DaemonPhase::Stopping);
  if (Ok) {
    // Clean shutdown: one final checkpoint so nothing stepped since the
    // last cycle's checkpoint is lost (counted like any other checkpoint).
    if (checkpoint(Error))
      Stats.FilesAcked += Collector.ackDrained();
    else
      Ok = Config.StateFile.empty();
    saveSolverCache();
    publishStatus();
  }
  // The listener answered "stopping" during the final checkpoint; now the
  // daemon is done serving.
  if (Http)
    Http->stop();
  return Ok;
}

uint64_t CollectorDaemon::nextDrainDelayMs() const {
  uint64_t Max = Config.DrainIntervalMs;
  if (!Config.AdaptiveDrain || Max == 0)
    return Max;
  uint64_t Min = Config.MinDrainIntervalMs ? Config.MinDrainIntervalMs
                                           : std::max<uint64_t>(1, Max / 8);
  Min = std::min(Min, Max);
  // Two reasons to hurry: the spool is filling (pressure, which counts
  // uploads landed since the last sample), or the last drain claimed a
  // batch big enough to imply a sustained arrival stream. Either at 1.0
  // pins the delay to the floor; in between the delay scales linearly.
  uint64_t Busy = std::max<uint64_t>(1, Config.AdaptiveBusyFiles);
  double Urgency =
      std::max(Pressure.ratio(),
               static_cast<double>(
                   DrainedLastCycle.load(std::memory_order_relaxed)) /
                   static_cast<double>(Busy));
  Urgency = std::min(Urgency, 1.0);
  return Max - static_cast<uint64_t>(static_cast<double>(Max - Min) * Urgency);
}

void CollectorDaemon::interCycleSleep() {
  DaemonMetrics &DM = DaemonMetrics::get();
  uint64_t Delay = nextDrainDelayMs();
  LastDrainDelayMs.store(Delay, std::memory_order_relaxed);
  DM.AdaptiveIntervalMs.set(static_cast<int64_t>(Delay));
  if (Delay < Config.DrainIntervalMs)
    DM.Accelerated.inc();
  if (!Config.AdaptiveDrain) {
    sleepMs(Delay);
    return;
  }
  // Sleep in floor-sized slices so an upload burst landing mid-interval
  // can pull the next drain forward instead of waiting out the rest.
  uint64_t Slice = std::max<uint64_t>(
      1, Config.MinDrainIntervalMs
             ? Config.MinDrainIntervalMs
             : std::max<uint64_t>(1, Config.DrainIntervalMs / 8));
  uint64_t Slept = 0;
  while (Slept < Delay && !stopRequested()) {
    uint64_t Chunk = std::min(Slice, Delay - Slept);
    sleepMs(Chunk);
    Slept += Chunk;
    if (Slept < Delay && Pressure.ratio() >= 1.0) {
      EarlyWakes.fetch_add(1, std::memory_order_relaxed);
      DM.EarlyWakes.inc();
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Live endpoints
//===----------------------------------------------------------------------===//

net::HttpResponse CollectorDaemon::renderHealthz() {
  // Liveness is implied by answering at all; the body carries readiness.
  bool WatchdogTripped = Watchdog.poll();
  bool Stopping =
      stopRequested() || phase() == DaemonPhase::Stopping;
  net::HttpResponse R;
  std::string Body;
  if (WatchdogTripped) {
    R.Status = 503;
    Body += "status: unhealthy\n";
  } else if (Stopping) {
    R.Status = 503;
    Body += "status: shutting down\n";
  } else {
    R.Status = 200;
    Body += "status: ok\n";
  }
  Body += "phase: ";
  Body += daemonPhaseName(Stopping ? DaemonPhase::Stopping : phase());
  Body += '\n';
  if (Watchdog.enabled()) {
    Body += "watchdog: ";
    Body += WatchdogTripped ? "tripped" : "armed";
    Body += "\nwatchdog_trips: " + std::to_string(Watchdog.trips());
    if (Watchdog.trips())
      Body +=
          "\nwatchdog_last_trip_cycle: " + std::to_string(Watchdog.lastTripCycle());
    Body += '\n';
  }
  R.Body = std::move(Body);
  return R;
}

net::HttpResponse CollectorDaemon::renderStatus() {
  DaemonStatus S = statusSnapshot();
  obs::JsonWriter W;
  W.beginObject();
  W.kv("cycle", S.Cycle);
  W.kv("phase", daemonPhaseName(phase()));
  W.kv("uptime_ns", S.UptimeNs);
  W.kv("last_checkpoint_ns", S.LastCheckpointNs);
  W.kv("spool_depth", static_cast<uint64_t>(S.SpoolDepth));
  W.kv("spool_bytes", S.SpoolBytes);
  W.kv("pending_ack_files", static_cast<uint64_t>(S.PendingAckFiles));
  W.kv("claim_retries", S.ClaimRetries);
  W.kv("claim_failures", S.ClaimFailures);
  W.kv("preemptions", S.Preemptions);
  W.key("pressure");
  W.beginObject();
  W.kv("ratio", S.PressureRatio);
  W.kv("level", pressureLevelName(S.Pressure));
  W.endObject();
  W.key("uploads");
  W.beginObject();
  W.kv("accepted", S.UploadsAccepted);
  W.kv("rejected", S.UploadsRejected);
  W.kv("throttled", S.UploadsThrottled);
  W.endObject();
  W.key("adaptive");
  W.beginObject();
  W.kv("enabled", Config.AdaptiveDrain);
  W.kv("last_delay_ms", S.LastDrainDelayMs);
  W.kv("early_wakes", S.EarlyWakes);
  W.endObject();
  W.key("stats");
  W.beginObject();
  W.kv("cycles", S.Stats.Cycles);
  W.kv("drains", S.Stats.Drains);
  W.kv("drain_retries", S.Stats.DrainRetries);
  W.kv("drain_failures", S.Stats.DrainFailures);
  W.kv("steps_run", S.Stats.StepsRun);
  W.kv("checkpoints", S.Stats.Checkpoints);
  W.kv("checkpoint_failures", S.Stats.CheckpointFailures);
  W.kv("files_acked", S.Stats.FilesAcked);
  W.kv("files_recovered", S.Stats.FilesRecovered);
  W.kv("metrics_snapshots", S.Stats.MetricsSnapshots);
  W.endObject();
  W.key("watchdog");
  W.beginObject();
  W.kv("enabled", Watchdog.enabled());
  W.kv("tripped", Watchdog.tripped());
  W.kv("trips", Watchdog.trips());
  W.kv("last_trip_cycle", Watchdog.lastTripCycle());
  W.endObject();
  W.key("campaigns");
  W.beginArray();
  for (const CampaignStatus &C : S.Campaigns) {
    W.beginObject();
    W.kv("bug_id", C.BugId);
    W.kv("sig", C.SigHex);
    W.kv("occurrences", C.Occurrences);
    W.kv("phase", campaignPhaseName(C.Phase));
    W.kv("iterations_done", C.IterationsDone);
    W.kv("reproduced", C.Reproduced);
    W.endObject();
  }
  W.endArray();
  // Per-signature lifecycle aggregate (docs/OBSERVABILITY.md, "Lifecycle
  // tracing"): earliest stage stamps across every traced report that
  // triaged into the signature.
  W.key("lifecycle");
  W.beginArray();
  for (const obs::LifecycleLedger::SignatureRow &Row : Ledger.signatureRows()) {
    W.beginObject();
    W.kv("sig", Row.SigHex);
    W.kv("bug_id", Row.BugId);
    W.kv("traces", Row.Traces);
    W.key("stages");
    W.beginObject();
    for (unsigned I = 0; I < obs::NumLifecycleStages; ++I)
      if (Row.StageNs[I])
        W.kv(obs::lifecycleStageName(static_cast<obs::LifecycleStage>(I)),
             Row.StageNs[I]);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  net::HttpResponse R;
  R.ContentType = "application/json; charset=utf-8";
  R.Body = W.take();
  R.Body += '\n';
  return R;
}

net::HttpResponse CollectorDaemon::handleUpload(const net::HttpRequest &Req) {
  UploadMetrics &UM = UploadMetrics::get();
  // The frame's lifecycle trace: honor a well-formed traceparent header;
  // anything absent or malformed degrades to a freshly minted local
  // trace — tracing is never grounds for a 400 (the report matters more
  // than its telemetry).
  obs::TraceContext Trace;
  if (!obs::parseTraceparent(
          net::headerValue(Req.Header, obs::traceparentHeaderName()), Trace)) {
    Rng R(clock().nowNs() ^
          (TraceSeq.fetch_add(1, std::memory_order_relaxed) + 1) *
              0x9e3779b97f4a7c15ULL);
    Trace = obs::makeTraceContext(R);
  }
  obs::TraceScope Traced(Trace);
  obs::ScopedSpan Span("ingest.upload", "daemon");
  Span.arg("bytes", static_cast<uint64_t>(Req.Body.size()));

  auto Reject = [&](int Status, const std::string &Why) {
    UploadsRejected.fetch_add(1, std::memory_order_relaxed);
    UM.Rejected.inc();
    Span.arg("rejected", Why);
    net::HttpResponse R;
    R.Status = Status;
    R.Body = Why + "\n";
    return R;
  };

  // Backpressure first: while the spool is past its high watermark the
  // daemon will not even look at the bytes. The client retries after the
  // hint; nothing is lost (the sender still holds the frame).
  if (Pressure.level() != PressureLevel::Ok) {
    UploadsThrottled.fetch_add(1, std::memory_order_relaxed);
    UM.Throttled.inc();
    Span.arg("throttled", uint64_t(1));
    net::HttpResponse R;
    R.Status = 429;
    R.Body = "spool over high watermark; retry later\n";
    R.ExtraHeaders.push_back(
        {"Retry-After", std::to_string(Pressure.retryAfterSeconds())});
    return R;
  }

  if (Req.Body.empty())
    return Reject(400, "empty report frame");

  // Validate the whole frame before publishing anything, with the same
  // whole-file decoder the drain uses: the spool must only ever contain
  // files a drain will fully decode.
  std::vector<FleetFailureReport> Frame;
  DecodeStatus DS = decodeSpoolFile(
      reinterpret_cast<const uint8_t *>(Req.Body.data()), Req.Body.size(),
      Frame);
  if (DS != DecodeStatus::Ok || Frame.empty()) {
    // A frame that fails CRC/framing goes to the quarantine, exactly
    // where the drain puts a corrupt on-disk file — same triage
    // directory, same operator workflow (docs/INGEST.md).
    FsOps &Fs = fsOps();
    std::string QDir = Config.Collector.SpoolDir + "/quarantine";
    std::string QName = formatString(
        "upload-%016llx.bad",
        (unsigned long long)UploadSeq.fetch_add(1, std::memory_order_relaxed));
    if (Fs.createDirectories(QDir))
      Fs.writeFile(QDir + "/" + QName, Req.Body);
    UM.Quarantined.inc();
    std::string Why = DS == DecodeStatus::Ok
                          ? std::string("frame contains no records")
                          : std::string("bad frame (") + decodeStatusName(DS) +
                                ")";
    return Reject(400, Why + "; quarantined as " + QName);
  }
  uint64_t Records = Frame.size(), Machine = Frame.front().MachineId,
           FirstSeq = Frame.front().Sequence;

  // Publish exactly as a SpoolWriter would: the body IS a spool file.
  // The final name is content-derived — (machine, first sequence) — so a
  // client retrying an upload whose 200 got lost republishes the same
  // name (rename overwrites its twin) and the collector's high-water
  // dedup drops any record a previous drain already owned: exactly-once
  // end-to-end, with zero upload-specific bookkeeping.
  FsOps &Fs = fsOps();
  std::string Base =
      formatString("m%016llx-%016llx", (unsigned long long)Machine,
                   (unsigned long long)FirstSeq);
  std::string Tmp = Config.Collector.SpoolDir + "/" + Base +
                    formatString(".u%llu.tmp",
                                 (unsigned long long)UploadSeq.fetch_add(
                                     1, std::memory_order_relaxed));
  std::string Final = Config.Collector.SpoolDir + "/" + Base + ".ers";
  std::string IoError;
  bool Published =
      Fs.createDirectories(Config.Collector.SpoolDir, &IoError) &&
      Fs.writeFile(Tmp, Req.Body, &IoError) == FsStatus::Ok;
  if (Published) {
    // Sidecar before the publishing rename: a racing drain must never
    // claim the frame ahead of its trace. Best-effort — a failed sidecar
    // write degrades to an untraced frame, never a failed upload.
    Fs.writeFile(
        spoolTraceSidecarPath(Config.Collector.SpoolDir, Base + ".ers"),
        Trace.traceparent() + "\n");
    Published = Fs.rename(Tmp, Final, &IoError) == FsStatus::Ok;
  }
  if (!Published) {
    Fs.remove(Tmp);
    removeSpoolTraceSidecar(Config.Collector.SpoolDir, Base + ".ers",
                            Config.Collector.Fs);
    UploadsRejected.fetch_add(1, std::memory_order_relaxed);
    UM.Rejected.inc();
    net::HttpResponse R;
    R.Status = 500;
    R.Body = "cannot publish upload: " + IoError + "\n";
    return R;
  }

  UploadsAccepted.fetch_add(1, std::memory_order_relaxed);
  UM.Accepted.inc();
  UM.Records.add(Records);
  UM.Bytes.add(Req.Body.size());
  Pressure.addUpload(Req.Body.size());
  Span.arg("records", Records);
  Span.arg("trace", Trace.traceHex());

  uint64_t Now = clock().nowNs();
  Ledger.note(Trace.traceHex(), obs::LifecycleStage::Upload, Now);
  Ledger.note(Trace.traceHex(), obs::LifecycleStage::Spool, Now);

  obs::JsonWriter W;
  W.beginObject();
  W.kv("accepted", Records);
  W.kv("machine", Machine);
  W.kv("first_sequence", FirstSeq);
  W.kv("file", Base + ".ers");
  W.kv("trace", Trace.traceHex());
  W.endObject();
  net::HttpResponse R;
  R.ContentType = "application/json; charset=utf-8";
  R.Body = W.take();
  R.Body += '\n';
  return R;
}

net::HttpResponse CollectorDaemon::handleHttp(const net::HttpRequest &Req) {
  std::string Path = Req.Path.substr(0, Req.Path.find('?'));
  if (Path == "/report") {
    if (Req.Method != "POST") {
      net::HttpResponse R;
      R.Status = 405;
      R.Body = "/report accepts POST only\n";
      return R;
    }
    return handleUpload(Req);
  }
  if (Req.Method != "GET") {
    net::HttpResponse R;
    R.Status = 404;
    R.Body = "not found\n";
    return R;
  }
  if (Path == "/metrics") {
    // A scrape is also a watchdog evaluation: a wedged daemon thread
    // cannot poll its own deadline.
    Watchdog.poll();
    net::HttpResponse R;
    R.ContentType = obs::promContentType();
    R.Body =
        obs::metricsToPrometheus(obs::MetricsRegistry::global().snapshot());
    return R;
  }
  if (Path == "/healthz")
    return renderHealthz();
  if (Path == "/status")
    return renderStatus();
  if (Path == "/profile" || Path == "/profile/folded") {
    // Live phase profile. Snapshotting never blocks workers (per-thread
    // structure locks only); an off profiler serves an empty document.
    net::HttpResponse R;
    obs::ProfileSnapshot S = obs::PhaseProfiler::global().snapshot();
    if (Path == "/profile/folded") {
      R.ContentType = "text/plain; charset=utf-8";
      R.Body = obs::profileToFolded(S);
    } else {
      R.ContentType = "application/json; charset=utf-8";
      R.Body = obs::profileToJson(S);
      R.Body += '\n';
    }
    return R;
  }
  if (Path == "/trace" || Path.rfind("/trace/", 0) == 0)
    return renderTrace(Path);
  net::HttpResponse R;
  R.Status = 404;
  R.Body = "not found\n";
  return R;
}

namespace {
/// One ledger entry as JSON: trace id, triage identity when known, and
/// the stamped stages (unreached stages are omitted, not zero).
void writeLifecycleEntry(obs::JsonWriter &W, const obs::LifecycleEntry &E) {
  W.beginObject();
  W.kv("trace", E.TraceHex);
  if (!E.SigHex.empty())
    W.kv("sig", E.SigHex);
  if (!E.BugId.empty())
    W.kv("bug_id", E.BugId);
  W.key("stages");
  W.beginObject();
  for (unsigned I = 0; I < obs::NumLifecycleStages; ++I)
    if (E.StageNs[I])
      W.kv(obs::lifecycleStageName(static_cast<obs::LifecycleStage>(I)),
           E.StageNs[I]);
  W.endObject();
  W.endObject();
}
} // namespace

net::HttpResponse CollectorDaemon::renderTrace(const std::string &Path) {
  net::HttpResponse R;
  R.ContentType = "application/json; charset=utf-8";
  obs::JsonWriter W;
  if (Path == "/trace" || Path == "/trace/") {
    W.beginObject();
    W.kv("entries", Ledger.entries());
    W.kv("evicted", Ledger.evicted());
    W.key("traces");
    W.beginArray();
    for (const obs::LifecycleEntry &E : Ledger.snapshot())
      writeLifecycleEntry(W, E);
    W.endArray();
    W.endObject();
  } else {
    // Normalize through TraceContext so an uppercase id still hits the
    // (lowercase-keyed) ledger.
    std::string Id = Path.substr(std::strlen("/trace/"));
    obs::TraceContext Ctx;
    obs::LifecycleEntry E;
    if (!obs::parseTraceIdHex(Id, Ctx) || !Ledger.lookup(Ctx.traceHex(), E)) {
      R.Status = 404;
      R.Body = "unknown trace id\n";
      return R;
    }
    writeLifecycleEntry(W, E);
  }
  R.Body = W.take();
  R.Body += '\n';
  return R;
}
