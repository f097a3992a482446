//===- ReportCollector.cpp - Hardened spool drain ---------------------------===//

#include "ingest/ReportCollector.h"

#include "fleet/FailureSignature.h"
#include "ingest/ReportCodec.h"
#include "ingest/ReportSpool.h"
#include "obs/Metrics.h"
#include "obs/TraceContext.h"
#include "obs/Tracer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

using namespace er;

ReportCollector::ReportCollector(CollectorConfig Config)
    : Config(std::move(Config)) {}

FsOps &ReportCollector::fs() const {
  return Config.Fs ? *Config.Fs : FsOps::real();
}

std::string ReportCollector::quarantineDir() const {
  return Config.SpoolDir + "/quarantine";
}

//===----------------------------------------------------------------------===//
// High-water mark persistence
//===----------------------------------------------------------------------===//
//
// `spool/highwater` is a tiny text file, one `m<machine> <maxseq>` line per
// machine, written via temp + atomic rename like everything else in the
// spool. It is the collector's own state, so unlike spool files a corrupt
// copy is a hard error (silently restarting from zero would double-count
// every report ever consumed).

static const char *HighWaterMagic = "er-highwater v1";

bool ReportCollector::loadHighWater(std::string *Error) {
  if (HighWaterLoaded)
    return true;
  HighWaterLoaded = true;
  std::string Path = Config.SpoolDir + "/highwater";
  std::vector<uint8_t> Bytes;
  if (fs().readFile(Path, Bytes) != FsStatus::Ok)
    return true; // First drain on this spool.
  std::string Text(Bytes.begin(), Bytes.end());
  size_t Pos = 0;
  bool SawMagic = false;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    std::string Line = Text.substr(
        Pos, End == std::string::npos ? std::string::npos : End - Pos);
    if (!SawMagic) {
      if (Line != HighWaterMagic) {
        if (Error)
          *Error = "corrupt high-water file '" + Path + "': bad magic";
        return false;
      }
      SawMagic = true;
    } else if (!Line.empty()) {
      unsigned long long Machine = 0, Seq = 0;
      if (std::sscanf(Line.c_str(), "m%llx %llu", &Machine, &Seq) != 2) {
        if (Error)
          *Error = "corrupt high-water file '" + Path + "': '" + Line + "'";
        return false;
      }
      HighWater[Machine] = std::max<uint64_t>(HighWater[Machine], Seq);
    }
    if (End == std::string::npos)
      break;
    Pos = End + 1;
  }
  return true;
}

void ReportCollector::setHighWater(std::map<uint64_t, uint64_t> Marks) {
  HighWater = std::move(Marks);
  HighWaterLoaded = true;
}

bool ReportCollector::saveHighWater(std::string *Error) const {
  std::string Path = Config.SpoolDir + "/highwater";
  std::string Tmp = Config.SpoolDir + "/highwater.tmp";
  std::string Text = std::string(HighWaterMagic) + "\n";
  char Buf[64];
  for (const auto &[Machine, Seq] : HighWater) {
    std::snprintf(Buf, sizeof(Buf), "m%llx %llu\n", (unsigned long long)Machine,
                  (unsigned long long)Seq);
    Text += Buf;
  }
  if (fs().writeFile(Tmp, Text, Error) != FsStatus::Ok) {
    fs().remove(Tmp);
    return false;
  }
  if (fs().rename(Tmp, Path, Error) != FsStatus::Ok) {
    fs().remove(Tmp);
    return false;
  }
  return true;
}

size_t ReportCollector::ackDrained() {
  size_t Acked = PendingAck.size();
  if (Config.RemoveDrained)
    for (const std::string &Path : PendingAck)
      fs().remove(Path);
  PendingAck.clear();
  return Acked;
}

size_t ReportCollector::recoverClaimedFiles() {
  static const char Suffix[] = ".ers.claimed";
  const size_t SuffixLen = sizeof(Suffix) - 1;
  size_t Recovered = 0;
  for (const std::string &Name : fs().listDir(Config.SpoolDir)) {
    if (Name.size() <= SuffixLen ||
        Name.compare(Name.size() - SuffixLen, SuffixLen, Suffix) != 0)
      continue;
    std::string Unclaimed = Name.substr(0, Name.size() - strlen(".claimed"));
    if (fs().rename(Config.SpoolDir + "/" + Name,
                    Config.SpoolDir + "/" + Unclaimed) == FsStatus::Ok)
      ++Recovered;
  }
  return Recovered;
}

//===----------------------------------------------------------------------===//
// Drain
//===----------------------------------------------------------------------===//

namespace {
/// Total order on reports: delivery identity first, then failure identity
/// as a tie-break so conflicting records under one (machine, seq) dedup
/// deterministically regardless of arrival order.
bool reportLess(const FleetFailureReport &A, const FleetFailureReport &B) {
  auto KeyA = std::tie(A.MachineId, A.Sequence, A.BugId, A.Failure.Kind,
                       A.Failure.InstrGlobalId, A.Failure.CallStack,
                       A.Failure.Tid, A.Failure.Message);
  auto KeyB = std::tie(B.MachineId, B.Sequence, B.BugId, B.Failure.Kind,
                       B.Failure.InstrGlobalId, B.Failure.CallStack,
                       B.Failure.Tid, B.Failure.Message);
  return KeyA < KeyB;
}

} // namespace

namespace {
/// Bridges the bespoke CollectorStats struct (kept for API compatibility —
/// er_cli and tests consume it directly) into the metrics registry. Each
/// drain mirrors its per-drain delta so registry counters stay monotonic
/// even across multiple collector instances in one process.
struct IngestMetrics {
  obs::Counter &FilesScanned, &FilesClaimed, &FilesQuarantined, &StaleTemps;
  obs::Counter &RecordsDecoded, &DuplicatesDropped, &BackpressureDropped;
  obs::Counter &BucketsShed, &Submitted, &ClaimRetries, &ClaimFailures;

  static IngestMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static IngestMetrics M{Reg.counter("ingest.files.scanned"),
                           Reg.counter("ingest.files.claimed"),
                           Reg.counter("ingest.files.quarantined"),
                           Reg.counter("ingest.files.stale_temps"),
                           Reg.counter("ingest.records.decoded"),
                           Reg.counter("ingest.records.duplicates"),
                           Reg.counter("ingest.records.shed"),
                           Reg.counter("ingest.buckets.shed"),
                           Reg.counter("ingest.records.submitted"),
                           Reg.counter("ingest.claim.retries"),
                           Reg.counter("ingest.claim.failures")};
    return M;
  }

  void recordDelta(const CollectorStats &Before, const CollectorStats &After) {
    FilesScanned.add(After.FilesScanned - Before.FilesScanned);
    FilesClaimed.add(After.FilesClaimed - Before.FilesClaimed);
    FilesQuarantined.add(After.FilesQuarantined - Before.FilesQuarantined);
    StaleTemps.add(After.StaleTemps - Before.StaleTemps);
    RecordsDecoded.add(After.RecordsDecoded - Before.RecordsDecoded);
    DuplicatesDropped.add(After.DuplicatesDropped - Before.DuplicatesDropped);
    BackpressureDropped.add(After.BackpressureDropped -
                            Before.BackpressureDropped);
    BucketsShed.add(After.BucketsShed - Before.BucketsShed);
    Submitted.add(After.Submitted - Before.Submitted);
    ClaimRetries.add(After.ClaimRetries - Before.ClaimRetries);
    ClaimFailures.add(After.ClaimFailures - Before.ClaimFailures);
  }
};
} // namespace

bool ReportCollector::drainInto(FleetScheduler &Sched, std::string *Error) {
  obs::ScopedSpan Span("ingest.drain", "ingest");
  const CollectorStats Before = Stats;
  if (!fs().createDirectories(quarantineDir())) {
    if (Error)
      *Error = "cannot prepare '" + quarantineDir() + "'";
    return false;
  }
  if (!loadHighWater(Error))
    return false;

  uint64_t Temps = 0;
  std::vector<std::string> Names =
      listSpoolFiles(Config.SpoolDir, &Temps, Config.Fs);
  Stats.StaleTemps += Temps;
  Stats.FilesScanned += Names.size();

  auto NowNs = [this] {
    return (Config.Clock ? *Config.Clock : ClockSource::real()).nowNs();
  };

  std::vector<FleetFailureReport> Batch;
  for (const std::string &Name : Names) {
    ClaimOutcome Claim = claimSpoolFileWithRetry(Config.SpoolDir, Name,
                                                 Config.ClaimRetries,
                                                 Config.Fs);
    Stats.ClaimRetries += Claim.Retries;
    if (Claim.ClaimedPath.empty()) {
      // Either another collector got it (benign), or every attempt hit a
      // transient fault — then the file is still published and the next
      // drain retries it; it is never silently dropped.
      if (Claim.TransientFailure)
        ++Stats.ClaimFailures;
      continue;
    }
    const std::string &Claimed = Claim.ClaimedPath;
    ++Stats.FilesClaimed;

    // The file's lifecycle trace (if any) rides in a sidecar next to the
    // published name; consume it with the claim so a redelivered file is
    // simply untraced rather than double-stamped.
    obs::TraceContext FileTrace;
    std::string TraceParent;
    if (readSpoolTraceSidecar(Config.SpoolDir, Name, TraceParent,
                              Config.Fs)) {
      obs::parseTraceparent(TraceParent, FileTrace);
      removeSpoolTraceSidecar(Config.SpoolDir, Name, Config.Fs);
    }

    std::vector<uint8_t> Bytes;
    bool ReadOk = fs().readFile(Claimed, Bytes) == FsStatus::Ok;

    std::vector<FleetFailureReport> FileReports;
    DecodeStatus S =
        ReadOk ? decodeSpoolFile(Bytes.data(), Bytes.size(), FileReports)
               : DecodeStatus::Truncated;
    if (S != DecodeStatus::Ok) {
      // Quarantine under the original name; never let a suspect file
      // take the drain down or count partially.
      if (fs().rename(Claimed, quarantineDir() + "/" + Name) != FsStatus::Ok)
        fs().remove(Claimed); // Worst case: drop, still no crash.
      ++Stats.FilesQuarantined;
      continue;
    }

    Stats.RecordsDecoded += FileReports.size();
    if (FileTrace.valid()) {
      // Every record in the file shares the frame's trace: the sidecar
      // travels per file, matching how the frame was uploaded.
      for (FleetFailureReport &R : FileReports) {
        R.TraceHi = FileTrace.Hi;
        R.TraceLo = FileTrace.Lo;
      }
      if (Config.Ledger)
        Config.Ledger->note(FileTrace.traceHex(), obs::LifecycleStage::Drain,
                            NowNs());
    }
    for (FleetFailureReport &R : FileReports)
      Batch.push_back(std::move(R));
    if (Config.DeferRemoval)
      PendingAck.push_back(Claimed);
    else if (Config.RemoveDrained)
      fs().remove(Claimed);
  }

  // Normalize: (machine, sequence) order makes everything downstream —
  // dedup, shedding, submission — independent of file arrival order.
  std::sort(Batch.begin(), Batch.end(), reportLess);

  std::vector<FleetFailureReport> Kept;
  Kept.reserve(Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I) {
    const FleetFailureReport &R = Batch[I];
    auto HW = HighWater.find(R.MachineId);
    bool Consumed = HW != HighWater.end() && R.Sequence <= HW->second &&
                    R.Sequence != 0;
    bool InBatchDup = I > 0 && Batch[I - 1].MachineId == R.MachineId &&
                      Batch[I - 1].Sequence == R.Sequence && R.Sequence != 0;
    if (Consumed || InBatchDup) {
      ++Stats.DuplicatesDropped;
      continue;
    }
    Kept.push_back(R);
  }

  // The high-water mark advances over everything this drain claimed —
  // including reports shed below — because their files are gone; a
  // redrain must not resurrect them.
  for (const FleetFailureReport &R : Batch)
    if (R.Sequence != 0)
      HighWater[R.MachineId] =
          std::max(HighWater[R.MachineId], R.Sequence);

  // Backpressure: shed from the coldest failure buckets first, so a
  // flood of some one-off failure cannot crowd out the hot buckets the
  // triage queue exists to prioritize.
  if (Config.MaxPending && Kept.size() > Config.MaxPending) {
    struct Bucket {
      uint64_t Count = 0;
      uint64_t Digest = 0;
      std::string BugId;
      std::vector<size_t> Indices; ///< Into Kept, ascending.
    };
    std::map<std::pair<uint64_t, std::string>, Bucket> Buckets;
    for (size_t I = 0; I < Kept.size(); ++I) {
      FailureSignature Sig = FailureSignature::of(Kept[I].Failure);
      Bucket &B = Buckets[{Sig.Digest, Kept[I].BugId}];
      B.Digest = Sig.Digest;
      B.BugId = Kept[I].BugId;
      ++B.Count;
      B.Indices.push_back(I);
    }
    std::vector<const Bucket *> Order;
    Order.reserve(Buckets.size());
    for (const auto &[Key, B] : Buckets)
      Order.push_back(&B);
    std::sort(Order.begin(), Order.end(),
              [](const Bucket *A, const Bucket *B) {
                if (A->Count != B->Count)
                  return A->Count < B->Count; // Coldest first.
                if (A->Digest != B->Digest)
                  return A->Digest < B->Digest;
                return A->BugId < B->BugId;
              });
    size_t Excess = Kept.size() - Config.MaxPending;
    std::vector<bool> Drop(Kept.size(), false);
    for (const Bucket *B : Order) {
      if (!Excess)
        break;
      // Shed the bucket's latest deliveries first.
      bool Shed = false;
      for (auto It = B->Indices.rbegin();
           It != B->Indices.rend() && Excess; ++It) {
        Drop[*It] = true;
        Shed = true;
        --Excess;
        ++Stats.BackpressureDropped;
      }
      if (Shed)
        ++Stats.BucketsShed;
    }
    std::vector<FleetFailureReport> Surviving;
    Surviving.reserve(Config.MaxPending);
    for (size_t I = 0; I < Kept.size(); ++I)
      if (!Drop[I])
        Surviving.push_back(std::move(Kept[I]));
    Kept = std::move(Surviving);
  }

  for (const FleetFailureReport &R : Kept) {
    // Triage stamp: the moment a traced report is deduplicated, shed-
    // survived, and actually handed to the scheduler's bucket.
    if (Config.Ledger && (R.TraceHi | R.TraceLo) != 0)
      Config.Ledger->noteTriage(
          obs::TraceContext{R.TraceHi, R.TraceLo, 0}.traceHex(),
          FailureSignature::of(R.Failure).hex(), R.BugId, NowNs());
    Sched.submit(R);
  }
  Stats.Submitted += Kept.size();

  IngestMetrics::get().recordDelta(Before, Stats);
  Span.arg("files", Stats.FilesScanned - Before.FilesScanned);
  Span.arg("submitted", Stats.Submitted - Before.Submitted);
  Span.arg("quarantined", Stats.FilesQuarantined - Before.FilesQuarantined);
  return Config.PersistHighWater ? saveHighWater(Error) : true;
}
