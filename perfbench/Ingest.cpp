//===- Ingest.cpp - The ingest-spool workload -----------------------------===//
//
// One thread publishes 4 machines' synthetic failure reports through their
// SpoolWriters, a file from each in turn; one published file is redelivered
// and one bit-flipped; then one ReportCollector::drainInto drains the spool
// into a FleetScheduler. Codec, CRC, claim, dedup and triage submit do all
// the work; no reconstruction runs. Writes are timed beside the drain, so a
// drain-side gain that slows publishing shows.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ingest/ReportCodec.h"
#include "ingest/ReportCollector.h"
#include "ingest/ReportSpool.h"
#include "support/Crc.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sys/vfs.h>
#include <unistd.h>
#include <utility>

using namespace er;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// One writer thread, not one per machine: on a shared 4-core host,
/// concurrent writers spent 2.5x the CPU time on the same work in some
/// runs and not in others. Few, large files, because the per-file cost of
/// create + write + rename varied 4x from minute to minute there while
/// the per-byte cost did not.
constexpr unsigned Machines = 4;
constexpr uint64_t RecordsPerMachine = 25'000;
constexpr uint64_t RecordsPerFile = 2500;
/// Distinct reports each machine cycles through (synthesized in set-up).
constexpr size_t PoolSize = 4096;

const char *const Bugs[] = {"Bash-108885", "SQLite-4e8e485", "Pbzip2",
                            "PHP-74194"};

using Pools = std::vector<std::vector<FleetFailureReport>>;

/// Set-up: the seeded report stream, a pool per machine.
Pools synthesize(uint64_t Seed) {
  Pools P(Machines);
  for (unsigned W = 0; W < Machines; ++W) {
    Rng R = Rng(Seed).split(0x1a9e57).split(W + 1);
    for (size_t I = 0; I < PoolSize; ++I) {
      FleetFailureReport Rep;
      Rep.BugId = Bugs[R.nextBounded(4)];
      Rep.Failure.Kind = static_cast<FailureKind>(1 + R.nextBounded(3));
      Rep.Failure.InstrGlobalId = 100 + R.nextBounded(16);
      Rep.Failure.CallStack = {static_cast<unsigned>(1 + R.nextBounded(8)),
                               W + 1};
      Rep.Failure.Tid = static_cast<uint32_t>(R.nextBounded(4));
      Rep.Failure.Message = "ingest";
      P[W].push_back(std::move(Rep));
    }
  }
  return P;
}

/// Publishes every machine's records, a file from each machine in turn;
/// returns Σ flush seconds.
double writeSpool(const Pools &P, const std::string &Spool) {
  std::vector<SpoolWriter> Writers;
  Writers.reserve(Machines);
  for (unsigned W = 0; W < Machines; ++W)
    Writers.emplace_back(Spool, W + 1);
  double FlushSeconds = 0;
  for (uint64_t First = 0; First < RecordsPerMachine;
       First += RecordsPerFile) {
    uint64_t End = std::min(First + RecordsPerFile, RecordsPerMachine);
    for (unsigned W = 0; W < Machines; ++W) {
      for (uint64_t I = First; I < End; ++I)
        Writers[W].append(P[W][I % PoolSize]);
      Scope S("ingest.flush", fmt("m%u", W + 1));
      auto T0 = Clock::now();
      Writers[W].flush();
      FlushSeconds += secondsSince(T0);
    }
  }
  return FlushSeconds;
}

/// Redelivers the first published file and bit-flips the second.
void injectFaults(const std::string &Spool) {
  std::vector<std::string> Names = listSpoolFiles(Spool);
  fs::copy_file(fs::path(Spool) / Names[0],
                fs::path(Spool) / "redelivered.ers");
  fs::path Flip = fs::path(Spool) / Names[1];
  std::string Bytes;
  {
    std::ifstream IS(Flip, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(IS), {});
  }
  Bytes[Bytes.size() / 2] ^= 0x10;
  std::ofstream(Flip, std::ios::binary | std::ios::trunc)
      .write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Bucket occurrence counts: identical on every pass of one seed.
std::vector<std::string> bucketLines(const FleetScheduler &Sched,
                                     uint64_t &Occurrences) {
  std::vector<std::string> Lines;
  for (const Campaign &C : Sched.getCampaigns()) {
    Occurrences += C.Occurrences;
    Lines.push_back(C.Sig.hex() + "/" + C.BugId + " " +
                    std::to_string(C.Occurrences));
  }
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

const char *fsName(const std::string &Dir) {
  struct statfs S {};
  if (statfs(Dir.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0xEF53: return "ext2/3/4";
  case 0x01021994: return "tmpfs";
  case 0x794c7630: return "overlayfs";
  case 0x58465342: return "xfs";
  case 0x9123683E: return "btrfs";
  case 0x6969: return "nfs";
  default: return "other";
  }
}

struct StageTimes {
  double Claim = 0, Decode = 0, Crc = 0, Submit = 0;
  uint64_t CrcBytes = 0;
};

/// The drain's stages, called one by one on a copy of the spool: claim,
/// header + record decode, CRC, triage submit (no dedup).
StageTimes timeStages(const std::string &Copy) {
  StageTimes T;
  FleetScheduler Sched((FleetConfig()));
  for (const std::string &Name : listSpoolFiles(Copy)) {
    std::string Claimed;
    {
      Scope S("ingest.claim", Name);
      auto T0 = Clock::now();
      Claimed = claimSpoolFile(Copy, Name);
      T.Claim += secondsSince(T0);
    }
    if (Claimed.empty())
      continue;
    std::vector<uint8_t> Bytes;
    {
      std::ifstream IS(Claimed, std::ios::binary);
      Bytes.assign(std::istreambuf_iterator<char>(IS), {});
    }
    {
      Scope S("ingest.crc", Name);
      auto T0 = Clock::now();
      volatile uint32_t Sink = crc32(Bytes.data(), Bytes.size());
      (void)Sink;
      T.Crc += secondsSince(T0);
      T.CrcBytes += Bytes.size();
    }
    std::vector<FleetFailureReport> Reports;
    {
      Scope S("ingest.decode", Name);
      auto T0 = Clock::now();
      size_t Off = 0;
      uint32_t Version = 0;
      if (decodeSpoolHeader(Bytes.data(), Bytes.size(), Off, Version) ==
          DecodeStatus::Ok) {
        FleetFailureReport R;
        while (Off < Bytes.size() &&
               decodeReport(Bytes.data(), Bytes.size(), Off, R) ==
                   DecodeStatus::Ok)
          Reports.push_back(R);
      }
      T.Decode += secondsSince(T0);
    }
    Scope S("ingest.submit", Name);
    auto T0 = Clock::now();
    for (const FleetFailureReport &R : Reports)
      Sched.submit(R);
    T.Submit += secondsSince(T0);
  }
  return T;
}

} // namespace

Result runIngest(const Options &Opt) {
  Result Res;
  std::vector<std::string> &Out = Res.Report;
  const std::string Spool = Opt.WorkDir + "/spool";
  const std::string Copy = Opt.WorkDir + "/spool-copy";
  const uint64_t Written = Machines * RecordsPerMachine;
  // The bit-flipped file's records are lost to quarantine; the redelivered
  // copy's are dropped as duplicates.
  const uint64_t ExpectSubmitted = Written - RecordsPerFile;
  const uint64_t ExpectDups = RecordsPerFile;

  Pools P;
  std::vector<double> SetupS;
  auto Setup = [&] { P = synthesize(Opt.Seed); };
  timeRounds(5, 0.2, SetupS, Setup);

  std::vector<double> Walls, WriteS, DrainS;
  std::vector<std::string> FirstLines;
  CollectorStats LastStats;
  auto Start = Clock::now();
  auto Pass = [&](bool Traced, double &Write, double &Drain,
                  double &FlushSum, CollectorStats &Stats) {
    fs::remove_all(Spool);
    fs::remove_all(Copy);
    fs::create_directories(Spool);
    // Start every pass with no dirty pages left by the previous one;
    // otherwise writeback piles up and each pass writes slower than the
    // last.
    ::sync();
    auto T0 = Clock::now();
    {
      Scope S("ingest.write");
      FlushSum = writeSpool(P, Spool);
    }
    Write = secondsSince(T0);
    injectFaults(Spool);
    if (Traced)
      fs::copy(Spool, Copy);

    FleetScheduler Sched((FleetConfig()));
    ReportCollector Collector({.SpoolDir = Spool});
    std::string Err;
    auto T1 = Clock::now();
    bool Ok;
    {
      Scope S("ingest.drain");
      Ok = Collector.drainInto(Sched, &Err);
    }
    Drain = secondsSince(T1);
    Stats = Collector.getStats();

    uint64_t Occurrences = 0;
    std::vector<std::string> Lines = bucketLines(Sched, Occurrences);
    auto Diff = [](uint64_t A, uint64_t B) { return A > B ? A - B : B - A; };
    // One lost or double-counted record shows in several of these counts;
    // it is one failure.
    uint64_t Failed = std::max({Diff(Stats.Submitted, ExpectSubmitted),
                                Diff(Occurrences, ExpectSubmitted),
                                Diff(Stats.DuplicatesDropped, ExpectDups)}) +
                      (Stats.FilesQuarantined == 1 ? 0 : RecordsPerFile);
    if (!Ok) {
      Out.push_back("drain failed: " + Err);
      Failed = Written;
    }
    if (FirstLines.empty())
      FirstLines = Lines;
    else if (diffLines(FirstLines, Lines, "bucket counts", Out))
      Failed = Written;
    Res.Attempted += Written;
    Res.Failed += std::min(Failed, Written);
  };

  // The first pass warms the heap and page cache and is not timed.
  bool Warm = false;
  do {
    double W, D, FlushSum;
    timeRounds(1, 0, SetupS, Setup);
    Pass(false, W, D, FlushSum, LastStats);
    if (!std::exchange(Warm, true))
      continue;
    WriteS.push_back(W);
    DrainS.push_back(D);
    Walls.push_back(W + D);
  } while (secondsSince(Start) < Opt.Seconds);
  Res.WallSeconds = median(Walls);
  Res.SetupSeconds = median(SetupS);
  double WriteRate = Written / median(WriteS);
  double DrainRate = Written / median(DrainS);

  Out.push_back(fmt("spool: %s on %s; 1 writer thread, %u machines x %llu "
                    "records, %llu records/file; 1 bit-flipped + 1 "
                    "redelivered file",
                    Spool.c_str(), fsName(Spool), Machines,
                    (unsigned long long)RecordsPerMachine,
                    (unsigned long long)RecordsPerFile));
  Out.push_back(fmt("setup_s = %.6f s (median of %zu set-up rounds, before "
                    "and between the passes)",
                    Res.SetupSeconds, SetupS.size()));
  Out.push_back(fmt("write_rec_per_s = %.0f rec/s (median write %.4f s), "
                    "drain_rec_per_s = %.0f rec/s (median drain %.4f s), "
                    "%zu timed pass(es)",
                    WriteRate, median(WriteS), DrainRate, median(DrainS),
                    Walls.size()));
  std::string PerPass = "passes (write + drain s):";
  for (size_t I = 0; I < Walls.size(); ++I)
    PerPass += fmt(" %.3f+%.3f", WriteS[I], DrainS[I]);
  Out.push_back(PerPass);
  Out.push_back(fmt("last drain: submitted %llu (want %llu), duplicates %llu "
                    "(want %llu), quarantined files %llu (want 1)",
                    (unsigned long long)LastStats.Submitted,
                    (unsigned long long)ExpectSubmitted,
                    (unsigned long long)LastStats.DuplicatesDropped,
                    (unsigned long long)ExpectDups,
                    (unsigned long long)LastStats.FilesQuarantined));

  if (Opt.Trace) {
    MetricMap &L = Res.Layers;
    tracer().setEnabled(true);
    double W, D, FlushSum;
    CollectorStats Stats;
    Pass(true, W, D, FlushSum, Stats);
    double TraceCost = spanSeconds();
    StageTimes T = timeStages(Copy);
    L["write_rec_per_s"] = WriteRate;
    L["drain_rec_per_s"] = DrainRate;
    L["ingest.flush_s"] = FlushSum;
    L["ingest.drain_s"] = D;
    L["ingest.claim_s"] = T.Claim;
    L["ingest.decode_s"] = T.Decode;
    L["ingest.crc_mb_per_s"] = T.Crc > 0 ? T.CrcBytes / 1e6 / T.Crc : 0;
    L["ingest.submit_s"] = T.Submit;
    L["ingest.records.duplicates"] = Stats.DuplicatesDropped;
    L["ingest.files.quarantined"] = Stats.FilesQuarantined;
    L["ingest.claim.retries"] = Stats.ClaimRetries;
    L["obs.trace_overhead_frac"] = TraceCost / (W + D);
  }
  fs::remove_all(Spool);
  fs::remove_all(Copy);
  return Res;
}

} // namespace perfbench
