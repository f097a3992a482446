//===- IngestTest.cpp - Report ingestion: codec, spool, collector ----------===//
//
// Covers src/ingest/ (docs/INGEST.md):
//  - ReportCodec: encode/decode round trip; typed rejection of truncated,
//    corrupted, and unknown-version bytes.
//  - ReportSpool: atomic publish, claim-by-rename, stale-temp skipping.
//  - ReportCollector failure modes (the six from the issue): truncated
//    record, flipped CRC byte, unknown version, duplicate (machine, seq)
//    delivery, empty spool, writer crash leaving a stale `.tmp` — all
//    quarantined/dropped with stats, never a crash.
//  - The acceptance bar: draining a multi-writer spool yields a
//    FleetReport byte-identical to the in-process harvest of the same
//    machines, regardless of file arrival order.
//
//===----------------------------------------------------------------------===//

#include "ingest/ReportCodec.h"
#include "ingest/ReportCollector.h"
#include "ingest/ReportSpool.h"

#include "fleet/FleetScheduler.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <string>
#include <vector>

using namespace er;
namespace fs = std::filesystem;

namespace {

/// Fast-reconstructing workloads (same set FleetTest uses).
const char *FastCorpus[] = {"Bash-108885", "SQLite-4e8e485",
                            "Matrixssl-2014-1569", "Memcached-2019-11596",
                            "PHP-2012-2386"};

constexpr uint64_t RootSeed = 20260807;

/// Fresh, empty spool directory unique to the calling test.
std::string freshSpool(const std::string &Name) {
  fs::path Dir = fs::path(testing::TempDir()) / ("er_ingest_" + Name);
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir.string();
}

FleetFailureReport makeReport(const std::string &BugId, FailureKind Kind,
                              unsigned Instr, std::vector<unsigned> Stack,
                              uint32_t Tid = 0, std::string Msg = "") {
  FleetFailureReport R;
  R.BugId = BugId;
  R.Failure.Kind = Kind;
  R.Failure.InstrGlobalId = Instr;
  R.Failure.CallStack = std::move(Stack);
  R.Failure.Tid = Tid;
  R.Failure.Message = std::move(Msg);
  return R;
}

/// Runs `er_cli report`'s inner loop: machine \p MachineId spools its
/// failures from the fast corpus, one published file per workload.
void spoolMachine(const std::string &SpoolDir, uint64_t MachineId,
                  unsigned Runs = 80) {
  SpoolWriter Writer(SpoolDir, MachineId);
  for (const char *Id : FastCorpus) {
    simulateMachine(*findBug(Id), Runs, MachineId, RootSeed, VmConfig(),
                    [&](const FleetFailureReport &R) { Writer.append(R); });
    std::string Err;
    ASSERT_TRUE(Writer.flush(&Err)) << Err;
  }
}

/// Serialized scheduler state — the byte-comparison proxy for "the same
/// FleetReport": campaign order, occurrence counts, seeds, reports, test
/// cases, and recording sets all land in the state file. The one
/// wall-clock field (`symexseconds`) is scrubbed; everything else is
/// deterministic and compared byte-for-byte.
std::string stateBytes(FleetScheduler &Sched) {
  std::string Path = (fs::path(testing::TempDir()) /
                      ("er_ingest_state_cmp." + std::to_string(::getpid()) +
                       ".txt"))
                         .string();
  std::string Err;
  EXPECT_TRUE(Sched.saveState(Path, &Err)) << Err;
  std::ifstream IS(Path, std::ios::binary);
  std::string S, Line;
  while (std::getline(IS, Line)) {
    if (Line.rfind("symexseconds ", 0) == 0)
      Line = "symexseconds <scrubbed>";
    S += Line;
    S += '\n';
  }
  std::remove(Path.c_str());
  return S;
}

std::vector<uint8_t> readFile(const fs::path &P) {
  std::ifstream IS(P, std::ios::binary);
  EXPECT_TRUE(IS.good()) << P;
  return {std::istreambuf_iterator<char>(IS), std::istreambuf_iterator<char>()};
}

void writeFile(const fs::path &P, const std::vector<uint8_t> &Bytes) {
  std::ofstream OS(P, std::ios::binary | std::ios::trunc);
  OS.write(reinterpret_cast<const char *>(Bytes.data()),
           static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(OS.good()) << P;
}

/// The single published spool file after hand-crafted appends.
fs::path onlySpoolFile(const std::string &SpoolDir) {
  std::vector<std::string> Names = listSpoolFiles(SpoolDir);
  EXPECT_EQ(Names.size(), 1u);
  return fs::path(SpoolDir) / Names.front();
}

/// Lower-case hex of \p Bytes, for golden-byte comparisons.
std::string toHex(const std::vector<uint8_t> &Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string S;
  for (uint8_t B : Bytes) {
    S += Digits[B >> 4];
    S += Digits[B & 15];
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Wire format
//===----------------------------------------------------------------------===//

TEST(ReportCodec, RoundTripsReports) {
  std::vector<FleetFailureReport> In = {
      makeReport("PHP-2012-2386", FailureKind::OutOfBounds, 42, {7, 9}, 3,
                 "index 9 past end"),
      makeReport("", FailureKind::Abort, 0, {}, 0, ""),
      makeReport("Pbzip2", FailureKind::UseAfterFree, 1u << 30,
                 {1, 2, 3, 4, 5}, 0xFFFFFFFFu,
                 std::string("embedded\0byte", 13)),
  };
  In[0].MachineId = 12345;
  In[0].Sequence = 7;
  In[2].MachineId = ~0ULL;
  In[2].Sequence = ~0ULL;

  std::vector<uint8_t> Wire;
  encodeSpoolHeader(Wire);
  for (const auto &R : In)
    encodeReport(R, Wire);

  size_t Offset = 0;
  uint32_t Version = 0;
  ASSERT_EQ(decodeSpoolHeader(Wire.data(), Wire.size(), Offset, Version),
            DecodeStatus::Ok);
  EXPECT_EQ(Version, SpoolWireVersion);
  for (const auto &Want : In) {
    FleetFailureReport Got;
    ASSERT_EQ(decodeReport(Wire.data(), Wire.size(), Offset, Got),
              DecodeStatus::Ok);
    EXPECT_EQ(Got.BugId, Want.BugId);
    EXPECT_EQ(Got.MachineId, Want.MachineId);
    EXPECT_EQ(Got.Sequence, Want.Sequence);
    EXPECT_EQ(Got.Failure.Kind, Want.Failure.Kind);
    EXPECT_EQ(Got.Failure.InstrGlobalId, Want.Failure.InstrGlobalId);
    EXPECT_EQ(Got.Failure.CallStack, Want.Failure.CallStack);
    EXPECT_EQ(Got.Failure.Tid, Want.Failure.Tid);
    EXPECT_EQ(Got.Failure.Message, Want.Failure.Message);
  }
  EXPECT_EQ(Offset, Wire.size());
}

TEST(ReportCodec, RejectsDamagedBytes) {
  std::vector<uint8_t> Wire;
  encodeSpoolHeader(Wire);
  size_t HeaderSize = Wire.size();
  encodeReport(makeReport("b", FailureKind::NullDeref, 9, {1, 2}), Wire);

  size_t Offset = HeaderSize;
  FleetFailureReport Out;

  // Truncation at any point inside the record.
  for (size_t Cut = HeaderSize; Cut < Wire.size(); ++Cut) {
    Offset = HeaderSize;
    EXPECT_EQ(decodeReport(Wire.data(), Cut, Offset, Out),
              DecodeStatus::Truncated);
  }

  // Any flipped payload byte fails the CRC.
  for (size_t Pos = HeaderSize + 8; Pos < Wire.size(); ++Pos) {
    std::vector<uint8_t> Bad = Wire;
    Bad[Pos] ^= 0x40;
    Offset = HeaderSize;
    EXPECT_EQ(decodeReport(Bad.data(), Bad.size(), Offset, Out),
              DecodeStatus::BadChecksum);
  }

  // Header damage: magic and version are checked separately.
  std::vector<uint8_t> BadMagic = Wire;
  BadMagic[0] ^= 1;
  Offset = 0;
  uint32_t Version = 0;
  EXPECT_EQ(decodeSpoolHeader(BadMagic.data(), BadMagic.size(), Offset,
                              Version),
            DecodeStatus::BadMagic);
  std::vector<uint8_t> BadVersion = Wire;
  BadVersion[8] = 99;
  Offset = 0;
  EXPECT_EQ(decodeSpoolHeader(BadVersion.data(), BadVersion.size(), Offset,
                              Version),
            DecodeStatus::BadVersion);
  EXPECT_EQ(Version, 99u);
}

// Pins the exact spool bytes (docs/INGEST.md): header, then two records,
// one with an empty call stack and a non-ASCII (UTF-8) message. Any codec
// change that moves a byte breaks every spool already on disk.
TEST(ReportCodec, GoldenBytes) {
  FleetFailureReport A = makeReport("PHP-2012-2386", FailureKind::OutOfBounds,
                                    42, {7, 300}, 3, "idx 9");
  A.MachineId = 0x0102030405060708ULL;
  A.Sequence = 42;
  FleetFailureReport B = makeReport("Bash-108885", FailureKind::Abort, 1u << 20,
                                    {}, 0, "na\xc3\xafve \xe2\x9c\x93");
  B.MachineId = 9;
  B.Sequence = ~0ULL;

  std::vector<uint8_t> Wire;
  encodeSpoolHeader(Wire);
  encodeReport(A, Wire);
  encodeReport(B, Wire);
  EXPECT_EQ(toHex(Wire),
            "455253504f4f4c0a010000003f0000002e5759c408070605040302012a000000"
            "000000000d0000005048502d323031322d32333836032a000000030000000200"
            "0000070000002c0100000500000069647820393a000000f43c2d990900000000"
            "000000ffffffffffffffff0b000000426173682d313038383835010000100000"
            "000000000000000a0000006e61c3af766520e29c93");
}

//===----------------------------------------------------------------------===//
// Acceptance bar: spool drain == in-process harvest
//===----------------------------------------------------------------------===//

TEST(Ingest, MultiWriterDrainMatchesInProcessHarvestByteForByte) {
  std::string Spool = freshSpool("harvest_equiv");
  for (uint64_t Machine = 0; Machine < 3; ++Machine)
    spoolMachine(Spool, Machine);

  FleetConfig FC;
  FC.RootSeed = RootSeed;
  FleetScheduler FromSpool(FC);
  ReportCollector Collector({.SpoolDir = Spool});
  std::string Err;
  ASSERT_TRUE(Collector.drainInto(FromSpool, &Err)) << Err;
  EXPECT_EQ(Collector.getStats().FilesQuarantined, 0u);
  EXPECT_EQ(Collector.getStats().DuplicatesDropped, 0u);
  ASSERT_GT(Collector.getStats().Submitted, 0u);
  FromSpool.run();

  FleetScheduler InProcess(FC);
  for (uint64_t Machine = 0; Machine < 3; ++Machine)
    for (const char *Id : FastCorpus)
      InProcess.harvest(*findBug(Id), 80, Machine);
  InProcess.run();

  EXPECT_EQ(stateBytes(FromSpool), stateBytes(InProcess));
}

TEST(Ingest, DrainIsIndependentOfFileArrivalOrder) {
  std::string SpoolA = freshSpool("arrival_a");
  for (uint64_t Machine = 0; Machine < 2; ++Machine)
    spoolMachine(SpoolA, Machine);

  // The same files delivered under names that reverse the scan order —
  // what out-of-order transports or clock-skewed machines produce.
  std::string SpoolB = freshSpool("arrival_b");
  std::vector<std::string> Names = listSpoolFiles(SpoolA);
  ASSERT_GT(Names.size(), 2u);
  for (size_t I = 0; I < Names.size(); ++I) {
    char Prefix[32];
    std::snprintf(Prefix, sizeof(Prefix), "zz%03u-",
                  static_cast<unsigned>(Names.size() - I));
    fs::copy_file(fs::path(SpoolA) / Names[I],
                  fs::path(SpoolB) / (Prefix + Names[I]));
  }

  FleetConfig FC;
  FC.RootSeed = RootSeed;
  FleetScheduler SchedA(FC), SchedB(FC);
  std::string Err;
  ReportCollector CA({.SpoolDir = SpoolA}), CB({.SpoolDir = SpoolB});
  ASSERT_TRUE(CA.drainInto(SchedA, &Err)) << Err;
  ASSERT_TRUE(CB.drainInto(SchedB, &Err)) << Err;
  EXPECT_EQ(CA.getStats().Submitted, CB.getStats().Submitted);
  SchedA.run();
  SchedB.run();
  EXPECT_EQ(stateBytes(SchedA), stateBytes(SchedB));
}

//===----------------------------------------------------------------------===//
// Failure modes
//===----------------------------------------------------------------------===//

/// Publishes one file with three hand-crafted reports and returns its path.
fs::path publishCraftedFile(const std::string &Spool) {
  SpoolWriter Writer(Spool, /*MachineId=*/5);
  Writer.append(makeReport("bug-a", FailureKind::NullDeref, 10, {1}));
  Writer.append(makeReport("bug-a", FailureKind::NullDeref, 10, {1}));
  Writer.append(makeReport("bug-b", FailureKind::OutOfBounds, 20, {2, 3}));
  std::string Err;
  EXPECT_TRUE(Writer.flush(&Err)) << Err;
  return onlySpoolFile(Spool);
}

/// Drains \p Spool and expects the single present file to be quarantined
/// with nothing submitted.
void expectQuarantined(const std::string &Spool, const std::string &Name) {
  FleetScheduler Sched((FleetConfig()));
  ReportCollector Collector({.SpoolDir = Spool});
  std::string Err;
  ASSERT_TRUE(Collector.drainInto(Sched, &Err)) << Err;
  const CollectorStats &S = Collector.getStats();
  EXPECT_EQ(S.FilesQuarantined, 1u);
  EXPECT_EQ(S.Submitted, 0u);
  EXPECT_EQ(S.RecordsDecoded, 0u);
  EXPECT_EQ(Sched.numCampaigns(), 0u);
  EXPECT_TRUE(fs::exists(fs::path(Spool) / "quarantine" / Name))
      << "quarantined file not preserved under its original name";
  EXPECT_TRUE(listSpoolFiles(Spool).empty());
}

TEST(Ingest, TruncatedRecordQuarantinesFile) {
  std::string Spool = freshSpool("truncated");
  fs::path File = publishCraftedFile(Spool);
  std::vector<uint8_t> Bytes = readFile(File);
  Bytes.resize(Bytes.size() - 5); // Torn mid-record (e.g. a torn write).
  writeFile(File, Bytes);
  expectQuarantined(Spool, File.filename().string());
}

TEST(Ingest, FlippedCrcByteQuarantinesFile) {
  std::string Spool = freshSpool("crc");
  fs::path File = publishCraftedFile(Spool);
  std::vector<uint8_t> Bytes = readFile(File);
  Bytes[Bytes.size() - 3] ^= 0x01; // One bit of payload rot.
  writeFile(File, Bytes);
  expectQuarantined(Spool, File.filename().string());
}

TEST(Ingest, UnknownVersionQuarantinesFile) {
  std::string Spool = freshSpool("version");
  fs::path File = publishCraftedFile(Spool);
  std::vector<uint8_t> Bytes = readFile(File);
  Bytes[8] = 0x7F; // Version field of the header.
  writeFile(File, Bytes);
  expectQuarantined(Spool, File.filename().string());
}

TEST(Ingest, DuplicateDeliveryIsIdempotent) {
  std::string Spool = freshSpool("dup");
  fs::path File = publishCraftedFile(Spool);
  // The transport redelivers the same file under a second name.
  fs::copy_file(File, fs::path(Spool) / "redelivered.ers");

  FleetScheduler Sched((FleetConfig()));
  ReportCollector Collector({.SpoolDir = Spool});
  std::string Err;
  ASSERT_TRUE(Collector.drainInto(Sched, &Err)) << Err;
  EXPECT_EQ(Collector.getStats().RecordsDecoded, 6u);
  EXPECT_EQ(Collector.getStats().DuplicatesDropped, 3u);
  EXPECT_EQ(Collector.getStats().Submitted, 3u);

  // Occurrence counts must match a single clean delivery.
  ASSERT_EQ(Sched.numCampaigns(), 2u);
  EXPECT_EQ(Sched.getCampaigns()[0].Occurrences, 2u);
  EXPECT_EQ(Sched.getCampaigns()[1].Occurrences, 1u);

  // Redelivery in a *later* drain is caught by the persisted high-water
  // mark (a fresh collector instance, as after a collector restart).
  publishCraftedFile(Spool);
  ReportCollector Later({.SpoolDir = Spool});
  ASSERT_TRUE(Later.drainInto(Sched, &Err)) << Err;
  EXPECT_EQ(Later.getStats().DuplicatesDropped, 3u);
  EXPECT_EQ(Later.getStats().Submitted, 0u);
  EXPECT_EQ(Sched.getCampaigns()[0].Occurrences, 2u);
}

TEST(Ingest, EmptySpoolDrainsToNothing) {
  // An existing-but-empty spool, and a spool directory that does not
  // exist yet, both drain cleanly to zero.
  for (bool Precreate : {true, false}) {
    std::string Spool = freshSpool("empty");
    if (!Precreate)
      fs::remove_all(Spool);
    FleetScheduler Sched((FleetConfig()));
    ReportCollector Collector({.SpoolDir = Spool});
    std::string Err;
    ASSERT_TRUE(Collector.drainInto(Sched, &Err)) << Err;
    const CollectorStats &S = Collector.getStats();
    EXPECT_EQ(S.FilesScanned, 0u);
    EXPECT_EQ(S.Submitted, 0u);
    EXPECT_EQ(Sched.numCampaigns(), 0u);
  }
}

TEST(Ingest, StaleTempFromCrashedWriterIsSkipped) {
  std::string Spool = freshSpool("staletmp");
  fs::path Published = publishCraftedFile(Spool);
  // A writer died mid-publish: its temp file holds a torn prefix.
  std::vector<uint8_t> Torn = readFile(Published);
  Torn.resize(Torn.size() / 2);
  writeFile(fs::path(Spool) / "m0000000000000009-0000000000000001.tmp", Torn);

  FleetScheduler Sched((FleetConfig()));
  ReportCollector Collector({.SpoolDir = Spool});
  std::string Err;
  ASSERT_TRUE(Collector.drainInto(Sched, &Err)) << Err;
  const CollectorStats &S = Collector.getStats();
  EXPECT_EQ(S.StaleTemps, 1u);
  EXPECT_EQ(S.FilesScanned, 1u);
  EXPECT_EQ(S.FilesQuarantined, 0u);
  EXPECT_EQ(S.Submitted, 3u);
  // The temp is left in place — its writer may still publish it.
  EXPECT_TRUE(
      fs::exists(fs::path(Spool) / "m0000000000000009-0000000000000001.tmp"));
}

TEST(Ingest, BackpressureShedsColdestBucketsFirst) {
  std::string Spool = freshSpool("backpressure");
  SpoolWriter Writer(Spool, /*MachineId=*/1);
  for (int I = 0; I < 6; ++I) // Hot bucket: 6 occurrences.
    Writer.append(makeReport("hot", FailureKind::NullDeref, 10, {1}));
  for (int I = 0; I < 2; ++I) // Cold bucket: 2.
    Writer.append(makeReport("cold", FailureKind::OutOfBounds, 20, {2}));
  std::string Err;
  ASSERT_TRUE(Writer.flush(&Err)) << Err;

  FleetScheduler Sched((FleetConfig()));
  ReportCollector Collector({.SpoolDir = Spool, .MaxPending = 6});
  ASSERT_TRUE(Collector.drainInto(Sched, &Err)) << Err;
  EXPECT_EQ(Collector.getStats().BackpressureDropped, 2u);
  EXPECT_EQ(Collector.getStats().Submitted, 6u);
  ASSERT_EQ(Sched.numCampaigns(), 1u) << "cold bucket was not the one shed";
  EXPECT_EQ(Sched.getCampaigns()[0].BugId, "hot");
  EXPECT_EQ(Sched.getCampaigns()[0].Occurrences, 6u);
}

TEST(Ingest, ClaimedFilesAreConsumedExactlyOnce) {
  std::string Spool = freshSpool("claim");
  publishCraftedFile(Spool);

  // Two sequential drains of one spool (what racing collector processes
  // reduce to): the second finds nothing to claim.
  FleetScheduler Sched((FleetConfig()));
  std::string Err;
  ReportCollector First({.SpoolDir = Spool});
  ASSERT_TRUE(First.drainInto(Sched, &Err)) << Err;
  EXPECT_EQ(First.getStats().Submitted, 3u);

  ReportCollector Second({.SpoolDir = Spool});
  ASSERT_TRUE(Second.drainInto(Sched, &Err)) << Err;
  EXPECT_EQ(Second.getStats().FilesScanned, 0u);
  EXPECT_EQ(Second.getStats().Submitted, 0u);
  EXPECT_EQ(Sched.getCampaigns()[0].Occurrences, 2u);
}

} // namespace
