//===- SolverCacheFuzz.cpp - Property/fuzz tests for the cache image ------===//
//
// Safety argument for the persistent solver-cache image (docs/SOLVER.md),
// checked with seeded randomness so every run explores the same cases:
//
//  1. Round trip: any cache contents — models with arrays, enumeration
//     values, every status, extreme ids — serialize, load into a fresh
//     cache, and re-serialize to byte-identical images, with every entry
//     answering lookups exactly as the original did.
//  2. Rejection: truncating the image at ANY byte boundary, or flipping
//     any single byte (three masks per position), makes deserialize
//     return false with the cache untouched — never a crash, never a
//     silently different cache.
//  3. Forward/backward compatibility: a future-versioned image loads as
//     empty; an unknown record kind with a valid CRC is skipped and
//     counted, and the rest of the image still loads.
//  4. Crash safety: scripted temp-write and rename faults make saveToFile
//     fail cleanly — previous image intact, no temp litter.
//  5. Determinism: eviction decisions replay identically after a
//     save/load cycle (the shard-meta Seq stamps), for both policies.
//
// The cache only ever affects reconstruction *cost*, never results, so
// "load as empty on anything suspicious" is always the safe failure mode.
//
//===----------------------------------------------------------------------===//

#include "solver/SolverCache.h"

#include "solver/Solver.h"
#include "support/Crc.h"
#include "support/FaultFs.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace er;
namespace fs = std::filesystem;

namespace {

constexpr uint64_t FuzzSeed = 20260810;

QueryDigest randomDigest(Rng &R) {
  QueryDigest D;
  D.Lo = R.nextBool(0.1) ? ~0ULL : R.next();
  D.Hi = R.nextBool(0.1) ? 0 : R.next();
  return D;
}

/// An entry drawn from the codec's whole domain: checkSat entries with
/// models (including array stores), enumeration entries with value lists,
/// timeouts with neither, extreme ids and work charges.
CachedQueryResult randomResult(Rng &R) {
  CachedQueryResult Q;
  Q.Status = static_cast<QueryStatus>(R.nextBounded(3));
  if (Q.Status == QueryStatus::Sat) {
    size_t NV = R.nextBounded(6);
    for (size_t I = 0; I < NV; ++I)
      Q.Model.VarValues[static_cast<uint32_t>(R.next())] = R.next();
    size_t NA = R.nextBounded(3);
    for (size_t I = 0; I < NA; ++I) {
      auto &Elems = Q.Model.ArrayValues[static_cast<uint32_t>(R.next())];
      size_t NE = R.nextBounded(5);
      for (size_t K = 0; K < NE; ++K)
        Elems[R.nextBounded(256)] = R.next();
    }
  }
  size_t NVal = R.nextBounded(5);
  for (size_t I = 0; I < NVal; ++I)
    Q.Values.push_back(R.nextBool(0.2) ? ~0ULL : R.next());
  Q.Complete = R.nextBool();
  Q.WorkUsed = R.nextBool(0.1) ? ~0ULL : R.nextBounded(1u << 20);
  return Q;
}

/// Fills \p C with \p N random entries and returns the (digest, result)
/// pairs inserted (first-writer-wins mirrors insert's contract).
std::vector<std::pair<QueryDigest, CachedQueryResult>>
populate(SolverResultCache &C, Rng &R, size_t N) {
  std::vector<std::pair<QueryDigest, CachedQueryResult>> In;
  for (size_t I = 0; I < N; ++I) {
    QueryDigest D = randomDigest(R);
    CachedQueryResult Q = randomResult(R);
    C.insert(D, Q);
    In.emplace_back(D, Q);
  }
  return In;
}

void expectResultsEqual(const CachedQueryResult &A,
                        const CachedQueryResult &B) {
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Model.VarValues, B.Model.VarValues);
  EXPECT_EQ(A.Model.ArrayValues, B.Model.ArrayValues);
  EXPECT_EQ(A.Values, B.Values);
  EXPECT_EQ(A.Complete, B.Complete);
  EXPECT_EQ(A.WorkUsed, B.WorkUsed);
}

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// Recomputes the trailing whole-image CRC after a deliberate patch.
void resealImage(std::vector<uint8_t> &Img) {
  ASSERT_GE(Img.size(), 4u);
  uint32_t C = crc32(Img.data(), Img.size() - 4);
  for (int I = 0; I < 4; ++I)
    Img[Img.size() - 4 + static_cast<size_t>(I)] =
        static_cast<uint8_t>(C >> (8 * I));
}

std::string tempPath(const std::string &Name) {
  return (fs::path(testing::TempDir()) / ("er_cachefuzz_" + Name)).string();
}

TEST(SolverCacheFuzz, RandomCachesRoundTripByteIdentically) {
  Rng R(FuzzSeed);
  for (unsigned Trial = 0; Trial < 32; ++Trial) {
    SolverCacheConfig CC;
    CC.NumShards = 1 + static_cast<unsigned>(R.nextBounded(4));
    SolverResultCache A(CC);
    auto In = populate(A, R, 1 + R.nextBounded(24));

    std::vector<uint8_t> Img = A.serialize();
    SolverResultCache B(CC);
    CacheLoadStats LS;
    ASSERT_TRUE(B.deserialize(Img.data(), Img.size(), &LS))
        << "trial " << Trial;
    EXPECT_TRUE(LS.Valid);
    EXPECT_EQ(LS.RecordsSkipped, 0u);
    EXPECT_EQ(B.getStats().Entries, A.getStats().Entries);

    // Every surviving entry answers exactly as the original inserted it.
    for (const auto &[D, Q] : In) {
      CachedQueryResult FromA, FromB;
      bool HitA = A.lookup(D, FromA);
      ASSERT_EQ(B.lookup(D, FromB), HitA);
      if (HitA)
        expectResultsEqual(FromA, FromB);
    }

    // Seq stamps and hit counts ride along, so the reloaded cache
    // re-serializes to the *same bytes* (lookup() above bumped HitCount
    // identically on both sides).
    EXPECT_EQ(B.serialize(), A.serialize()) << "trial " << Trial;
  }
}

TEST(SolverCacheFuzz, TruncationAtEveryBoundaryRejected) {
  Rng R(FuzzSeed + 1);
  SolverResultCache A;
  populate(A, R, 8);
  std::vector<uint8_t> Img = A.serialize();

  for (size_t Len = 0; Len < Img.size(); ++Len) {
    SolverResultCache B;
    CacheLoadStats LS;
    EXPECT_FALSE(B.deserialize(Img.data(), Len, &LS))
        << "accepted a " << Len << "-byte prefix of a " << Img.size()
        << "-byte image";
    EXPECT_FALSE(LS.Valid);
    EXPECT_EQ(B.getStats().Entries, 0u) << "truncation at " << Len
                                        << " partially merged";
  }
}

TEST(SolverCacheFuzz, EveryByteMutationRejected) {
  Rng R(FuzzSeed + 2);
  SolverResultCache A;
  populate(A, R, 6);
  std::vector<uint8_t> Img = A.serialize();

  const uint8_t Masks[] = {0x01, 0x80, 0xFF};
  for (size_t Pos = 0; Pos < Img.size(); ++Pos) {
    for (uint8_t Mask : Masks) {
      std::vector<uint8_t> Bad = Img;
      Bad[Pos] ^= Mask;
      SolverResultCache B;
      CacheLoadStats LS;
      EXPECT_FALSE(B.deserialize(Bad.data(), Bad.size(), &LS))
          << "accepted flip of byte " << Pos << " mask " << unsigned(Mask);
      EXPECT_EQ(B.getStats().Entries, 0u);
    }
  }
}

TEST(SolverCacheFuzz, FutureVersionLoadsAsEmpty) {
  Rng R(FuzzSeed + 3);
  SolverResultCache A;
  populate(A, R, 4);
  std::vector<uint8_t> Img = A.serialize();

  // Version field is the u32 after the 4-byte magic. Reseal so the only
  // "problem" with the image is its version.
  Img[4] = 2;
  resealImage(Img);

  SolverResultCache B;
  CacheLoadStats LS;
  EXPECT_FALSE(B.deserialize(Img.data(), Img.size(), &LS));
  EXPECT_FALSE(LS.Valid);
  EXPECT_EQ(B.getStats().Entries, 0u);
}

TEST(SolverCacheFuzz, UnknownRecordKindSkippedNotRejected) {
  Rng R(FuzzSeed + 4);
  SolverResultCache A;
  auto In = populate(A, R, 5);
  std::vector<uint8_t> Img = A.serialize();

  // Splice a record of a kind this build has never heard of — as a newer
  // build would write — right before the trailing CRC, with a valid
  // record CRC, then reseal the image.
  Img.resize(Img.size() - 4);
  const uint8_t Kind = 0x7F;
  std::vector<uint8_t> Payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  Img.push_back(Kind);
  putU32(Img, static_cast<uint32_t>(Payload.size()));
  std::vector<uint8_t> CrcBuf;
  CrcBuf.push_back(Kind);
  CrcBuf.insert(CrcBuf.end(), Payload.begin(), Payload.end());
  putU32(Img, crc32(CrcBuf.data(), CrcBuf.size()));
  Img.insert(Img.end(), Payload.begin(), Payload.end());
  putU32(Img, 0);
  resealImage(Img);

  SolverResultCache B;
  CacheLoadStats LS;
  ASSERT_TRUE(B.deserialize(Img.data(), Img.size(), &LS));
  EXPECT_TRUE(LS.Valid);
  EXPECT_EQ(LS.RecordsSkipped, 1u);
  EXPECT_EQ(B.getStats().Entries, A.getStats().Entries);
  for (const auto &[D, Q] : In) {
    CachedQueryResult Out;
    CachedQueryResult Ref;
    ASSERT_EQ(B.lookup(D, Out), A.lookup(D, Ref));
  }
}

TEST(SolverCacheFuzz, SaveFaultsLeavePreviousImageAndNoTemp) {
  Rng R(FuzzSeed + 5);
  SolverResultCache A;
  populate(A, R, 4);
  std::string Path = tempPath("savefault.bin");
  fs::remove(Path);
  fs::remove(Path + ".tmp");

  // Establish a good previous image.
  ASSERT_TRUE(A.saveToFile(Path));
  std::vector<uint8_t> Before;
  ASSERT_EQ(FsOps::real().readFile(Path, Before), FsStatus::Ok);

  SolverResultCache Bigger;
  populate(Bigger, R, 8);

  // Torn temp write: the publish never happens.
  {
    FaultFs Fs;
    Failpoint F;
    F.Operation = Failpoint::Op::Write;
    F.Act = Failpoint::Action::TornWrite;
    F.PathSubstr = ".tmp";
    F.TornBytes = 7;
    Fs.addFailpoint(F);
    std::string Err;
    EXPECT_FALSE(Bigger.saveToFile(Path, &Fs, &Err));
    EXPECT_FALSE(Err.empty());
    EXPECT_EQ(Fs.faultsInjected(), 1u);
  }
  EXPECT_FALSE(fs::exists(Path + ".tmp")) << "temp litter after torn write";

  // Rename failure after a complete temp write: same contract.
  {
    FaultFs Fs;
    Failpoint F;
    F.Operation = Failpoint::Op::Rename;
    F.Act = Failpoint::Action::Fail;
    Fs.addFailpoint(F);
    std::string Err;
    EXPECT_FALSE(Bigger.saveToFile(Path, &Fs, &Err));
    EXPECT_FALSE(Err.empty());
    EXPECT_EQ(Fs.faultsInjected(), 1u);
  }
  EXPECT_FALSE(fs::exists(Path + ".tmp")) << "temp litter after failed rename";

  // The previous image survived both faults byte for byte, and loads.
  std::vector<uint8_t> After;
  ASSERT_EQ(FsOps::real().readFile(Path, After), FsStatus::Ok);
  EXPECT_EQ(After, Before);
  SolverResultCache B;
  CacheLoadStats LS;
  EXPECT_TRUE(B.loadFromFile(Path, nullptr, &LS));
  EXPECT_TRUE(LS.Valid);
  fs::remove(Path);
}

TEST(SolverCacheFuzz, MissingFileLoadsAsEmptyWithoutError) {
  std::string Path = tempPath("never_written.bin");
  fs::remove(Path);
  SolverResultCache B;
  CacheLoadStats LS;
  std::string Err;
  EXPECT_FALSE(B.loadFromFile(Path, nullptr, &LS, &Err));
  EXPECT_FALSE(LS.FileFound);
  EXPECT_EQ(B.getStats().Entries, 0u);
}

TEST(SolverCacheFuzz, ConcurrentMutationDuringSerializeIsSafe) {
  // Writers hammer inserts and lookups while the main thread repeatedly
  // serializes the shared cache (the daemon's checkpoint cadence racing
  // live campaigns). Run under TSan in CI; here the assertable contract
  // is that every snapshot taken mid-race is itself a valid image.
  SolverResultCache C;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < 4; ++T)
    Workers.emplace_back([&C, T] {
      Rng R(FuzzSeed + 100 + T);
      for (unsigned I = 0; I < 400; ++I) {
        QueryDigest D = randomDigest(R);
        if (R.nextBool(0.7)) {
          C.insert(D, randomResult(R));
        } else {
          CachedQueryResult Out;
          C.lookup(D, Out);
        }
      }
    });

  for (unsigned Snap = 0; Snap < 16; ++Snap) {
    std::vector<uint8_t> Img = C.serialize();
    SolverResultCache Copy;
    CacheLoadStats LS;
    ASSERT_TRUE(Copy.deserialize(Img.data(), Img.size(), &LS))
        << "mid-race snapshot " << Snap << " is not a valid image";
  }
  for (std::thread &W : Workers)
    W.join();

  std::vector<uint8_t> Img = C.serialize();
  SolverResultCache Copy;
  ASSERT_TRUE(Copy.deserialize(Img.data(), Img.size()));
  EXPECT_EQ(Copy.getStats().Entries, C.getStats().Entries);
}

TEST(SolverCacheFuzz, EvictionReplaysDeterministicallyAfterReload) {
  SolverCacheConfig CC;
  CC.NumShards = 2;
  CC.MaxEntriesPerShard = 8;

  // Shape a cache that is already at capacity with a non-trivial hit
  // profile (hits raise retention scores).
  SolverResultCache A(CC);
  Rng R(FuzzSeed + 6);
  auto In = populate(A, R, 40);
  for (size_t I = 0; I < In.size(); I += 3) {
    CachedQueryResult Out;
    A.lookup(In[I].first, Out);
  }

  // Reload into B, then subject both to the SAME overflow-inducing
  // insert stream. If the Seq stamps and hit counts didn't persist,
  // the two caches would evict different victims and diverge.
  std::vector<uint8_t> Img = A.serialize();
  SolverResultCache B(CC);
  ASSERT_TRUE(B.deserialize(Img.data(), Img.size()));
  ASSERT_EQ(B.serialize(), Img);

  Rng More(FuzzSeed + 7);
  for (unsigned I = 0; I < 30; ++I) {
    QueryDigest D = randomDigest(More);
    CachedQueryResult Q = randomResult(More);
    A.insert(D, Q);
    B.insert(D, Q);
  }
  EXPECT_EQ(A.serialize(), B.serialize()) << "eviction diverged after reload";
}

} // namespace
