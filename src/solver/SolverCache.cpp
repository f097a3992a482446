//===- SolverCache.cpp - Shared memoizing solver-result cache --------------===//

#include "solver/SolverCache.h"

#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "solver/Solver.h"
#include "support/Bytes.h"
#include "support/Crc.h"
#include "support/Fs.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace er;

// The bespoke per-instance SolverCacheStats stay (FleetReport embeds
// them); the same events are bridged into the process-wide registry so
// one metrics dump covers every cache instance (docs/OBSERVABILITY.md).
namespace {
struct CacheMetrics {
  obs::Counter &Hits, &Misses, &Insertions, &Evictions;
  static CacheMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static CacheMetrics M{Reg.counter("solver.cache.hits"),
                          Reg.counter("solver.cache.misses"),
                          Reg.counter("solver.cache.insertions"),
                          Reg.counter("solver.cache.evictions")};
    return M;
  }
};
} // namespace

SolverResultCache::SolverResultCache(SolverCacheConfig Config)
    : Config(Config) {
  if (this->Config.NumShards == 0)
    this->Config.NumShards = 1;
  if (this->Config.MaxEntriesPerShard == 0)
    this->Config.MaxEntriesPerShard = 1;
  Shards.reserve(this->Config.NumShards);
  for (unsigned I = 0; I < this->Config.NumShards; ++I) {
    char Name[40];
    std::snprintf(Name, sizeof(Name), "solver.cache.shard%02u", I);
    Shards.push_back(std::make_unique<Shard>(Name));
  }
}

bool SolverResultCache::lookup(const QueryDigest &D, CachedQueryResult &Out) {
  Shard &S = shardFor(D);
  std::lock_guard<obs::TrackedMutex> Lock(S.Mu);
  auto It = S.Map.find(D);
  if (It == S.Map.end()) {
    ++S.Misses;
    CacheMetrics::get().Misses.inc();
    return false;
  }
  ++S.Hits;
  CacheMetrics::get().Hits.inc();
  ++It->second.HitCount;
  Out = It->second.Result;
  return true;
}

void SolverResultCache::evictOne(Shard &S) {
  // O(shard) scan per eviction: overflow is rare relative to lookups, and
  // a scan under the shard lock beats maintaining a score-ordered index
  // that every hit would have to re-sort.
  auto Victim = S.Map.end();
  uint64_t VictimScore = 0, VictimSeq = 0;
  for (auto It = S.Map.begin(); It != S.Map.end(); ++It) {
    const Entry &E = It->second;
    // Keep what future hits would save the most; ties evict the oldest.
    uint64_t Score = E.Result.WorkUsed * (E.HitCount + 1);
    if (Victim == S.Map.end() || Score < VictimScore ||
        (Score == VictimScore && E.Seq < VictimSeq)) {
      Victim = It;
      VictimScore = Score;
      VictimSeq = E.Seq;
    }
  }
  if (Victim != S.Map.end()) {
    S.Map.erase(Victim);
    ++S.Evictions;
    CacheMetrics::get().Evictions.inc();
  }
}

void SolverResultCache::insert(const QueryDigest &D,
                               const CachedQueryResult &R) {
  Shard &S = shardFor(D);
  std::lock_guard<obs::TrackedMutex> Lock(S.Mu);
  auto [It, Inserted] = S.Map.try_emplace(D);
  if (!Inserted)
    return; // Another campaign solved the same query first.
  It->second.Result = R;
  It->second.Seq = S.NextSeq++;
  ++S.Insertions;
  CacheMetrics::get().Insertions.inc();
  while (S.Map.size() > Config.MaxEntriesPerShard)
    evictOne(S);
}

SolverCacheStats SolverResultCache::getStats() const {
  SolverCacheStats Stats;
  for (const auto &SPtr : Shards) {
    Shard &S = *SPtr;
    std::lock_guard<obs::TrackedMutex> Lock(S.Mu);
    Stats.Hits += S.Hits;
    Stats.Misses += S.Misses;
    Stats.Insertions += S.Insertions;
    Stats.Evictions += S.Evictions;
    Stats.Entries += S.Map.size();
  }
  return Stats;
}

void SolverResultCache::clear() {
  for (const auto &SPtr : Shards) {
    Shard &S = *SPtr;
    std::lock_guard<obs::TrackedMutex> Lock(S.Mu);
    S.Map.clear();
  }
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//
//
// Image layout (all integers little-endian; docs/SOLVER.md carries the
// authoritative table):
//
//   "ERSC"  u32 version(=1)
//   record* : u8 kind | u32 len | u32 crc32(kind || payload) | payload[len]
//   u32 crc32(everything above)
//
// Kind 1 is a cache entry, kind 2 per-shard eviction metadata (NextSeq —
// without it a reloaded cache whose max-Seq entry had been evicted would
// stamp future insertions differently and eviction would diverge from the
// never-restarted run). Unknown kinds whose CRC checks out are skipped so
// older builds read newer images; any structural damage rejects the whole
// file and the cache loads as empty.

namespace {

constexpr char CacheMagic[4] = {'E', 'R', 'S', 'C'};
constexpr uint32_t CacheVersion = 1;
constexpr uint8_t RecEntry = 1;
constexpr uint8_t RecShardMeta = 2;

struct PersistMetrics {
  obs::Counter &Saves, &SaveFailures, &Loads, &LoadFailures;
  obs::Counter &EntriesSaved, &EntriesLoaded, &RecordsSkipped, &BytesWritten;
  static PersistMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static PersistMetrics M{Reg.counter("solver.cache.persist.saves"),
                            Reg.counter("solver.cache.persist.save_failures"),
                            Reg.counter("solver.cache.persist.loads"),
                            Reg.counter("solver.cache.persist.load_failures"),
                            Reg.counter("solver.cache.persist.entries_saved"),
                            Reg.counter("solver.cache.persist.entries_loaded"),
                            Reg.counter("solver.cache.persist.records_skipped"),
                            Reg.counter("solver.cache.persist.bytes_written")};
    return M;
  }
};

void encodeEntry(ByteWriter &W, const QueryDigest &D,
                 const CachedQueryResult &R, uint64_t HitCount, uint64_t Seq) {
  W.u64(D.Lo);
  W.u64(D.Hi);
  W.u8(static_cast<uint8_t>(R.Status));
  W.u8(R.Complete ? 1 : 0);
  W.u64(R.WorkUsed);
  W.u64(HitCount);
  W.u64(Seq);

  // Maps are emitted sorted so equal contents give equal bytes.
  std::vector<std::pair<uint32_t, uint64_t>> Vars(R.Model.VarValues.begin(),
                                                  R.Model.VarValues.end());
  std::sort(Vars.begin(), Vars.end());
  W.u32(static_cast<uint32_t>(Vars.size()));
  for (const auto &[Id, V] : Vars) {
    W.u32(Id);
    W.u64(V);
  }

  std::vector<uint32_t> ArrIds;
  for (const auto &[Id, Elems] : R.Model.ArrayValues)
    ArrIds.push_back(Id);
  std::sort(ArrIds.begin(), ArrIds.end());
  W.u32(static_cast<uint32_t>(ArrIds.size()));
  for (uint32_t Id : ArrIds) {
    const auto &Elems = R.Model.ArrayValues.at(Id);
    std::vector<std::pair<uint64_t, uint64_t>> Sorted(Elems.begin(),
                                                      Elems.end());
    std::sort(Sorted.begin(), Sorted.end());
    W.u32(Id);
    W.u32(static_cast<uint32_t>(Sorted.size()));
    for (const auto &[Idx, V] : Sorted) {
      W.u64(Idx);
      W.u64(V);
    }
  }

  W.u32(static_cast<uint32_t>(R.Values.size()));
  for (uint64_t V : R.Values)
    W.u64(V);
}

struct ParsedEntry {
  QueryDigest D;
  CachedQueryResult Result;
  uint64_t HitCount = 0;
  uint64_t Seq = 0;
};

bool decodeEntry(ByteReader &R, ParsedEntry &Out) {
  Out.D.Lo = R.u64();
  Out.D.Hi = R.u64();
  uint8_t Status = R.u8();
  if (Status > 2) // QueryStatus has exactly Sat/Unsat/Timeout.
    return false;
  Out.Result.Status = static_cast<QueryStatus>(Status);
  uint8_t Complete = R.u8();
  if (Complete > 1)
    return false;
  Out.Result.Complete = Complete != 0;
  Out.Result.WorkUsed = R.u64();
  Out.HitCount = R.u64();
  Out.Seq = R.u64();

  uint32_t NumVars = R.u32();
  for (uint32_t I = 0; I < NumVars && !R.failed(); ++I) {
    uint32_t Id = R.u32();
    Out.Result.Model.VarValues[Id] = R.u64();
  }
  uint32_t NumArrays = R.u32();
  for (uint32_t I = 0; I < NumArrays && !R.failed(); ++I) {
    uint32_t Id = R.u32();
    uint32_t N = R.u32();
    auto &Elems = Out.Result.Model.ArrayValues[Id];
    for (uint32_t K = 0; K < N && !R.failed(); ++K) {
      uint64_t Idx = R.u64();
      Elems[Idx] = R.u64();
    }
  }
  uint32_t NumValues = R.u32();
  for (uint32_t I = 0; I < NumValues && !R.failed(); ++I)
    Out.Result.Values.push_back(R.u64());

  // The payload length is authoritative: trailing garbage inside a
  // CRC-valid record still means a malformed image.
  return !R.failed() && R.atEnd();
}

} // namespace

std::vector<uint8_t> SolverResultCache::serialize() const {
  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.bytes(CacheMagic, sizeof(CacheMagic));
  W.u32(CacheVersion);

  // Each payload is written in place behind a placeholder length and CRC,
  // patched once the payload is complete.
  auto emitRecord = [&](uint8_t Kind, auto &&WritePayload) {
    W.u8(Kind);
    size_t At = W.size();
    W.u32(0);
    W.u32(0);
    WritePayload();
    size_t Len = W.size() - At - 8;
    W.patchU32(At, static_cast<uint32_t>(Len));
    W.patchU32(At + 4, crc32(Out.data() + At + 8, Len, crc32(&Kind, 1)));
  };

  uint64_t Entries = 0;
  for (size_t SI = 0; SI < Shards.size(); ++SI) {
    Shard &S = *Shards[SI];
    std::lock_guard<obs::TrackedMutex> Lock(S.Mu);
    std::vector<std::pair<QueryDigest, const Entry *>> Sorted;
    Sorted.reserve(S.Map.size());
    for (const auto &[D, E] : S.Map)
      Sorted.emplace_back(D, &E);
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto &A, const auto &B) {
                return A.first.Lo != B.first.Lo ? A.first.Lo < B.first.Lo
                                                : A.first.Hi < B.first.Hi;
              });
    for (const auto &[D, E] : Sorted) {
      emitRecord(RecEntry,
                 [&] { encodeEntry(W, D, E->Result, E->HitCount, E->Seq); });
      ++Entries;
    }
    emitRecord(RecShardMeta, [&] {
      W.u32(static_cast<uint32_t>(SI));
      W.u64(S.NextSeq);
    });
  }

  W.u32(crc32(Out.data(), Out.size()));
  PersistMetrics::get().EntriesSaved.add(Entries);
  return Out;
}

bool SolverResultCache::deserialize(const uint8_t *Data, size_t Size,
                                    CacheLoadStats *LoadStats) {
  CacheLoadStats Local;
  CacheLoadStats &LS = LoadStats ? *LoadStats : Local;
  LS.FileFound = true;
  LS.Bytes = Size;

  // Whole-file gate first: magic, version, and the trailing CRC over every
  // preceding byte (this is what guarantees any single-byte flip anywhere
  // is rejected, including inside lengths and the header itself).
  if (Size < 4 + 4 + 4 || std::memcmp(Data, CacheMagic, 4) != 0)
    return false;
  if (ByteReader(Data + 4, 4).u32() != CacheVersion)
    return false; // Future image: load-as-empty, never guess.
  if (ByteReader(Data + Size - 4, 4).u32() != crc32(Data, Size - 4))
    return false;

  // Parse everything before touching the cache: a malformed record midway
  // must leave the cache exactly as it was.
  std::vector<ParsedEntry> Entries;
  std::vector<std::pair<uint32_t, uint64_t>> ShardMetas;
  uint64_t Skipped = 0;
  ByteReader R(Data + 8, Size - 12);
  while (!R.atEnd()) {
    uint8_t Kind = R.u8();
    uint32_t Len = R.u32();
    uint32_t Crc = R.u32();
    const uint8_t *Payload = R.bytes(Len);
    if (R.failed() || crc32(Payload, Len, crc32(&Kind, 1)) != Crc)
      return false;

    ByteReader PR(Payload, Len);
    switch (Kind) {
    case RecEntry: {
      ParsedEntry E;
      if (!decodeEntry(PR, E))
        return false;
      Entries.push_back(std::move(E));
      break;
    }
    case RecShardMeta: {
      uint32_t Idx = PR.u32();
      uint64_t NextSeq = PR.u64();
      if (PR.failed() || !PR.atEnd())
        return false;
      ShardMetas.emplace_back(Idx, NextSeq);
      break;
    }
    default:
      ++Skipped; // Newer build's record kind; CRC already vouched for it.
    }
  }

  // Merge. First-writer-wins mirrors insert(): an entry the running cache
  // already holds keeps its in-memory bookkeeping.
  for (const ParsedEntry &E : Entries) {
    Shard &S = shardFor(E.D);
    std::lock_guard<obs::TrackedMutex> Lock(S.Mu);
    auto [It, Inserted] = S.Map.try_emplace(E.D);
    if (!Inserted)
      continue;
    It->second.Result = E.Result;
    It->second.HitCount = E.HitCount;
    It->second.Seq = E.Seq;
    if (S.NextSeq <= E.Seq)
      S.NextSeq = E.Seq + 1;
    ++LS.EntriesLoaded;
    while (S.Map.size() > Config.MaxEntriesPerShard)
      evictOne(S);
  }
  for (const auto &[Idx, NextSeq] : ShardMetas) {
    if (Idx >= Shards.size())
      continue; // Saved under a different shard count; stamps still merge.
    Shard &S = *Shards[Idx];
    std::lock_guard<obs::TrackedMutex> Lock(S.Mu);
    if (S.NextSeq < NextSeq)
      S.NextSeq = NextSeq;
  }

  LS.RecordsSkipped = Skipped;
  LS.Valid = true;
  PersistMetrics::get().EntriesLoaded.add(LS.EntriesLoaded);
  PersistMetrics::get().RecordsSkipped.add(Skipped);
  return true;
}

bool SolverResultCache::saveToFile(const std::string &Path, FsOps *Fs,
                                   std::string *Error) {
  obs::ScopedSpan Span("solver.cache.save", "solver");
  FsOps &Ops = Fs ? *Fs : FsOps::real();
  std::vector<uint8_t> Image = serialize();
  Span.arg("bytes", Image.size());
  std::string Tmp = Path + ".tmp";
  if (Ops.writeFile(Tmp, Image.data(), Image.size(), Error) != FsStatus::Ok) {
    // A torn write may have left a partial temp file behind.
    Ops.remove(Tmp);
    PersistMetrics::get().SaveFailures.inc();
    return false;
  }
  if (Ops.rename(Tmp, Path, Error) != FsStatus::Ok) {
    Ops.remove(Tmp);
    PersistMetrics::get().SaveFailures.inc();
    return false;
  }
  PersistMetrics::get().Saves.inc();
  PersistMetrics::get().BytesWritten.add(Image.size());
  return true;
}

bool SolverResultCache::loadFromFile(const std::string &Path, FsOps *Fs,
                                     CacheLoadStats *LoadStats,
                                     std::string *Error) {
  obs::ScopedSpan Span("solver.cache.load", "solver");
  FsOps &Ops = Fs ? *Fs : FsOps::real();
  CacheLoadStats Local;
  CacheLoadStats &LS = LoadStats ? *LoadStats : Local;
  LS = CacheLoadStats();
  std::vector<uint8_t> Data;
  FsStatus St = Ops.readFile(Path, Data, Error);
  if (St != FsStatus::Ok) {
    if (St == FsStatus::IoError)
      PersistMetrics::get().LoadFailures.inc();
    return false; // Missing file is a normal cold start, not a failure.
  }
  bool Ok = deserialize(Data.data(), Data.size(), &LS);
  Span.arg("bytes", Data.size());
  Span.arg("valid", Ok ? 1 : 0);
  if (Ok)
    PersistMetrics::get().Loads.inc();
  else {
    PersistMetrics::get().LoadFailures.inc();
    if (Error)
      *Error = "invalid solver cache image: " + Path;
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Digests
//===----------------------------------------------------------------------===//

static uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

static void combine(QueryDigest &D, uint64_t V) {
  // Two decorrelated lanes; Hi uses a different odd multiplier so a single
  // 64-bit collision does not imply a 128-bit one.
  D.Lo = mix64(D.Lo ^ (V + 0x9e3779b97f4a7c15ULL));
  D.Hi = mix64(D.Hi * 0xff51afd7ed558ccdULL ^ (V + 0x2545f4914f6cdd1dULL));
}

QueryDigest
SolverResultCache::digestExpr(const ExprContext &Ctx, ExprRef E,
                              std::unordered_map<ExprRef, QueryDigest> &Memo) {
  auto It = Memo.find(E);
  if (It != Memo.end())
    return It->second;

  QueryDigest D;
  combine(D, static_cast<uint64_t>(E->getKind()));
  combine(D, (static_cast<uint64_t>(E->getWidth()) << 32) |
                 (static_cast<uint64_t>(E->getElemWidth()) << 8) |
                 E->getNumOps());
  combine(D, E->getNumElems());

  switch (E->getKind()) {
  case ExprKind::Const:
  case ExprKind::ConstArray:
    combine(D, E->getConstVal());
    break;
  case ExprKind::Var:
  case ExprKind::SymArray:
    // Variable identity is the id: models are keyed by it, and campaigns
    // construct their contexts deterministically, so equal ids + equal
    // structure means an interchangeable query.
    combine(D, E->getVarId());
    break;
  case ExprKind::DataArray:
    // Concrete contents live in the context; the context-side index is
    // meaningless across contexts, so digest the data itself.
    for (uint64_t V : Ctx.getArrayData(E))
      combine(D, V);
    break;
  default:
    break;
  }

  for (unsigned I = 0; I < E->getNumOps(); ++I) {
    QueryDigest Op = digestExpr(Ctx, E->getOp(I), Memo);
    combine(D, Op.Lo);
    combine(D, Op.Hi);
  }

  Memo.emplace(E, D);
  return D;
}

QueryDigest SolverResultCache::digestQuery(
    const ExprContext &Ctx, const std::vector<ExprRef> &Assertions,
    ExprRef Enumerated, unsigned MaxCount, uint64_t Budget,
    uint64_t ConflictCost, uint64_t PropagationCost) {
  std::unordered_map<ExprRef, QueryDigest> Memo;
  std::vector<std::pair<uint64_t, uint64_t>> Parts;
  Parts.reserve(Assertions.size());
  for (ExprRef A : Assertions) {
    if (A->isTrue())
      continue; // checkSat skips trivially-true conjuncts.
    QueryDigest AD = digestExpr(Ctx, A, Memo);
    Parts.emplace_back(AD.Lo, AD.Hi);
  }
  // Conjunction is order- and duplication-insensitive: normalize.
  std::sort(Parts.begin(), Parts.end());
  Parts.erase(std::unique(Parts.begin(), Parts.end()), Parts.end());

  QueryDigest D;
  combine(D, Parts.size());
  for (const auto &[Lo, Hi] : Parts) {
    combine(D, Lo);
    combine(D, Hi);
  }
  if (Enumerated) {
    QueryDigest ED = digestExpr(Ctx, Enumerated, Memo);
    combine(D, 0xe17e5a7eULL); // Tag: enumeration query, not checkSat.
    combine(D, ED.Lo);
    combine(D, ED.Hi);
    combine(D, MaxCount);
  }
  combine(D, Budget);
  combine(D, ConflictCost);
  combine(D, PropagationCost);
  return D;
}
