//===- SolverCache.h - Shared memoizing solver-result cache -----*- C++ -*-===//
///
/// \file
/// A thread-safe, sharded memoization cache for solver queries, shared by
/// many ConstraintSolver instances running on different threads (one per
/// fleet reconstruction campaign — see docs/FLEET.md).
///
/// Queries are keyed by a *normalized constraint-set digest*: a 128-bit
/// structural hash over the assertion set (order-insensitive, duplicates
/// dropped), the queried expression (for value enumeration), and the
/// effective work budget and cost model. The digest is computed from
/// expression *structure* — kinds, widths, constants, variable ids, and
/// concrete array contents — never from pointer values, so identical
/// queries issued from distinct ExprContexts collapse to the same key.
///
/// Only deterministic outcomes are cached: Sat/Unsat results always are,
/// Timeout results only when the deterministic work budget (not the
/// wall-clock backstop) was exhausted. A cached result is therefore
/// byte-identical to what a fresh solve would produce, which is what makes
/// consulting the cache transparent to reconstruction determinism.
///
//===----------------------------------------------------------------------===//

#ifndef ER_SOLVER_SOLVERCACHE_H
#define ER_SOLVER_SOLVERCACHE_H

#include "obs/LockProfiler.h"
#include "solver/Expr.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace er {

enum class QueryStatus; // Solver.h
class FsOps;            // support/Fs.h

/// Tuning for the shared cache.
struct SolverCacheConfig {
  /// Number of independently locked shards; queries hash-partition across
  /// them so concurrent campaigns rarely contend.
  unsigned NumShards = 16;
  /// Per-shard entry cap. Overflow evicts the entry with the lowest
  /// retention score WorkUsed x (hits + 1) — the solver work a future hit
  /// on it is expected to save — so cheap-to-recompute, never-reused
  /// entries go first. Ties (e.g. a cold cache where nothing has hit yet)
  /// evict the oldest insertion. Eviction only decides which entries
  /// *stay* cached: hits remain byte-identical to fresh solves.
  size_t MaxEntriesPerShard = 4096;
};

/// Aggregate counters (surfaced in FleetReport).
struct SolverCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total) : 0;
  }
};

/// 128-bit query key.
struct QueryDigest {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  bool operator==(const QueryDigest &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
};

/// A memoized query outcome. checkSat entries carry a model; enumerateValues
/// entries carry the enumerated values and completeness flag. WorkUsed is
/// replayed into the consulting solver's totals so budget accounting is
/// identical with and without the cache.
struct CachedQueryResult {
  QueryStatus Status;
  Assignment Model;
  std::vector<uint64_t> Values;
  bool Complete = false;
  uint64_t WorkUsed = 0;
};

/// Outcome of one loadFromFile/deserialize call (surfaced by the daemon's
/// startup log and the solver.cache.persist.* metrics).
struct CacheLoadStats {
  /// The file existed (loadFromFile only; deserialize always sets it).
  bool FileFound = false;
  /// The image passed every integrity check. When false nothing was merged
  /// and the cache is exactly as it was before the call.
  bool Valid = false;
  uint64_t EntriesLoaded = 0;
  /// Records with an unknown kind but a valid CRC — written by a newer
  /// build and skipped (forward compatibility), never an error.
  uint64_t RecordsSkipped = 0;
  uint64_t Bytes = 0;
};

/// Thread-safe sharded memoization cache. Instances are expected to outlive
/// every solver configured to consult them.
///
/// The cache can be checkpointed to disk and reloaded across daemon
/// restarts (docs/SOLVER.md documents the image format). Persistence is
/// strictly value-preserving: a loaded entry is byte-identical to the
/// insert that produced it, and per-shard insertion stamps ride along so
/// eviction decisions replay deterministically after a reload. A corrupt,
/// truncated, or future-versioned image loads as empty — reconstruction
/// results never depend on cache contents, only their cost.
class SolverResultCache {
public:
  explicit SolverResultCache(SolverCacheConfig Config = SolverCacheConfig());

  /// Looks up \p D; on hit copies the entry into \p Out and returns true.
  bool lookup(const QueryDigest &D, CachedQueryResult &Out);

  /// Inserts \p R under \p D (first-writer-wins; a racing duplicate insert
  /// is dropped). Evicts one entry when the shard is full.
  void insert(const QueryDigest &D, const CachedQueryResult &R);

  /// Snapshot of the aggregate counters.
  SolverCacheStats getStats() const;

  void clear();

  //===--- Persistence ----------------------------------------------------===
  /// Serializes every entry into the versioned, CRC-guarded on-disk image.
  /// Deterministic: shards are emitted in index order and entries within a
  /// shard sorted by digest, so equal cache contents produce equal bytes.
  std::vector<uint8_t> serialize() const;

  /// Merges the image in \p Data into the cache (first-writer-wins against
  /// entries already present, exactly like insert). Returns false — with
  /// the cache untouched — on any integrity failure: bad magic, future
  /// version, size/CRC mismatch anywhere, or a malformed record payload.
  /// Unknown record *kinds* with valid CRCs are skipped, not rejected.
  bool deserialize(const uint8_t *Data, size_t Size,
                   CacheLoadStats *LoadStats = nullptr);

  /// Atomically publishes serialize() to \p Path via temp + rename through
  /// \p Fs (nullptr = FsOps::real()); a crash mid-save leaves the previous
  /// image intact. Returns false (removing the temp) on any fs error.
  bool saveToFile(const std::string &Path, FsOps *Fs = nullptr,
                  std::string *Error = nullptr);

  /// Reads \p Path and deserializes it. A missing file or an invalid image
  /// returns false with the cache untouched (load-as-empty).
  bool loadFromFile(const std::string &Path, FsOps *Fs = nullptr,
                    CacheLoadStats *LoadStats = nullptr,
                    std::string *Error = nullptr);

  //===--- Digest computation ---------------------------------------------===
  /// Structural 128-bit digest of \p E. \p Ctx supplies concrete DataArray
  /// contents; \p Memo (per caller, keyed by node pointer) makes the
  /// traversal linear in DAG size.
  static QueryDigest
  digestExpr(const ExprContext &Ctx, ExprRef E,
             std::unordered_map<ExprRef, QueryDigest> &Memo);

  /// Normalized digest of a whole query: assertion digests are sorted and
  /// deduplicated (conjunction is order- and duplication-insensitive), then
  /// combined with the optional enumerated expression \p Enumerated /
  /// \p MaxCount and the effective budget and cost model.
  static QueryDigest
  digestQuery(const ExprContext &Ctx, const std::vector<ExprRef> &Assertions,
              ExprRef Enumerated, unsigned MaxCount, uint64_t Budget,
              uint64_t ConflictCost, uint64_t PropagationCost);

private:
  /// A cached result plus the bookkeeping eviction scores by.
  struct Entry {
    CachedQueryResult Result;
    uint64_t HitCount = 0;
    /// Monotonic per-shard insertion stamp: the deterministic tie-break
    /// for eviction.
    uint64_t Seq = 0;
  };

  struct Shard {
    /// Profiled per shard (obs.lock.solver.cache.shardNN.*): the ROADMAP
    /// names these locks a prime suspect for the 4 -> 8 job throughput
    /// regression; the wait/hold histograms are the instrument that can
    /// now confirm or clear them. Named at construction.
    obs::TrackedMutex Mu;
    explicit Shard(std::string_view Name) : Mu(Name) {}
    struct KeyHash {
      size_t operator()(const QueryDigest &D) const {
        return static_cast<size_t>(D.Lo ^ (D.Hi * 0x9e3779b97f4a7c15ULL));
      }
    };
    std::unordered_map<QueryDigest, Entry, KeyHash> Map;
    uint64_t NextSeq = 0;
    uint64_t Hits = 0, Misses = 0, Insertions = 0, Evictions = 0;
  };

  /// Removes the lowest-scoring (then oldest) entry. Caller holds the
  /// shard lock.
  void evictOne(Shard &S);

  Shard &shardFor(const QueryDigest &D) {
    return *Shards[static_cast<size_t>(D.Hi) % Shards.size()];
  }

  SolverCacheConfig Config;
  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace er

#endif // ER_SOLVER_SOLVERCACHE_H
