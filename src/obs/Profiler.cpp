//===- Profiler.cpp - Phase-attributed wall/CPU profiler -------------------===//

#include "obs/Profiler.h"

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Tracer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <unordered_map>

#if defined(__linux__) || defined(__APPLE__)
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

using namespace er;
using namespace er::obs;

uint64_t obs::threadCpuTimeNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec Ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts) == 0)
    return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(Ts.tv_nsec);
#endif
  return 0; // Platform without a per-thread CPU clock: CPU columns read 0.
}

static uint64_t steadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

//===----------------------------------------------------------------------===//
// Process gauges (scrape-target hygiene)
//===----------------------------------------------------------------------===//

ProcessStats obs::readProcessStats() {
  ProcessStats PS;
#if defined(__linux__) || defined(__APPLE__)
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) == 0)
    PS.CpuSeconds = static_cast<int64_t>(RU.ru_utime.tv_sec) +
                    static_cast<int64_t>(RU.ru_stime.tv_sec);
#endif
#if defined(__linux__)
  // /proc/self/status: "VmRSS:  1234 kB" and "Threads: N" lines.
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    while (std::fgets(Line, sizeof(Line), F)) {
      long long V = 0;
      if (std::sscanf(Line, "VmRSS: %lld kB", &V) == 1)
        PS.RssBytes = static_cast<int64_t>(V) * 1024;
      else if (std::sscanf(Line, "Threads: %lld", &V) == 1)
        PS.Threads = static_cast<int64_t>(V);
    }
    std::fclose(F);
  }
  if (DIR *D = opendir("/proc/self/fd")) {
    int64_t N = 0;
    while (struct dirent *E = readdir(D))
      if (std::strcmp(E->d_name, ".") != 0 && std::strcmp(E->d_name, "..") != 0)
        ++N;
    closedir(D);
    PS.OpenFds = N > 0 ? N - 1 : N; // The opendir fd itself doesn't count.
  }
#endif
  return PS;
}

void obs::sampleProcessGauges(MetricsRegistry &Reg) {
  ProcessStats PS = readProcessStats();
  // Unavailable fields are skipped entirely — the gauge row is never
  // created, so the exposition stays honest on platforms without /proc.
  if (PS.RssBytes >= 0)
    Reg.gauge("obs.proc.rss_bytes").set(PS.RssBytes);
  if (PS.CpuSeconds >= 0)
    Reg.gauge("obs.proc.cpu_seconds").set(PS.CpuSeconds);
  if (PS.OpenFds >= 0)
    Reg.gauge("obs.proc.open_fds").set(PS.OpenFds);
  if (PS.Threads >= 0)
    Reg.gauge("obs.proc.threads").set(PS.Threads);
}

//===----------------------------------------------------------------------===//
// Per-thread state
//===----------------------------------------------------------------------===//

/// One node of a thread's phase tree. Counters are relaxed atomics so the
/// owning thread updates them lock-free while a snapshot reads them; the
/// Children vector is guarded by the owning ThreadState's Mu (the owner
/// locks to append, a snapshot locks to walk).
struct PhaseProfiler::PhaseNode {
  std::string Name;
  uint32_t Depth = 0; ///< Root children are depth 0.
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> SelfWallNs{0}, SelfCpuNs{0};
  std::atomic<uint64_t> TotalWallNs{0}, TotalCpuNs{0};
  std::vector<std::unique_ptr<PhaseNode>> Children;
};

struct PhaseProfiler::ThreadState {
  /// Guards tree *structure* (Children growth), not counters.
  mutable std::mutex Mu;
  PhaseNode Root; ///< Sentinel; never charged.
  /// Open frames — touched only by the owning thread.
  struct Frame {
    PhaseNode *Node = nullptr; ///< Null past MaxDepth (timed, not treed).
    uint64_t WallStart = 0, CpuStart = 0;
    uint64_t ChildWallNs = 0, ChildCpuNs = 0;
  };
  std::vector<Frame> Stack;
  std::atomic<uint64_t> Truncated{0};
};

static std::atomic<uint64_t> NextProfilerId{1};

PhaseProfiler::PhaseProfiler()
    : InstanceId(NextProfilerId.fetch_add(1, std::memory_order_relaxed)) {}

PhaseProfiler::~PhaseProfiler() = default;

PhaseProfiler &PhaseProfiler::global() {
  static PhaseProfiler *P = new PhaseProfiler(); // Never destroyed (see
  return *P;                                     // MetricsRegistry::global).
}

PhaseProfiler::ThreadState &PhaseProfiler::stateForThisThread() {
  // One-entry cache: (profiler instance, state). Keyed by InstanceId so an
  // instance recycled at the same address never aliases a stale entry.
  struct Cached {
    uint64_t Id = 0;
    ThreadState *TS = nullptr;
  };
  thread_local Cached C;
  if (C.Id == InstanceId)
    return *C.TS;
  uint32_t Tid = PipelineTracer::currentTid();
  std::lock_guard<std::mutex> Lock(RegMu);
  std::shared_ptr<ThreadState> &Slot = Threads[Tid];
  if (!Slot)
    Slot = std::make_shared<ThreadState>();
  C.Id = InstanceId;
  C.TS = Slot.get();
  return *C.TS;
}

uint64_t PhaseProfiler::wallNowNs() const {
  if (HasTestClocks.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> Lock(RegMu);
    return TestWall ? TestWall() : 0;
  }
  return steadyNowNs();
}

uint64_t PhaseProfiler::cpuNowNs() const {
  if (HasTestClocks.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> Lock(RegMu);
    return TestCpu ? TestCpu() : 0;
  }
  return threadCpuTimeNs();
}

void PhaseProfiler::setClocksForTesting(std::function<uint64_t()> Wall,
                                        std::function<uint64_t()> Cpu) {
  std::lock_guard<std::mutex> Lock(RegMu);
  TestWall = std::move(Wall);
  TestCpu = std::move(Cpu);
  HasTestClocks.store(static_cast<bool>(TestWall) ||
                          static_cast<bool>(TestCpu),
                      std::memory_order_release);
}

void PhaseProfiler::enterPhase(std::string_view Name) {
  ThreadState &TS = stateForThisThread();
  ThreadState::Frame F;
  if (TS.Stack.size() >= MaxDepth ||
      (!TS.Stack.empty() && !TS.Stack.back().Node)) {
    // Past the cap (or under a capped frame): time it into the parent so
    // ancestor self-times stay honest, but grow no tree.
    TS.Truncated.fetch_add(1, std::memory_order_relaxed);
  } else {
    PhaseNode *Parent = TS.Stack.empty() ? &TS.Root : TS.Stack.back().Node;
    // The owning thread is the only structural writer, so the find runs
    // lock-free; only the append synchronizes with a concurrent snapshot.
    PhaseNode *Child = nullptr;
    for (const auto &Ch : Parent->Children)
      if (Ch->Name == Name) {
        Child = Ch.get();
        break;
      }
    if (!Child) {
      auto N = std::make_unique<PhaseNode>();
      N->Name.assign(Name);
      N->Depth = static_cast<uint32_t>(TS.Stack.size());
      Child = N.get();
      std::lock_guard<std::mutex> Lock(TS.Mu);
      Parent->Children.push_back(std::move(N));
    }
    F.Node = Child;
  }
  F.WallStart = wallNowNs();
  F.CpuStart = cpuNowNs();
  TS.Stack.push_back(F);
}

void PhaseProfiler::exitPhase() {
  ThreadState &TS = stateForThisThread();
  assert(!TS.Stack.empty() && "exitPhase without matching enterPhase");
  if (TS.Stack.empty())
    return;
  ThreadState::Frame F = TS.Stack.back();
  TS.Stack.pop_back();
  uint64_t WallEnd = wallNowNs(), CpuEnd = cpuNowNs();
  uint64_t WallDur = WallEnd > F.WallStart ? WallEnd - F.WallStart : 0;
  uint64_t CpuDur = CpuEnd > F.CpuStart ? CpuEnd - F.CpuStart : 0;
  if (!TS.Stack.empty()) {
    TS.Stack.back().ChildWallNs += WallDur;
    TS.Stack.back().ChildCpuNs += CpuDur;
  }
  if (!F.Node)
    return; // Truncated frame: parent keeps the time as child time.
  uint64_t SelfWall = WallDur > F.ChildWallNs ? WallDur - F.ChildWallNs : 0;
  uint64_t SelfCpu = CpuDur > F.ChildCpuNs ? CpuDur - F.ChildCpuNs : 0;
  // Total before Self, Self with release: a snapshot that acquires a Self
  // value then sees at least the Total added with it, so Total >= Self
  // holds mid-run. Each node has one writer thread, so no more is needed.
  F.Node->Count.fetch_add(1, std::memory_order_relaxed);
  F.Node->TotalWallNs.fetch_add(WallDur, std::memory_order_relaxed);
  F.Node->TotalCpuNs.fetch_add(CpuDur, std::memory_order_relaxed);
  F.Node->SelfWallNs.fetch_add(SelfWall, std::memory_order_release);
  F.Node->SelfCpuNs.fetch_add(SelfCpu, std::memory_order_release);
}

ProfileSnapshot PhaseProfiler::snapshot() const {
  // Copy the registry under RegMu, then walk each thread's tree under its
  // own Mu — workers keep recording throughout (counters are atomic; the
  // per-thread lock only fences structural growth).
  std::vector<std::shared_ptr<ThreadState>> States;
  {
    std::lock_guard<std::mutex> Lock(RegMu);
    States.reserve(Threads.size());
    for (const auto &[Tid, TS] : Threads)
      States.push_back(TS);
  }
  ProfileSnapshot S;
  std::map<std::string, ProfilePhase> Agg;
  // Explicit-stack DFS merging one node into the path-keyed accumulator.
  struct Visit {
    const PhaseNode *N;
    std::string Prefix;
  };
  auto merge = [&Agg](const PhaseNode &Root) {
    bool Contributed = false;
    std::vector<Visit> Work;
    for (const auto &Ch : Root.Children)
      Work.push_back({Ch.get(), ""});
    while (!Work.empty()) {
      Visit V = std::move(Work.back());
      Work.pop_back();
      const PhaseNode &N = *V.N;
      std::string Path =
          V.Prefix.empty() ? N.Name : V.Prefix + ";" + N.Name;
      uint64_t Count = N.Count.load(std::memory_order_relaxed);
      if (Count) {
        Contributed = true;
        ProfilePhase &P = Agg[Path];
        P.Path = Path;
        P.Depth = N.Depth;
        P.Count += Count;
        // Self (acquire) before Total: pairs with exitPhase's order.
        P.SelfWallNs += N.SelfWallNs.load(std::memory_order_acquire);
        P.SelfCpuNs += N.SelfCpuNs.load(std::memory_order_acquire);
        P.TotalWallNs += N.TotalWallNs.load(std::memory_order_relaxed);
        P.TotalCpuNs += N.TotalCpuNs.load(std::memory_order_relaxed);
      }
      for (const auto &Ch : N.Children)
        Work.push_back({Ch.get(), Path});
    }
    return Contributed;
  };
  for (const auto &TS : States) {
    std::lock_guard<std::mutex> Lock(TS->Mu);
    if (merge(TS->Root))
      ++S.Threads;
    S.TruncatedFrames += TS->Truncated.load(std::memory_order_relaxed);
  }
  S.Phases.reserve(Agg.size());
  for (auto &[Path, P] : Agg)
    S.Phases.push_back(std::move(P));
  return S; // std::map iteration order == sorted by Path.
}

void PhaseProfiler::clear() {
  // Zero counters, keep structure: tree nodes may be referenced by open
  // frames on live thread stacks, so nothing is ever freed — cleared
  // paths simply stop appearing in snapshots (Count == 0 is skipped).
  std::lock_guard<std::mutex> Lock(RegMu);
  for (auto &[Tid, TS] : Threads) {
    std::lock_guard<std::mutex> TLock(TS->Mu);
    std::vector<PhaseNode *> Work;
    for (const auto &Ch : TS->Root.Children)
      Work.push_back(Ch.get());
    while (!Work.empty()) {
      PhaseNode *N = Work.back();
      Work.pop_back();
      N->Count.store(0, std::memory_order_relaxed);
      N->SelfWallNs.store(0, std::memory_order_relaxed);
      N->SelfCpuNs.store(0, std::memory_order_relaxed);
      N->TotalWallNs.store(0, std::memory_order_relaxed);
      N->TotalCpuNs.store(0, std::memory_order_relaxed);
      for (const auto &Ch : N->Children)
        Work.push_back(Ch.get());
    }
    TS->Truncated.store(0, std::memory_order_relaxed);
  }
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

std::string obs::profileToFolded(const ProfileSnapshot &S) {
  std::string Out;
  char Buf[32];
  for (const ProfilePhase &P : S.Phases) {
    if (!P.Count)
      continue;
    Out += P.Path;
    std::snprintf(Buf, sizeof(Buf), " %llu\n",
                  (unsigned long long)P.SelfWallNs);
    Out += Buf;
  }
  return Out;
}

std::string obs::profileToJson(const ProfileSnapshot &S) {
  JsonWriter W;
  W.beginObject();
  W.kv("meta", "er-profile");
  W.kv("threads", S.Threads);
  W.kv("truncated_frames", S.TruncatedFrames);
  W.key("phases");
  W.beginArray();
  for (const ProfilePhase &P : S.Phases) {
    W.beginObject();
    W.kv("path", std::string_view(P.Path));
    W.kv("depth", static_cast<uint64_t>(P.Depth));
    W.kv("count", P.Count);
    W.kv("self_wall_ns", P.SelfWallNs);
    W.kv("self_cpu_ns", P.SelfCpuNs);
    W.kv("total_wall_ns", P.TotalWallNs);
    W.kv("total_cpu_ns", P.TotalCpuNs);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// JSON read-back (er_cli profile)
//===----------------------------------------------------------------------===//
//
// Json.h is deliberately emit-only; the profile document is the one
// artifact the CLI reads back, so it gets a purpose-built strict parser
// for exactly the shape profileToJson emits (arbitrary key order and
// whitespace allowed, unknown keys rejected).

namespace {
struct ProfileParser {
  std::string_view T;
  size_t I = 0;
  std::string Err;

  void ws() {
    while (I < T.size() && (T[I] == ' ' || T[I] == '\t' || T[I] == '\n' ||
                            T[I] == '\r'))
      ++I;
  }
  bool fail(const std::string &M) {
    if (Err.empty())
      Err = M + " at offset " + std::to_string(I);
    return false;
  }
  bool expect(char C) {
    ws();
    if (I < T.size() && T[I] == C) {
      ++I;
      return true;
    }
    return fail(std::string("expected '") + C + "'");
  }
  bool parseString(std::string &Out) {
    ws();
    if (I >= T.size() || T[I] != '"')
      return fail("expected string");
    ++I;
    Out.clear();
    while (I < T.size() && T[I] != '"') {
      char C = T[I++];
      if (C == '\\') {
        if (I >= T.size())
          return fail("bad escape");
        char E = T[I++];
        switch (E) {
        case '"': Out += '"'; break;
        case '\\': Out += '\\'; break;
        case '/': Out += '/'; break;
        case 'n': Out += '\n'; break;
        case 't': Out += '\t'; break;
        case 'r': Out += '\r'; break;
        case 'b': Out += '\b'; break;
        case 'f': Out += '\f'; break;
        case 'u':
          // Span names are ASCII; a \u escape in a profile is foreign.
          return fail("unsupported \\u escape");
        default:
          return fail("bad escape");
        }
      } else {
        Out += C;
      }
    }
    if (I >= T.size())
      return fail("unterminated string");
    ++I;
    return true;
  }
  bool parseU64(uint64_t &Out) {
    ws();
    if (I >= T.size() || T[I] < '0' || T[I] > '9')
      return fail("expected number");
    Out = 0;
    while (I < T.size() && T[I] >= '0' && T[I] <= '9')
      Out = Out * 10 + static_cast<uint64_t>(T[I++] - '0');
    return true;
  }
  bool parsePhase(ProfilePhase &P) {
    if (!expect('{'))
      return false;
    bool First = true;
    for (;;) {
      ws();
      if (I < T.size() && T[I] == '}') {
        ++I;
        return true;
      }
      if (!First && !expect(','))
        return false;
      First = false;
      std::string Key;
      if (!parseString(Key) || !expect(':'))
        return false;
      uint64_t V = 0;
      if (Key == "path") {
        if (!parseString(P.Path))
          return false;
      } else if (Key == "depth") {
        if (!parseU64(V))
          return false;
        P.Depth = static_cast<uint32_t>(V);
      } else if (Key == "count") {
        if (!parseU64(P.Count))
          return false;
      } else if (Key == "self_wall_ns") {
        if (!parseU64(P.SelfWallNs))
          return false;
      } else if (Key == "self_cpu_ns") {
        if (!parseU64(P.SelfCpuNs))
          return false;
      } else if (Key == "total_wall_ns") {
        if (!parseU64(P.TotalWallNs))
          return false;
      } else if (Key == "total_cpu_ns") {
        if (!parseU64(P.TotalCpuNs))
          return false;
      } else {
        return fail("unknown phase key '" + Key + "'");
      }
    }
  }
  bool parseDoc(ProfileSnapshot &S) {
    if (!expect('{'))
      return false;
    bool First = true, SawMeta = false;
    for (;;) {
      ws();
      if (I < T.size() && T[I] == '}') {
        ++I;
        break;
      }
      if (!First && !expect(','))
        return false;
      First = false;
      std::string Key;
      if (!parseString(Key) || !expect(':'))
        return false;
      if (Key == "meta") {
        std::string Meta;
        if (!parseString(Meta))
          return false;
        if (Meta != "er-profile")
          return fail("not an er-profile document");
        SawMeta = true;
      } else if (Key == "threads") {
        if (!parseU64(S.Threads))
          return false;
      } else if (Key == "truncated_frames") {
        if (!parseU64(S.TruncatedFrames))
          return false;
      } else if (Key == "phases") {
        if (!expect('['))
          return false;
        ws();
        if (I < T.size() && T[I] == ']') {
          ++I;
        } else {
          for (;;) {
            ProfilePhase P;
            if (!parsePhase(P))
              return false;
            S.Phases.push_back(std::move(P));
            ws();
            if (I < T.size() && T[I] == ',') {
              ++I;
              continue;
            }
            if (!expect(']'))
              return false;
            break;
          }
        }
      } else {
        return fail("unknown key '" + Key + "'");
      }
    }
    ws();
    if (I != T.size())
      return fail("trailing garbage");
    if (!SawMeta)
      return fail("missing meta");
    return true;
  }
};
} // namespace

bool obs::parseProfileJson(std::string_view Text, ProfileSnapshot &Out,
                           std::string *Error) {
  ProfileParser P;
  P.T = Text;
  Out = ProfileSnapshot();
  if (P.parseDoc(Out))
    return true;
  if (Error)
    *Error = P.Err.empty() ? "malformed profile" : P.Err;
  return false;
}

std::string obs::renderProfileSummary(const ProfileSnapshot &S) {
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%-48s %8s %10s %10s %10s %6s\n", "phase",
                "count", "self ms", "cpu ms", "total ms", "cpu%");
  Out += Buf;
  for (const ProfilePhase &P : S.Phases) {
    if (!P.Count)
      continue;
    // Indent by depth; show only the leaf segment (the path prefix is the
    // preceding, shallower rows — the rows are path-sorted).
    size_t Leaf = P.Path.rfind(';');
    std::string Label(2 * P.Depth, ' ');
    Label += Leaf == std::string::npos ? P.Path : P.Path.substr(Leaf + 1);
    if (Label.size() > 48)
      Label.resize(48);
    double CpuPct =
        P.TotalWallNs ? 100.0 * P.TotalCpuNs / P.TotalWallNs : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%-48s %8llu %10.2f %10.2f %10.2f %5.1f%%\n",
                  Label.c_str(), (unsigned long long)P.Count, P.SelfWallNs / 1e6,
                  P.SelfCpuNs / 1e6, P.TotalWallNs / 1e6, CpuPct);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "threads: %llu   truncated frames: %llu   phases: %zu\n",
                (unsigned long long)S.Threads,
                (unsigned long long)S.TruncatedFrames, S.Phases.size());
  Out += Buf;
  return Out;
}

bool obs::exportProfileJson(const PhaseProfiler &P, const std::string &Path,
                            std::string *Error) {
  std::string Doc = profileToJson(P.snapshot());
  Doc += '\n';
  return writeTextFile(Path, Doc, Error);
}

bool obs::exportProfileFolded(const PhaseProfiler &P, const std::string &Path,
                              std::string *Error) {
  return writeTextFile(Path, profileToFolded(P.snapshot()), Error);
}
