//===- Trace.h - Software model of Intel PT tracing -------------*- C++ -*-===//
///
/// \file
/// A software model of the hardware tracing fabric ER builds on (Intel PT):
///
///  - **TNT packets**: conditional-branch outcomes, bit-packed six to a byte
///    (matching PT's short-TNT compression, which is what makes control-flow
///    tracing ~0.3% overhead).
///  - **TIP packets**: return targets (direct branches/calls generate no
///    packets, as in PT).
///  - **CHUNK packets**: coarse timestamps (TSC/CYC in PT) emitted at
///    scheduling-chunk boundaries, carrying the quantized start time and the
///    chunk's instruction count. These give the partial order across threads
///    that Section 3.4 of the paper relies on.
///  - **PTW packets**: data values recorded by `ptwrite` instrumentation.
///  - A bounded **ring buffer** per traced process: when the configured
///    capacity is exceeded the oldest packets are overwritten (truncating
///    the front of the trace), exactly the failure mode the paper sizes its
///    64MB buffer to avoid.
///
/// The encoder is driven by the concrete VM; the decoder feeds shepherded
/// symbolic execution.
///
//===----------------------------------------------------------------------===//

#ifndef ER_TRACE_TRACE_H
#define ER_TRACE_TRACE_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace er {

/// Tracing configuration for one deployment.
struct TraceConfig {
  /// Ring-buffer capacity in bytes (paper default: 64 MB).
  uint64_t BufferBytes = 64ull * 1024 * 1024;
  /// Quantization shift applied to chunk timestamps; larger values model a
  /// coarser hardware timer (timestamps become equal more often, making the
  /// cross-thread order partial).
  unsigned TimerGranularityShift = 4;
};

/// One decoded trace event, in per-thread program order.
struct TraceEvent {
  enum class Kind : uint8_t {
    CondBranch,     ///< Taken bit of a conditional branch.
    ReturnTarget,   ///< Global instruction id execution resumes at.
    Data,           ///< ptwrite payload.
  };
  Kind K;
  bool Taken = false;
  uint64_t Value = 0;
};

/// A scheduling chunk: instructions [begin, begin+NumInstrs) of a thread's
/// dynamic stream executed consecutively starting at (quantized) Timestamp.
struct ChunkInfo {
  uint64_t Timestamp = 0;
  uint64_t NumInstrs = 0;
};

/// The decoded per-thread stream.
struct DecodedThread {
  uint32_t Tid = 0;
  bool TruncatedFront = false; ///< Ring buffer overwrote this thread's head.
  std::vector<TraceEvent> Events;
  std::vector<ChunkInfo> Chunks;
};

/// A fully decoded trace bundle.
struct DecodedTrace {
  std::vector<DecodedThread> Threads;
  bool anyTruncated() const {
    for (const auto &T : Threads)
      if (T.TruncatedFront)
        return true;
    return false;
  }
  const DecodedThread *thread(uint32_t Tid) const {
    for (const auto &T : Threads)
      if (T.Tid == Tid)
        return &T;
    return nullptr;
  }
};

/// Byte-accurate sizing statistics (drive the overhead model).
struct TraceStats {
  uint64_t BytesWritten = 0; ///< Total encoded bytes, before ring eviction.
  uint64_t TntPackets = 0;
  uint64_t TipPackets = 0;
  uint64_t ChunkPackets = 0;
  uint64_t PtwPackets = 0;
  uint64_t EvictedBytes = 0; ///< Bytes overwritten by the ring buffer.
};

/// Encodes per-thread packet streams into a shared ring budget.
class TraceRecorder {
public:
  explicit TraceRecorder(const TraceConfig &Config) : Config(Config) {}

  /// Starts (or restarts) recording for a thread.
  void beginThread(uint32_t Tid);

  /// Records one conditional branch outcome.
  void condBranch(uint32_t Tid, bool Taken);
  /// Records a return resuming at instruction \p TargetGlobalId.
  void returnTarget(uint32_t Tid, uint32_t TargetGlobalId);
  /// Records a ptwrite payload.
  void ptWrite(uint32_t Tid, uint64_t Value);
  /// Closes the current scheduling chunk: \p Timestamp is the unquantized
  /// chunk start time, \p NumInstrs the instructions it covered.
  void endChunk(uint32_t Tid, uint64_t Timestamp, uint64_t NumInstrs);

  /// Flushes pending TNT bits on all threads (call at failure time).
  void finish();

  /// Decodes the recorded buffer.
  DecodedTrace decode() const;

  const TraceStats &getStats() const { return Stats; }
  uint64_t bytesLive() const { return LiveBytes; }
  const TraceConfig &getConfig() const { return Config; }

private:
  struct ThreadStream {
    uint32_t Tid = 0;
    std::deque<uint8_t> Bytes;
    std::deque<uint32_t> PacketLens;
    uint8_t PendingTnt = 0;      ///< Accumulated TNT bits.
    uint8_t PendingTntCount = 0; ///< How many bits are pending (max 6).
    bool TruncatedFront = false;
  };

  ThreadStream &stream(uint32_t Tid);
  void flushTnt(ThreadStream &S);
  void appendPacket(ThreadStream &S, const uint8_t *Data, uint32_t Len);
  void evictIfNeeded();

  TraceConfig Config;
  std::vector<ThreadStream> Streams;
  TraceStats Stats;
  uint64_t LiveBytes = 0;
};

/// Decodes one thread's raw packet bytes (exposed for tests).
DecodedThread decodeThreadBytes(uint32_t Tid,
                                const std::vector<uint8_t> &Bytes,
                                bool TruncatedFront);

} // namespace er

#endif // ER_TRACE_TRACE_H
