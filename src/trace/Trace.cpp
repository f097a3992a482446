//===- Trace.cpp - PT-style packet encoding and decoding --------------------===//
//
// Packet wire format (tag in the first byte):
//   odd byte        short TNT: bit0 = 1, then N outcome bits at positions
//                   1..N and a stop bit at position N+1 (1 <= N <= 6).
//   0x02            TIP: 4-byte little-endian target instruction id.
//   0x04            CHUNK: 6-byte quantized timestamp + 2-byte instruction
//                   count (counts > 65535 are split across packets).
//   0x06            PTW: 1-byte payload size (4 or 8) + payload bytes.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "support/Error.h"

#include <cassert>

using namespace er;

static constexpr uint8_t TagTip = 0x02;
static constexpr uint8_t TagChunk = 0x04;
static constexpr uint8_t TagPtw = 0x06;

TraceRecorder::ThreadStream &TraceRecorder::stream(uint32_t Tid) {
  for (auto &S : Streams)
    if (S.Tid == Tid)
      return S;
  fatalError("trace stream for unknown thread");
}

void TraceRecorder::beginThread(uint32_t Tid) {
  ThreadStream S;
  S.Tid = Tid;
  Streams.push_back(std::move(S));
}

void TraceRecorder::appendPacket(ThreadStream &S, const uint8_t *Data,
                                 uint32_t Len) {
  for (uint32_t I = 0; I < Len; ++I)
    S.Bytes.push_back(Data[I]);
  S.PacketLens.push_back(Len);
  Stats.BytesWritten += Len;
  LiveBytes += Len;
  evictIfNeeded();
}

void TraceRecorder::evictIfNeeded() {
  while (LiveBytes > Config.BufferBytes) {
    // Overwrite the oldest packets of the largest stream (a single shared
    // ring in the model; per-stream eviction keeps decode packet-aligned).
    ThreadStream *Largest = nullptr;
    for (auto &S : Streams)
      if (!S.Bytes.empty() && (!Largest || S.Bytes.size() > Largest->Bytes.size()))
        Largest = &S;
    if (!Largest)
      return;
    uint32_t Len = Largest->PacketLens.front();
    Largest->PacketLens.pop_front();
    for (uint32_t I = 0; I < Len; ++I)
      Largest->Bytes.pop_front();
    Largest->TruncatedFront = true;
    Stats.EvictedBytes += Len;
    LiveBytes -= Len;
  }
}

void TraceRecorder::flushTnt(ThreadStream &S) {
  if (S.PendingTntCount == 0)
    return;
  // bit0 = 1 header, outcome bits at 1..N, stop bit at N+1.
  uint8_t Byte = 1;
  Byte |= static_cast<uint8_t>(S.PendingTnt << 1);
  Byte |= static_cast<uint8_t>(1u << (S.PendingTntCount + 1));
  appendPacket(S, &Byte, 1);
  ++Stats.TntPackets;
  S.PendingTnt = 0;
  S.PendingTntCount = 0;
}

void TraceRecorder::condBranch(uint32_t Tid, bool Taken) {
  ThreadStream &S = stream(Tid);
  S.PendingTnt |= static_cast<uint8_t>(Taken ? 1u << S.PendingTntCount : 0);
  ++S.PendingTntCount;
  if (S.PendingTntCount == 6)
    flushTnt(S);
}

void TraceRecorder::returnTarget(uint32_t Tid, uint32_t TargetGlobalId) {
  ThreadStream &S = stream(Tid);
  flushTnt(S);
  uint8_t Pkt[5];
  Pkt[0] = TagTip;
  for (int I = 0; I < 4; ++I)
    Pkt[1 + I] = static_cast<uint8_t>(TargetGlobalId >> (8 * I));
  appendPacket(S, Pkt, sizeof(Pkt));
  ++Stats.TipPackets;
}

void TraceRecorder::ptWrite(uint32_t Tid, uint64_t Value) {
  ThreadStream &S = stream(Tid);
  flushTnt(S);
  bool Small = Value <= 0xffffffffull;
  uint8_t Pkt[10];
  Pkt[0] = TagPtw;
  Pkt[1] = Small ? 4 : 8;
  for (int I = 0; I < Pkt[1]; ++I)
    Pkt[2 + I] = static_cast<uint8_t>(Value >> (8 * I));
  appendPacket(S, Pkt, 2u + Pkt[1]);
  ++Stats.PtwPackets;
}

void TraceRecorder::endChunk(uint32_t Tid, uint64_t Timestamp,
                             uint64_t NumInstrs) {
  ThreadStream &S = stream(Tid);
  flushTnt(S);
  uint64_t Quantized = Timestamp >> Config.TimerGranularityShift;
  while (NumInstrs > 0) {
    uint64_t Count = NumInstrs > 0xffff ? 0xffff : NumInstrs;
    NumInstrs -= Count;
    uint8_t Pkt[9];
    Pkt[0] = TagChunk;
    for (int I = 0; I < 6; ++I)
      Pkt[1 + I] = static_cast<uint8_t>(Quantized >> (8 * I));
    Pkt[7] = static_cast<uint8_t>(Count);
    Pkt[8] = static_cast<uint8_t>(Count >> 8);
    appendPacket(S, Pkt, sizeof(Pkt));
    ++Stats.ChunkPackets;
  }
}

void TraceRecorder::finish() {
  for (auto &S : Streams)
    flushTnt(S);
}

DecodedThread er::decodeThreadBytes(uint32_t Tid,
                                    const std::vector<uint8_t> &Bytes,
                                    bool TruncatedFront) {
  DecodedThread D;
  D.Tid = Tid;
  D.TruncatedFront = TruncatedFront;
  size_t I = 0;
  while (I < Bytes.size()) {
    uint8_t B = Bytes[I];
    if (B & 1) {
      // Short TNT: find the stop bit (highest set bit above position 0).
      unsigned Stop = 7;
      while (Stop > 0 && !((B >> Stop) & 1))
        --Stop;
      assert(Stop >= 2 && "malformed TNT byte");
      for (unsigned Pos = 1; Pos < Stop; ++Pos) {
        TraceEvent E;
        E.K = TraceEvent::Kind::CondBranch;
        E.Taken = (B >> Pos) & 1;
        D.Events.push_back(E);
      }
      ++I;
      continue;
    }
    switch (B) {
    case TagTip: {
      uint64_t V = 0;
      for (int K = 0; K < 4; ++K)
        V |= static_cast<uint64_t>(Bytes[I + 1 + K]) << (8 * K);
      TraceEvent E;
      E.K = TraceEvent::Kind::ReturnTarget;
      E.Value = V;
      D.Events.push_back(E);
      I += 5;
      break;
    }
    case TagChunk: {
      uint64_t Ts = 0;
      for (int K = 0; K < 6; ++K)
        Ts |= static_cast<uint64_t>(Bytes[I + 1 + K]) << (8 * K);
      uint64_t Count = Bytes[I + 7] | (static_cast<uint64_t>(Bytes[I + 8]) << 8);
      D.Chunks.push_back({Ts, Count});
      I += 9;
      break;
    }
    case TagPtw: {
      unsigned Size = Bytes[I + 1];
      uint64_t V = 0;
      for (unsigned K = 0; K < Size; ++K)
        V |= static_cast<uint64_t>(Bytes[I + 2 + K]) << (8 * K);
      TraceEvent E;
      E.K = TraceEvent::Kind::Data;
      E.Value = V;
      D.Events.push_back(E);
      I += 2 + Size;
      break;
    }
    default:
      fatalError("malformed trace packet tag");
    }
  }
  return D;
}

DecodedTrace TraceRecorder::decode() const {
  DecodedTrace D;
  for (const auto &S : Streams) {
    std::vector<uint8_t> Bytes(S.Bytes.begin(), S.Bytes.end());
    // Pending (unflushed) TNT bits are part of the logical stream; callers
    // normally call finish() first, but decode defensively includes them.
    if (S.PendingTntCount > 0) {
      uint8_t Byte = 1;
      Byte |= static_cast<uint8_t>(S.PendingTnt << 1);
      Byte |= static_cast<uint8_t>(1u << (S.PendingTntCount + 1));
      Bytes.push_back(Byte);
    }
    D.Threads.push_back(decodeThreadBytes(S.Tid, Bytes, S.TruncatedFront));
  }
  return D;
}
