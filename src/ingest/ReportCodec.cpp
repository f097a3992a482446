//===- ReportCodec.cpp - Failure-report wire format -------------------------===//

#include "ingest/ReportCodec.h"

#include "support/Bytes.h"

#include <cstring>

using namespace er;

static const uint8_t SpoolMagic[8] = {'E', 'R', 'S', 'P', 'O', 'O', 'L', '\n'};

/// Sanity bounds: no legitimate report approaches these; a length field
/// beyond them is corruption, and rejecting early keeps a flipped length
/// byte from turning into a giant allocation.
static constexpr uint32_t MaxPayloadBytes = 1u << 20;
static constexpr uint32_t MaxStackDepth = 1u << 16;

const char *er::decodeStatusName(DecodeStatus S) {
  switch (S) {
  case DecodeStatus::Ok:          return "ok";
  case DecodeStatus::Truncated:   return "truncated";
  case DecodeStatus::BadMagic:    return "bad-magic";
  case DecodeStatus::BadVersion:  return "bad-version";
  case DecodeStatus::BadChecksum: return "bad-checksum";
  case DecodeStatus::Malformed:   return "malformed";
  }
  return "unknown";
}

/// Reads a string prefixed by its u32 byte count.
static bool readString(ByteReader &R, std::string &S) {
  uint32_t N = R.u32();
  const uint8_t *P = R.bytes(N);
  if (R.failed())
    return false;
  S.assign(reinterpret_cast<const char *>(P), N);
  return true;
}

static void writeString(ByteWriter &W, const std::string &S) {
  W.u32(static_cast<uint32_t>(S.size()));
  W.bytes(S.data(), S.size());
}

//===----------------------------------------------------------------------===//
// Header
//===----------------------------------------------------------------------===//

void er::encodeSpoolHeader(std::vector<uint8_t> &Out) {
  ByteWriter W(Out);
  W.bytes(SpoolMagic, sizeof(SpoolMagic));
  W.u32(SpoolWireVersion);
}

DecodeStatus er::decodeSpoolHeader(const uint8_t *Data, size_t Size,
                                   size_t &Offset, uint32_t &Version) {
  if (Size - Offset < sizeof(SpoolMagic) + 4)
    return DecodeStatus::Truncated;
  if (std::memcmp(Data + Offset, SpoolMagic, sizeof(SpoolMagic)) != 0)
    return DecodeStatus::BadMagic;
  Version = ByteReader(Data + Offset + sizeof(SpoolMagic), 4).u32();
  if (Version != SpoolWireVersion)
    return DecodeStatus::BadVersion;
  Offset += sizeof(SpoolMagic) + 4;
  return DecodeStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Records
//===----------------------------------------------------------------------===//

void er::encodeReport(const FleetFailureReport &R, std::vector<uint8_t> &Out) {
  // The payload goes straight into Out behind a placeholder prefix; its
  // length and CRC are patched in once it is complete.
  ByteWriter W(Out);
  size_t Prefix = W.size();
  W.u32(0);
  W.u32(0);
  W.u64(R.MachineId);
  W.u64(R.Sequence);
  writeString(W, R.BugId);
  W.u8(static_cast<uint8_t>(R.Failure.Kind));
  W.u32(R.Failure.InstrGlobalId);
  W.u32(R.Failure.Tid);
  W.u32(static_cast<uint32_t>(R.Failure.CallStack.size()));
  for (unsigned Site : R.Failure.CallStack)
    W.u32(Site);
  writeString(W, R.Failure.Message);

  size_t Len = W.size() - Prefix - 8;
  W.patchU32(Prefix, static_cast<uint32_t>(Len));
  W.patchU32(Prefix + 4, crc32(Out.data() + Prefix + 8, Len));
}

DecodeStatus er::decodeReport(const uint8_t *Data, size_t Size, size_t &Offset,
                              FleetFailureReport &Out) {
  if (Size - Offset < 8)
    return DecodeStatus::Truncated;
  ByteReader Prefix(Data + Offset, 8);
  uint32_t Len = Prefix.u32();
  uint32_t Crc = Prefix.u32();
  if (Len > MaxPayloadBytes)
    return DecodeStatus::Malformed;
  if (Size - Offset - 8 < Len)
    return DecodeStatus::Truncated;

  const uint8_t *Payload = Data + Offset + 8;
  if (crc32(Payload, Len) != Crc)
    return DecodeStatus::BadChecksum;

  ByteReader R(Payload, Len);
  FleetFailureReport Rep;
  Rep.MachineId = R.u64();
  Rep.Sequence = R.u64();
  readString(R, Rep.BugId);
  uint8_t Kind = R.u8();
  Rep.Failure.InstrGlobalId = R.u32();
  Rep.Failure.Tid = R.u32();
  uint32_t StackLen = R.u32();
  if (R.failed() || Kind > static_cast<uint8_t>(FailureKind::InputUnderrun) ||
      StackLen > MaxStackDepth)
    return DecodeStatus::Malformed;
  Rep.Failure.Kind = static_cast<FailureKind>(Kind);
  Rep.Failure.CallStack.reserve(StackLen);
  for (uint32_t I = 0; I < StackLen && !R.failed(); ++I)
    Rep.Failure.CallStack.push_back(R.u32());
  if (!readString(R, Rep.Failure.Message) || !R.atEnd())
    return DecodeStatus::Malformed;

  Out = std::move(Rep);
  Offset += 8 + Len;
  return DecodeStatus::Ok;
}

DecodeStatus er::decodeSpoolFile(const uint8_t *Data, size_t Size,
                                 std::vector<FleetFailureReport> &Out) {
  size_t Offset = 0;
  uint32_t Version = 0;
  DecodeStatus S = decodeSpoolHeader(Data, Size, Offset, Version);
  while (S == DecodeStatus::Ok && Offset < Size) {
    FleetFailureReport R;
    S = decodeReport(Data, Size, Offset, R);
    if (S == DecodeStatus::Ok)
      Out.push_back(std::move(R));
  }
  return S;
}
