//===- Bytes.h - Little-endian byte reader/writer ---------------*- C++ -*-===//
///
/// \file
/// The one little-endian integer codec behind every persisted format: spool
/// report frames (ingest/ReportCodec.h) and the solver-cache image
/// (solver/SolverCache.h). Each format lays out its own records; this header
/// only moves integers and raw bytes.
///
/// ByteReader never reads outside the span it was given. A read that would
/// run past the end returns 0, leaves the position where it was and sets a
/// failure flag that stays set, so a decoder can read a whole structure and
/// check failed() once at the end.
///
//===----------------------------------------------------------------------===//

#ifndef ER_SUPPORT_BYTES_H
#define ER_SUPPORT_BYTES_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace er {

/// Appends little-endian integers and raw bytes to a byte vector.
class ByteWriter {
public:
  explicit ByteWriter(std::vector<uint8_t> &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(V); }
  void u32(uint32_t V) { put(V); }
  void u64(uint64_t V) { put(V); }
  void bytes(const void *Data, size_t N) {
    if (N == 0)
      return;
    size_t At = Out.size();
    Out.resize(At + N);
    std::memcpy(Out.data() + At, Data, N);
  }

  /// Overwrites the four bytes at \p At (a placeholder written earlier)
  /// with \p V.
  void patchU32(size_t At, uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Out[At + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  /// Bytes in the underlying vector (not just those this writer appended).
  size_t size() const { return Out.size(); }

private:
  template <typename T> void put(T V) {
    size_t At = Out.size();
    Out.resize(At + sizeof(T));
    for (size_t I = 0; I < sizeof(T); ++I)
      Out[At + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  std::vector<uint8_t> &Out;
};

/// Bounds-checked little-endian cursor over [Data, Data + Size).
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint8_t u8() { return get<uint8_t>(); }
  uint32_t u32() { return get<uint32_t>(); }
  uint64_t u64() { return get<uint64_t>(); }

  /// Returns the next \p N bytes and steps past them, or nullptr (setting
  /// the failure flag) when fewer than \p N remain.
  const uint8_t *bytes(size_t N) {
    if (!take(N))
      return nullptr;
    const uint8_t *P = Data + Pos;
    Pos += N;
    return P;
  }

  bool failed() const { return Fail; }
  size_t pos() const { return Pos; }
  bool atEnd() const { return Pos == Size; }

private:
  /// True when \p N more bytes may be read; otherwise latches the failure.
  bool take(size_t N) {
    if (Fail || Size - Pos < N) {
      Fail = true;
      return false;
    }
    return true;
  }

  template <typename T> T get() {
    if (!take(sizeof(T)))
      return 0;
    T V = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      V |= static_cast<T>(static_cast<T>(Data[Pos + I]) << (8 * I));
    Pos += sizeof(T);
    return V;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Fail = false;
};

} // namespace er

#endif // ER_SUPPORT_BYTES_H
