//===- Crc.cpp - CRC-32 checksum -------------------------------------------===//

#include "support/Crc.h"

#include <array>

using namespace er;

uint32_t er::crc32(const uint8_t *Data, size_t Len, uint32_t Prev) {
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = Prev ^ 0xFFFFFFFFu;
  for (size_t I = 0; I < Len; ++I)
    C = Table[(C ^ Data[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}
