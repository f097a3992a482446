//===- Crc.h - CRC-32 checksum ----------------------------------*- C++ -*-===//
///
/// \file
/// The CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used by every
/// on-disk and on-wire frame in the project: spool report frames
/// (ingest/ReportCodec.h) and the persistent solver-cache image
/// (solver/SolverCache.h). One definition here so the formats provably
/// agree on what "corrupt" means.
///
/// The optional \p Prev continues a running checksum, so a CRC over
/// bytes that are not contiguous needs no copy:
/// crc32(B, Lb, crc32(A, La)) == crc32(A || B).
///
//===----------------------------------------------------------------------===//

#ifndef ER_SUPPORT_CRC_H
#define ER_SUPPORT_CRC_H

#include <cstddef>
#include <cstdint>

namespace er {

/// CRC-32 of \p Len bytes at \p Data, continuing from the CRC-32 \p Prev
/// of the bytes before them (0 starts a fresh checksum).
uint32_t crc32(const uint8_t *Data, size_t Len, uint32_t Prev = 0);

} // namespace er

#endif // ER_SUPPORT_CRC_H
