//===- ReportCodec.h - Failure-report wire format ----------------*- C++ -*-===//
///
/// \file
/// The versioned binary encoding that carries FleetFailureReports from
/// production machines to the reconstruction service (docs/INGEST.md).
/// A spool file is:
///
///   [8-byte magic "ERSPOOL\n"] [u32 version] [record]*
///
/// and each record is length-prefixed and CRC-protected:
///
///   [u32 payload length] [u32 CRC32(payload)] [payload bytes]
///
/// The payload serializes (machine id, sequence, bug id, FailureRecord)
/// little-endian with length-prefixed strings/arrays. Decoding never
/// trusts a length field further than the bytes actually present, so a
/// truncated or bit-flipped file yields a typed error, not a crash — the
/// collector quarantines such files.
///
/// Everything here is pure byte-vector transformation over the shared
/// little-endian primitives in support/Bytes.h; file and directory handling
/// lives in ReportSpool / ReportCollector.
///
//===----------------------------------------------------------------------===//

#ifndef ER_INGEST_REPORTCODEC_H
#define ER_INGEST_REPORTCODEC_H

#include "fleet/FleetScheduler.h"
#include "support/Crc.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace er {

/// Current wire version. Decoders reject anything else (forward
/// compatibility is by quarantine, not by guessing).
constexpr uint32_t SpoolWireVersion = 1;

/// Why a decode stopped.
enum class DecodeStatus {
  Ok,
  Truncated,      ///< Bytes end mid-header or mid-record.
  BadMagic,       ///< File does not start with the spool magic.
  BadVersion,     ///< Magic matched but the version is unknown.
  BadChecksum,    ///< Record CRC32 mismatch (bit rot / torn write).
  Malformed,      ///< Internal lengths inconsistent or field out of range.
};

const char *decodeStatusName(DecodeStatus S);

// crc32 (support/Crc.h) checksums every spool record.

/// Appends the 12-byte spool file header (magic + version) to \p Out.
void encodeSpoolHeader(std::vector<uint8_t> &Out);

/// Validates the header at \p Offset, advancing it past the header on
/// success. On BadVersion, \p Version receives the rejected value.
DecodeStatus decodeSpoolHeader(const uint8_t *Data, size_t Size,
                               size_t &Offset, uint32_t &Version);

/// Appends one length-prefixed, CRC-protected record for \p R to \p Out.
void encodeReport(const FleetFailureReport &R, std::vector<uint8_t> &Out);

/// Decodes one record at \p Offset, advancing it past the record on
/// success. Returns Truncated when fewer bytes remain than the prefix
/// promises, BadChecksum on CRC mismatch, Malformed when the payload's
/// internal structure is inconsistent.
DecodeStatus decodeReport(const uint8_t *Data, size_t Size, size_t &Offset,
                          FleetFailureReport &Out);

/// Decodes a whole spool file (header, then records to the last byte),
/// appending each record to \p Out. The file is only good if every record
/// is: on any status but Ok, callers must discard all of it (partial
/// credit from a torn file would skew occurrence counts), and \p Out may
/// hold the records decoded before the defect.
DecodeStatus decodeSpoolFile(const uint8_t *Data, size_t Size,
                             std::vector<FleetFailureReport> &Out);

} // namespace er

#endif // ER_INGEST_REPORTCODEC_H
