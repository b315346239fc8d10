// Binary serialization of OTF2-lite traces.
//
// The library writes one format and reads three generations through one
// entry point:
//
//   v4 ("OTF2LTv4", the only format written) — the alignment-safe
//   section-table format (see trace/format.hpp for the exact layout).
//   Sections are zero-padded to 8-byte multiples and the event columns are
//   ordered widest-first (times, values, ids, kinds), so every column sits
//   on an 8-byte boundary. That lets the zero-copy reader
//   (trace/mapped.hpp) alias the columns in place inside a memory mapping;
//   this buffered reader and the mapped one share a single parser, so they
//   accept and reject files identically. The body is covered by a
//   lane-FNV-1a checksum footer.
//
//   v3 ("OTF2LTv3") and v2 ("OTF2LTv2") — read-only, so archived traces
//   stay readable. v3 is the unpadded section-table format; v2 is the
//   per-record stream with a byte-wise FNV-1a footer. Golden byte fixtures
//   (tests/trace_goldens.hpp) pin both readers.
//
// All readers fully validate structure AND integrity, so any truncation
// or bit flip — including ones inside numeric payloads that would parse
// fine — fails loudly instead of producing silent garbage profiles.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace pwx::trace {

/// Serialize to a binary stream / file (v4 aligned section-table format).
/// Throws pwx::IoError on failure.
void write_trace(const Trace& trace, std::ostream& out);
void write_trace_file(const Trace& trace, const std::string& path);

/// Deserialize v4, v3, or v2 bytes; throws pwx::IoError on malformed,
/// truncated, or corrupted input. The error carries the byte offset and
/// event-record index where parsing stopped (IoError::byte_offset /
/// record_index).
Trace read_trace(std::istream& in);
Trace read_trace_file(const std::string& path);

}  // namespace pwx::trace
