//===- sim/TraceIO.h - Trace serialization ---------------------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of execution traces: record an instrumented run once and
/// analyse it offline any number of times. This is the workflow the paper
/// attributes to LiteRace ("recording synchronization, read, and write
/// operations to a log file" with offline race checks, Section 2.3), and
/// it is also how the repository's experiments can be archived and
/// replayed bit-identically. Two formats, one reader:
///
///  - *Text* (`pacer-trace v1`): a header line `pacer-trace v1 <count>`
///    followed by one action per line, `<kind> <tid> <target> <site>`,
///    with InvalidId rendered as `-`. Human-readable and diffable;
///    parsing is strict and reports the first offending line.
///
///  - *Binary* (`pacer-trace v2`): a 24-byte header (8-byte magic whose
///    first byte is 0xB7 -- non-ASCII, so the two formats are told apart
///    by the first byte of the file -- then a version word, a flags word,
///    and the record count) followed by fixed-width 12-byte little-endian
///    action records: word0 = Kind | Tid << 8, word1 = Target, word2 =
///    Site. The record layout is exactly the in-memory Action on LE hosts
///    with the expected bitfield order, so loading is a bulk read (and
///    mmap -- see sim/TraceView.h -- is a pointer cast); a portable
///    pack/unpack path covers everything else.
///
/// This file owns every format decision: traceFormatOf() is the one
/// first-byte sniff and checkBinaryTraceHeader() the one check of a v2
/// header against the file's size. Both decoders live in
/// StreamingTraceReader (sim/StreamingTraceReader.h); readTraceFile()
/// drains one, and TraceView maps a binary file after the same header
/// check or loads any other file through readTraceFile(). So every read
/// path gives the same diagnostic for the same bytes, "PATH: why".
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SIM_TRACEIO_H
#define PACER_SIM_TRACEIO_H

#include "sim/Action.h"

#include <cstdint>
#include <string>

namespace pacer {

/// On-disk trace encodings.
enum class TraceFormat : uint8_t {
  Text,   ///< pacer-trace v1, line-oriented.
  Binary, ///< pacer-trace v2, fixed-width 12-byte records.
};

/// Returns "text" or "binary".
const char *traceFormatName(TraceFormat Format);

/// Parses a --trace-format flag value; returns false on anything other
/// than "text" or "binary".
bool parseTraceFormat(const std::string &Text, TraceFormat &Format);

// --- Binary format v2 constants -----------------------------------------

/// First byte of a v2 file. Deliberately non-ASCII: a text trace starts
/// with 'p', so one byte classifies a file.
inline constexpr unsigned char BinaryTraceMagic0 = 0xB7;

/// Full 8-byte magic: 0xB7 'P' 'A' 'C' 'E' 'R' 'v' '2'.
inline constexpr unsigned char BinaryTraceMagic[8] = {
    BinaryTraceMagic0, 'P', 'A', 'C', 'E', 'R', 'v', '2'};

/// Header: magic[8] + u32 version + u32 flags (reserved, 0) + u64 count.
inline constexpr size_t BinaryTraceHeaderBytes = 24;
inline constexpr uint32_t BinaryTraceVersion = 2;

/// The format of a file whose first byte is \p FirstByte.
inline TraceFormat traceFormatOf(unsigned char FirstByte) {
  return FirstByte == BinaryTraceMagic0 ? TraceFormat::Binary
                                        : TraceFormat::Text;
}

/// One record: Kind | Tid << 8, Target, Site -- all little-endian u32.
inline constexpr size_t BinaryTraceRecordBytes = 12;
static_assert(BinaryTraceRecordBytes == sizeof(Action),
              "v2 records mirror the in-memory Action");

/// True when the host's Action layout is byte-for-byte the v2 record
/// encoding (little-endian, Kind in the low byte of word0): bulk reads
/// and writes can then move Actions without packing, and a mapped file
/// is directly a span of Actions. Checked once at runtime; exotic ABIs
/// fall back to the portable pack/unpack path everywhere.
bool actionLayoutMatchesBinaryRecord();

/// Encodes \p A into \p Out (exactly BinaryTraceRecordBytes), portably.
void packBinaryRecord(const Action &A, unsigned char *Out);

/// Decodes one record into \p A, its kind byte included; returns false
/// when that byte names no ActionKind (validateActionRecord then rejects
/// A as a bulk-read record with the same byte).
bool unpackBinaryRecord(const unsigned char *In, Action &A);

/// Validates one record. Its kind byte must name an ActionKind: bulk
/// reads and mappings move records without decoding them, so nothing
/// else has checked it. Only ThreadExit may omit its target (InvalidId,
/// "-" in text): detectors size their per-target state as Target + 1,
/// which wraps to 0 for InvalidId. A read or write target must also not
/// be InvalidId - 1, FlatVarTable's tombstone sentinel. Fork and Join
/// carry a child ThreadId in Target, which must fit the 24-bit tid space
/// (MaxActionTid) like every other tid -- a larger value cannot have come
/// from the writer and would grow per-thread detector state without
/// bound. Returns nullptr for a well-formed record, else a static reason
/// string. Every record is checked before analysis sees it: by
/// StreamingTraceReader's decoders as they load (so by readTraceFile and
/// TraceView's load too), by TraceView::open on a mapping, and on the
/// default mapped path by the replay segmenter as it scans
/// (Runtime::replayChunk). Inline because the segmenter applies it per
/// record.
inline const char *validateActionRecord(const Action &A) {
  if (static_cast<uint8_t>(A.Kind) >
      static_cast<uint8_t>(ActionKind::ThreadExit))
    return "bad action kind";
  // One compare settles nearly every record: a target inside the tid
  // space is legal for every kind.
  if (A.Target <= MaxActionTid)
    return nullptr;
  if (A.Target == InvalidId)
    return A.Kind == ActionKind::ThreadExit ? nullptr : "missing target id";
  if (A.Kind == ActionKind::Fork || A.Kind == ActionKind::Join)
    return "fork/join child thread id out of range";
  if ((A.Kind == ActionKind::Read || A.Kind == ActionKind::Write) &&
      A.Target == InvalidId - 1)
    return "variable id out of range";
  return nullptr;
}

/// Index of the first record of \p T that validateActionRecord rejects,
/// with \p Why set to its reason; T.size() (Why untouched) when every
/// record is valid. The one whole-span check: the binary decoder and
/// TraceView::open run it, and so do the analysis paths that read a
/// mapped trace before or without the segmenter (sharded replay, the
/// escape-analysis filter).
size_t firstInvalidRecord(TraceSpan T, const char *&Why);

/// The diagnostic every read path gives for a rejected record:
/// "PATH: WHY in record N".
std::string invalidRecordError(const std::string &Path, const char *Why,
                               uint64_t Record);

/// Renders the 24-byte v2 header for \p Count records into \p Out.
void packBinaryHeader(uint64_t Count, unsigned char *Out);

/// Checks the v2 header of \p Path, a file of \p FileBytes bytes (at
/// least 1) whose first min(FileBytes, BinaryTraceHeaderBytes) bytes are
/// \p Header. Returns an empty string, with \p Count set, when the magic,
/// version and flags are right and exactly Count records follow the
/// header. Otherwise returns "PATH: " and the first defect of: truncated
/// header, bad binary trace magic, unsupported binary trace version,
/// unsupported binary trace flags, truncated trace (header promises N
/// records), trailing bytes after N records. Because the count is checked
/// against the size before anything is sized by it, a hostile count can
/// cost no allocation.
std::string checkBinaryTraceHeader(const std::string &Path,
                                   const unsigned char *Header,
                                   uint64_t FileBytes, uint64_t &Count);

// --- Text format ---------------------------------------------------------

/// Serializes \p T into the text format.
std::string serializeTrace(TraceSpan T);

/// Result of parsing: either a trace or a diagnostic.
struct TraceParseResult {
  Trace T;
  bool Ok = false;
  std::string Error; ///< Empty when Ok.
};

/// Parses the text format produced by serializeTrace().
TraceParseResult parseTrace(const std::string &Text);

/// Incremental text parser: append() file bytes in any chunking, drain()
/// parsed actions in bounded batches. Backs parseTrace() and
/// StreamingTraceReader's text decoder -- at no point do the whole file's
/// bytes sit in memory.
class TextTraceParser {
public:
  /// Buffers \p Len more input bytes.
  void append(const char *Data, size_t Len);

  /// Parses buffered *complete* lines into \p Out until \p Max actions
  /// have been appended or the buffer holds no full line. Call finish()
  /// at end of input to flush a final unterminated line. Returns false
  /// on a malformed line (error() names it); the parser is then stuck.
  bool drain(Trace &Out, size_t Max);

  /// Marks end of input and parses any remaining buffered text (the
  /// final line may lack a newline). drain() afterwards returns the
  /// leftovers if \p Max truncated this call's output.
  bool finish(Trace &Out, size_t Max);

  /// Empty until a parse error; then "line N: why".
  const std::string &error() const { return Error; }

private:
  bool parseLine(const char *Begin, const char *End, Trace &Out);
  bool failLine(const char *Why);

  std::string Buf;
  size_t Pos = 0; ///< Scan position within Buf.
  size_t LineNo = 0;
  bool SawHeader = false;
  bool Finished = false;
  bool Failed = false;
  std::string Error;
};

// --- Files ---------------------------------------------------------------

/// Writes \p T to \p Path in the text format. Returns false on I/O error.
bool writeTraceFile(const std::string &Path, TraceSpan T);

/// Writes \p T to \p Path in the binary v2 format.
bool writeTraceFileBinary(const std::string &Path, TraceSpan T);

/// Writes \p T to \p Path in \p Format.
bool writeTraceFile(const std::string &Path, TraceSpan T,
                    TraceFormat Format);

/// Reads a trace from \p Path in either format: drains a
/// StreamingTraceReader into one Trace, so it accepts and rejects exactly
/// what the reader does, with the reader's diagnostic. \p Format, when
/// non-null, receives the detected format on success.
TraceParseResult readTraceFile(const std::string &Path,
                               TraceFormat *Format = nullptr);

} // namespace pacer

#endif // PACER_SIM_TRACEIO_H
