//===- sim/StreamingTraceReader.h - Bounded-window trace input -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads a trace file -- text or binary -- through a bounded window of
/// actions: next() yields consecutive spans of at most windowActions()
/// actions, reusing one allocation, so a replay driven from the reader
/// holds O(window + detector metadata) memory regardless of trace size
/// (Runtime::replayChunk makes any chunking bit-identical to an in-memory
/// replay). The same single pass can feed a TraceIndex::Builder, which is
/// how racedetect resolves --shards=auto without ever materializing the
/// trace.
///
/// This is the repository's one decoder per format, and every other read
/// path goes through it: readTraceFile drains a reader, and TraceView
/// loads through readTraceFile whatever it cannot map. Opening reads the
/// file's size and first bytes, sniffs the format (traceFormatOf), and
/// for a binary trace runs checkBinaryTraceHeader, so a bad header, a
/// truncated body or trailing bytes fail here, before any record is
/// read. Binary windows are then bulk freads (a memcpy per window on
/// matching ABIs) checked record by record; text windows parse line by
/// line through TextTraceParser. A record or line error ends the stream
/// with ok() == false; consumers must check ok() after the last chunk.
/// Every diagnostic names the file: "PATH: why".
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SIM_STREAMINGTRACEREADER_H
#define PACER_SIM_STREAMINGTRACEREADER_H

#include "sim/Action.h"
#include "sim/TraceIO.h"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

namespace pacer {

/// Bounded-memory sequential reader over a trace file.
class StreamingTraceReader {
public:
  /// Default window: 64k actions = 768 KiB resident trace bytes.
  static constexpr size_t DefaultWindowActions = 64 << 10;

  /// Largest window: 16M actions = 192 MiB of records. The reader sizes
  /// its buffer from the window and from the header's untrusted record
  /// count, so an unbounded window would let either one abort the
  /// process with an allocation failure.
  static constexpr size_t MaxWindowActions = size_t(1) << 24;

  /// Opens \p Path with a window of \p WindowActions (clamped to
  /// [1, MaxWindowActions]). Check ok() before streaming: an unopenable
  /// or empty file, and a binary header that does not match the file's
  /// size, fail here.
  explicit StreamingTraceReader(
      const std::string &Path,
      size_t WindowActions = DefaultWindowActions);

  ~StreamingTraceReader();
  StreamingTraceReader(const StreamingTraceReader &) = delete;
  StreamingTraceReader &operator=(const StreamingTraceReader &) = delete;

  /// Returns the next window of actions; empty at end of stream (or on
  /// error -- check ok()). The span aliases the reader's window buffer
  /// and is invalidated by the next call.
  TraceSpan next();

  /// False after any I/O or parse error; error() has the diagnostic.
  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }

  /// True once the stream is exhausted (successfully or not).
  bool done() const { return Done; }

  TraceFormat format() const { return Format; }
  size_t windowActions() const { return Window; }

  /// Actions handed out so far.
  uint64_t actionsDelivered() const { return Delivered; }

  /// Records in a binary trace (its header's count, checked against the
  /// file size at open); nullopt for text (the text header's count is
  /// advisory and not trusted).
  std::optional<uint64_t> totalActions() const { return Total; }

private:
  TraceSpan nextBinary();
  TraceSpan nextText();
  void fail(std::string Why);
  void close(); ///< Ends the stream.

  std::string Path;
  std::FILE *File = nullptr;
  TraceFormat Format = TraceFormat::Text;
  size_t Window = DefaultWindowActions;
  std::string Error;
  bool Done = false;
  uint64_t Delivered = 0;

  // Binary state.
  std::optional<uint64_t> Total;
  uint64_t RemainingRecords = 0;

  // Text state.
  TextTraceParser Parser;
  bool SourceExhausted = false;

  Trace WindowBuf;
  std::vector<unsigned char> RawBuf; ///< Pack/unpack staging (rare ABIs).
};

} // namespace pacer

#endif // PACER_SIM_STREAMINGTRACEREADER_H
