//===- sim/TraceView.h - Zero-copy trace file view -------------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-only view of a trace file that avoids materializing a Trace
/// where it can: on hosts whose Action layout matches the on-disk v2
/// record (see sim/TraceIO.h) a binary file is memory-mapped and
/// actions() is a pointer cast over the mapping -- map() costs the one
/// header check (checkBinaryTraceHeader) and the kernel pages records in
/// and out on demand, so analysing a trace larger than RAM needs no
/// trace-sized allocation at all. Any file it does not map -- a text
/// trace, an exotic ABI, an unmappable file -- loads through
/// readTraceFile instead, with that reader's checks and diagnostics;
/// actions() is the same span either way, so every consumer --
/// Runtime::replay, shardedReplay, TraceIndex -- is oblivious to the
/// difference, and a file gives the same diagnostic on either path.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SIM_TRACEVIEW_H
#define PACER_SIM_TRACEVIEW_H

#include "sim/Action.h"
#include "sim/TraceIO.h"

#include <string>

namespace pacer {

/// Zero-copy (mmap-backed) view of a binary trace file, or a loaded copy
/// of any other trace file.
class TraceView {
public:
  TraceView() = default;
  ~TraceView();

  TraceView(TraceView &&Other) noexcept;
  TraceView &operator=(TraceView &&Other) noexcept;
  TraceView(const TraceView &) = delete;
  TraceView &operator=(const TraceView &) = delete;

  /// Opens \p Path: map() plus a firstInvalidRecord scan of a mapping,
  /// so ok() means every record passed validateActionRecord. \p
  /// ForceBuffered skips the mmap attempt (used by tests to pin the
  /// loaded path; results are identical). On failure the view is empty
  /// and ok() is false with a diagnostic.
  static TraceView open(const std::string &Path, bool ForceBuffered = false);

  /// Like open(), but on the mapped path checks only the header against
  /// the file size and reads no record, so a record may still be invalid.
  /// The caller must check records before analysing them -- the replay
  /// segmenter does (Runtime::replayChunk), and AnalysisSession runs
  /// firstInvalidRecord first on every path that reads records without
  /// it. The scan open() adds is a separate pass over the whole file,
  /// bound by memory bandwidth; map() leaves it to a pass that reads
  /// the records anyway.
  static TraceView map(const std::string &Path, bool ForceBuffered = false);

  bool ok() const { return Ok; }
  const std::string &error() const { return Error; }

  /// The trace. Valid until the view is destroyed or moved from.
  TraceSpan actions() const { return Span; }

  /// True when actions() aliases a memory mapping (no trace-sized
  /// allocation was made).
  bool mapped() const { return Map != nullptr; }

private:
  void reset();
  /// Maps \p Path if it is a binary trace. True when that settled the
  /// view: mapped, or rejected by the header check.
  bool mapBinary(const std::string &Path);

  bool Ok = false;
  std::string Error;
  TraceSpan Span;
  void *Map = nullptr; ///< mmap base (page-aligned), null if buffered.
  size_t MapBytes = 0;
  Trace Buffer; ///< Fallback storage when not mapped.
};

} // namespace pacer

#endif // PACER_SIM_TRACEVIEW_H
