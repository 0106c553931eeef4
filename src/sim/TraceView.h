//===- sim/TraceView.h - Zero-copy binary trace view -----------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-only view of a binary (v2) trace file that avoids materializing
/// a Trace: on POSIX hosts whose Action layout matches the on-disk record
/// (see sim/TraceIO.h) the file is memory-mapped and actions() is a
/// pointer cast over the mapping -- map() costs one header and size
/// check, and the kernel pages records in and out on demand, so
/// analysing a trace larger than RAM needs no trace-sized allocation at
/// all. Where mmap is unavailable (or the ABI differs) the
/// view transparently falls back to a buffered load; actions() is the
/// same span either way, so every consumer -- Runtime::replay,
/// shardedReplay, TraceIndex -- is oblivious to the difference.
///
/// Text traces are not viewable (they must be parsed); open() reports a
/// diagnostic directing callers to readTraceFile or traceconv.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SIM_TRACEVIEW_H
#define PACER_SIM_TRACEVIEW_H

#include "sim/Action.h"
#include "sim/TraceIO.h"

#include <string>

namespace pacer {

/// Zero-copy (mmap-backed) view of a binary trace file.
class TraceView {
public:
  TraceView() = default;
  ~TraceView();

  TraceView(TraceView &&Other) noexcept;
  TraceView &operator=(TraceView &&Other) noexcept;
  TraceView(const TraceView &) = delete;
  TraceView &operator=(const TraceView &) = delete;

  /// Opens \p Path: map() plus a firstInvalidRecord scan, so ok() means
  /// every record passed validateActionRecord. \p ForceBuffered skips the
  /// mmap attempt (used by tests to pin the fallback path; results are
  /// identical). On failure the view is empty and ok() is false with a
  /// diagnostic.
  static TraceView open(const std::string &Path, bool ForceBuffered = false);

  /// Like open(), but checks only the header and the file size: on the
  /// mapped path no record is read, so a record may still be invalid.
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

  bool Ok = false;
  std::string Error;
  TraceSpan Span;
  void *Map = nullptr; ///< mmap base (page-aligned), null if buffered.
  size_t MapBytes = 0;
  Trace Buffer; ///< Fallback storage when not mapped.
};

} // namespace pacer

#endif // PACER_SIM_TRACEVIEW_H
