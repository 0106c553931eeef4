//===- runtime/TraceIndex.h - Pre-partitioned replay index -----*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A one-pass preprocessing index that lets a sharded-replay replica walk a
/// trace in O(sync + owned accesses) instead of re-scanning and filtering
/// the entire trace (the pre-index engine's O(trace) per replica).
///
/// The index decomposes a trace into two structures:
///
///  - The *sync skeleton*: every synchronization action, thread-exit
///    marker, and thread first-sight point, in trace order with its
///    original position. Between consecutive skeleton events lies an
///    *epoch*: a maximal run of data accesses. The skeleton plus the
///    per-epoch access counts (implicit in the epoch spans, since an epoch
///    contains only accesses) are exactly what the SamplingController
///    needs to advance bit-identically: its allocation clock charges a
///    constant number of bytes per access while the sampling state is
///    unchanged, so a whole epoch advances in O(#boundaries) via
///    SamplingController::advanceAccessRun instead of O(#accesses).
///
///  - K per-shard *owned-access runs*: maximal contiguous trace spans
///    [Begin, End) whose actions are all accesses owned by one shard
///    (Var % K == shard), tagged with the epoch they lie in. The runs of
///    one shard are disjoint, sorted, and nested in epoch spans; across
///    shards they partition the trace's accesses exactly.
///
/// The index is a pure function of (trace, K): it holds no detector or
/// controller state, so one index is built per trace and shared read-only
/// by every replica, every trial, and every detector configuration.
///
/// replayShard() then replays one replica's view: skeleton events dispatch
/// in order (threadBegin at first-sight points, the detector hook plus
/// controller accounting for sync actions), and each epoch's accesses are
/// delivered from the shard's owned runs as accessBatch spans, split only
/// at sampling-period boundaries the bulk controller advance reports. For
/// detectors whose access analysis depends on the *full* access stream
/// (LiteRace's code sampler advances per access regardless of ownership --
/// see Detector::accessAnalysisIsShardLocal), the replica falls back to
/// delivering whole epoch spans with an ownership filter, preserving
/// bit-identical results at O(trace) cost.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_RUNTIME_TRACEINDEX_H
#define PACER_RUNTIME_TRACEINDEX_H

#include "detectors/Detector.h"
#include "sim/Action.h"

#include <cstdint>
#include <vector>

namespace pacer {

class SamplingController;

/// Immutable replay index for one (trace, shard count) pair.
class TraceIndex {
public:
  /// One sync-skeleton event. BeginTid != InvalidId marks a thread
  /// first-sight point: the runtime delivers Detector::threadBegin(BeginTid)
  /// *before* the action at Pos (which may be an access belonging to the
  /// following epoch). Otherwise the (non-access) action at Pos dispatches
  /// to its detector hook.
  struct Event {
    uint32_t Pos = 0;
    ThreadId BeginTid = InvalidId;
  };

  /// One maximal run of data accesses between skeleton events; every
  /// action in [Begin, End) is an access, so End - Begin is the epoch's
  /// access count.
  struct EpochSpan {
    uint32_t Begin = 0;
    uint32_t End = 0;
  };

  /// One maximal contiguous span of accesses owned by a single shard,
  /// inside epoch \p Epoch.
  struct Run {
    uint32_t Begin = 0;
    uint32_t End = 0;
    uint32_t Epoch = 0;
  };

  /// Builds the index in one pass over \p T. \p Shards < 1 is treated
  /// as 1 (the single shard owns every access).
  static TraceIndex build(TraceSpan T, unsigned Shards);

  /// Single-pass streaming construction: feed the trace in arbitrary
  /// contiguous chunks (e.g. from a StreamingTraceReader's bounded
  /// window) and take() the finished index. build(T, K) is exactly
  /// Builder(K).addChunk(T).take(); the result is identical for every
  /// chunking, so --shards=auto resolution and sharded replay can share
  /// one bounded-memory pass over a trace file.
  class Builder; // Defined after the class (it holds a TraceIndex).

  unsigned shardCount() const { return Shards; }

  /// Total data accesses in the trace (= sum of owned counts).
  uint64_t accessCount() const { return AccessTotal; }

  /// Accesses owned by \p Shard (= sum of its run lengths).
  uint64_t ownedAccessCount(uint32_t Shard) const {
    return OwnedCounts[Shard];
  }

  /// Skeleton events in trace order. Epoch i precedes event i; the last
  /// epoch follows the last event (epochs().size() == events().size() + 1).
  const std::vector<Event> &events() const { return Events; }
  const std::vector<EpochSpan> &epochs() const { return Epochs; }
  const std::vector<Run> &runs(uint32_t Shard) const { return Runs[Shard]; }

  /// Replays shard \p Shard's replica view of \p T (the trace this index
  /// was built from) through \p D, optionally under \p Controller.
  /// Observationally identical to Runtime::replay(T, AccessShard(Shard,
  /// shardCount())) on a fresh Runtime, but costs O(sync + owned accesses)
  /// for shard-local detectors (plus O(#boundaries) controller work)
  /// instead of O(trace). \p T may be a memory-mapped TraceView span.
  /// \p SyncBatching coalesces skeleton runs of same-thread
  /// acquire/release pairs on one lock into Detector::syncBatch() calls
  /// (Runtime::deliverSyncPairRun, shared with the sequential engine) --
  /// the skeleton is replayed by *every* replica, so the collapse
  /// compounds with the shard count.
  void replayShard(TraceSpan T, uint32_t Shard, Detector &D,
                   SamplingController *Controller,
                   bool SyncBatching = true) const;

private:
  unsigned Shards = 1;
  uint64_t AccessTotal = 0;
  std::vector<Event> Events;
  std::vector<EpochSpan> Epochs;
  std::vector<std::vector<Run>> Runs;
  std::vector<uint64_t> OwnedCounts;
};

/// Single-pass streaming construction: feed the trace in arbitrary
/// contiguous chunks (e.g. from a StreamingTraceReader's bounded window)
/// and take() the finished index. build(T, K) is exactly
/// Builder(K).addChunk(T).take(); the result is identical for every
/// chunking, so --shards=auto resolution and sharded replay can share one
/// bounded-memory pass over a trace file.
class TraceIndex::Builder {
public:
  explicit Builder(unsigned Shards);

  /// Appends \p Chunk (the actions at positions [pos, pos + size)).
  void addChunk(TraceSpan Chunk);

  /// Accesses indexed so far (available before take(), for --shards=auto
  /// resolution mid-stream).
  uint64_t accessCount() const { return Index.AccessTotal; }

  /// Closes the final epoch and yields the index. The builder is spent
  /// afterwards.
  TraceIndex take();

private:
  TraceIndex Index;
  std::vector<bool> Seen;
  uint32_t Pos = 0;
  uint32_t EpochBegin = 0;
};

/// Picks a shard count for a trace with \p AccessCount data accesses:
/// one shard per ~32k accesses so replica setup and skeleton replay
/// amortize, capped at \p HardwareJobs (never less than 1).
unsigned autoShardCount(uint64_t AccessCount, unsigned HardwareJobs);

/// Resolves a shard request where 0 means "auto" (pick from the trace's
/// access count and hardwareJobs()); nonzero values pass through.
unsigned resolveShardCount(unsigned Requested, uint64_t AccessCount);

/// Parses a --shards flag value: "auto" yields 0 (the auto sentinel);
/// a positive decimal number yields that count (capped at 4096); anything
/// else, a negative number included, yields 1.
unsigned parseShardCount(const std::string &Text);

/// Counts the data accesses in \p T (the input to auto shard tuning).
uint64_t countTraceAccesses(TraceSpan T);

} // namespace pacer

#endif // PACER_RUNTIME_TRACEINDEX_H
