//===- runtime/Runtime.h - Trace replay through a detector -----*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays an execution trace through a detector, standing in for the
/// compiler-inserted instrumentation of the paper's Jikes RVM
/// implementation. The replay path is two-level: the trace is segmented
/// into *epochs* -- maximal runs of data accesses with no synchronization
/// action, thread-lifecycle event, or sampling-period boundary inside --
/// and each epoch is delivered to the detector as one call:
/// Detector::accessRun() with the run's write count when the scan's run
/// reaches a detector that takes the count whole, Detector::accessBatch()
/// otherwise. Synchronization actions dispatch to the
/// matching per-action hook as before, and an optional sampling controller
/// delivers sbegin/send transitions at simulated GC boundaries; the
/// segmenter flushes the pending batch before any action whose accounting
/// would fire a boundary, so the detector observes exactly the per-action
/// event order. Experiments that need to interleave their own probing (the
/// Figure 10 space experiment) drive step() directly.
///
/// The segmenter's scan is also the record check: replay() applies
/// validateActionRecord to each record as it reads it and stops before
/// any hook sees the first invalid one, so a memory-mapped trace
/// (TraceView::map) needs no separate validation pass.
///
/// The runtime also tracks first sight of each thread and delivers
/// Detector::threadBegin() before a thread's first action, so per-thread
/// detector state materializes at a point that is a pure function of the
/// trace -- the anchor that keeps sharded replicas (replay with a
/// non-trivial AccessShard) bit-identical to sequential replay.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_RUNTIME_RUNTIME_H
#define PACER_RUNTIME_RUNTIME_H

#include "detectors/Detector.h"
#include "runtime/SamplingController.h"
#include "sim/Action.h"
#include "sim/TraceIO.h"

#include <cstdint>
#include <vector>

namespace pacer {

/// Instrumentation dispatcher.
class Runtime {
public:
  /// \p Controller may be null for detectors that do not sample (Generic,
  /// FastTrack, LiteRace, Null). \p SyncBatching coalesces maximal runs of
  /// same-thread acquire/release pairs on one lock into
  /// Detector::syncBatch() calls (observationally identical to per-event
  /// delivery; period boundaries still toggle at exact event positions).
  Runtime(Detector &D, SamplingController *Controller = nullptr,
          bool SyncBatching = true)
      : D(D), Controller(Controller), SyncBatching(SyncBatching) {}

  /// Makes the controller's initial sampling decision. Idempotent; called
  /// automatically by replay().
  void start() {
    if (Controller && !Started)
      Controller->start(D);
    Started = true;
  }

  /// Processes one action: thread first-sight, sampling control, then
  /// dispatch. Returns true if a simulated GC boundary fired at this
  /// action. Unlike replay(), step() trusts \p A: only the space
  /// experiment and tests call it, with generated traces.
  bool step(const Action &A) {
    if (firstSight(A.Tid))
      D.threadBegin(A.Tid);
    bool Boundary =
        Controller ? Controller->beforeAction(A.Kind, D) : false;
    dispatch(A);
    return Boundary;
  }

  /// Replays a whole trace through batched epoch dispatch. The detector
  /// observes the same hook sequence as a step() loop, with runs of
  /// consecutive data accesses folded into accessBatch() calls. Returns
  /// the number of records replayed (see replayChunk()).
  size_t replay(TraceSpan T) { return replay(T, AccessShard::all()); }

  /// Shard-filtered replay: every synchronization and lifecycle action is
  /// processed, but only data accesses owned by \p Shard are analysed.
  size_t replay(TraceSpan T, const AccessShard &Shard) {
    start();
    return replayChunk(T, Shard);
  }

  /// Incremental replay: processes one contiguous chunk of the trace,
  /// leaving the runtime ready for the next chunk. Feeding a trace in any
  /// chunking is observationally identical to one replay() call: access
  /// batches never carry detector-visible state across their edges (every
  /// accessBatch override is equivalent to its per-access loop) and the
  /// controller's bulk advance is splittable at any point, so a chunk
  /// edge merely splits a batch. This is what lets a StreamingTraceReader
  /// drive replay from a bounded window.
  ///
  /// The scan checks every record against validateActionRecord before
  /// any hook sees it (for an access, whose kind the run test has
  /// settled, one compare on Target decides). At the first
  /// invalid record it returns that record's index, having delivered
  /// everything before it; otherwise it returns T.size(). The return
  /// value is therefore firstInvalidRecord(T, Why).
  ///
  /// Access runs are processed at run granularity, not per access: the
  /// scan locates each maximal run of data accesses, counting its writes
  /// on the way, and deliverRun() segments it with the controller's
  /// closed-form boundary arithmetic. A run also ends at a thread's first
  /// sight: that access opens the next run after its threadBegin. Every
  /// batch the detector sees is phase-pure -- period toggles happen only
  /// between sub-spans -- and controller cost is one inline compare per
  /// run that fires no boundary, plus O(boundaries) for one that does.
  /// The detector observes exactly the per-action hook order: batch
  /// flushes before a threadBegin, threadBegin before a toggle at the
  /// same position, and the boundary-firing access delivered after the
  /// toggle.
  size_t replayChunk(TraceSpan T, const AccessShard &Shard) {
    const size_t N = T.size();
    size_t I = 0;
    while (I < N) {
      const Action &A = T[I];
      if (validateActionRecord(A))
        return I;
      if (firstSight(A.Tid))
        D.threadBegin(A.Tid);
      if (!isAccessAction(A.Kind)) {
        if (SyncBatching && A.Kind == ActionKind::Acquire) {
          // Maximal run of same-thread acquire/release pairs on one lock:
          // the sync skeleton's dominant shape (tight critical-section
          // loops), collapsed by Detector::syncBatch to O(1) per run. The
          // lookahead reads unchecked records, but takes only acquires
          // and releases with A's thread and lock; each is valid because
          // A is.
          size_t J = I;
          while (J + 1 < N && T[J].Kind == ActionKind::Acquire &&
                 T[J + 1].Kind == ActionKind::Release && T[J].Tid == A.Tid &&
                 T[J + 1].Tid == A.Tid && T[J].Target == A.Target &&
                 T[J + 1].Target == A.Target)
            J += 2;
          const size_t Pairs = (J - I) / 2;
          if (Pairs >= 2) {
            deliverSyncPairRun(A.Tid, A.Target, 2 * Pairs);
            I += 2 * Pairs;
            continue;
          }
        }
        if (Controller)
          Controller->beforeAction(A.Kind, D);
        dispatch(A);
        ++I;
        continue;
      }
      // Access run [I, RunEnd): A opens it; it ends before the first
      // record that is not an access, is invalid, or is its thread's
      // first sight. Such a record starts the next loop iteration. The
      // scan counts the run's writes from the kind bytes it reads anyway,
      // so a detector that needs no more than the count (PACER outside
      // sampling, with no metadata) never reads the run again. Nothing
      // inside the run changes Seen, so its bounds stay in registers.
      const uint8_t *const SeenBytes = Seen.data();
      const size_t SeenSize = Seen.size();
      size_t RunEnd = I + 1;
      uint64_t Writes = A.Kind == ActionKind::Write;
      for (; RunEnd < N; ++RunEnd) {
        const Action &B = T[RunEnd];
        if (!isAccessAction(B.Kind) || validateActionRecord(B) ||
            B.Tid >= SeenSize || !SeenBytes[B.Tid])
          break;
        Writes += B.Kind == ActionKind::Write;
      }
      deliverRun(T, I, RunEnd, Writes, Shard);
      I = RunEnd;
    }
    return N;
  }

  /// Routes \p A to the detector hook it instruments.
  void dispatch(const Action &A) { dispatchTo(D, A); }

  /// Delivers a run of \p TotalEvents (= 2 * pairs) alternating
  /// acquire/release events by \p Tid on \p Lock, coalesced into
  /// Detector::syncBatch() calls. Controller accounting and boundary
  /// toggles are bit-identical to a per-event beforeAction()/dispatch()
  /// loop: segments strictly before a boundary are delivered (batched)
  /// under the old sampling state, advanceSyncRun() toggles at the firing
  /// event, and the firing event re-joins the next segment post-toggle --
  /// a segment cut mid-pair delivers its dangling acquire (and the
  /// following segment its leading release) per-event. A run that fires
  /// no boundary is one syncBatch after the controller's quiet test.
  /// Shared with the indexed replay engine (TraceIndex::replayShard), so
  /// both engines collapse the skeleton identically.
  static void deliverSyncPairRun(Detector &Target,
                                 SamplingController *Controller, ThreadId Tid,
                                 LockId Lock, uint64_t TotalEvents) {
    uint64_t SegBegin = 0;
    uint64_t Accounted = 0;
    auto Deliver = [&](uint64_t To) {
      while (SegBegin < To) {
        if ((SegBegin & 1) == 0 && To - SegBegin >= 2) {
          const uint64_t Pairs = (To - SegBegin) / 2;
          Target.syncBatch(Tid, Lock, Pairs);
          SegBegin += 2 * Pairs;
        } else if ((SegBegin & 1) == 0) {
          Target.acquire(Tid, Lock);
          ++SegBegin;
        } else {
          Target.release(Tid, Lock);
          ++SegBegin;
        }
      }
    };
    if (!Controller || Controller->advanceQuietSyncRun(TotalEvents)) {
      Deliver(TotalEvents);
      return;
    }
    while (true) {
      const uint64_t Left = TotalEvents - Accounted;
      const uint64_t Fire = Controller->syncRunBoundaryIndex(Left);
      if (!Fire) {
        Deliver(TotalEvents);
        Controller->advanceSyncRun(Left, Target); // Accounting only.
        return;
      }
      const uint64_t StopPos = Accounted + Fire - 1;
      Deliver(StopPos);
      Controller->advanceSyncRun(Left, Target); // Toggles; the firing event
                                                // (StopPos) is delivered
                                                // post-toggle.
      Accounted = StopPos + 1;
    }
  }

  /// Stateless dispatch: routes \p A to \p Target's matching hook. The
  /// indexed replay path (TraceIndex::replayShard) shares this switch so
  /// skeleton events hit exactly the hooks a step() loop would.
  static void dispatchTo(Detector &Target, const Action &A) {
    switch (A.Kind) {
    case ActionKind::Read:
      Target.read(A.Tid, A.Target, A.Site);
      break;
    case ActionKind::Write:
      Target.write(A.Tid, A.Target, A.Site);
      break;
    case ActionKind::Acquire:
      Target.acquire(A.Tid, A.Target);
      break;
    case ActionKind::Release:
      Target.release(A.Tid, A.Target);
      break;
    case ActionKind::Fork:
      Target.fork(A.Tid, A.Target);
      break;
    case ActionKind::Join:
      Target.join(A.Tid, A.Target);
      // A join is one of the two points where a thread slot can die
      // (threadExit below is the other), so it is the natural sweep
      // point for accordion slot recycling. Sweeping here -- inside the
      // shared dispatch switch -- makes recycling a pure function of the
      // synchronization prefix: sequential replay, shard-filtered
      // replay, and the indexed engine all recycle at identical trace
      // positions. No-op for detectors without recycling enabled.
      Target.recycleDeadSlots();
      break;
    case ActionKind::VolatileRead:
    case ActionKind::AwaitVolatile:
      // AwaitVolatile is the read that finally observes the awaited
      // write; detectors see an ordinary volatile read.
      Target.volatileRead(A.Tid, A.Target);
      break;
    case ActionKind::VolatileWrite:
      Target.volatileWrite(A.Tid, A.Target);
      break;
    case ActionKind::ThreadExit:
      Target.threadExit(A.Tid);
      Target.recycleDeadSlots();
      break;
    }
  }

private:
  /// Delivers one access run [\p Begin, \p End) of \p T, \p Writes of
  /// whose accesses are writes. A run that fires no period boundary (the
  /// controller's quiet test, one compare) goes to the detector whole:
  /// through accessRun() with its write count when the detector takes
  /// the count and \p Shard filters nothing, else through accessBatch().
  /// A run that fires one is split into phase-pure accessBatch()
  /// sub-spans at the boundaries accessRunBoundaryIndex() locates.
  /// Following advanceAccessRun()'s contract, the segment
  /// strictly before a boundary is delivered under the old sampling state
  /// and the firing access re-joins the next segment under the new one;
  /// the controller's counter and RNG streams are bit-identical to a
  /// per-access beforeAction() loop.
  void deliverRun(TraceSpan T, size_t Begin, size_t End, uint64_t Writes,
                  const AccessShard &Shard) {
    const std::span<const Action> Run(T.data() + Begin, End - Begin);
    if (!Controller || Controller->advanceQuietAccessRun(Run.size())) {
      if (Shard.ownsAll() && D.takesRunWriteCounts())
        D.accessRun(Run, Writes);
      else
        D.accessBatch(Run, Shard);
      return;
    }
    size_t SegBegin = Begin;
    auto Deliver = [&](size_t To) {
      if (SegBegin < To)
        D.accessBatch(
            std::span<const Action>(T.data() + SegBegin, To - SegBegin),
            Shard);
      SegBegin = To;
    };
    size_t Accounted = Begin;
    while (true) {
      const uint64_t Left = End - Accounted;
      const uint64_t Fire = Controller->accessRunBoundaryIndex(Left);
      if (!Fire) {
        Deliver(End);
        Controller->advanceAccessRun(Left, D); // No boundary: accounting
                                               // only, no toggle.
        return;
      }
      const size_t StopPos = Accounted + static_cast<size_t>(Fire) - 1;
      Deliver(StopPos);
      Controller->advanceAccessRun(Left, D); // Toggles the detector; the
                                             // firing access (StopPos) is
                                             // delivered post-toggle.
      Accounted = StopPos + 1;
    }
  }

  /// Member shorthand for the static pair-run delivery above.
  void deliverSyncPairRun(ThreadId Tid, LockId Lock, uint64_t TotalEvents) {
    deliverSyncPairRun(D, Controller, Tid, Lock, TotalEvents);
  }

  /// True exactly once per thread, at its first action.
  bool firstSight(ThreadId Tid) {
    if (Tid < Seen.size() && Seen[Tid])
      return false;
    if (Tid >= Seen.size())
      Seen.resize(Tid + 1, 0);
    Seen[Tid] = 1;
    return true;
  }

  Detector &D;
  SamplingController *Controller;
  bool SyncBatching;
  bool Started = false;
  std::vector<uint8_t> Seen; // Bytes, not bits: the scan reads one per
                             // access.
};

} // namespace pacer

#endif // PACER_RUNTIME_RUNTIME_H
