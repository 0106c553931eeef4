//===- detectors/PacerDetector.h - PACER sampling race detector -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PACER algorithm (the paper's Section 3 and Appendix A): FastTrack
/// during global sampling periods; during non-sampling periods the analysis
///
///  * stops incrementing vector clocks ("timeless" periods; Table 7
///    Rule 2), so redundant synchronization makes clock values converge;
///  * detects redundant communication with per-thread *version vectors*
///    and per-lock/volatile *version epochs*, turning redundant O(n) joins
///    into O(1) "fast joins" (Algorithm 11, Table 7 Rules 4-6);
///  * performs *shallow* clock copies at releases by sharing the thread's
///    clock payload, cloning lazily before any mutation (Algorithm 9);
///  * records no read/write accesses and discards recorded accesses that
///    can no longer be the first access of a reportable race, erasing a
///    variable's metadata entirely when both its read map and write epoch
///    become null (Algorithms 12-13, Table 4).
///
/// PACER reports every *sampled shortest race*: if the first access of a
/// shortest race falls in a sampling period, the race is reported no matter
/// when the second access occurs (Theorem 2). Hence each dynamic race is
/// detected with probability equal to the sampling rate.
///
/// Read/write instrumentation follows the paper's inlined fast path: when
/// not sampling and the variable has no metadata, the cold batch kernel
/// spends the sampling-flag test and one presence-bit test
/// (FlatVarTable::contains) on the access, the replay's stand-in for the
/// paper's object-header word.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_DETECTORS_PACERDETECTOR_H
#define PACER_DETECTORS_PACERDETECTOR_H

#include "core/Epoch.h"
#include "core/FlatVarTable.h"
#include "core/ReadMap.h"
#include "core/SlotRecycler.h"
#include "core/SyncClock.h"
#include "core/VersionEpoch.h"
#include "detectors/Detector.h"
#include "support/Arena.h"

#include <vector>

namespace pacer {

/// Configuration knobs; defaults reproduce the paper's system. The
/// alternates exist for the ablation benchmarks in bench/.
struct PacerConfig {
  /// Instrument data reads and writes. Disabling yields the paper's
  /// "OM + sync ops" overhead configuration (Figure 7), which tracks
  /// synchronization only.
  bool InstrumentReadsWrites = true;

  /// Use version epochs/vectors to skip redundant joins (Algorithm 11's
  /// fast path). Disabling forces the O(n) comparison on every join.
  bool UseVersionFastJoins = true;

  /// Share clock payloads via shallow copies during non-sampling periods
  /// (Algorithm 9). Disabling forces deep copies everywhere.
  bool UseClockSharing = true;

  /// Discard read/write metadata during non-sampling periods (Table 4's
  /// non-sampling column). Disabling keeps whatever FastTrack would have
  /// kept -- still sound, but space stops scaling with the sampling rate;
  /// the ablation bench shows this is where PACER's space win comes from.
  bool DiscardMetadata = true;

  /// Accordion clocks (Christiaens & De Bosschere), the production
  /// improvement the paper's Section 5.1 points to: reuse thread-clock
  /// slots soundly so vector clocks grow with the number of *live*
  /// threads, not the number ever started. A dead (exited or joined)
  /// thread's slot is recycled once its final clock is dominated by every
  /// live thread's -- then none of its accesses can be the first access
  /// of a future race, so its read/write metadata is discarded, its
  /// version epochs are invalidated, and its clock components reset. When
  /// enough slots are free, clocks are *compacted*: live slots renumber
  /// onto a dense prefix and every clock trims its tail. The runtime
  /// sweeps via recycleDeadSlots() after every join and thread exit, and
  /// the detector additionally sweeps at sampling-period boundaries (the
  /// paper's GC moments). Implemented on the core SlotRecycler.
  bool UseAccordionClocks = false;
};

/// PACER: proportional sampling race detection on top of FastTrack.
class PacerDetector : public Detector {
public:
  explicit PacerDetector(RaceSink &Sink, PacerConfig Config = {})
      : Detector(Sink), Config(Config) {
    if (Config.UseAccordionClocks)
      Recycler.enable();
  }

  const char *name() const override { return "pacer"; }

  void fork(ThreadId Parent, ThreadId Child) override;
  void join(ThreadId Parent, ThreadId Child) override;
  void acquire(ThreadId Tid, LockId Lock) override;
  void release(ThreadId Tid, LockId Lock) override;

  /// Coalesced same-lock acquire/release pairs (Detector::syncBatch),
  /// collapsed to O(1) per run. After the first pair the lock's clock and
  /// version epoch describe exactly this thread's frontier, so each
  /// further acquire is a guaranteed fast join (or a no-op slow join) and
  /// each further release re-copies a clock that changed in at most its
  /// own component. Outside sampling periods the middle pairs are pure
  /// counter arithmetic -- timeless clocks do not move at all.
  void syncBatch(ThreadId Tid, LockId Lock, uint64_t Pairs) override;
  void volatileRead(ThreadId Tid, VolatileId Vol) override;
  void volatileWrite(ThreadId Tid, VolatileId Vol) override;
  void read(ThreadId Tid, VarId Var, SiteId Site) override;
  void write(ThreadId Tid, VarId Var, SiteId Site) override;

  /// Batched epoch dispatch, phase-routed: the replay layer guarantees no
  /// sampling-period boundary falls inside a batch, so the sampling flag
  /// is loop-invariant and one test picks the whole epoch's kernel --
  /// coldAccessBatch() outside sampling periods, hotAccessBatch() inside
  /// them, and the per-access loop under accordion clocks (which keeps
  /// the slot bookkeeping in read()/write()).
  using Detector::accessBatch;
  void accessBatch(std::span<const Action> Batch,
                   const AccessShard &Shard) override;

  /// Materializes the thread's clock slot at first sight in the trace,
  /// pinning slot allocation and Started timing to a pure function of the
  /// trace so shard replicas stay identical.
  void threadBegin(ThreadId Tid) override;

  /// With accordion clocks, retires the thread's slot with a snapshot of
  /// its final clock; the slot is reclaimed once every live thread
  /// dominates the snapshot. No-op otherwise (the paper's prototype keeps
  /// dead threads' clock entries forever).
  void threadExit(ThreadId Tid) override;

  /// The sbegin() action: sets the sampling flag and increments every
  /// thread's vector clock and version (Table 5 Rule 1), which restores
  /// strict well-formedness (Lemma 5).
  void beginSamplingPeriod() override;

  /// The send() action: clears the sampling flag (Table 5 Rule 2).
  void endSamplingPeriod() override;

  bool isSampling() const override { return Sampling; }

  size_t liveMetadataBytes() const override;
  size_t accessMetadataBytes() const override;

  /// Number of variables currently holding metadata (not yet discarded).
  size_t trackedVariableCount() const { return Vars.size(); }

  /// Accordion clocks: recycles every dead thread slot whose final clock
  /// is dominated by all live threads, then compacts clocks onto a dense
  /// slot prefix when at least half the slots are free. Returns the
  /// number of slots recycled. Invoked by the runtime after every join
  /// and thread exit, and by beginSamplingPeriod(); no-op unless
  /// PacerConfig::UseAccordionClocks is set.
  size_t recycleDeadSlots() override;

  /// Number of thread-clock slots backing clocks and metadata vectors.
  size_t slotCount() const override { return Threads.size(); }

  /// High-water slotCount() over the run.
  size_t peakSlotCount() const override {
    return Config.UseAccordionClocks ? Recycler.peakSlotCount()
                                     : Threads.size();
  }

  /// Number of thread-clock slots currently backing live threads.
  size_t liveSlotCount() const;

  // --- Test hooks for the well-formedness property tests (Appendix B) ---

  /// Thread \p Tid's current vector clock.
  const VectorClock &threadClockForTest(ThreadId Tid) const;
  /// Thread \p Tid's current version vector.
  const VersionVector &threadVersionsForTest(ThreadId Tid) const;
  /// Lock \p Lock's clock payload (null if the lock was never released).
  const VectorClock *lockClockForTest(LockId Lock) const;
  /// Volatile \p Vol's clock payload.
  const VectorClock *volatileClockForTest(VolatileId Vol) const;
  /// Lock \p Lock's version epoch.
  VersionEpoch lockVersionEpochForTest(LockId Lock) const;
  /// Volatile \p Vol's version epoch.
  VersionEpoch volatileVersionEpochForTest(VolatileId Vol) const;
  /// Payload identity of a thread/lock clock, for the sharing tests.
  const void *threadClockKeyForTest(ThreadId Tid) const;
  const void *lockClockKeyForTest(LockId Lock) const;
  /// Read/write metadata of \p Var, or null if discarded.
  const ReadMap *readMapForTest(VarId Var) const;
  /// Write epoch of \p Var (none() if discarded or absent).
  Epoch writeEpochForTest(VarId Var) const;

private:
  struct ThreadState {
    SyncClock Clock;
    VersionVector Ver;
    bool Started = false;
  };

  /// State for locks and volatiles: a (possibly shared) clock plus a
  /// version epoch (Appendix A.3).
  struct SyncObjState {
    SyncClock Clock;
    VersionEpoch VEpoch; // Initially bottom (0@0).
  };

  /// Per-variable metadata; the entry is erased outright once both parts
  /// are null, which is how space stays proportional to the sampling rate.
  struct VarState {
    ReadMap R;
    Epoch W;
    SiteId WSite = InvalidId;
  };

  ThreadState &ensureThread(ThreadId Tid);
  SyncObjState &ensureLock(LockId Lock);
  SyncObjState &ensureVolatile(VolatileId Vol);

  /// Maps a program thread id to its clock slot. Identity when accordion
  /// clocks are disabled; otherwise allocates (or reuses) a slot on first
  /// sight.
  ThreadId slotOf(ThreadId External);

  /// Maps a slot back to the program thread id it currently backs (for
  /// race reports). Identity when accordion clocks are disabled.
  ThreadId externalOf(ThreadId Slot) const {
    if (!Config.UseAccordionClocks)
      return Slot;
    ThreadId External = Recycler.externalOf(Slot);
    return External == InvalidId ? Slot : External;
  }

  /// Purges every trace of slot \p Slot from the analysis state (the
  /// recycler's purge callback; the recycler itself frees the slot).
  void purgeSlot(ThreadId Slot);

  /// Applies a compaction remap from the recycler to every clock, version
  /// vector, version epoch, write epoch, and read map the detector owns.
  void compactSlots(const SlotRemap &Remap);

  /// vepoch(t): the current version of thread \p Tid's clock (v@t with
  /// v = ver_t[t], Appendix A.3).
  VersionEpoch threadVersionEpoch(const ThreadState &State, ThreadId Tid) {
    return VersionEpoch::make(State.Ver.get(Tid), Tid);
  }

  /// Algorithm 10 / Table 7 Rules 2-3: increments \p Tid's clock and
  /// version when sampling; no-op otherwise.
  void incrementThread(ThreadId Tid);

  /// Algorithm 9 / Table 7 Rule 1: copies \p Tid's clock into \p Target
  /// (shallow share when not sampling) and sets Target's version epoch to
  /// vepoch(t).
  void copyThreadClockTo(SyncObjState &Target, ThreadId Tid);

  /// Algorithm 11 / Table 7 Rules 4-6: C_t <- C_t join S_o, using the
  /// source's version epoch to skip redundant joins.
  void joinIntoThread(ThreadId Tid, const SyncClock &SourceClock,
                      VersionEpoch SourceVersion);

  /// Algorithm 16 / Table 7 Rules 7-9: V_x <- V_x join C_t.
  void joinIntoVolatile(SyncObjState &Vol, ThreadId Tid);

  /// The non-sampling cold kernel: analyses one phase-pure epoch with no
  /// per-access dispatch. With no tracked variables the epoch reduces to
  /// two counter additions (non-sampling accesses never insert metadata,
  /// so emptiness is loop-invariant downward). Otherwise each owned access
  /// tests its variable's FlatVarTable presence bit: misses fold into
  /// branchless fast-path counters, and only hits -- rare at low rates --
  /// fall through to the full read()/write() discard logic. Bit-identical
  /// to the per-access loop.
  void coldAccessBatch(std::span<const Action> Batch,
                       const AccessShard &Shard);

  /// The sampling-phase hot kernel: FastTrack's loop shape. The thread's
  /// clock and epoch are resolved at thread switches, each owned access
  /// does one var-table find and runs the sampling analysis inline, and
  /// the slow-path tallies are kept in locals. Bit-identical to the
  /// per-access loop.
  void hotAccessBatch(std::span<const Action> Batch,
                      const AccessShard &Shard);

  /// read()/write() bodies after the arena scope, slot mapping, and table
  /// probe: \p Found is the live result of Vars.find(Var).
  void readImpl(ThreadId Tid, VarId Var, SiteId Site, VarState *Found);
  void writeImpl(ThreadId Tid, VarId Var, SiteId Site, VarState *Found);

  /// Sampling-period analysis bodies with the thread resolution hoisted
  /// out: \p Clock and \p Current are the accessing thread's clock and
  /// epoch (invariant across a batch run), \p Found the live result of
  /// Vars.find(Var) (null inserts through getOrInsert). Shared by the
  /// per-access path and the hot batch kernel, and always inlined into
  /// both, so a same-epoch access costs no call.
  [[gnu::always_inline]] inline void readSampling(ThreadId Tid,
                                                  const VectorClock &Clock,
                                                  Epoch Current, VarId Var,
                                                  SiteId Site,
                                                  VarState *Found);
  [[gnu::always_inline]] inline void writeSampling(ThreadId Tid,
                                                   const VectorClock &Clock,
                                                   Epoch Current, VarId Var,
                                                   SiteId Site,
                                                   VarState *Found);

  void reportPriorWriteRace(const VarState &State, VarId Var, ThreadId Tid,
                            AccessKind Kind, SiteId Site);
  void reportPriorReadRaces(const VarState &State, const VectorClock &Clock,
                            VarId Var, ThreadId Tid, SiteId Site);

  /// Backs every access-path block this detector owns (spilled clocks,
  /// read-map entries, flat-table slots). MUST stay the first data member:
  /// members are destroyed in reverse declaration order, and the others
  /// free their blocks back into this arena while being destroyed.
  Arena Metadata;

  PacerConfig Config;
  bool Sampling = false;
  std::vector<ThreadState> Threads;
  std::vector<SyncObjState> Locks;
  std::vector<SyncObjState> Volatiles;
  /// Open-addressing flat table: a non-sampling access to a variable
  /// without metadata costs one presence-bit test, and a sampled access
  /// one probe (usually one cache line) instead of a chained
  /// unordered_map lookup.
  FlatVarTable<VarState> Vars;

  /// Accordion-clock slot allocation and retirement (idle unless
  /// enabled); Threads is indexed by the slots it hands out.
  SlotRecycler Recycler;
};

} // namespace pacer

#endif // PACER_DETECTORS_PACERDETECTOR_H
