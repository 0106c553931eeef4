//===- detectors/FastTrackDetector.h - FastTrack detector ------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FastTrack algorithm (the paper's Section 2.2, Algorithms 7-8):
/// precise vector-clock race detection with O(1) analysis for nearly all
/// reads and writes, using write *epochs* and adaptive read maps. This
/// implementation includes the paper's stated modification: the read map is
/// cleared at every write ("New: clear read map", Algorithm 8), which is
/// sound because the write races with any future access that would have
/// raced with the discarded reads, and makes FastTrack correspond exactly
/// to PACER at a 100% sampling rate.
///
/// The unmodified behaviour (original FastTrack keeps a read *epoch* across
/// a write) is available via FastTrackConfig for the ablation benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_DETECTORS_FASTTRACKDETECTOR_H
#define PACER_DETECTORS_FASTTRACKDETECTOR_H

#include "core/Epoch.h"
#include "core/ReadMap.h"
#include "detectors/Detector.h"
#include "detectors/SyncState.h"
#include "support/Arena.h"

#include <vector>

namespace pacer {

/// Configuration knobs for FastTrack ablations.
struct FastTrackConfig {
  /// Clear the read map at writes even in the epoch case (the paper's
  /// modification to FastTrack). When false, a read epoch survives a write
  /// untouched, as in original FastTrack; the shared (map) case is cleared
  /// either way, as in Algorithm 8.
  bool ClearReadMapAtWrite = true;

  /// Accordion clocks: recycle dead threads' clock slots once every live
  /// thread dominates their final clocks, and compact clocks when enough
  /// slots free up (see core/SlotRecycler.h). Sound for a precise
  /// detector: a dominated dead thread's accesses can never again be the
  /// first access of a race, so purging them changes no report.
  bool UseAccordionClocks = false;
};

/// FastTrack: epochs for writes, adaptive epoch/map for reads.
class FastTrackDetector : public Detector {
public:
  explicit FastTrackDetector(RaceSink &Sink, FastTrackConfig Config = {})
      : Detector(Sink), Config(Config) {
    if (Config.UseAccordionClocks)
      Sync.enableRecycling();
  }

  const char *name() const override { return "fasttrack"; }

  void fork(ThreadId Parent, ThreadId Child) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.fork(Parent, Child, Stats);
  }
  void join(ThreadId Parent, ThreadId Child) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.join(Parent, Child, Stats);
  }
  void acquire(ThreadId Tid, LockId Lock) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.acquire(Tid, Lock, Stats);
  }
  void release(ThreadId Tid, LockId Lock) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.release(Tid, Lock, Stats);
  }
  void syncBatch(ThreadId Tid, LockId Lock, uint64_t Pairs) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.acquireReleasePairs(Tid, Lock, Pairs, Stats);
  }
  void volatileRead(ThreadId Tid, VolatileId Vol) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.volatileRead(Tid, Vol, Stats);
  }
  void volatileWrite(ThreadId Tid, VolatileId Vol) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.volatileWrite(Tid, Vol, Stats);
  }

  void read(ThreadId Tid, VarId Var, SiteId Site) override;
  void write(ThreadId Tid, VarId Var, SiteId Site) override;

  /// Batched epoch dispatch that hoists the per-access thread-clock
  /// lookup: no synchronization runs inside an epoch, so a thread's clock
  /// and epoch are loop invariants across consecutive accesses by the
  /// same thread.
  using Detector::accessBatch;
  void accessBatch(std::span<const Action> Batch,
                   const AccessShard &Shard) override;

  void threadBegin(ThreadId Tid) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.ensureThread(Sync.slotOf(Tid));
  }

  void threadExit(ThreadId Tid) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.threadExit(Tid);
  }

  /// Accordion clocks: reclaim dominated dead slots and compact (no-op
  /// unless FastTrackConfig::UseAccordionClocks is set).
  size_t recycleDeadSlots() override;

  size_t slotCount() const override { return Sync.slotCount(); }
  size_t peakSlotCount() const override { return Sync.peakSlotCount(); }

  size_t liveMetadataBytes() const override;
  size_t accessMetadataBytes() const override;

  /// Test hook: thread \p Tid's clock.
  const VectorClock &threadClock(ThreadId Tid) {
    return Sync.ensureThread(Sync.slotOf(Tid));
  }

private:
  /// Per-variable metadata: read map R, write epoch W, and the write site.
  struct VarState {
    ReadMap R;
    Epoch W;
    SiteId WSite = InvalidId;
  };

  VarState &ensureVar(VarId Var) {
    if (Var >= Vars.size())
      Vars.resize(Var + 1);
    return Vars[Var];
  }

  void reportWriteRace(const VarState &State, VarId Var, ThreadId Tid,
                       AccessKind Kind, SiteId Site);

  /// Algorithm 7/8 bodies with the thread clock and epoch precomputed;
  /// read()/write() and accessBatch() share them, and they are always
  /// inlined into both, so a same-epoch access costs no call.
  [[gnu::always_inline]] inline void readWith(const VectorClock &Clock,
                                              Epoch Current, ThreadId Tid,
                                              VarId Var, SiteId Site);
  [[gnu::always_inline]] inline void writeWith(const VectorClock &Clock,
                                               Epoch Current, ThreadId Tid,
                                               VarId Var, SiteId Site);

  /// Backs the per-variable table and its read-map/clock blocks. MUST
  /// stay the first data member: the later members free their blocks back
  /// into this arena while being destroyed.
  Arena Metadata;

  FastTrackConfig Config;
  SyncState Sync;
  std::vector<VarState, ArenaAllocator<VarState>> Vars;
};

} // namespace pacer

#endif // PACER_DETECTORS_FASTTRACKDETECTOR_H
