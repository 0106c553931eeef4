//===- detectors/FastTrackDetector.cpp ------------------------------------==//

#include "detectors/FastTrackDetector.h"

using namespace pacer;

void FastTrackDetector::reportWriteRace(const VarState &State, VarId Var,
                                        ThreadId Tid, AccessKind Kind,
                                        SiteId Site) {
  RaceReport Report;
  Report.Var = Var;
  Report.FirstKind = AccessKind::Write;
  Report.SecondKind = Kind;
  Report.FirstThread = Sync.externalOf(State.W.tid());
  Report.SecondThread = Sync.externalOf(Tid);
  Report.FirstSite = State.WSite;
  Report.SecondSite = Site;
  reportRace(Report);
}

void FastTrackDetector::read(ThreadId Tid, VarId Var, SiteId Site) {
  Arena::Scope MetadataScope(&Metadata);
  Tid = Sync.slotOf(Tid);
  const VectorClock &Clock = Sync.ensureThread(Tid);
  readWith(Clock, Epoch::make(Clock.get(Tid), Tid), Tid, Var, Site);
}

void FastTrackDetector::readWith(const VectorClock &Clock, Epoch Current,
                                 ThreadId Tid, VarId Var, SiteId Site) {
  ++Stats.ReadSlowSampling;
  VarState &State = ensureVar(Var);

  // Algorithm 7: same-epoch fast path.
  if (State.R.isEpoch() && State.R.epoch() == Current)
    return;

  // check W_f <= C_t.
  if (!State.W.precedes(Clock))
    reportWriteRace(State, Var, Tid, AccessKind::Read, Site);

  if (!State.R.isMap()) {
    // |R_f| <= 1: overwrite with an epoch if ordered, else inflate to a
    // read map holding both concurrent reads.
    if (State.R.leqClock(Clock)) {
      State.R.setEpoch(Current, Site);
    } else {
      State.R.inflateToMap();
      State.R.setEntry(Tid, Clock.get(Tid), Site);
    }
    return;
  }
  // Shared reads: update this thread's component.
  State.R.setEntry(Tid, Clock.get(Tid), Site);
}

void FastTrackDetector::write(ThreadId Tid, VarId Var, SiteId Site) {
  Arena::Scope MetadataScope(&Metadata);
  Tid = Sync.slotOf(Tid);
  const VectorClock &Clock = Sync.ensureThread(Tid);
  writeWith(Clock, Epoch::make(Clock.get(Tid), Tid), Tid, Var, Site);
}

void FastTrackDetector::writeWith(const VectorClock &Clock, Epoch Current,
                                  ThreadId Tid, VarId Var, SiteId Site) {
  ++Stats.WriteSlowSampling;
  VarState &State = ensureVar(Var);

  // Algorithm 8: same-epoch fast path.
  if (State.W == Current)
    return;

  // check W_f <= C_t.
  if (!State.W.precedes(Clock))
    reportWriteRace(State, Var, Tid, AccessKind::Write, Site);

  // check R_f <= C_t, reporting every concurrent prior read.
  State.R.forEachViolation(Clock, [&](const ReadEntry &Entry) {
    RaceReport Report;
    Report.Var = Var;
    Report.FirstKind = AccessKind::Read;
    Report.SecondKind = AccessKind::Write;
    Report.FirstThread = Sync.externalOf(Entry.Tid);
    Report.SecondThread = Sync.externalOf(Tid);
    Report.FirstSite = Entry.Site;
    Report.SecondSite = Site;
    reportRace(Report);
  });

  // Clear the read map: always in the shared case; in the epoch case only
  // with the paper's modification enabled.
  if (State.R.isMap() || Config.ClearReadMapAtWrite)
    State.R.clear();

  State.W = Current;
  State.WSite = Site;
}

void FastTrackDetector::accessBatch(std::span<const Action> Batch,
                                    const AccessShard &Shard) {
  Arena::Scope MetadataScope(&Metadata);
  // Accesses never mutate thread clocks, so the clock reference and epoch
  // computed at a thread switch stay valid for the thread's whole run.
  // Re-fetch on every switch: ensureThread may resize the thread table.
  ThreadId CurrentTid = InvalidId;
  ThreadId Slot = InvalidId;
  const VectorClock *Clock = nullptr;
  Epoch Current;
  for (const Action &A : Batch) {
    if (!Shard.owns(A.Target))
      continue;
    if (A.Tid != CurrentTid) {
      CurrentTid = A.Tid;
      Slot = Sync.slotOf(A.Tid);
      Clock = &Sync.ensureThread(Slot);
      Current = Epoch::make(Clock->get(Slot), Slot);
    }
    if (A.Kind == ActionKind::Read)
      readWith(*Clock, Current, Slot, A.Target, A.Site);
    else
      writeWith(*Clock, Current, Slot, A.Target, A.Site);
  }
}

size_t FastTrackDetector::recycleDeadSlots() {
  if (!Config.UseAccordionClocks)
    return 0;
  Arena::Scope MetadataScope(&Metadata);
  return Sync.recycleDeadSlots(
      [this](ThreadId Slot) {
        // The reclaimed thread's accesses are dominated by every live
        // thread: none can be the first access of a future race, so its
        // read entries and write epochs are dead weight.
        for (VarState &State : Vars) {
          if (State.R.isNull() && State.W.isNone())
            continue;
          State.R.removeThread(Slot);
          if (!State.W.isNone() && State.W.tid() == Slot) {
            State.W = Epoch::none();
            State.WSite = InvalidId;
          }
        }
      },
      [this](const SlotRemap &Remap) {
        const uint32_t *OldToNew = Remap.OldToNew.data();
        // Purging removed every epoch and read entry naming a freed slot,
        // so a plain renumbering suffices.
        for (VarState &State : Vars) {
          State.R.remapThreads(OldToNew);
          if (!State.W.isNone())
            State.W =
                Epoch::make(State.W.clockValue(), OldToNew[State.W.tid()]);
        }
      });
}

size_t FastTrackDetector::accessMetadataBytes() const {
  size_t Bytes = 0;
  for (const VarState &State : Vars) {
    // Skip untracked slots (dense-vector holes below the max accessed
    // id): a touched variable always has a read map or a write epoch
    // since clock components start at 1, so the live set -- and therefore
    // this sum -- partitions exactly across shards.
    if (State.R.isNull() && State.W.isNone())
      continue;
    Bytes += sizeof(State) + State.R.heapBytes();
  }
  return Bytes;
}

size_t FastTrackDetector::liveMetadataBytes() const {
  return Sync.liveMetadataBytes() + accessMetadataBytes();
}
