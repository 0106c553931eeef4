//===- detectors/PacerDetector.cpp ----------------------------------------==//

#include "detectors/PacerDetector.h"

#include <algorithm>
#include <cassert>

using namespace pacer;

PacerDetector::ThreadState &PacerDetector::ensureThread(ThreadId Tid) {
  if (Tid >= Threads.size())
    Threads.resize(Tid + 1);
  ThreadState &State = Threads[Tid];
  if (!State.Started) {
    // Initial state (Equation 7): C_t = inc_t(bottom), ver_t = inc_t(bottom).
    // The increment applies regardless of the sampling flag: formally all
    // threads exist in sigma_0.
    State.Clock.mutableClock().increment(Tid);
    State.Ver.increment(Tid);
    State.Started = true;
  }
  return State;
}

PacerDetector::SyncObjState &PacerDetector::ensureLock(LockId Lock) {
  if (Lock >= Locks.size())
    Locks.resize(Lock + 1);
  return Locks[Lock];
}

PacerDetector::SyncObjState &PacerDetector::ensureVolatile(VolatileId Vol) {
  if (Vol >= Volatiles.size())
    Volatiles.resize(Vol + 1);
  return Volatiles[Vol];
}

ThreadId PacerDetector::slotOf(ThreadId External) {
  if (!Config.UseAccordionClocks)
    return External;
  SlotRecycler::Mapping M = Recycler.map(External);
  if (M.Fresh) {
    if (M.Slot >= Threads.size())
      Threads.resize(M.Slot + 1);
    // Initial state for the slot's occupant (Equation 7). Purging left
    // every component of a reused slot at zero, so the increment
    // re-creates a fresh thread at the same index.
    ThreadState &State = Threads[M.Slot];
    State.Clock.mutableClock().increment(M.Slot);
    State.Ver.increment(M.Slot);
    State.Started = true;
  }
  return M.Slot;
}

size_t PacerDetector::recycleDeadSlots() {
  if (!Config.UseAccordionClocks)
    return 0;
  Arena::Scope MetadataScope(&Metadata);
  // Sound to recycle once every live thread dominates the retired clock:
  // all of the dead thread's accesses happen before anything any live
  // thread will do, so none can be the first access of a future race.
  size_t Recycled = Recycler.recycle(
      [this](ThreadId Slot) -> const VectorClock & {
        return Threads[Slot].Clock.clock();
      },
      [this](ThreadId Slot) { purgeSlot(Slot); });
  if (Recycler.shouldCompact())
    compactSlots(Recycler.compact());
  return Recycled;
}

void PacerDetector::purgeSlot(ThreadId Slot) {
  // Zero the slot's component everywhere. Writing through shared payloads
  // is deliberate: every holder needs the same reset. (The recycler
  // scrubs its own retirement snapshots.)
  for (ThreadState &State : Threads) {
    if (!State.Started)
      continue;
    State.Clock.resetComponentForRecycle(Slot);
    State.Ver.set(Slot, 0);
  }
  auto ScrubSyncObj = [Slot](SyncObjState &State) {
    State.Clock.resetComponentForRecycle(Slot);
    // A version epoch naming the slot can no longer prove anything about
    // the *next* thread in the slot; force the slow path.
    if (!State.VEpoch.isTop() && State.VEpoch.version() > 0 &&
        State.VEpoch.tid() == Slot)
      State.VEpoch = VersionEpoch::top();
  };
  for (SyncObjState &State : Locks)
    ScrubSyncObj(State);
  for (SyncObjState &State : Volatiles)
    ScrubSyncObj(State);

  // The retired thread's recorded accesses are dominated by every live
  // thread: discard them, exactly as PACER's non-sampling rules discard
  // ordered accesses.
  Vars.eraseIf([Slot](VarId, VarState &State) {
    State.R.removeThread(Slot);
    if (!State.W.isNone() && State.W.tid() == Slot) {
      State.W = Epoch::none();
      State.WSite = InvalidId;
    }
    return State.R.isNull() && State.W.isNone();
  });

  // Reset the slot's own state so the next occupant starts from a fresh
  // clock (a shared payload stays alive in its other holders, with this
  // component zeroed above).
  Threads[Slot] = ThreadState();
}

void PacerDetector::compactSlots(const SlotRemap &Remap) {
  const uint32_t *NewToOld = Remap.NewToOld.data();
  const uint32_t *OldToNew = Remap.OldToNew.data();
  const uint32_t NewCount = Remap.newCount();

  // Pack thread states onto the dense prefix. NewToOld ascends, so every
  // move source is at or beyond its destination and no live state is
  // overwritten before it is moved.
  for (uint32_t New = 0; New != NewCount; ++New) {
    const uint32_t Old = NewToOld[New];
    if (Old != New)
      Threads[New] = std::move(Threads[Old]);
  }
  Threads.resize(NewCount);

  // Renumber every clock payload exactly once: threads, locks, and
  // volatiles may share payloads, and compacting one twice would corrupt
  // it.
  std::vector<const void *> Seen;
  auto CompactPayload = [&](SyncClock &Clock) {
    const void *Key = Clock.payloadKey();
    if (std::find(Seen.begin(), Seen.end(), Key) != Seen.end())
      return;
    Seen.push_back(Key);
    Clock.compactSlotsOnce(NewToOld, NewCount);
  };
  for (ThreadState &State : Threads) {
    CompactPayload(State.Clock);
    State.Ver.compactSlots(NewToOld, NewCount);
  }
  auto CompactSyncObj = [&](SyncObjState &State) {
    CompactPayload(State.Clock);
    VersionEpoch V = State.VEpoch;
    if (!V.isTop() && V.version() > 0) {
      // Purging already forced epochs naming freed slots to top, so the
      // named slot survives compaction and has a new number.
      State.VEpoch = VersionEpoch::make(V.version(), OldToNew[V.tid()]);
    }
  };
  for (SyncObjState &State : Locks)
    CompactSyncObj(State);
  for (SyncObjState &State : Volatiles)
    CompactSyncObj(State);

  // Access metadata: purging removed every epoch and read entry naming a
  // freed slot, so a plain renumbering suffices and no entry dies here.
  Vars.eraseIf([OldToNew](VarId, VarState &State) {
    State.R.remapThreads(OldToNew);
    if (!State.W.isNone())
      State.W = Epoch::make(State.W.clockValue(), OldToNew[State.W.tid()]);
    return false;
  });
}

size_t PacerDetector::liveSlotCount() const {
  if (Config.UseAccordionClocks)
    return Recycler.liveSlotCount();
  size_t Count = 0;
  for (const ThreadState &State : Threads)
    Count += State.Started;
  return Count;
}

void PacerDetector::incrementThread(ThreadId Tid) {
  // Algorithm 10: no action outside sampling periods ("timeless").
  if (!Sampling)
    return;
  ThreadState &State = ensureThread(Tid);
  State.Clock.cloneIfShared(&Stats.ClockClones);
  State.Clock.mutableClock().increment(Tid);
  State.Ver.increment(Tid);
}

void PacerDetector::copyThreadClockTo(SyncObjState &Target, ThreadId Tid) {
  ThreadState &Source = ensureThread(Tid);
  if (!Sampling && Config.UseClockSharing) {
    // Shallow copy: mark the thread's payload shared, then share it. The
    // clock value is unlikely to change soon (no increments happen).
    Source.Clock.setShared();
    Target.Clock.shallowCopyFrom(Source.Clock);
    ++Stats.ShallowCopiesNonSampling;
  } else {
    Target.Clock.deepCopyFrom(Source.Clock, &Stats.ClockClones);
    if (Sampling)
      ++Stats.DeepCopiesSampling;
    else
      ++Stats.DeepCopiesNonSampling;
  }
  // Update the target's version epoch: its clock is now version ver_t[t]
  // of thread t's clock.
  Target.VEpoch = threadVersionEpoch(Source, Tid);
}

void PacerDetector::joinIntoThread(ThreadId Tid, const SyncClock &SourceClock,
                                   VersionEpoch SourceVersion) {
  ThreadState &Target = ensureThread(Tid);

  // Table 7 Rule 4: the version epoch precedes the thread's version
  // vector, so clock_o <= clock_t is guaranteed (Lemma 7); skip the O(n)
  // work entirely. This is the "fast join".
  if (Config.UseVersionFastJoins && SourceVersion.precedes(Target.Ver)) {
    if (Sampling)
      ++Stats.FastJoinsSampling;
    else
      ++Stats.FastJoinsNonSampling;
    return;
  }

  if (Sampling)
    ++Stats.SlowJoinsSampling;
  else
    ++Stats.SlowJoinsNonSampling;

  if (!SourceClock.clock().leq(Target.Clock.clock())) {
    // Table 7 Rule 6 (concurrent): perform the join. The clock changes, so
    // clone it if shared and bump this thread's own version.
    Target.Clock.cloneIfShared(&Stats.ClockClones);
    Target.Clock.mutableClock().joinWith(SourceClock.clock());
    Target.Ver.increment(Tid);
  }
  // Rules 5 and 6: record that version v of thread u's clock is now
  // incorporated (skipped for the maximal version epoch, which names no
  // thread).
  if (!SourceVersion.isTop()) {
    ThreadId U = SourceVersion.tid();
    Target.Ver.set(U, std::max(Target.Ver.get(U), SourceVersion.version()));
  }
}

void PacerDetector::joinIntoVolatile(SyncObjState &Vol, ThreadId Tid) {
  ThreadState &Source = ensureThread(Tid);

  // Table 7 Rules 7-8: if the volatile's clock is subsumed by the thread's
  // (shown either by versions or by the O(n) comparison), the join result
  // equals C_t, so it degenerates to a copy -- shallow when not sampling.
  bool Subsumed = false;
  if (Config.UseVersionFastJoins && Vol.VEpoch.precedes(Source.Ver)) {
    Subsumed = true;
    if (Sampling)
      ++Stats.FastJoinsSampling;
    else
      ++Stats.FastJoinsNonSampling;
  } else {
    if (Sampling)
      ++Stats.SlowJoinsSampling;
    else
      ++Stats.SlowJoinsNonSampling;
    Subsumed = Vol.Clock.clock().leq(Source.Clock.clock());
  }

  if (Subsumed) {
    copyThreadClockTo(Vol, Tid);
    return;
  }

  // Table 7 Rule 9 (concurrent): the volatile's clock becomes a join of
  // several threads' clocks, so no single version epoch describes it.
  Vol.Clock.cloneIfShared(&Stats.ClockClones);
  Vol.Clock.mutableClock().joinWith(Source.Clock.clock());
  Vol.VEpoch = VersionEpoch::top();
}

void PacerDetector::fork(ThreadId Parent, ThreadId Child) {
  Arena::Scope MetadataScope(&Metadata);
  ++Stats.SyncOps;
  Parent = slotOf(Parent);
  Child = slotOf(Child);
  // Ensure both entries first: ensureThread may reallocate the vector,
  // invalidating a previously taken reference.
  ensureThread(Parent);
  ensureThread(Child);
  ThreadState &ParentState = Threads[Parent];
  // Table 6 Rule 3: C_u <- C_u join C_t; C_t <- inc_t(C_t, s).
  joinIntoThread(Child, ParentState.Clock,
                 threadVersionEpoch(ParentState, Parent));
  incrementThread(Parent);
}

void PacerDetector::join(ThreadId Parent, ThreadId Child) {
  Arena::Scope MetadataScope(&Metadata);
  ++Stats.SyncOps;
  if (Config.UseAccordionClocks && Recycler.lookup(Child) == InvalidId) {
    // The child's slot was already recycled (it exited, and every live
    // thread -- the parent included -- came to dominate its final clock).
    // The join is then a semantic no-op: the parent's clock already
    // subsumes everything the child did. Mapping the child here would
    // wrongly allocate a fresh slot for a dead thread.
    ensureThread(slotOf(Parent));
    return;
  }
  Parent = slotOf(Parent);
  Child = slotOf(Child);
  ensureThread(Parent);
  ensureThread(Child);
  ThreadState &ChildState = Threads[Child];
  // Table 6 Rule 4: C_t <- C_t join C_u; C_u <- inc_u(C_u, s).
  joinIntoThread(Parent, ChildState.Clock,
                 threadVersionEpoch(ChildState, Child));
  if (Config.UseAccordionClocks) {
    // The child performs no actions after being joined; snapshot its
    // final clock (pre-increment: the increment below creates a virtual
    // epoch no access ever uses) for the recycling domination check.
    // No-op if the slot was already retired at the child's ThreadExit.
    Recycler.retire(Child, ChildState.Clock.clock());
  }
  incrementThread(Child);
}

void PacerDetector::threadExit(ThreadId Tid) {
  if (!Config.UseAccordionClocks)
    return;
  Arena::Scope MetadataScope(&Metadata);
  ThreadId Slot = slotOf(Tid);
  ensureThread(Slot);
  // The thread acts no more: its clock now equals the snapshot a later
  // join would take, so retiring here lets the slot be reclaimed as soon
  // as domination holds rather than only after the join.
  Recycler.retire(Slot, Threads[Slot].Clock.clock());
}

void PacerDetector::acquire(ThreadId Tid, LockId Lock) {
  Arena::Scope MetadataScope(&Metadata);
  ++Stats.SyncOps;
  Tid = slotOf(Tid);
  SyncObjState &LockState = ensureLock(Lock);
  // Table 6 Rule 1: C_t <- C_t join L_m.
  joinIntoThread(Tid, LockState.Clock, LockState.VEpoch);
}

void PacerDetector::release(ThreadId Tid, LockId Lock) {
  Arena::Scope MetadataScope(&Metadata);
  ++Stats.SyncOps;
  Tid = slotOf(Tid);
  // Table 6 Rule 2: L_m <- copy(C_t); C_t <- inc_t(C_t, s).
  copyThreadClockTo(ensureLock(Lock), Tid);
  incrementThread(Tid);
}

void PacerDetector::syncBatch(ThreadId Tid, LockId Lock, uint64_t Pairs) {
  if (Pairs == 0)
    return;
  // The first pair runs at full fidelity: it performs whatever join the
  // lock's prior history requires and (re)establishes the invariant the
  // collapse below relies on -- after one acquire/release, L_m is exactly
  // this thread's frontier (a copy of C_t one self-increment behind, with
  // a version epoch naming this thread).
  acquire(Tid, Lock);
  release(Tid, Lock);
  const uint64_t Rest = Pairs - 1;
  if (Rest == 0)
    return;
  Arena::Scope MetadataScope(&Metadata);
  Stats.SyncOps += 2 * Rest;
  if (!Sampling) {
    // Timeless phase: clocks do not move, so every middle acquire is a
    // guaranteed fast join (Rule 4; or a no-op slow join under the
    // ablation) and every middle release re-copies an unchanged clock
    // onto a lock that already holds it. Net effect: counters only.
    if (Config.UseVersionFastJoins)
      Stats.FastJoinsNonSampling += Rest;
    else
      Stats.SlowJoinsNonSampling += Rest;
    if (Config.UseClockSharing)
      Stats.ShallowCopiesNonSampling += Rest;
    else
      Stats.DeepCopiesNonSampling += Rest;
    return;
  }
  // Sampling: each middle pair fast-joins (L_m's version epoch names this
  // thread one version back, so Rule 4 applies; the slow-join ablation
  // compares leq-true and also does nothing), deep-copies C_t into L_m,
  // and increments the thread's clock and version. Only the thread's own
  // components move, so the run collapses to closed-form updates plus one
  // final deep copy.
  if (Config.UseVersionFastJoins)
    Stats.FastJoinsSampling += Rest;
  else
    Stats.SlowJoinsSampling += Rest;
  Stats.DeepCopiesSampling += Rest;
  const ThreadId Slot = slotOf(Tid);
  ThreadState &Thread = ensureThread(Slot);
  // The first pair's sampling increment already privatized any shared
  // payload, so this is a provable no-op kept as a guard.
  Thread.Clock.cloneIfShared(&Stats.ClockClones);
  const uint32_t C = Thread.Clock.clock().get(Slot);
  const uint32_t V = Thread.Ver.get(Slot);
  const auto Inc = static_cast<uint32_t>(Rest);
  // State as of the last middle release, pre-increment ...
  Thread.Clock.mutableClock().set(Slot, C + Inc - 1);
  Thread.Ver.set(Slot, V + Inc - 1);
  SyncObjState &LockState = ensureLock(Lock);
  LockState.Clock.deepCopyFrom(Thread.Clock, &Stats.ClockClones);
  LockState.VEpoch = VersionEpoch::make(V + Inc - 1, Slot);
  // ... and the final self-increment.
  Thread.Clock.mutableClock().set(Slot, C + Inc);
  Thread.Ver.set(Slot, V + Inc);
}

void PacerDetector::volatileRead(ThreadId Tid, VolatileId Vol) {
  Arena::Scope MetadataScope(&Metadata);
  ++Stats.SyncOps;
  Tid = slotOf(Tid);
  SyncObjState &VolState = ensureVolatile(Vol);
  // Table 6 Rule 5: C_t <- C_t join V_vx (like a lock acquire).
  joinIntoThread(Tid, VolState.Clock, VolState.VEpoch);
}

void PacerDetector::volatileWrite(ThreadId Tid, VolatileId Vol) {
  Arena::Scope MetadataScope(&Metadata);
  ++Stats.SyncOps;
  Tid = slotOf(Tid);
  // Table 6 Rule 6: V_vx <- V_vx join C_t; C_t <- inc_t(C_t, s).
  joinIntoVolatile(ensureVolatile(Vol), Tid);
  incrementThread(Tid);
}

void PacerDetector::beginSamplingPeriod() {
  Arena::Scope MetadataScope(&Metadata);
  assert(!Sampling && "nested sampling period");
  // Period boundaries are the paper's GC moments: the natural point to
  // recycle retired thread slots.
  recycleDeadSlots();
  Sampling = true;
  // Table 5 Rule 1: increment every thread's clock (and version). This
  // restores strict well-formedness so that epochs recorded from here on
  // are distinguishable (Lemma 5). It also ensures a race whose first
  // access precedes any synchronization in the period is detected.
  for (ThreadId Tid = 0; Tid < Threads.size(); ++Tid)
    if (Threads[Tid].Started)
      incrementThread(Tid);
}

void PacerDetector::endSamplingPeriod() {
  assert(Sampling && "not in a sampling period");
  // Table 5 Rule 2: logical time halts.
  Sampling = false;
}

void PacerDetector::reportPriorWriteRace(const VarState &State, VarId Var,
                                         ThreadId Tid, AccessKind Kind,
                                         SiteId Site) {
  RaceReport Report;
  Report.Var = Var;
  Report.FirstKind = AccessKind::Write;
  Report.SecondKind = Kind;
  Report.FirstThread = externalOf(State.W.tid());
  Report.SecondThread = externalOf(Tid);
  Report.FirstSite = State.WSite;
  Report.SecondSite = Site;
  reportRace(Report);
}

void PacerDetector::reportPriorReadRaces(const VarState &State,
                                         const VectorClock &Clock, VarId Var,
                                         ThreadId Tid, SiteId Site) {
  State.R.forEachViolation(Clock, [&](const ReadEntry &Entry) {
    RaceReport Report;
    Report.Var = Var;
    Report.FirstKind = AccessKind::Read;
    Report.SecondKind = AccessKind::Write;
    Report.FirstThread = externalOf(Entry.Tid);
    Report.SecondThread = externalOf(Tid);
    Report.FirstSite = Entry.Site;
    Report.SecondSite = Site;
    reportRace(Report);
  });
}

void PacerDetector::read(ThreadId Tid, VarId Var, SiteId Site) {
  Arena::Scope MetadataScope(&Metadata);
  if (!Config.InstrumentReadsWrites)
    return;
  Tid = slotOf(Tid);
  readImpl(Tid, Var, Site, Vars.find(Var));
}

void PacerDetector::readImpl(ThreadId Tid, VarId Var, SiteId Site,
                             VarState *Found) {
  // Inlined fast path (Section 4): outside sampling periods a variable
  // with no metadata needs no analysis at all.
  if (!Sampling && !Found) {
    ++Stats.ReadFastNonSampling;
    return;
  }
  if (Sampling)
    ++Stats.ReadSlowSampling;
  else
    ++Stats.ReadSlowNonSampling;

  ThreadState &Thread = ensureThread(Tid);
  const VectorClock &Clock = Thread.Clock.clock();
  Epoch Current = Epoch::make(Clock.get(Tid), Tid);

  if (Sampling) {
    readSampling(Tid, Clock, Current, Var, Site, Found);
    return;
  }

  VarState &State = Found ? *Found : Vars.getOrInsert(Var);

  // Table 4 Rule 1 (same epoch): no checks, no updates, in either period
  // kind. Checking first matters under report-and-continue: a racing
  // write already reported at the read that installed this epoch must not
  // be re-reported on every subsequent same-epoch read (FastTrack's
  // Algorithm 7 has the same structure).
  if (State.R.isEpoch() && State.R.epoch() == Current)
    return;

  // check W_f <= clock_t (Algorithm 12; Table 4's race-free condition for
  // Rules 2-4). On a race we report and continue as race free.
  if (!State.W.precedes(Clock))
    reportPriorWriteRace(State, Var, Tid, AccessKind::Read, Site);

  // Non-sampling: record nothing; discard whatever FastTrack would have
  // replaced or discarded.
  if (!Config.DiscardMetadata)
    return; // Ablation: keep everything (still sound, no space win).
  switch (State.R.kind()) {
  case ReadMap::Kind::Null:
    break; // Rule 2: stays null.
  case ReadMap::Kind::Epoch:
    // Rule 2: an ordered prior read cannot be the last access to race with
    // a later access, so discard it. Rule 4 (concurrent prior read): keep.
    if (State.R.leqClock(Clock))
      State.R.clear();
    break;
  case ReadMap::Kind::Map:
    // Rule 3: discard only this thread's entry (Algorithm 12's
    // "Discard R_f[t] only"); collapse an empty map to null.
    if (State.R.removeEntry(Tid))
      State.R.clear();
    break;
  }
  if (State.R.isNull() && State.W.isNone())
    Vars.erase(Var);
}

void PacerDetector::readSampling(ThreadId Tid, const VectorClock &Clock,
                                 Epoch Current, VarId Var, SiteId Site,
                                 VarState *Found) {
  VarState &State = Found ? *Found : Vars.getOrInsert(Var);

  // Table 4 Rule 1 (same epoch): no checks, no updates (see readImpl).
  if (State.R.isEpoch() && State.R.epoch() == Current)
    return;

  // check W_f <= clock_t (Algorithm 12); report and continue on a race.
  if (!State.W.precedes(Clock))
    reportPriorWriteRace(State, Var, Tid, AccessKind::Read, Site);

  switch (State.R.kind()) {
  case ReadMap::Kind::Null:
    // Rule 2 with R = bottom: record the read as an epoch.
    State.R.setEpoch(Current, Site);
    break;
  case ReadMap::Kind::Epoch:
    if (State.R.leqClock(Clock)) {
      // Rule 2 (exclusive): overwrite the ordered read epoch.
      State.R.setEpoch(Current, Site);
    } else {
      // Rule 4 (share): inflate to a map holding both concurrent reads.
      State.R.inflateToMap();
      State.R.setEntry(Tid, Clock.get(Tid), Site);
    }
    break;
  case ReadMap::Kind::Map:
    // Rule 3 (shared): update this thread's component.
    State.R.setEntry(Tid, Clock.get(Tid), Site);
    break;
  }
}

void PacerDetector::write(ThreadId Tid, VarId Var, SiteId Site) {
  Arena::Scope MetadataScope(&Metadata);
  if (!Config.InstrumentReadsWrites)
    return;
  Tid = slotOf(Tid);
  writeImpl(Tid, Var, Site, Vars.find(Var));
}

void PacerDetector::writeImpl(ThreadId Tid, VarId Var, SiteId Site,
                              VarState *Found) {
  if (!Sampling && !Found) {
    ++Stats.WriteFastNonSampling;
    return;
  }
  if (Sampling)
    ++Stats.WriteSlowSampling;
  else
    ++Stats.WriteSlowNonSampling;

  ThreadState &Thread = ensureThread(Tid);
  const VectorClock &Clock = Thread.Clock.clock();
  Epoch Current = Epoch::make(Clock.get(Tid), Tid);

  if (Sampling) {
    writeSampling(Tid, Clock, Current, Var, Site, Found);
    return;
  }

  VarState &State = Found ? *Found : Vars.getOrInsert(Var);

  // Table 4 Rule 5 (same epoch): no action. The race checks cannot fire
  // here (see the write-rule discussion in DESIGN.md), so skipping them
  // matches Algorithm 13's check-first ordering.
  if (State.W == Current)
    return;

  // check W_f <= clock_t and R_f <= clock_t (Algorithm 13; ordered as in
  // FastTrack's Algorithm 8 so the two report identical sequences at a
  // 100% sampling rate).
  if (!State.W.precedes(Clock))
    reportPriorWriteRace(State, Var, Tid, AccessKind::Write, Site);
  reportPriorReadRaces(State, Clock, Var, Tid, Site);

  // Rules 6-7 non-sampling: this unsampled write supersedes everything;
  // discard the variable's metadata entirely.
  if (!Config.DiscardMetadata)
    return; // Ablation: keep the stale (ordered) metadata.
  Vars.erase(Var);
}

void PacerDetector::writeSampling(ThreadId Tid, const VectorClock &Clock,
                                  Epoch Current, VarId Var, SiteId Site,
                                  VarState *Found) {
  VarState &State = Found ? *Found : Vars.getOrInsert(Var);

  // Table 4 Rule 5 (same epoch): no action (see writeImpl).
  if (State.W == Current)
    return;

  // check W_f <= clock_t and R_f <= clock_t (Algorithm 13).
  if (!State.W.precedes(Clock))
    reportPriorWriteRace(State, Var, Tid, AccessKind::Write, Site);
  reportPriorReadRaces(State, Clock, Var, Tid, Site);

  // Rules 6-7 sampling: record the write, discard the read map.
  State.W = Current;
  State.WSite = Site;
  State.R.clear();
}

void PacerDetector::threadBegin(ThreadId Tid) {
  Arena::Scope MetadataScope(&Metadata);
  ensureThread(slotOf(Tid));
}

void PacerDetector::accessBatch(std::span<const Action> Batch,
                                const AccessShard &Shard) {
  Arena::Scope MetadataScope(&Metadata);
  if (!Config.InstrumentReadsWrites)
    return;
  // Phase routing: the replay layer never lets a period boundary fall
  // inside a batch, so the sampling flag is epoch-invariant and one test
  // here selects the kernel for the whole run. (Accordion clocks need the
  // per-access path for slot bookkeeping.)
  if (!Config.UseAccordionClocks) {
    if (Sampling) {
      hotAccessBatch(Batch, Shard);
      return;
    }
    // Owned reads are the owned remainder after counting owned writes, so
    // the unsharded count touches one byte per action and nothing else.
    uint64_t Owned = Batch.size(), Writes = 0;
    if (Shard.ownsAll()) {
      for (const Action &A : Batch)
        Writes += A.Kind != ActionKind::Read;
    } else {
      Owned = 0;
      for (const Action &A : Batch) {
        const uint64_t Own = A.Target % Shard.count() == Shard.index();
        Owned += Own;
        Writes += Own & static_cast<uint64_t>(A.Kind != ActionKind::Read);
      }
    }
    coldAccessRun(Batch, Shard, Owned, Writes);
    return;
  }
  for (const Action &A : Batch) {
    if (!Shard.owns(A.Target))
      continue;
    if (A.Kind == ActionKind::Read)
      read(A.Tid, A.Target, A.Site);
    else
      write(A.Tid, A.Target, A.Site);
  }
}

void PacerDetector::accessRun(std::span<const Action> Run, uint64_t Writes) {
  if (Sampling || Config.UseAccordionClocks || !Config.InstrumentReadsWrites) {
    PacerDetector::accessBatch(Run, AccessShard::all());
    return;
  }
  // No arena scope: the kernel allocates nothing, and each hit's
  // read()/write() binds the arena itself.
  coldAccessRun(Run, AccessShard::all(), Run.size(), Writes);
}

void PacerDetector::coldAccessRun(std::span<const Action> Batch,
                                  const AccessShard &Shard, uint64_t Owned,
                                  uint64_t Writes) {
  // While no variable holds metadata every access in the epoch is the
  // inlined "flag test + metadata-bit miss" (Section 4): non-sampling
  // accesses never insert metadata and nothing else runs inside an epoch,
  // so Vars stays empty for the whole batch and the counts are the whole
  // answer. Otherwise some variables still hold metadata (a sampling
  // period ended recently and its records have not all been discarded):
  // each owned access tests its variable's presence bit, and only hits --
  // rare at low rates -- take the full read()/write() discard logic. The
  // bit is read live per access, because a hit's read()/write() may erase
  // entries.
  uint64_t HitReads = 0, HitWrites = 0;
  if (!Vars.empty()) {
    for (const Action &A : Batch) {
      if (!Shard.owns(A.Target) || !Vars.contains(A.Target))
        continue;
      if (A.Kind == ActionKind::Read) {
        ++HitReads;
        read(A.Tid, A.Target, A.Site);
      } else {
        ++HitWrites;
        write(A.Tid, A.Target, A.Site);
      }
    }
  }
  Stats.ReadFastNonSampling += Owned - Writes - HitReads;
  Stats.WriteFastNonSampling += Writes - HitWrites;
}

void PacerDetector::hotAccessBatch(std::span<const Action> Batch,
                                   const AccessShard &Shard) {
  // Slot/clock/epoch resolution hoisted to thread switches: accesses
  // never mutate thread clocks, and no synchronization action or first
  // sight occurs inside a batch, so the references stay valid across the
  // whole run (accordion is routed away, so tids are already slots).
  // Re-fetch on every switch: ensureThread may resize the thread table.
  ThreadId CurTid = InvalidId;
  const VectorClock *Clock = nullptr;
  Epoch Current = Epoch::none();
  uint64_t Reads = 0, Writes = 0;
  for (const Action &A : Batch) {
    if (!Shard.owns(A.Target))
      continue;
    if (A.Tid != CurTid) {
      CurTid = A.Tid;
      Clock = &ensureThread(CurTid).Clock.clock();
      Current = Epoch::make(Clock->get(CurTid), CurTid);
    }
    VarState *Found = Vars.find(A.Target);
    if (A.Kind == ActionKind::Read) {
      ++Reads;
      readSampling(CurTid, *Clock, Current, A.Target, A.Site, Found);
    } else {
      ++Writes;
      writeSampling(CurTid, *Clock, Current, A.Target, A.Site, Found);
    }
  }
  Stats.ReadSlowSampling += Reads;
  Stats.WriteSlowSampling += Writes;
}

size_t PacerDetector::accessMetadataBytes() const {
  // Live entries (not table capacity): capacity depends on insertion and
  // shrink history, which differs across shard replicas; the live-entry
  // count partitions exactly.
  size_t Bytes = Vars.entryBytes();
  Vars.forEach(
      [&](VarId, const VarState &State) { Bytes += State.R.heapBytes(); });
  return Bytes;
}

size_t PacerDetector::liveMetadataBytes() const {
  size_t Bytes = 0;
  // Count each clock payload once: sharing is precisely what makes
  // synchronization metadata cheap in non-sampling periods.
  std::vector<const void *> Seen;
  auto AddPayload = [&](const SyncClock &Clock) {
    const void *Key = Clock.payloadKey();
    if (std::find(Seen.begin(), Seen.end(), Key) != Seen.end())
      return;
    Seen.push_back(Key);
    Bytes += Clock.payloadBytes();
  };
  for (const ThreadState &State : Threads) {
    if (!State.Started)
      continue;
    AddPayload(State.Clock);
    Bytes += sizeof(State) + State.Ver.heapBytes();
  }
  if (Config.UseAccordionClocks)
    Bytes += Recycler.liveMetadataBytes();
  for (const SyncObjState &State : Locks) {
    AddPayload(State.Clock);
    Bytes += sizeof(State);
  }
  for (const SyncObjState &State : Volatiles) {
    AddPayload(State.Clock);
    Bytes += sizeof(State);
  }
  // Per-variable storage is charged per live entry (plus read-map
  // payloads) so the measurement is additive across shard partitions.
  Bytes += accessMetadataBytes();
  return Bytes;
}

const VectorClock &PacerDetector::threadClockForTest(ThreadId Tid) const {
  return Threads.at(Tid).Clock.clock();
}

const VersionVector &
PacerDetector::threadVersionsForTest(ThreadId Tid) const {
  return Threads.at(Tid).Ver;
}

const VectorClock *PacerDetector::lockClockForTest(LockId Lock) const {
  if (Lock >= Locks.size())
    return nullptr;
  return &Locks[Lock].Clock.clock();
}

const VectorClock *
PacerDetector::volatileClockForTest(VolatileId Vol) const {
  if (Vol >= Volatiles.size())
    return nullptr;
  return &Volatiles[Vol].Clock.clock();
}

VersionEpoch PacerDetector::lockVersionEpochForTest(LockId Lock) const {
  if (Lock >= Locks.size())
    return VersionEpoch::bottom();
  return Locks[Lock].VEpoch;
}

VersionEpoch
PacerDetector::volatileVersionEpochForTest(VolatileId Vol) const {
  if (Vol >= Volatiles.size())
    return VersionEpoch::bottom();
  return Volatiles[Vol].VEpoch;
}

const void *PacerDetector::threadClockKeyForTest(ThreadId Tid) const {
  return Threads.at(Tid).Clock.payloadKey();
}

const void *PacerDetector::lockClockKeyForTest(LockId Lock) const {
  return Locks.at(Lock).Clock.payloadKey();
}

const ReadMap *PacerDetector::readMapForTest(VarId Var) const {
  const VarState *State = Vars.find(Var);
  return State ? &State->R : nullptr;
}

Epoch PacerDetector::writeEpochForTest(VarId Var) const {
  const VarState *State = Vars.find(Var);
  return State ? State->W : Epoch::none();
}
