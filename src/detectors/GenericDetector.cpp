//===- detectors/GenericDetector.cpp --------------------------------------==//

#include "detectors/GenericDetector.h"

using namespace pacer;

GenericDetector::VarState &GenericDetector::ensureVar(VarId Var) {
  if (Var >= Vars.size())
    Vars.resize(Var + 1);
  return Vars[Var];
}

void GenericDetector::checkClockOrdered(const VectorClock &Prior,
                                        const SiteVector &PriorSites,
                                        AccessKind PriorKind,
                                        const VectorClock &Current, VarId Var,
                                        ThreadId Tid, AccessKind Kind,
                                        SiteId Site) {
  // Hot-path screen: one kernel-dispatched allLeq over the stored
  // components. Prior <= Current means no component can trigger the
  // report below, so skipping the walk is observationally identical.
  // Narrow clocks skip the screen: leq costs two indirect kernel calls
  // plus SIMD setup, which is more than the handful of scalar compares
  // the walk needs below one vector's width.
  constexpr size_t MinScreenWidth = 16;
  if (Prior.size() >= MinScreenWidth && Prior.leq(Current))
    return;
  for (size_t U = 0, E = Prior.size(); U != E; ++U) {
    auto PriorTid = static_cast<ThreadId>(U);
    if (Prior.get(PriorTid) <= Current.get(PriorTid))
      continue;
    RaceReport Report;
    Report.Var = Var;
    Report.FirstKind = PriorKind;
    Report.SecondKind = Kind;
    Report.FirstThread = Sync.externalOf(PriorTid);
    Report.SecondThread = Sync.externalOf(Tid);
    Report.FirstSite = U < PriorSites.size() ? PriorSites[U] : InvalidId;
    Report.SecondSite = Site;
    reportRace(Report);
  }
}

void GenericDetector::readWith(ThreadId Tid, const VectorClock &Clock,
                               VarId Var, SiteId Site) {
  ++Stats.ReadSlowSampling;
  VarState &State = ensureVar(Var);
  // Algorithm 5: check W_f <= C_t, then R_f[t] <- C_t[t].
  checkClockOrdered(State.W, State.WSites, AccessKind::Write, Clock, Var, Tid,
                    AccessKind::Read, Site);
  State.R.set(Tid, Clock.get(Tid));
  if (Tid >= State.RSites.size())
    State.RSites.resize(Tid + 1, InvalidId);
  State.RSites[Tid] = Site;
}

void GenericDetector::writeWith(ThreadId Tid, const VectorClock &Clock,
                                VarId Var, SiteId Site) {
  ++Stats.WriteSlowSampling;
  VarState &State = ensureVar(Var);
  // Algorithm 6: check W_f <= C_t and R_f <= C_t, then W_f[t] <- C_t[t].
  checkClockOrdered(State.W, State.WSites, AccessKind::Write, Clock, Var, Tid,
                    AccessKind::Write, Site);
  checkClockOrdered(State.R, State.RSites, AccessKind::Read, Clock, Var, Tid,
                    AccessKind::Write, Site);
  State.W.set(Tid, Clock.get(Tid));
  if (Tid >= State.WSites.size())
    State.WSites.resize(Tid + 1, InvalidId);
  State.WSites[Tid] = Site;
}

void GenericDetector::read(ThreadId Tid, VarId Var, SiteId Site) {
  Arena::Scope MetadataScope(&Metadata);
  Tid = Sync.slotOf(Tid);
  readWith(Tid, Sync.ensureThread(Tid), Var, Site);
}

void GenericDetector::write(ThreadId Tid, VarId Var, SiteId Site) {
  Arena::Scope MetadataScope(&Metadata);
  Tid = Sync.slotOf(Tid);
  writeWith(Tid, Sync.ensureThread(Tid), Var, Site);
}

void GenericDetector::accessBatch(std::span<const Action> Batch,
                                  const AccessShard &Shard) {
  // One arena scope for the whole epoch, and the slot/clock resolution
  // hoisted to thread switches. No synchronization action or first sight
  // occurs inside a batch, so the thread vector never reallocates and the
  // hoisted clock reference stays valid across the run.
  Arena::Scope MetadataScope(&Metadata);
  ThreadId CurTid = InvalidId;
  ThreadId Slot = 0;
  const VectorClock *Clock = nullptr;
  for (const Action &A : Batch) {
    if (!Shard.owns(A.Target))
      continue;
    if (A.Tid != CurTid) {
      CurTid = A.Tid;
      Slot = Sync.slotOf(CurTid);
      Clock = &Sync.ensureThread(Slot);
    }
    if (A.Kind == ActionKind::Read)
      readWith(Slot, *Clock, A.Target, A.Site);
    else
      writeWith(Slot, *Clock, A.Target, A.Site);
  }
}

size_t GenericDetector::recycleDeadSlots() {
  if (!Config.UseAccordionClocks)
    return 0;
  Arena::Scope MetadataScope(&Metadata);
  return Sync.recycleDeadSlots(
      [this](ThreadId Slot) {
        // Zero the reclaimed slot in every access vector: its components
        // are dominated by all live threads and can never race again.
        for (VarState &State : Vars) {
          // Sites are recorded only alongside a nonzero clock component,
          // so variables the slot never touched need no scrubbing.
          if (State.R.get(Slot) == 0 && State.W.get(Slot) == 0)
            continue;
          State.R.set(Slot, 0);
          State.W.set(Slot, 0);
          if (Slot < State.RSites.size())
            State.RSites[Slot] = InvalidId;
          if (Slot < State.WSites.size())
            State.WSites[Slot] = InvalidId;
        }
      },
      [this](const SlotRemap &Remap) {
        const uint32_t NewCount = Remap.newCount();
        const uint32_t *NewToOld = Remap.NewToOld.data();
        auto CompactSites = [&](SiteVector &Sites) {
          // Same ascending in-place pack as the clocks; entries past the
          // vector's recorded length stay implicit InvalidId. Like the
          // clocks, release over-grown capacity so the space charge
          // tracks the packed width, not the widest width ever seen.
          uint32_t M = 0;
          while (M < NewCount &&
                 NewToOld[M] < static_cast<uint32_t>(Sites.size()))
            ++M;
          for (uint32_t I = 0; I != M; ++I)
            Sites[I] = Sites[NewToOld[I]];
          Sites.resize(M);
          if (Sites.capacity() > 2 * Sites.size())
            Sites.shrink_to_fit();
        };
        for (VarState &State : Vars) {
          State.R.compactSlots(NewToOld, NewCount);
          State.W.compactSlots(NewToOld, NewCount);
          CompactSites(State.RSites);
          CompactSites(State.WSites);
        }
      });
}

size_t GenericDetector::accessMetadataBytes() const {
  size_t Bytes = 0;
  for (const VarState &State : Vars) {
    // Skip untracked slots (dense-vector holes): an accessed variable
    // always records a nonzero read or write component, so the live set
    // partitions exactly across shards.
    if (State.R.size() == 0 && State.W.size() == 0)
      continue;
    Bytes += sizeof(State) + State.R.heapBytes() + State.W.heapBytes() +
             State.RSites.capacity() * sizeof(SiteId) +
             State.WSites.capacity() * sizeof(SiteId);
  }
  return Bytes;
}

size_t GenericDetector::liveMetadataBytes() const {
  return Sync.liveMetadataBytes() + accessMetadataBytes();
}
