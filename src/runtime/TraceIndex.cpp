//===- runtime/TraceIndex.cpp ---------------------------------------------==//

#include "runtime/TraceIndex.h"

#include "runtime/Runtime.h"
#include "runtime/SamplingController.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace pacer;

TraceIndex::Builder::Builder(unsigned Shards) {
  Index.Shards = std::max(1u, Shards);
  Index.Runs.resize(Index.Shards);
  Index.OwnedCounts.assign(Index.Shards, 0);
}

void TraceIndex::Builder::addChunk(TraceSpan Chunk) {
  assert(Chunk.size() < UINT32_MAX - Pos &&
         "trace positions must fit in 32 bits");
  auto CloseEpoch = [&](uint32_t End) {
    Index.Epochs.push_back({EpochBegin, End});
  };

  for (const Action &A : Chunk) {
    const uint32_t I = Pos++;
    if (A.Tid >= Seen.size())
      Seen.resize(A.Tid + 1, false);
    if (!Seen[A.Tid]) {
      // First sight: the runtime delivers threadBegin before this action,
      // closing the pending epoch. The action itself may be an access, so
      // the next epoch starts *at* I, not after it.
      Seen[A.Tid] = true;
      CloseEpoch(I);
      Index.Events.push_back({I, A.Tid});
      EpochBegin = I;
    }
    if (isAccessAction(A.Kind)) {
      const uint32_t S =
          Index.Shards <= 1 ? 0u : A.Target % Index.Shards;
      std::vector<Run> &Rs = Index.Runs[S];
      const auto Epoch = static_cast<uint32_t>(Index.Epochs.size());
      if (!Rs.empty() && Rs.back().End == I && Rs.back().Epoch == Epoch)
        Rs.back().End = I + 1;
      else
        Rs.push_back({I, I + 1, Epoch});
      ++Index.OwnedCounts[S];
      ++Index.AccessTotal;
      continue;
    }
    // Synchronization action or thread exit: a skeleton dispatch event.
    CloseEpoch(I);
    Index.Events.push_back({I, InvalidId});
    EpochBegin = I + 1;
  }
}

TraceIndex TraceIndex::Builder::take() {
  Index.Epochs.push_back({EpochBegin, Pos});
  return std::move(Index);
}

TraceIndex TraceIndex::build(TraceSpan T, unsigned Shards) {
  Builder B(Shards);
  B.addChunk(T);
  return B.take();
}

void TraceIndex::replayShard(TraceSpan T, uint32_t Shard, Detector &D,
                             SamplingController *Controller,
                             bool SyncBatching) const {
  assert(Shard < Shards && "shard out of range");
  assert(T.size() >= (Epochs.empty() ? 0 : Epochs.back().End) &&
         "index built from a different trace");

  // LiteRace-style detectors advance per-access sampler state for every
  // access in the trace, owned or not, so their replicas must observe the
  // full access stream; deliver whole epoch segments with an ownership
  // filter (bit-identical, O(trace)). Shard-local detectors see only the
  // owned runs, unfiltered.
  const bool ShardLocal = Shards <= 1 || D.accessAnalysisIsShardLocal();
  const AccessShard Filter(Shard, Shards);
  const std::vector<Run> &Rs = Runs[Shard];

  size_t RunIdx = 0;
  // Next undelivered position within Rs[RunIdx] (valid while RunIdx is).
  uint32_t Cursor = Rs.empty() ? 0 : Rs.front().Begin;
  uint64_t Delivered = 0;

  // Delivers the shard's owned accesses inside [From, To) as unfiltered
  // accessBatch spans, clipping runs at segment edges. Segments arrive in
  // ascending, non-overlapping order, so a single cursor suffices.
  auto DeliverOwned = [&](uint32_t From, uint32_t To) {
    while (RunIdx < Rs.size()) {
      const Run &R = Rs[RunIdx];
      const uint32_t Begin = std::max(Cursor, From);
      if (Begin >= To)
        return; // Next owned access lies beyond this segment.
      const uint32_t End = std::min(R.End, To);
      if (Begin < End) {
        D.accessBatch(
            std::span<const Action>(T.data() + Begin, End - Begin));
        Delivered += End - Begin;
        Cursor = End;
      }
      if (Cursor < R.End)
        return; // Segment ended mid-run; resume here next segment.
      if (++RunIdx < Rs.size())
        Cursor = Rs[RunIdx].Begin;
    }
  };

  auto Deliver = [&](uint32_t From, uint32_t To) {
    if (ShardLocal) {
      DeliverOwned(From, To);
    } else if (From < To) {
      D.accessBatch(std::span<const Action>(T.data() + From, To - From),
                    Filter);
    }
  };

  if (Controller)
    Controller->start(D);

  for (size_t E = 0; E < Epochs.size(); ++E) {
    const EpochSpan &Ep = Epochs[E];
    if (Ep.Begin < Ep.End) {
      if (!Controller) {
        Deliver(Ep.Begin, Ep.End);
      } else {
        // Advance the controller over the epoch's access count in bulk;
        // a sampling-period boundary splits the epoch exactly where the
        // sequential replay loop flushes: accesses strictly before the
        // boundary are analysed under the old sampling state (delivered
        // BEFORE advanceAccessRun toggles the detector), the firing
        // access joins the next segment under the new state.
        uint32_t SegBegin = Ep.Begin;
        uint64_t Accounted = Ep.Begin;
        while (Accounted < Ep.End) {
          const uint64_t Left = Ep.End - Accounted;
          const uint64_t Fire = Controller->accessRunBoundaryIndex(Left);
          if (Fire == 0) {
            Deliver(SegBegin, Ep.End);
            SegBegin = Ep.End;
            Controller->advanceAccessRun(Left, D);
            break;
          }
          const auto PreEnd = static_cast<uint32_t>(Accounted + Fire - 1);
          Deliver(SegBegin, PreEnd);
          Controller->advanceAccessRun(Left, D);
          Accounted += Fire;
          SegBegin = PreEnd;
        }
        if (SegBegin < Ep.End)
          Deliver(SegBegin, Ep.End);
      }
    }
    if (E < Events.size()) {
      const Event &Ev = Events[E];
      if (Ev.BeginTid != InvalidId) {
        D.threadBegin(Ev.BeginTid);
      } else {
        const Action &A = T[Ev.Pos];
        if (SyncBatching && A.Kind == ActionKind::Acquire) {
          // Maximal skeleton run of same-thread acquire/release pairs on
          // one lock at adjacent trace positions (adjacency implies the
          // interleaved epochs are empty, and no first-sight marker can
          // land inside: the thread is already seen).
          size_t J = E;
          uint32_t NextPos = Ev.Pos;
          while (J + 1 < Events.size() && Events[J].BeginTid == InvalidId &&
                 Events[J + 1].BeginTid == InvalidId &&
                 Events[J].Pos == NextPos && Events[J + 1].Pos == NextPos + 1 &&
                 T[NextPos].Kind == ActionKind::Acquire &&
                 T[NextPos + 1].Kind == ActionKind::Release &&
                 T[NextPos].Tid == A.Tid && T[NextPos + 1].Tid == A.Tid &&
                 T[NextPos].Target == A.Target &&
                 T[NextPos + 1].Target == A.Target) {
            J += 2;
            NextPos += 2;
          }
          const size_t RunPairs = (J - E) / 2;
          if (RunPairs >= 2) {
            Runtime::deliverSyncPairRun(D, Controller, A.Tid, A.Target,
                                        2 * RunPairs);
            // Resume at epoch J: the skipped interleaved epochs are empty.
            E = J - 1;
            continue;
          }
        }
        if (Controller)
          Controller->beforeAction(A.Kind, D);
        Runtime::dispatchTo(D, A);
      }
    }
  }

  // Partition guard: the owned-run walk must hand the detector each owned
  // access exactly once -- replica work is exactly O(sync + owned).
  (void)Delivered;
  assert(!ShardLocal || Delivered == OwnedCounts[Shard]);
}

unsigned pacer::autoShardCount(uint64_t AccessCount, unsigned HardwareJobs) {
  // Each replica pays for the full sync skeleton plus its own setup, so
  // demand a meaningful slab of owned accesses per shard before splitting.
  constexpr uint64_t MinOwnedAccessesPerShard = 32 * 1024;
  const uint64_t ByWork = AccessCount / MinOwnedAccessesPerShard;
  const uint64_t Cap = std::max(1u, HardwareJobs);
  return static_cast<unsigned>(std::clamp<uint64_t>(ByWork, 1, Cap));
}

unsigned pacer::resolveShardCount(unsigned Requested, uint64_t AccessCount) {
  if (Requested != 0)
    return Requested;
  return autoShardCount(AccessCount, hardwareJobs());
}

unsigned pacer::parseShardCount(const std::string &Text) {
  if (Text == "auto")
    return 0;
  // strtoul skips leading blanks and negates a leading '-', so "-1" would
  // parse as ULONG_MAX and clamp to 4096: accept decimal digits only.
  if (Text.empty() || Text[0] < '0' || Text[0] > '9')
    return 1;
  char *End = nullptr;
  const unsigned long Value = std::strtoul(Text.c_str(), &End, 10);
  if (End == Text.c_str() || *End != '\0' || Value == 0)
    return 1;
  return Value > 4096 ? 4096u : static_cast<unsigned>(Value);
}

uint64_t pacer::countTraceAccesses(TraceSpan T) {
  uint64_t Count = 0;
  for (const Action &A : T)
    Count += isAccessAction(A.Kind) ? 1 : 0;
  return Count;
}
