//===- detectors/LiteRaceDetector.cpp -------------------------------------==//

#include "detectors/LiteRaceDetector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pacer;

bool LiteRaceDetector::advanceSampler(Sampler &State, Rng &Random,
                                      const LiteRaceConfig &Config) {
  if (!State.Initialized) {
    State.Initialized = true;
    State.Rate = Config.InitialRate;
    State.BurstRemaining = Config.BurstLength;
  }

  if (State.BurstRemaining > 0) {
    // Inside a burst: analyse. When the burst completes, decay the rate
    // (the method has proven hot) and schedule the skip run.
    --State.BurstRemaining;
    if (State.BurstRemaining == 0) {
      State.Rate = std::max(State.Rate * Config.DecayFactor, Config.MinRate);
      double Skip = static_cast<double>(Config.BurstLength) *
                    (1.0 - State.Rate) / State.Rate;
      if (Config.RandomizeSkip)
        Skip *= 0.5 + Random.nextDouble(); // Uniform in [0.5, 1.5).
      State.SkipRemaining = static_cast<uint64_t>(Skip);
    }
    return true;
  }

  if (State.SkipRemaining > 0) {
    --State.SkipRemaining;
    return false;
  }

  // Skip run over: start the next burst; this access is part of it.
  State.BurstRemaining = Config.BurstLength - 1;
  return true;
}

bool LiteRaceDetector::shouldSample(ThreadId Tid, SiteId Site) {
  uint64_t Key =
      (static_cast<uint64_t>(methodOf(Site)) << 32) | static_cast<uint64_t>(Tid);
  return advanceSampler(Samplers.getOrInsert(Key), Random, Config);
}

LiteRaceSamplerPlan
LiteRaceDetector::computeSamplerPlan(TraceSpan T,
                                     const std::vector<MethodId> &SiteToMethod,
                                     uint64_t Seed, LiteRaceConfig Config) {
  LiteRaceSamplerPlan Plan;
  Plan.Base = T.data();
  Plan.Bits.assign((T.size() + 63) / 64, 0);
  // The plan's sampler table and RNG mirror a planless detector built with
  // the same seed: advanceSampler is the single shared decision step, and
  // only accesses reach it (read()/write()/accessBatch() are the only
  // callers of shouldSample during replay).
  FlatVarTable<Sampler, uint64_t> Samplers;
  Rng Random(Seed);
  for (size_t Pos = 0; Pos != T.size(); ++Pos) {
    const Action &A = T[Pos];
    if (!isAccessAction(A.Kind))
      continue;
    uint64_t Key = (static_cast<uint64_t>(methodFor(A.Site, SiteToMethod))
                    << 32) |
                   static_cast<uint64_t>(A.Tid);
    if (advanceSampler(Samplers.getOrInsert(Key), Random, Config))
      Plan.Bits[Pos >> 6] |= uint64_t{1} << (Pos & 63);
  }
  Plan.SamplerCount = Samplers.size();
  return Plan;
}

void LiteRaceDetector::read(ThreadId Tid, VarId Var, SiteId Site) {
  assert(!Plan && "planned replay must go through accessBatch");
  Arena::Scope MetadataScope(&Metadata);
  if (!shouldSample(Tid, Site)) {
    ++Stats.ReadFastNonSampling;
    return;
  }
  ++Stats.ReadSlowSampling;
  analyzeRead(Tid, Var, Site);
}

void LiteRaceDetector::write(ThreadId Tid, VarId Var, SiteId Site) {
  assert(!Plan && "planned replay must go through accessBatch");
  Arena::Scope MetadataScope(&Metadata);
  if (!shouldSample(Tid, Site)) {
    ++Stats.WriteFastNonSampling;
    return;
  }
  ++Stats.WriteSlowSampling;
  analyzeWrite(Tid, Var, Site);
}

void LiteRaceDetector::analyzeRead(ThreadId Tid, VarId Var, SiteId Site) {
  // FastTrack Algorithm 7. Clock indices are slots; reports map back to
  // program thread ids.
  Tid = Sync.slotOf(Tid);
  const VectorClock &Clock = Sync.ensureThread(Tid);
  Epoch Current = Epoch::make(Clock.get(Tid), Tid);
  VarState &State = ensureVar(Var);

  if (State.R.isEpoch() && State.R.epoch() == Current)
    return;

  if (!State.W.precedes(Clock)) {
    RaceReport Report;
    Report.Var = Var;
    Report.FirstKind = AccessKind::Write;
    Report.SecondKind = AccessKind::Read;
    Report.FirstThread = Sync.externalOf(State.W.tid());
    Report.SecondThread = Sync.externalOf(Tid);
    Report.FirstSite = State.WSite;
    Report.SecondSite = Site;
    reportRace(Report);
  }

  if (!State.R.isMap()) {
    if (State.R.leqClock(Clock)) {
      State.R.setEpoch(Current, Site);
    } else {
      State.R.inflateToMap();
      State.R.setEntry(Tid, Clock.get(Tid), Site);
    }
    return;
  }
  State.R.setEntry(Tid, Clock.get(Tid), Site);
}

void LiteRaceDetector::analyzeWrite(ThreadId Tid, VarId Var, SiteId Site) {
  // FastTrack Algorithm 8 (with the read-map clear). Clock indices are
  // slots; reports map back to program thread ids.
  Tid = Sync.slotOf(Tid);
  const VectorClock &Clock = Sync.ensureThread(Tid);
  Epoch Current = Epoch::make(Clock.get(Tid), Tid);
  VarState &State = ensureVar(Var);

  if (State.W == Current)
    return;

  if (!State.W.precedes(Clock)) {
    RaceReport Report;
    Report.Var = Var;
    Report.FirstKind = AccessKind::Write;
    Report.SecondKind = AccessKind::Write;
    Report.FirstThread = Sync.externalOf(State.W.tid());
    Report.SecondThread = Sync.externalOf(Tid);
    Report.FirstSite = State.WSite;
    Report.SecondSite = Site;
    reportRace(Report);
  }

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

  State.R.clear();
  State.W = Current;
  State.WSite = Site;
}

void LiteRaceDetector::accessBatch(std::span<const Action> Batch,
                                   const AccessShard &Shard) {
  Arena::Scope MetadataScope(&Metadata);
  for (const Action &A : Batch) {
    bool Sampled;
    if (Plan) {
      // Planned replay: decisions are precomputed per trace position, so
      // foreign accesses cost nothing and the batch may be a filtered
      // owned-only run from the trace index.
      if (!Shard.owns(A.Target))
        continue;
      Sampled = Plan->sampled(static_cast<size_t>(&A - Plan->Base));
    } else {
      // Advance the sampler for every access (see the header comment):
      // the decision stream must be identical on every replica.
      Sampled = shouldSample(A.Tid, A.Site);
      if (!Shard.owns(A.Target))
        continue;
    }
    if (A.Kind == ActionKind::Read) {
      if (!Sampled) {
        ++Stats.ReadFastNonSampling;
        continue;
      }
      ++Stats.ReadSlowSampling;
      analyzeRead(A.Tid, A.Target, A.Site);
    } else {
      if (!Sampled) {
        ++Stats.WriteFastNonSampling;
        continue;
      }
      ++Stats.WriteSlowSampling;
      analyzeWrite(A.Tid, A.Target, A.Site);
    }
  }
}

size_t LiteRaceDetector::recycleDeadSlots() {
  if (!Config.UseAccordionClocks)
    return 0;
  Arena::Scope MetadataScope(&Metadata);
  return Sync.recycleDeadSlots(
      [this](ThreadId Slot) {
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
        for (VarState &State : Vars) {
          State.R.remapThreads(OldToNew);
          if (!State.W.isNone())
            State.W =
                Epoch::make(State.W.clockValue(), OldToNew[State.W.tid()]);
        }
        // The sampler table is keyed by (method, program tid), so it
        // grows with total threads ever started; counters of reclaimed
        // tids are dead weight (those threads never act again, and
        // sampling decisions for live tids do not read them). Sweep them
        // at compaction, keeping the table O(methods x live threads).
        Samplers.eraseIf([this](uint64_t Key, Sampler &) {
          return !Sync.externalHasSlot(
              static_cast<ThreadId>(Key & 0xffffffff));
        });
      });
}

size_t LiteRaceDetector::accessMetadataBytes() const {
  size_t Bytes = 0;
  for (const VarState &State : Vars) {
    // Skip untracked slots (dense-vector holes): a sampled variable
    // always holds a read map or write epoch, so the live set partitions
    // exactly across shards. The sampler table is *not* counted here: it
    // is code-indexed and replica-identical, i.e. sync-side space.
    if (State.R.isNull() && State.W.isNone())
      continue;
    Bytes += sizeof(State) + State.R.heapBytes();
  }
  return Bytes;
}

size_t LiteRaceDetector::liveMetadataBytes() const {
  size_t Bytes = Sync.liveMetadataBytes() + accessMetadataBytes();
  // Sampler table: LiteRace's per-method-thread counters. A planned
  // replica carries the plan's end-of-trace sampler count so its space
  // accounting matches a planless (full-stream) replica exactly when
  // recycling is off; with recycling on, planless replicas sweep dead
  // tids' counters at compaction and report the (smaller) swept size.
  size_t SamplerCount = Plan ? Plan->SamplerCount : Samplers.size();
  Bytes += SamplerCount * (sizeof(uint64_t) + sizeof(Sampler) +
                           2 * sizeof(void *));
  return Bytes;
}

double LiteRaceDetector::effectiveRateFromStats(const DetectorStats &Stats) {
  uint64_t Sampled = Stats.ReadSlowSampling + Stats.WriteSlowSampling;
  uint64_t Skipped = Stats.ReadFastNonSampling + Stats.WriteFastNonSampling;
  uint64_t Total = Sampled + Skipped;
  return Total == 0 ? 0.0 : static_cast<double>(Sampled) /
                                static_cast<double>(Total);
}
