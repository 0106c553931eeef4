//===- detectors/LiteRaceDetector.h - Online LiteRace baseline -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An *online* implementation of LiteRace (Marino et al., PLDI 2009) as the
/// paper's Section 5.3 describes building it for comparison: full
/// instrumentation of all synchronization operations (so no false
/// happens-before is ever missed), with data reads and writes sampled per
/// *code* region using adaptive bursty sampling. Each (method, thread) pair
/// starts at a 100% sampling rate and decays toward a 0.1% floor as the
/// method grows hot -- the cold-region hypothesis. Analysis on sampled
/// accesses is FastTrack's.
///
/// Matching the paper's variant, randomness is added when resetting the
/// sampling counter so different trials catch different races; the default
/// burst length is 1000 (the paper switched from 10 to 1000 to reach ~1%
/// effective rates).
///
/// Because LiteRace samples code rather than data, it never discards
/// metadata, so its space overhead is proportional to the data touched, not
/// the sampling rate -- the behaviour Figure 10 shows. And because a race
/// is found only when *both* accesses are sampled, a race between two hot
/// accesses is detected at roughly (0.1%)^2: Figure 6's missed races.
///
/// The bursty samplers are *code*-indexed, not data-indexed, so by default
/// a shard replica must observe the full access stream to keep its
/// decisions replica-identical (accessAnalysisIsShardLocal() == false).
/// computeSamplerPlan() removes that O(trace) cost: it precomputes the
/// whole decision stream -- a pure function of (trace, seed, config) --
/// into one bit per trace position, shared read-only by every replica.
/// A detector given the plan (setSamplerPlan) never consults its own
/// samplers, becomes shard-local, and replays from owned-access runs in
/// O(sync + owned accesses) with bit-identical results.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_DETECTORS_LITERACEDETECTOR_H
#define PACER_DETECTORS_LITERACEDETECTOR_H

#include "core/Epoch.h"
#include "core/FlatVarTable.h"
#include "core/ReadMap.h"
#include "detectors/Detector.h"
#include "detectors/SyncState.h"
#include "support/Arena.h"
#include "support/Rng.h"

#include <vector>

namespace pacer {

/// Method identifier: the code region whose execution frequency drives the
/// adaptive sampler.
using MethodId = uint32_t;

/// Adaptive bursty sampling parameters.
struct LiteRaceConfig {
  /// Accesses analysed per burst.
  uint32_t BurstLength = 1000;
  /// Starting per-method-thread sampling rate.
  double InitialRate = 1.0;
  /// Floor rate; the original LiteRace bottoms out at 0.1%.
  double MinRate = 0.001;
  /// Multiplier applied to the rate after each completed burst.
  double DecayFactor = 0.5;
  /// Randomize the skip counter on reset (the paper's modification to the
  /// otherwise deterministic original).
  bool RandomizeSkip = true;

  /// Accordion clocks: recycle dead threads' clock slots (see
  /// core/SlotRecycler.h). The bursty samplers are keyed by *program*
  /// thread id and are untouched by recycling, so sampling decisions are
  /// identical with recycling on or off.
  bool UseAccordionClocks = false;
};

/// Precomputed LiteRace sampler decisions for one (trace, seed, config):
/// one bit per trace position, set iff the access at that position is
/// analysed. Built once per trial in O(trace) and shared read-only by
/// every shard replica. SamplerCount carries the end-of-trace sampler
/// table size so replica space accounting matches sequential replay.
struct LiteRaceSamplerPlan {
  std::vector<uint64_t> Bits;
  size_t SamplerCount = 0;
  const Action *Base = nullptr; ///< The trace the bit positions index.

  bool sampled(size_t Pos) const {
    return (Bits[Pos >> 6] >> (Pos & 63)) & 1;
  }
};

/// Online LiteRace: adaptive per-(method, thread) bursty sampling over
/// FastTrack analysis.
class LiteRaceDetector : public Detector {
public:
  /// \p SiteToMethod maps every site to its containing method; sites beyond
  /// the vector fall into a synthetic method of their own.
  LiteRaceDetector(RaceSink &Sink, std::vector<MethodId> SiteToMethod,
                   uint64_t Seed, LiteRaceConfig Config = {})
      : Detector(Sink), Config(Config), SiteToMethod(std::move(SiteToMethod)),
        Random(Seed) {
    if (Config.UseAccordionClocks)
      Sync.enableRecycling();
  }

  const char *name() const override { return "literace"; }

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

  /// Batched dispatch. Without a plan, the bursty samplers and their RNG
  /// advance for *every* access -- owned or not -- so the decision stream
  /// is replica-identical at O(trace) cost; foreign accesses advance the
  /// sampler only, touching no stats and no variable metadata. With a
  /// plan, decisions are bit lookups by trace position and foreign
  /// accesses are skipped outright.
  using Detector::accessBatch;
  void accessBatch(std::span<const Action> Batch,
                   const AccessShard &Shard) override;

  /// Shard-local iff a sampler plan is attached: the plan replaces the
  /// full-stream sampler simulation, so replicas can be fed owned runs
  /// alone.
  bool accessAnalysisIsShardLocal() const override { return Plan != nullptr; }

  /// Attaches a precomputed decision plan (null detaches). The plan must
  /// outlive the detector and must have been computed over the exact
  /// trace this detector replays (same seed and config).
  void setSamplerPlan(const LiteRaceSamplerPlan *P) { Plan = P; }

  /// Computes the full sampler decision stream for \p T in one pass:
  /// exactly the decisions a planless detector constructed with \p Seed
  /// and \p Config would make while replaying \p T.
  static LiteRaceSamplerPlan
  computeSamplerPlan(TraceSpan T, const std::vector<MethodId> &SiteToMethod,
                     uint64_t Seed, LiteRaceConfig Config = {});

  void threadBegin(ThreadId Tid) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.ensureThread(Sync.slotOf(Tid));
  }

  void threadExit(ThreadId Tid) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.threadExit(Tid);
  }

  /// Accordion clocks: reclaim dominated dead slots and compact (no-op
  /// unless LiteRaceConfig::UseAccordionClocks is set).
  size_t recycleDeadSlots() override;

  size_t slotCount() const override { return Sync.slotCount(); }
  size_t peakSlotCount() const override { return Sync.peakSlotCount(); }

  size_t liveMetadataBytes() const override;
  size_t accessMetadataBytes() const override;

  /// Fraction of data accesses actually analysed so far (LiteRace's
  /// effective sampling rate; the paper reports ~1.1% for eclipse with
  /// burst length 1000).
  double effectiveRate() const { return effectiveRateFromStats(Stats); }

  /// The same rate computed from (possibly merged) counters: sampled
  /// accesses take the slow-sampling counters, skipped ones the
  /// fast-non-sampling counters, so the rate is a pure function of stats.
  static double effectiveRateFromStats(const DetectorStats &Stats);

private:
  /// Bursty sampler state for one (method, thread) pair. Value-initialized
  /// by the flat table; Initialized distinguishes a fresh slot.
  struct Sampler {
    double Rate = 0.0;
    uint32_t BurstRemaining = 0;
    bool Initialized = false;
    uint64_t SkipRemaining = 0;
  };

  struct VarState {
    ReadMap R;
    Epoch W;
    SiteId WSite = InvalidId;
  };

  /// The shared sampler-advance step: returns true if the access is
  /// analysed, updating burst/skip state and drawing from \p Random on
  /// burst completion. Used identically by live detectors and
  /// computeSamplerPlan so their decision streams cannot diverge.
  static bool advanceSampler(Sampler &State, Rng &Random,
                             const LiteRaceConfig &Config);

  /// Returns true if this access should be analysed, advancing the
  /// sampler's burst/skip state.
  bool shouldSample(ThreadId Tid, SiteId Site);

  static MethodId methodFor(SiteId Site,
                            const std::vector<MethodId> &SiteToMethod) {
    return Site < SiteToMethod.size() ? SiteToMethod[Site]
                                      : SiteToMethod.size() + Site;
  }

  MethodId methodOf(SiteId Site) const {
    return methodFor(Site, SiteToMethod);
  }

  VarState &ensureVar(VarId Var) {
    if (Var >= Vars.size())
      Vars.resize(Var + 1);
    return Vars[Var];
  }

  void analyzeRead(ThreadId Tid, VarId Var, SiteId Site);
  void analyzeWrite(ThreadId Tid, VarId Var, SiteId Site);

  /// Backs the per-variable table, the sampler table, and their blocks.
  /// MUST stay the first data member: the later members free their blocks
  /// back into this arena while being destroyed.
  Arena Metadata;

  LiteRaceConfig Config;
  std::vector<MethodId> SiteToMethod;
  Rng Random;
  SyncState Sync;
  std::vector<VarState, ArenaAllocator<VarState>> Vars;
  /// (method << 32 | thread) -> sampler, in the flat open-addressing
  /// table (one probe on the per-access hot path, arena-backed growth).
  FlatVarTable<Sampler, uint64_t> Samplers;
  const LiteRaceSamplerPlan *Plan = nullptr;
};

} // namespace pacer

#endif // PACER_DETECTORS_LITERACEDETECTOR_H
