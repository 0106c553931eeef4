//===- tests/harness/BatchReferenceTest.cpp -------------------------------==//
//
// Every detector has one batch path, and the per-access read()/write()
// loop in Detector::accessBatch is the reference it must match. Each
// AnalysisSession result below is compared with the same replay run on
// detectors wrapped in ForceDefaultBatch -- sequential Runtime at K = 1,
// shardedReplay otherwise, same seeds -- and must match bit for bit on
// everything expectSameAnalysis compares.
//
// The matrix crosses Generic, FastTrack, PACER at r = 3%, 50% and 100%,
// and LiteRace; shard counts {1, 4}; the indexed and full-scan engines;
// and in-memory and streamed input; PACER at r = 3% and 100% also runs on
// sparse VarIds past the var table's presence-bitmap cap. It is split by
// where the setups spend their accesses: ColdPathEquivalenceTest runs
// PACER at r = 3% and LiteRace, whose accesses mostly take the
// non-sampling (cold) path, and HotPathEquivalenceTest runs Generic,
// FastTrack and PACER at r = 50% and 100%, which analyse most or all of
// theirs. PACER at 3% and 50% runs with a small simulated nursery, so
// period boundaries toggle sampling mid-run and both its cold and hot
// batches run at either rate; at 100% it keeps the default periods, so
// its var table grows inside long hot batches. The stream's 700-action
// window cuts access runs at chunk edges unrelated to phase boundaries.
// LiteRace runs at K = 1 only: its sharded replicas replay a precomputed
// sampler plan, which the per-access loop does not take
// (ShardedReplayTest pins sharded LiteRace to sequential replay).
//
// The sync side's batch path, Detector::syncBatch over coalesced
// acquire/release pair runs, is held to per-event delivery the same way,
// and each of the two batch paths is also checked with the other off.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"

#include "detectors/GenericDetector.h"
#include "runtime/Runtime.h"
#include "runtime/ShardedReplay.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace pacer;
using namespace pacer::test;

namespace {

/// The salt makeDetector mixes into the request seed for LiteRace's
/// samplers.
constexpr uint64_t LiteRaceSalt = 0x4c495445u; // "LITE"

/// makeDetector's detector for \p Setup (accordion clocks off, as
/// everywhere in this file), with accessBatch forced onto the per-access
/// loop.
std::unique_ptr<Detector> makeReference(const DetectorSetup &Setup,
                                        RaceSink &Sink,
                                        const CompiledWorkload &Workload,
                                        uint64_t Seed) {
  switch (Setup.Kind) {
  case DetectorKind::Generic:
    return std::make_unique<ForceDefaultBatch<GenericDetector>>(Sink);
  case DetectorKind::FastTrack:
    return std::make_unique<ForceDefaultBatch<FastTrackDetector>>(
        Sink, Setup.FastTrack);
  case DetectorKind::Pacer:
    return std::make_unique<ForceDefaultBatch<PacerDetector>>(Sink,
                                                              Setup.Pacer);
  case DetectorKind::LiteRace:
    return std::make_unique<ForceDefaultBatch<LiteRaceDetector>>(
        Sink, Workload.siteToMethod(), Seed ^ LiteRaceSalt, Setup.LiteRace);
  case DetectorKind::Null:
    break;
  }
  return nullptr;
}

/// The replay AnalysisSession::analyzeTrace runs for \p Request on \p T,
/// on makeReference's detectors.
AnalysisResult referenceAnalysis(const CompiledWorkload &Workload,
                                 const AnalysisRequest &Request,
                                 TraceSpan T) {
  const DetectorSetup &Setup = Request.Setup;
  std::unique_ptr<SamplingController> Controller =
      makeSamplingController(Setup, Request.Seed);

  AnalysisResult Out;
  Out.TraceEvents = T.size();
  Out.ResolvedShards = Setup.Shards;
  if (Setup.Shards > 1) {
    ShardedReplayConfig Config;
    Config.Shards = Setup.Shards;
    Config.Jobs = Setup.ShardJobs;
    Config.UseIndex = Setup.ShardUseIndex;
    Config.SyncBatching = Setup.SyncBatching;
    if (Controller) {
      Config.UseController = true;
      Config.Sampling = Controller->config();
      Config.ControllerSeed = Controller->seed();
    }
    ShardedReplayResult Sharded = shardedReplay(
        T,
        [&](RaceSink &Sink) {
          return makeReference(Setup, Sink, Workload, Request.Seed);
        },
        Config);
    Out.Races = std::move(Sharded.Races);
    Out.DynamicRaces = Sharded.DynamicRaces;
    Out.Stats = Sharded.Stats;
    Out.EffectiveAccessRate = Sharded.EffectiveAccessRate;
    Out.EffectiveSyncRate = Sharded.EffectiveSyncRate;
    Out.Boundaries = Sharded.Boundaries;
    Out.FinalMetadataBytes = Sharded.FinalMetadataBytes;
    Out.PeakSlotCount = Sharded.PeakSlotCount;
    Out.SampleReports = std::move(Sharded.SampleReports);
  } else {
    RaceLog Log;
    std::unique_ptr<Detector> D =
        makeReference(Setup, Log, Workload, Request.Seed);
    Runtime RT(*D, Controller.get(), Setup.SyncBatching);
    RT.replay(T);
    Out.Races = Log.counts();
    Out.DynamicRaces = Log.dynamicCount();
    Out.Stats = D->stats();
    if (Controller) {
      Out.EffectiveAccessRate = Controller->effectiveAccessRate();
      Out.EffectiveSyncRate = Controller->effectiveSyncRate();
      Out.Boundaries = Controller->boundaryCount();
    }
    Out.FinalMetadataBytes = D->liveMetadataBytes();
    Out.PeakSlotCount = D->peakSlotCount();
    Out.SampleReports = Log.sampleReports();
  }
  if (Setup.Kind == DetectorKind::LiteRace)
    Out.LiteRaceEffectiveRate =
        LiteRaceDetector::effectiveRateFromStats(Out.Stats);
  return Out;
}

using NamedSetups = std::vector<std::pair<std::string, DetectorSetup>>;

/// PACER with a small simulated nursery, so period boundaries toggle
/// sampling mid-run (and mid pair-run).
DetectorSetup pacerWithShortPeriods(double Rate) {
  DetectorSetup Setup = pacerSetup(Rate);
  Setup.Sampling.PeriodBytes = 12 * 1024;
  return Setup;
}

/// Setups whose analysed accesses mostly take the cold path: PACER at a
/// low rate and LiteRace.
NamedSetups coldSetups() {
  return {{"pacer_r3", pacerWithShortPeriods(0.03)},
          {"literace", literaceSetup(100)}};
}

/// Setups that analyse most or all accesses: the full detectors and PACER
/// at a high rate and at r = 100% with the default periods, where the
/// var table grows inside sampling-phase batches.
NamedSetups hotSetups() {
  return {{"generic", genericSetup()},
          {"fasttrack", fastTrackSetup()},
          {"pacer_r50", pacerWithShortPeriods(0.5)},
          {"pacer_r100", pacerSetup(1.0)}};
}

NamedSetups detectorMatrix() {
  NamedSetups All = hotSetups();
  for (auto &Cell : coldSetups())
    All.push_back(std::move(Cell));
  return All;
}

AnalysisRequest requestFor(DetectorSetup Setup, unsigned Shards,
                           bool UseIndex, uint64_t Seed) {
  AnalysisRequest Request;
  Request.Setup = std::move(Setup);
  Request.Setup.Shards = Shards;
  Request.Setup.ShardJobs = 1; // Deterministic and CI-friendly.
  Request.Setup.ShardUseIndex = UseIndex;
  Request.Seed = Seed;
  Request.CollectReports = true;
  return Request;
}

std::string cellName(const std::string &Detector, unsigned Shards,
                     bool UseIndex) {
  return Detector + " K=" + std::to_string(Shards) +
         (UseIndex ? " indexed" : " full-scan");
}

/// A workload whose per-thread scripts are dominated by standalone
/// acquire/release toggling on one preferred lock, emitted in long
/// scheduler bursts: maximal same-thread pair runs for the skeleton
/// coalescer, with enough data accesses left to keep both engines busy.
WorkloadSpec syncHeavyWorkload() {
  WorkloadSpec Spec = mediumTestWorkload();
  Spec.Name = "sync_heavy";
  Spec.SyncOpFraction = 0.6;
  Spec.VolatileOpFraction = 0.0;
  Spec.LockAffinity = 1.0;
  Spec.AffinityLocks = 1;
  Spec.MaxSchedulerBurst = 48;
  return Spec;
}

/// Longest run of adjacent same-thread acquire/release pairs on one lock
/// -- what Runtime/TraceIndex coalesce into syncBatch calls.
size_t longestPairRun(const Trace &T) {
  size_t Best = 0;
  for (size_t I = 0; I + 1 < T.size();) {
    size_t J = I;
    while (J + 1 < T.size() && T[J].Kind == ActionKind::Acquire &&
           T[J + 1].Kind == ActionKind::Release && T[J].Tid == T[I].Tid &&
           T[J + 1].Tid == T[I].Tid && T[J].Target == T[I].Target &&
           T[J + 1].Target == T[I].Target)
      J += 2;
    Best = std::max(Best, (J - I) / 2);
    I = J == I ? I + 1 : J;
  }
  return Best;
}

enum class Input { InMemory, Streamed };

/// Runs every cell of \p Setups x K in {1, 4} x {full-scan, indexed}
/// through AnalysisSession on one generated trace, in memory or streamed
/// from a file named after the running test, and compares each with
/// referenceAnalysis on the in-memory trace.
void expectSetupsMatchReference(const NamedSetups &Setups, Input In) {
  CompiledWorkload Workload(mediumTestWorkload());
  const uint64_t Seed = 23;
  Trace T = generateTrace(Workload, Seed);
  const std::string Path =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".btrace";
  if (In == Input::Streamed) {
    ASSERT_TRUE(writeTraceFileBinary(Path, T));
  }

  for (const auto &[Name, Setup] : Setups) {
    for (unsigned Shards : {1u, 4u}) {
      if (Shards > 1 && Setup.Kind == DetectorKind::LiteRace)
        continue;
      for (bool UseIndex : {false, true}) {
        const std::string What = cellName(Name, Shards, UseIndex);
        AnalysisRequest Request = requestFor(Setup, Shards, UseIndex, Seed);
        const AnalysisResult Reference =
            referenceAnalysis(Workload, Request, T);
        if (In == Input::InMemory) {
          expectSameAnalysis(
              AnalysisSession(Workload, Request).analyzeTrace(T), Reference,
              What + " in-memory");
          continue;
        }
        Request.Stream = true;
        Request.StreamWindow = 700;
        expectSameAnalysis(
            AnalysisSession(Workload, Request).analyzeFile(Path), Reference,
            What + " streamed");
      }
    }
  }
  if (In == Input::Streamed)
    std::remove(Path.c_str());
}

} // namespace

TEST(ColdPathEquivalenceTest, ColdKernelsBitIdenticalOnTraces) {
  expectSetupsMatchReference(coldSetups(), Input::InMemory);
}

TEST(ColdPathEquivalenceTest, ColdKernelsBitIdenticalOnStreamedFiles) {
  expectSetupsMatchReference(coldSetups(), Input::Streamed);
}

TEST(ColdPathEquivalenceTest, ColdKernelBitIdenticalOnSparseVarIds) {
  // Generated VarIds are dense, so they all fall inside FlatVarTable's
  // presence bitmap. Renaming every read/write target v to v * 65537 in an
  // eclipse-sized variable space pushes most of them past the bitmap's
  // 2^26-key cap, where PACER's cold kernel answers through the overflow
  // probe instead of a bit test, and at r = 100% the hot loop finds
  // every entry by such keys. 65537 = 1 (mod 4), so VarId % K shard
  // ownership is unchanged at K = 4.
  CompiledWorkload Workload(scaleWorkload(eclipseModel(), 0.05));
  const uint64_t Seed = 29;
  Trace T = generateTrace(Workload, Seed);
  size_t Accesses = 0, PastCap = 0;
  for (Action &A : T) {
    if (A.Kind != ActionKind::Read && A.Kind != ActionKind::Write)
      continue;
    ASSERT_LT(A.Target, 65535u) << "v * 65537 would reach a sentinel";
    A.Target *= 65537;
    ++Accesses;
    PastCap += A.Target >= (1u << 26);
  }
  ASSERT_GT(PastCap * 2, Accesses);

  for (const auto &[Name, Setup] :
       NamedSetups{{"pacer_r3 sparse", pacerWithShortPeriods(0.03)},
                   {"pacer_r100 sparse", pacerSetup(1.0)}}) {
    for (unsigned Shards : {1u, 4u}) {
      const AnalysisRequest Request =
          requestFor(Setup, Shards, /*UseIndex=*/true, Seed);
      const AnalysisResult Got =
          AnalysisSession(Workload, Request).analyzeTrace(T);
      expectSameAnalysis(Got, referenceAnalysis(Workload, Request, T),
                         cellName(Name, Shards, true));
      if (Setup.SamplingRate < 1.0) {
        // The cold kernel met tracked variables (slow non-sampling hits),
        // so the overflow probe decided some of its accesses.
        EXPECT_GT(Got.Stats.ReadSlowNonSampling +
                      Got.Stats.WriteSlowNonSampling,
                  0u);
      } else {
        EXPECT_EQ(Got.Stats.hotAccesses(), Accesses);
      }
    }
  }
}

TEST(HotPathEquivalenceTest, HotEngineBitIdenticalOnTraces) {
  expectSetupsMatchReference(hotSetups(), Input::InMemory);
}

TEST(HotPathEquivalenceTest, HotEngineBitIdenticalOnStreamedFiles) {
  expectSetupsMatchReference(hotSetups(), Input::Streamed);
}

TEST(HotPathEquivalenceTest, EachToggleIndependentlyBitIdentical) {
  // The tests above run accessBatch and coalesced sync delivery together.
  // Here each goes alone over the per-access, per-event reference, so a
  // regression names its culprit.
  CompiledWorkload Workload(mediumTestWorkload());
  const uint64_t Seed = 43;
  Trace T = generateTrace(Workload, Seed);

  for (const auto &[Name, Setup] : detectorMatrix()) {
    for (unsigned Shards : {1u, 4u}) {
      if (Shards > 1 && Setup.Kind == DetectorKind::LiteRace)
        continue;
      const std::string What = cellName(Name, Shards, /*UseIndex=*/true);
      const AnalysisRequest SyncBatched =
          requestFor(Setup, Shards, /*UseIndex=*/true, Seed);
      AnalysisRequest PerEvent = SyncBatched;
      PerEvent.Setup.SyncBatching = false;
      const AnalysisResult Reference =
          referenceAnalysis(Workload, PerEvent, T);
      expectSameAnalysis(AnalysisSession(Workload, PerEvent).analyzeTrace(T),
                         Reference, What + " access batching only");
      expectSameAnalysis(referenceAnalysis(Workload, SyncBatched, T),
                         Reference, What + " sync batching only");
    }
  }
}

TEST(HotPathEquivalenceTest, SyncBatchingBitIdenticalOnPairRunTraces) {
  CompiledWorkload Workload(syncHeavyWorkload());
  const uint64_t Seed = 47;
  Trace T = generateTrace(Workload, Seed);
  // The workload must actually produce coalescible runs, or this test
  // silently degenerates to the per-event path.
  ASSERT_GE(longestPairRun(T), 4u);
  const std::string Path =
      ::testing::TempDir() + "/pacer_sync_batching.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, T));

  for (const auto &[Name, Setup] : detectorMatrix()) {
    for (unsigned Shards : {1u, 4u}) {
      for (bool UseIndex : {false, true}) {
        const std::string What = cellName(Name, Shards, UseIndex);
        AnalysisRequest Batched = requestFor(Setup, Shards, UseIndex, Seed);
        AnalysisRequest PerEvent = Batched;
        PerEvent.Setup.SyncBatching = false;
        const AnalysisResult Reference =
            AnalysisSession(Workload, PerEvent).analyzeTrace(T);
        expectSameAnalysis(AnalysisSession(Workload, Batched).analyzeTrace(T),
                           Reference, What + " in-memory");
        // Pair runs straddle the window's chunk edges, so coalescing
        // restarts mid-run.
        Batched.Stream = true;
        Batched.StreamWindow = 700;
        expectSameAnalysis(
            AnalysisSession(Workload, Batched).analyzeFile(Path), Reference,
            What + " streamed");
      }
    }
  }
  std::remove(Path.c_str());
}

TEST(BatchReferenceTest, PhaseSplitPartitionsAnalysedAccesses) {
  // fig7 attribution sanity: hot + cold equals the detector's analysed
  // access total, and at a low rate the cold side dominates
  // (proportionality's >97% claim, loosened for the small trace).
  CompiledWorkload Workload(mediumTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload,
                      requestFor(pacerWithShortPeriods(0.03), 1, false, 31))
          .analyzeGenerated();
  ASSERT_TRUE(Result.Ok) << Result.Error;
  const DetectorStats &S = Result.Stats;
  const uint64_t Analysed =
      S.ReadSlowSampling + S.WriteSlowSampling + S.ReadSlowNonSampling +
      S.WriteSlowNonSampling + S.ReadFastNonSampling +
      S.WriteFastNonSampling;
  EXPECT_EQ(S.hotAccesses() + S.coldAccesses(), Analysed);
  EXPECT_GT(S.coldAccesses(), S.hotAccesses());
}
