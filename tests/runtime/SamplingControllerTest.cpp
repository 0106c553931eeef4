//===- tests/runtime/SamplingControllerTest.cpp ---------------------------==//

#include "runtime/SamplingController.h"

#include "detectors/PacerDetector.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using namespace pacer;

namespace {

/// Minimal detector that tracks the sampling flag, the period count and
/// the exact sbegin (+1) / send (-1) sequence a controller drives.
class FlagDetector final : public Detector {
public:
  explicit FlagDetector(RaceSink &Sink) : Detector(Sink) {}
  const char *name() const override { return "flag"; }
  void fork(ThreadId, ThreadId) override {}
  void join(ThreadId, ThreadId) override {}
  void acquire(ThreadId, LockId) override {}
  void release(ThreadId, LockId) override {}
  void volatileRead(ThreadId, VolatileId) override {}
  void volatileWrite(ThreadId, VolatileId) override {}
  void read(ThreadId, VarId, SiteId) override {}
  void write(ThreadId, VarId, SiteId) override {}
  size_t liveMetadataBytes() const override { return 0; }

  void beginSamplingPeriod() override {
    EXPECT_FALSE(Sampling);
    Sampling = true;
    ++Periods;
    Toggles.push_back(+1);
  }
  void endSamplingPeriod() override {
    EXPECT_TRUE(Sampling);
    Sampling = false;
    Toggles.push_back(-1);
  }
  bool isSampling() const override { return Sampling; }

  bool Sampling = false;
  uint64_t Periods = 0;
  std::vector<int> Toggles;
};

/// Feeds N synthetic access actions with sync ops interleaved.
void feed(SamplingController &Controller, FlagDetector &D, uint64_t Events,
          double SyncFraction = 0.03) {
  uint64_t SyncEvery =
      SyncFraction > 0 ? static_cast<uint64_t>(1.0 / SyncFraction) : 0;
  for (uint64_t I = 0; I < Events; ++I) {
    ActionKind Kind = (SyncEvery && I % SyncEvery == 0)
                          ? ActionKind::Acquire
                          : (I % 4 == 0 ? ActionKind::Write
                                        : ActionKind::Read);
    Controller.beforeAction(Kind, D);
    EXPECT_EQ(D.Sampling, Controller.isSampling());
  }
}

TEST(SamplingControllerTest, RateZeroNeverSamples) {
  NullRaceSink Sink;
  FlagDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 0.0;
  SamplingController Controller(Config, 1);
  Controller.start(D);
  feed(Controller, D, 100000);
  EXPECT_EQ(D.Periods, 0u);
  EXPECT_DOUBLE_EQ(Controller.effectiveAccessRate(), 0.0);
}

TEST(SamplingControllerTest, RateOneAlwaysSamples) {
  NullRaceSink Sink;
  FlagDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 1.0;
  Config.PeriodBytes = 4096;
  SamplingController Controller(Config, 1);
  Controller.start(D);
  feed(Controller, D, 50000);
  EXPECT_DOUBLE_EQ(Controller.effectiveAccessRate(), 1.0);
  EXPECT_GT(Controller.boundaryCount(), 10u);
  EXPECT_EQ(Controller.samplingPeriods(), Controller.boundaryCount() + 1)
      << "every boundary re-enters sampling, plus the initial decision";
}

TEST(SamplingControllerTest, BoundariesFireAtNurseryCadence) {
  NullRaceSink Sink;
  FlagDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 0.0; // No metadata inflation.
  Config.PeriodBytes = 4000;
  Config.BaseBytesPerEvent = 40;
  SamplingController Controller(Config, 1);
  Controller.start(D);
  feed(Controller, D, 10000, 0.0);
  // 10000 events * 40 bytes / 4000 bytes = 100 boundaries.
  EXPECT_EQ(Controller.boundaryCount(), 100u);
}

TEST(SamplingControllerTest, EffectiveRateTracksTargetWithCorrection) {
  for (double Target : {0.01, 0.05, 0.25}) {
    NullRaceSink Sink;
    FlagDetector D(Sink);
    SamplingConfig Config;
    Config.TargetRate = Target;
    Config.PeriodBytes = 8 * 1024;
    SamplingController Controller(Config, 7);
    Controller.start(D);
    feed(Controller, D, 2000000);
    EXPECT_NEAR(Controller.effectiveAccessRate(), Target, Target * 0.35)
        << "target " << Target;
  }
}

TEST(SamplingControllerTest, MetadataBiasUncorrectedUndershoots) {
  // With metadata allocation shortening sampling periods and no
  // correction, the effective rate falls below the specified rate.
  NullRaceSink Sink;
  FlagDetector Corrected(Sink), Uncorrected(Sink);
  SamplingConfig Config;
  Config.TargetRate = 0.25;
  Config.PeriodBytes = 8 * 1024;
  Config.MetadataBytesPerSampledAccess = 160; // Pronounced bias.

  SamplingConfig NoFix = Config;
  NoFix.BiasCorrection = false;

  SamplingController WithFix(Config, 3);
  SamplingController WithoutFix(NoFix, 3);
  WithFix.start(Corrected);
  WithoutFix.start(Uncorrected);
  feed(WithFix, Corrected, 1000000);
  feed(WithoutFix, Uncorrected, 1000000);

  EXPECT_LT(WithoutFix.effectiveAccessRate(), 0.22)
      << "uncorrected bias must undershoot the 25% target";
  EXPECT_GT(WithFix.effectiveAccessRate(),
            WithoutFix.effectiveAccessRate())
      << "correction recovers toward the target";
}

TEST(SamplingControllerTest, DeterministicGivenSeed) {
  auto Run = [](uint64_t Seed) {
    NullRaceSink Sink;
    FlagDetector D(Sink);
    SamplingConfig Config;
    Config.TargetRate = 0.1;
    Config.PeriodBytes = 4096;
    SamplingController Controller(Config, Seed);
    Controller.start(D);
    feed(Controller, D, 100000);
    return Controller.effectiveAccessRate();
  };
  EXPECT_DOUBLE_EQ(Run(5), Run(5));
  EXPECT_NE(Run(5), Run(6));
}

/// Drives two identically seeded controllers over one schedule of blocks
/// -- an access run, then a single action or a run of acquire/release
/// pairs. One controller takes every action through beforeAction(), the
/// reference; the other takes each run the way Runtime::replay does: the
/// quiet no-boundary path first, and when that declines, the closed-form
/// boundary path (accessRunBoundaryIndex/advanceAccessRun or the sync
/// analogues) until the run is consumed. Demands bit-identical boundary
/// positions, toggles and counters, and that the quiet path declines
/// exactly when a boundary falls inside the run.
void expectBulkAdvanceMatchesLoop(const SamplingConfig &Config,
                                  uint64_t Seed) {
  SamplingController Seq(Config, Seed);
  SamplingController Bulk(Config, Seed);
  NullRaceSink SinkA, SinkB;
  FlagDetector A(SinkA), B(SinkB);
  Seq.start(A);
  Bulk.start(B);

  std::vector<uint64_t> SeqBoundaries, BulkBoundaries;
  uint64_t PosSeq = 0, PosBulk = 0;
  auto Step = [&](ActionKind Kind) {
    if (Seq.beforeAction(Kind, A))
      SeqBoundaries.push_back(PosSeq);
    ++PosSeq;
  };
  // N accesses (Access) or acquire/release events, as one run.
  auto Run = [&](bool Access, uint64_t N) {
    if (N == 0)
      return;
    const uint64_t Predicted = Access ? Bulk.accessRunBoundaryIndex(N)
                                      : Bulk.syncRunBoundaryIndex(N);
    const bool Quiet = Access ? Bulk.advanceQuietAccessRun(N)
                              : Bulk.advanceQuietSyncRun(N);
    ASSERT_EQ(Quiet, Predicted == 0) << "run of " << N;
    if (Quiet) {
      PosBulk += N;
      return;
    }
    uint64_t Left = N;
    while (Left > 0) {
      const uint64_t Fire = Access ? Bulk.accessRunBoundaryIndex(Left)
                                   : Bulk.syncRunBoundaryIndex(Left);
      const SamplingController::AccessRunAdvance Adv =
          Access ? Bulk.advanceAccessRun(Left, B)
                 : Bulk.advanceSyncRun(Left, B);
      ASSERT_GE(Adv.Consumed, 1u);
      ASSERT_LE(Adv.Consumed, Left);
      ASSERT_EQ(Adv.Boundary, Fire != 0);
      if (Adv.Boundary) {
        ASSERT_EQ(Adv.Consumed, Fire);
      }
      Left -= Adv.Consumed;
      PosBulk += Adv.Consumed;
      if (Adv.Boundary)
        BulkBoundaries.push_back(PosBulk - 1);
      else
        ASSERT_EQ(Left, 0u) << "only a boundary may end an advance early";
    }
  };

  const ActionKind Singles[] = {ActionKind::Acquire, ActionKind::Fork,
                                ActionKind::VolatileWrite,
                                ActionKind::ThreadExit, ActionKind::Read};
  Rng Shape(Seed ^ 0x52554e53u /*"RUNS"*/);
  for (int Block = 0; Block < 160; ++Block) {
    const uint64_t N = Shape.nextInRange(0, 300);
    for (uint64_t I = 0; I < N; ++I)
      Step(Shape.nextBelow(4) == 0 ? ActionKind::Write : ActionKind::Read);
    Run(/*Access=*/true, N);

    if (Shape.nextBool(0.5)) {
      const ActionKind Kind = Singles[Shape.nextBelow(5)];
      Step(Kind);
      if (Bulk.beforeAction(Kind, B))
        BulkBoundaries.push_back(PosBulk);
      ++PosBulk;
    } else {
      const uint64_t Events = 2 * Shape.nextInRange(1, 40);
      for (uint64_t I = 0; I < Events; ++I)
        Step(I % 2 == 0 ? ActionKind::Acquire : ActionKind::Release);
      Run(/*Access=*/false, Events);
    }
    ASSERT_EQ(PosSeq, PosBulk);
    ASSERT_EQ(Seq.isSampling(), Bulk.isSampling()) << "block " << Block;
  }

  EXPECT_EQ(SeqBoundaries, BulkBoundaries);
  EXPECT_EQ(A.Toggles, B.Toggles);
  EXPECT_EQ(Seq.boundaryCount(), Bulk.boundaryCount());
  EXPECT_EQ(Seq.samplingPeriods(), Bulk.samplingPeriods());
  EXPECT_EQ(Seq.effectiveAccessRate(), Bulk.effectiveAccessRate());
  EXPECT_EQ(Seq.effectiveSyncRate(), Bulk.effectiveSyncRate());
}

TEST(SamplingControllerTest, BulkAdvanceMatchesPerActionLoop) {
  SamplingConfig Config;
  Config.TargetRate = 0.5;
  Config.PeriodBytes = 4096;
  expectBulkAdvanceMatchesLoop(Config, /*Seed=*/11);
  expectBulkAdvanceMatchesLoop(Config, /*Seed=*/12);

  // Low rate, small periods: frequent boundaries, rare sampling entry.
  Config.TargetRate = 0.03;
  Config.PeriodBytes = 2048;
  expectBulkAdvanceMatchesLoop(Config, /*Seed=*/13);

  // Pathologically small period: a boundary at (nearly) every access,
  // exercising the Need == 0 carry-over path.
  Config.TargetRate = 0.25;
  Config.PeriodBytes = 64;
  expectBulkAdvanceMatchesLoop(Config, /*Seed=*/14);

  // A period shorter than one charge: every action fires, and the nursery
  // carries over past a full period.
  Config.PeriodBytes = 30;
  expectBulkAdvanceMatchesLoop(Config, /*Seed=*/18);

  // Zero charge: the nursery never fills, runs consume in one call.
  Config.TargetRate = 0.5;
  Config.PeriodBytes = 4096;
  Config.BaseBytesPerEvent = 0;
  Config.MetadataBytesPerSampledAccess = 0;
  expectBulkAdvanceMatchesLoop(Config, /*Seed=*/15);

  // A nursery within one charge of 2^64: taking ceil(Need / Charge) as
  // (Need + Charge - 1) / Charge wraps to a small index and fires a
  // boundary the per-action loop never reaches.
  Config = SamplingConfig();
  Config.TargetRate = 0.5;
  Config.PeriodBytes = UINT64_MAX - 4;
  expectBulkAdvanceMatchesLoop(Config, /*Seed=*/16);
  expectBulkAdvanceMatchesLoop(Config, /*Seed=*/17);
}

TEST(SamplingControllerTest, RunWhoseChargeOverflowsFiresWhereTheLoopDoes) {
  // 40 * 2^61 and 104 * 2^61 are multiples of 2^64: a quiet test on the
  // wrapped product would see a run that charges nothing and let it
  // through without its boundary.
  const uint64_t Huge = uint64_t(1) << 61;
  for (double Rate : {0.0, 1.0}) {
    for (bool Access : {true, false}) {
      SCOPED_TRACE(std::string(Access ? "accesses" : "sync ops") +
                   " at rate " + std::to_string(Rate));
      SamplingConfig Config;
      Config.TargetRate = Rate;
      SamplingController Seq(Config, 5), Bulk(Config, 5);
      NullRaceSink SinkA, SinkB;
      FlagDetector A(SinkA), B(SinkB);
      Seq.start(A);
      Bulk.start(B);

      const ActionKind Kind = Access ? ActionKind::Write : ActionKind::Release;
      uint64_t Index = 1;
      while (!Seq.beforeAction(Kind, A))
        ++Index;
      EXPECT_EQ(Access ? Bulk.accessRunBoundaryIndex(Huge)
                       : Bulk.syncRunBoundaryIndex(Huge),
                Index);
      EXPECT_FALSE(Access ? Bulk.advanceQuietAccessRun(Huge)
                          : Bulk.advanceQuietSyncRun(Huge));
      const SamplingController::AccessRunAdvance Adv =
          Access ? Bulk.advanceAccessRun(Huge, B)
                 : Bulk.advanceSyncRun(Huge, B);
      EXPECT_TRUE(Adv.Boundary);
      EXPECT_EQ(Adv.Consumed, Index);
      EXPECT_EQ(Bulk.boundaryCount(), 1u);
      EXPECT_EQ(Bulk.isSampling(), Seq.isSampling());
      EXPECT_EQ(A.Toggles, B.Toggles);
      EXPECT_EQ(Bulk.effectiveAccessRate(), Seq.effectiveAccessRate());
      EXPECT_EQ(Bulk.effectiveSyncRate(), Seq.effectiveSyncRate());
    }
  }
}

TEST(SamplingControllerTest, BeforeActionFiresWhereTheNurseryFills) {
  // At rates 0 and 1 the sampling state never changes, so where each
  // boundary falls is plain arithmetic on the per-action charges.
  const ActionKind Kinds[] = {
      ActionKind::Read,          ActionKind::Write,
      ActionKind::Acquire,       ActionKind::Release,
      ActionKind::Fork,          ActionKind::Join,
      ActionKind::VolatileRead,  ActionKind::VolatileWrite,
      ActionKind::AwaitVolatile, ActionKind::ThreadExit};
  for (double Rate : {0.0, 1.0}) {
    for (uint64_t PeriodBytes : {30u, 100u, 1000u, 4096u}) {
      SCOPED_TRACE("rate " + std::to_string(Rate) + " period " +
                   std::to_string(PeriodBytes));
      SamplingConfig Config;
      Config.TargetRate = Rate;
      Config.PeriodBytes = PeriodBytes;
      SamplingController Controller(Config, 3);
      NullRaceSink Sink;
      FlagDetector D(Sink);
      Controller.start(D);
      Rng Pick(PeriodBytes);
      uint64_t Nursery = 0, Boundaries = 0;
      for (int I = 0; I < 5000; ++I) {
        const ActionKind Kind = Kinds[Pick.nextBelow(10)];
        bool Fires = false;
        if (Kind != ActionKind::ThreadExit) {
          Nursery += Config.BaseBytesPerEvent;
          if (Rate == 1.0 && isAccessAction(Kind))
            Nursery += Config.MetadataBytesPerSampledAccess;
          if (Nursery >= PeriodBytes) {
            Nursery -= PeriodBytes;
            Fires = true;
            ++Boundaries;
          }
        }
        ASSERT_EQ(Controller.beforeAction(Kind, D), Fires) << "action " << I;
      }
      EXPECT_EQ(Controller.boundaryCount(), Boundaries);
      EXPECT_EQ(Controller.isSampling(), Rate == 1.0);
    }
  }
}

TEST(SamplingControllerTest, ThreadExitIgnored) {
  NullRaceSink Sink;
  FlagDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 1.0;
  Config.PeriodBytes = 100;
  SamplingController Controller(Config, 1);
  Controller.start(D);
  for (int I = 0; I < 1000; ++I)
    Controller.beforeAction(ActionKind::ThreadExit, D);
  EXPECT_EQ(Controller.boundaryCount(), 0u);
}

} // namespace
