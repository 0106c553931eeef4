//===- tests/runtime/RuntimeTest.cpp --------------------------------------==//

#include "runtime/Runtime.h"

#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

using namespace pacer;
using namespace pacer::test;

namespace {

/// Detector that records every hook invocation as a string. With
/// \p Lifecycle it also records threadBegin and the sampling toggles.
class RecordingDetector final : public Detector {
public:
  explicit RecordingDetector(RaceSink &Sink, bool Lifecycle = false)
      : Detector(Sink), Lifecycle(Lifecycle) {}
  const char *name() const override { return "recording"; }

  void threadBegin(ThreadId Tid) override {
    if (Lifecycle)
      Calls.push_back("begin(" + std::to_string(Tid) + ")");
  }
  void beginSamplingPeriod() override {
    if (Lifecycle)
      Calls.push_back("sbegin");
  }
  void endSamplingPeriod() override {
    if (Lifecycle)
      Calls.push_back("send");
  }

  void fork(ThreadId Parent, ThreadId Child) override {
    log("fork", Parent, Child);
  }
  void join(ThreadId Parent, ThreadId Child) override {
    log("join", Parent, Child);
  }
  void acquire(ThreadId Tid, LockId Lock) override {
    log("acq", Tid, Lock);
  }
  void release(ThreadId Tid, LockId Lock) override {
    log("rel", Tid, Lock);
  }
  void volatileRead(ThreadId Tid, VolatileId Vol) override {
    log("vrd", Tid, Vol);
  }
  void volatileWrite(ThreadId Tid, VolatileId Vol) override {
    log("vwr", Tid, Vol);
  }
  void read(ThreadId Tid, VarId Var, SiteId Site) override {
    log("rd", Tid, Var);
  }
  void write(ThreadId Tid, VarId Var, SiteId Site) override {
    log("wr", Tid, Var);
  }
  size_t liveMetadataBytes() const override { return 0; }

  std::vector<std::string> Calls;

private:
  bool Lifecycle;
  void log(const char *Name, uint32_t A, uint32_t B) {
    Calls.push_back(std::string(Name) + "(" + std::to_string(A) + "," +
                    std::to_string(B) + ")");
  }
};

TEST(RuntimeTest, DispatchRoutesEveryActionKind) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  Runtime RT(D);
  RT.replay(TraceBuilder()
                .fork(0, 1)
                .acq(1, 7)
                .read(1, 3)
                .write(1, 3)
                .rel(1, 7)
                .volRead(1, 2)
                .volWrite(1, 2)
                .join(0, 1)
                .take());
  std::vector<std::string> Expected{"fork(0,1)", "acq(1,7)", "rd(1,3)",
                                    "wr(1,3)",   "rel(1,7)", "vrd(1,2)",
                                    "vwr(1,2)",  "join(0,1)"};
  EXPECT_EQ(D.Calls, Expected);
}

TEST(RuntimeTest, ThreadExitNotDispatched) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  Runtime RT(D);
  Trace T;
  T.push_back({ActionKind::ThreadExit, 0, InvalidId, InvalidId});
  RT.replay(T);
  EXPECT_TRUE(D.Calls.empty());
}

TEST(RuntimeTest, ControllerDrivesSamplingTransitions) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 1.0;
  Config.PeriodBytes = 40; // Boundary at every action.
  SamplingController Controller(Config, 1);
  Runtime RT(D, &Controller);
  RT.replay(TraceBuilder().read(0, 1).read(0, 1).read(0, 1).take());
  EXPECT_GE(Controller.boundaryCount(), 2u);
  EXPECT_GE(Controller.samplingPeriods(), 3u);
}

TEST(RuntimeTest, StartIsIdempotent) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 1.0;
  SamplingController Controller(Config, 1);
  Runtime RT(D, &Controller);
  RT.start();
  RT.start();
  EXPECT_EQ(Controller.samplingPeriods(), 1u);
}

TEST(RuntimeTest, StepReturnsBoundaryFlag) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 0.0;
  Config.PeriodBytes = 80;
  Config.BaseBytesPerEvent = 40;
  SamplingController Controller(Config, 1);
  Runtime RT(D, &Controller);
  RT.start();
  Action Read{ActionKind::Read, 0, 1, 1};
  EXPECT_FALSE(RT.step(Read));
  EXPECT_TRUE(RT.step(Read)) << "second 40-byte event fills the 80-byte "
                                "nursery";
}

/// Replays \p T into a lifecycle-recording detector and checks that
/// replay() stops at \p BadIndex -- firstInvalidRecord's answer -- with
/// exactly \p Expected logged: no hook for the bad record or any later
/// one, not even a threadBegin for the bad record's unseen thread.
void expectReplayStopsAt(const Trace &T, size_t BadIndex,
                         const std::vector<std::string> &Expected) {
  const char *Why = nullptr;
  ASSERT_EQ(firstInvalidRecord(T, Why), BadIndex);
  NullRaceSink Sink;
  RecordingDetector D(Sink, /*Lifecycle=*/true);
  Runtime RT(D);
  EXPECT_EQ(RT.replay(T), BadIndex);
  EXPECT_EQ(D.Calls, Expected);
}

TEST(RuntimeTest, ReplayStopsBeforeBadAccessInsideRun) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .read(1, 3)
                .write(1, 4)
                .read(1, 5) // Corrupted below.
                .read(1, 6)
                .take();
  T[3].Target = InvalidId;
  expectReplayStopsAt(T, 3,
                      {"begin(0)", "fork(0,1)", "begin(1)", "rd(1,3)",
                       "wr(1,4)"});
}

TEST(RuntimeTest, ReplayStopsBeforeBadSyncAction) {
  // The bad fork is thread 2's first action: it gets no threadBegin.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .write(1, 3)
                .fork(2, 5) // Corrupted below.
                .acq(0, 7)
                .take();
  T[2].Target = 0xFFFFFFFEu;
  expectReplayStopsAt(T, 2,
                      {"begin(0)", "fork(0,1)", "begin(1)", "wr(1,3)"});
}

TEST(RuntimeTest, ReplayStopsBeforeBadRecordAfterPairRun) {
  // The pair-run lookahead reads the bad record (same thread, same lock)
  // but must neither fold it into the run nor deliver it.
  Trace T = TraceBuilder()
                .acq(0, 7)
                .rel(0, 7)
                .acq(0, 7)
                .rel(0, 7)
                .acq(0, 7) // Corrupted below.
                .rel(0, 7)
                .take();
  T[4].Kind = static_cast<ActionKind>(0xEE);
  expectReplayStopsAt(T, 4,
                      {"begin(0)", "acq(0,7)", "rel(0,7)", "acq(0,7)",
                       "rel(0,7)"});
}

/// The hook sequence a per-action step() loop produces for \p T, and the
/// number of boundaries that fired at a thread's first action when that
/// action is a data access.
std::vector<std::string> stepLoopCalls(const Trace &T,
                                       const SamplingConfig &Config,
                                       uint64_t &FirstSightBoundaries) {
  NullRaceSink Sink;
  RecordingDetector D(Sink, /*Lifecycle=*/true);
  SamplingController Controller(Config, 11);
  Runtime RT(D, &Controller);
  RT.start();
  std::vector<bool> Seen;
  FirstSightBoundaries = 0;
  for (const Action &A : T) {
    const bool First = A.Tid >= Seen.size() || !Seen[A.Tid];
    if (A.Tid >= Seen.size())
      Seen.resize(A.Tid + 1, false);
    Seen[A.Tid] = true;
    if (RT.step(A) && First && isAccessAction(A.Kind))
      ++FirstSightBoundaries;
  }
  return D.Calls;
}

TEST(RuntimeTest, ReplayMatchesStepLoopHookOrder) {
  // A nursery this small puts period boundaries on first-sight accesses,
  // where the segmenter cuts the access run: threadBegin, then the
  // toggle, then the access, exactly as step() orders them.
  const WorkloadSpec Specs[] = {scaleWorkload(forkJoinModel(), 0.1),
                                scaleWorkload(eclipseModel(), 0.05)};
  for (const WorkloadSpec &Spec : Specs) {
    const Trace T = generateTrace(CompiledWorkload(Spec), 3);
    for (uint64_t PeriodBytes : {40u, 200u}) {
      SCOPED_TRACE(Spec.Name + " period " + std::to_string(PeriodBytes));
      SamplingConfig Config;
      Config.TargetRate = 0.5;
      Config.PeriodBytes = PeriodBytes;
      uint64_t FirstSightBoundaries = 0;
      const std::vector<std::string> Expected =
          stepLoopCalls(T, Config, FirstSightBoundaries);
      EXPECT_GT(FirstSightBoundaries, 0u);

      NullRaceSink Sink;
      RecordingDetector D(Sink, /*Lifecycle=*/true);
      SamplingController Controller(Config, 11);
      Runtime RT(D, &Controller);
      EXPECT_EQ(RT.replay(T), T.size());
      const auto Diff = std::mismatch(D.Calls.begin(), D.Calls.end(),
                                      Expected.begin(), Expected.end());
      EXPECT_TRUE(Diff.first == D.Calls.end() &&
                  Diff.second == Expected.end())
          << "first difference at hook " << (Diff.first - D.Calls.begin())
          << " of " << Expected.size();
    }
  }
}

TEST(RuntimeTest, ReplayMatchesStepLoopNearMaxPeriod) {
  // A nursery within one charge of 2^64 never fills in a trace this
  // short, so no boundary may fire on either path. Taking the run's
  // firing index as (Need + Charge - 1) / Charge wrapped there, and
  // replay() fired boundaries that the per-action loop never fires.
  const Trace T =
      generateTrace(CompiledWorkload(scaleWorkload(forkJoinModel(), 0.05)), 1);
  SamplingConfig Config;
  Config.TargetRate = 0.5;
  Config.PeriodBytes = UINT64_MAX - 4;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("controller seed " + std::to_string(Seed));
    NullRaceSink Sink;
    RecordingDetector Stepped(Sink, /*Lifecycle=*/true);
    RecordingDetector Replayed(Sink, /*Lifecycle=*/true);
    SamplingController StepController(Config, Seed);
    SamplingController ReplayController(Config, Seed);
    Runtime StepRT(Stepped, &StepController);
    StepRT.start();
    for (const Action &A : T)
      StepRT.step(A);
    Runtime ReplayRT(Replayed, &ReplayController);
    EXPECT_EQ(ReplayRT.replay(T), T.size());
    EXPECT_EQ(StepController.boundaryCount(), 0u);
    EXPECT_EQ(ReplayController.boundaryCount(), 0u);
    EXPECT_EQ(ReplayController.effectiveAccessRate(),
              StepController.effectiveAccessRate());
    EXPECT_TRUE(Replayed.Calls == Stepped.Calls);
  }
}

} // namespace
