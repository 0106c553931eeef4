//===- tests/detectors/WellFormednessTest.cpp -----------------------------==//
//
// Machine-checks the Appendix B invariants after every single transition
// of randomly generated executions with random sampling-period boundaries:
//
//  * Definition 1 (well-formedness): every synchronization object's and
//    every variable's recorded clock components are bounded by the owning
//    thread's own clock; same for versions.
//  * Definition 2 (strict well-formedness) while inside a sampling period:
//    other objects' copies of a thread's component are strictly below the
//    thread's own.
//  * Lemma 2/3 (monotonicity): thread clocks and versions never decrease.
//  * Lemma 7: Ver(o) <= C_t.ver implies S_o.vc <= C_t.vc.
//
//===----------------------------------------------------------------------===//

#include "detectors/PacerDetector.h"
#include "runtime/Runtime.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"
#include "support/Rng.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pacer;
using namespace pacer::test;

namespace {

class WellFormednessChecker {
public:
  WellFormednessChecker(const PacerDetector &D, const CompiledWorkload &W)
      : D(D), W(W) {}

  void checkAll(bool Sampling, size_t EventIndex) {
    size_t Threads = D.slotCount();
    for (ThreadId T = 0; T < Threads; ++T) {
      const VectorClock &OwnClock = D.threadClockForTest(T);
      const VersionVector &OwnVer = D.threadVersionsForTest(T);
      uint32_t OwnTime = OwnClock.get(T);
      uint32_t OwnVersion = OwnVer.get(T);
      if (OwnTime == 0)
        continue; // Thread slot allocated but the thread never started.

      // Monotonicity (Lemmas 2-3).
      if (T < LastClock.size()) {
        ASSERT_GE(OwnTime, LastClock[T]) << "clock regressed at event "
                                         << EventIndex;
        ASSERT_GE(OwnVersion, LastVer[T]) << "version regressed at event "
                                          << EventIndex;
      }

      // Criterion 1/6: other threads' copies bounded by own components.
      for (ThreadId U = 0; U < Threads; ++U) {
        if (U == T)
          continue;
        const VectorClock &Other = D.threadClockForTest(U);
        const VersionVector &OtherVer = D.threadVersionsForTest(U);
        ASSERT_LE(Other.get(T), OwnTime) << "criterion 1 at " << EventIndex;
        ASSERT_LE(OtherVer.get(T), OwnVersion)
            << "criterion 6 at " << EventIndex;
        if (Sampling) {
          ASSERT_LT(Other.get(T), OwnTime)
              << "strict criterion 2 at " << EventIndex;
        }
      }

      // Criteria 2/5 (+ strict 3/4): lock and volatile clocks bounded.
      for (LockId Lock = 0; Lock < W.spec().Locks; ++Lock) {
        if (const VectorClock *Clock = D.lockClockForTest(Lock)) {
          ASSERT_LE(Clock->get(T), OwnTime)
              << "lock criterion 2 at " << EventIndex;
          if (Sampling) {
            ASSERT_LT(Clock->get(T), OwnTime)
                << "strict lock criterion 3 at " << EventIndex;
          }
        }
      }
      for (VolatileId Vol = 0; Vol < W.spec().Volatiles; ++Vol) {
        if (const VectorClock *Clock = D.volatileClockForTest(Vol)) {
          ASSERT_LE(Clock->get(T), OwnTime)
              << "volatile criterion 5 at " << EventIndex;
          if (Sampling) {
            ASSERT_LT(Clock->get(T), OwnTime)
                << "strict volatile criterion 4 at " << EventIndex;
          }
        }
      }

      // Criteria 3-4: variable metadata bounded.
      for (VarId Var = 0; Var < W.numVars(); ++Var) {
        Epoch Write = D.writeEpochForTest(Var);
        if (!Write.isNone() && Write.tid() == T) {
          ASSERT_LE(Write.clockValue(), OwnTime)
              << "criterion 4 at " << EventIndex;
        }
        if (const ReadMap *R = D.readMapForTest(Var))
          R->forEach([&](const ReadEntry &Entry) {
            if (Entry.Tid == T) {
              ASSERT_LE(Entry.Clock, OwnTime)
                  << "criterion 3 at " << EventIndex;
            }
          });
      }

      // Lemma 7 for locks and volatiles against thread T.
      for (LockId Lock = 0; Lock < W.spec().Locks; ++Lock) {
        VersionEpoch VEpoch = D.lockVersionEpochForTest(Lock);
        const VectorClock *Clock = D.lockClockForTest(Lock);
        if (Clock && VEpoch.precedes(OwnVer)) {
          ASSERT_TRUE(Clock->leq(OwnClock)) << "Lemma 7 at " << EventIndex;
        }
      }
      for (VolatileId Vol = 0; Vol < W.spec().Volatiles; ++Vol) {
        VersionEpoch VEpoch = D.volatileVersionEpochForTest(Vol);
        const VectorClock *Clock = D.volatileClockForTest(Vol);
        if (Clock && VEpoch.precedes(OwnVer)) {
          ASSERT_TRUE(Clock->leq(OwnClock))
              << "volatile Lemma 7 at " << EventIndex;
        }
      }
    }

    // Update monotonicity snapshots.
    LastClock.resize(Threads, 0);
    LastVer.resize(Threads, 0);
    for (ThreadId T = 0; T < Threads; ++T) {
      LastClock[T] = D.threadClockForTest(T).get(T);
      LastVer[T] = D.threadVersionsForTest(T).get(T);
    }
  }

private:
  const PacerDetector &D;
  const CompiledWorkload &W;
  std::vector<uint32_t> LastClock;
  std::vector<uint32_t> LastVer;
};

class WellFormednessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WellFormednessTest, InvariantsHoldAfterEveryTransition) {
  WorkloadSpec Spec = tinyTestWorkload();
  Spec.WorkerThreads = 3;
  Spec.OpsPerWorker = 400; // Checking is O(threads * state) per event.
  CompiledWorkload Workload(Spec);
  Trace T = generateTrace(Workload, GetParam());

  NullRaceSink Sink;
  PacerDetector D(Sink);
  Runtime RT(D);
  WellFormednessChecker Checker(D, Workload);

  // Random sampling boundaries, independent of the trace.
  Rng Boundary(GetParam() * 977 + 5);
  bool Sampling = false;
  for (size_t I = 0; I != T.size(); ++I) {
    if (Boundary.nextBool(0.01)) {
      if (Sampling)
        D.endSamplingPeriod();
      Sampling = Boundary.nextBool(0.5);
      if (Sampling)
        D.beginSamplingPeriod();
    }
    RT.dispatch(T[I]);
    Checker.checkAll(Sampling, I);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WellFormednessTest,
                         ::testing::Range<uint64_t>(1, 9));

} // namespace
