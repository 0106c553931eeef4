//===- tests/core/ClockAlgebraTest.cpp ------------------------------------==//
//
// Algebraic laws of the vector-clock lattice (Appendix A.1) checked over
// randomized clocks: join is the least upper bound of the pointwise
// partial order, so it must be commutative, associative, idempotent,
// monotone, and an upper bound; leq must be a partial order; epochs must
// agree with the clocks they summarize.
//
//===----------------------------------------------------------------------===//

#include "core/Epoch.h"
#include "core/VectorClock.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace pacer;

namespace {

VectorClock randomClock(Rng &Random, uint32_t MaxThreads,
                        uint32_t MaxValue) {
  VectorClock Clock;
  uint32_t Entries = static_cast<uint32_t>(Random.nextBelow(MaxThreads + 1));
  for (uint32_t I = 0; I < Entries; ++I)
    Clock.set(static_cast<ThreadId>(Random.nextBelow(MaxThreads)),
              static_cast<uint32_t>(Random.nextBelow(MaxValue + 1)));
  return Clock;
}

VectorClock joined(const VectorClock &A, const VectorClock &B) {
  VectorClock Result;
  Result.copyFrom(A);
  Result.joinWith(B);
  return Result;
}

class ClockAlgebraTest : public ::testing::TestWithParam<uint64_t> {
protected:
  Rng Random{GetParam() * 2654435761ull + 1};
};

TEST_P(ClockAlgebraTest, JoinCommutative) {
  for (int I = 0; I < 50; ++I) {
    VectorClock A = randomClock(Random, 12, 20);
    VectorClock B = randomClock(Random, 12, 20);
    EXPECT_TRUE(joined(A, B) == joined(B, A));
  }
}

TEST_P(ClockAlgebraTest, JoinAssociative) {
  for (int I = 0; I < 50; ++I) {
    VectorClock A = randomClock(Random, 12, 20);
    VectorClock B = randomClock(Random, 12, 20);
    VectorClock C = randomClock(Random, 12, 20);
    EXPECT_TRUE(joined(joined(A, B), C) == joined(A, joined(B, C)));
  }
}

TEST_P(ClockAlgebraTest, JoinIdempotentAndBottomIsIdentity) {
  for (int I = 0; I < 50; ++I) {
    VectorClock A = randomClock(Random, 12, 20);
    EXPECT_TRUE(joined(A, A) == A);
    EXPECT_TRUE(joined(A, VectorClock()) == A);
    EXPECT_TRUE(joined(VectorClock(), A) == A);
  }
}

TEST_P(ClockAlgebraTest, JoinIsLeastUpperBound) {
  for (int I = 0; I < 50; ++I) {
    VectorClock A = randomClock(Random, 12, 20);
    VectorClock B = randomClock(Random, 12, 20);
    VectorClock J = joined(A, B);
    EXPECT_TRUE(A.leq(J));
    EXPECT_TRUE(B.leq(J));
    // Least: any other upper bound dominates the join.
    VectorClock Upper = joined(J, randomClock(Random, 12, 20));
    EXPECT_TRUE(J.leq(Upper));
  }
}

TEST_P(ClockAlgebraTest, LeqIsPartialOrder) {
  for (int I = 0; I < 50; ++I) {
    VectorClock A = randomClock(Random, 12, 20);
    VectorClock B = randomClock(Random, 12, 20);
    VectorClock C = joined(B, randomClock(Random, 12, 20));
    EXPECT_TRUE(A.leq(A)) << "reflexive";
    if (A.leq(B) && B.leq(A)) {
      EXPECT_TRUE(A == B) << "antisymmetric";
    }
    if (A.leq(B)) {
      EXPECT_TRUE(A.leq(C)) << "transitive through an upper bound of B";
    }
  }
}

TEST_P(ClockAlgebraTest, JoinReportsChangeExactlyWhenNotLeq) {
  for (int I = 0; I < 50; ++I) {
    VectorClock A = randomClock(Random, 12, 20);
    VectorClock B = randomClock(Random, 12, 20);
    VectorClock Copy;
    Copy.copyFrom(A);
    bool Changed = Copy.joinWith(B);
    EXPECT_EQ(Changed, !B.leq(A))
        << "joinWith's changed flag must match the subsumption test "
           "PACER's Algorithm 11 relies on";
  }
}

TEST_P(ClockAlgebraTest, EpochAgreesWithSingletonClock) {
  for (int I = 0; I < 50; ++I) {
    auto Tid = static_cast<ThreadId>(Random.nextBelow(12));
    auto Value = static_cast<uint32_t>(Random.nextInRange(1, 20));
    Epoch E = Epoch::make(Value, Tid);
    VectorClock Singleton;
    Singleton.set(Tid, Value);
    VectorClock Other = randomClock(Random, 12, 20);
    EXPECT_EQ(E.precedes(Other), Singleton.leq(Other))
        << "the O(1) epoch test must equal the O(n) comparison on the "
           "clock it abbreviates";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockAlgebraTest,
                         ::testing::Range<uint64_t>(1, 6));

} // namespace
