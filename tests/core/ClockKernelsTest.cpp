//===- tests/core/ClockKernelsTest.cpp ------------------------------------==//
//
// Differential tests for the word-parallel clock kernels: every SIMD path
// must be bit-identical to a naive scalar reference on randomized inputs,
// including the unaligned lengths and implicit-zero tails VectorClock
// feeds them.
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "core/VectorClock.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pacer;

namespace {

// Naive references, written independently of kernels::scalar* so a bug in
// the shared scalar fallback cannot hide itself.
bool refJoinMax(uint32_t *A, const uint32_t *B, size_t N) {
  bool Changed = false;
  for (size_t I = 0; I < N; ++I) {
    if (B[I] > A[I]) {
      A[I] = B[I];
      Changed = true;
    }
  }
  return Changed;
}

bool refAllLeq(const uint32_t *A, const uint32_t *B, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (A[I] > B[I])
      return false;
  return true;
}

bool refAllZero(const uint32_t *A, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (A[I] != 0)
      return false;
  return true;
}

std::vector<uint32_t> randomWords(Rng &R, size_t N, uint32_t ZeroOdds) {
  std::vector<uint32_t> Out(N);
  for (uint32_t &W : Out) {
    // Mix in zeros and extremes: ties exercise the "greater, not
    // greater-equal" join edge and values above 2^31 exercise the SSE2
    // signed-compare workaround.
    auto Roll = R.nextBelow(100);
    if (Roll < ZeroOdds)
      W = 0;
    else if (Roll < ZeroOdds + 5)
      W = 0xffffffffu - static_cast<uint32_t>(R.nextBelow(3));
    else
      W = static_cast<uint32_t>(R.next());
  }
  return Out;
}

class ClockKernelsTest : public ::testing::TestWithParam<bool> {
protected:
  void SetUp() override {
    if (GetParam())
      kernels::setForceIsa(kernels::Isa::Scalar);
  }
  void TearDown() override { kernels::clearForceIsa(); }
};

TEST_P(ClockKernelsTest, JoinMaxMatchesReferenceRandomized) {
  Rng R(1234);
  for (int Round = 0; Round < 500; ++Round) {
    size_t N = R.nextBelow(130); // 0..129 covers every vector remainder.
    std::vector<uint32_t> A = randomWords(R, N, 20);
    std::vector<uint32_t> B = randomWords(R, N, 20);
    std::vector<uint32_t> RefA = A;
    bool RefChanged = refJoinMax(RefA.data(), B.data(), N);
    bool Changed = kernels::joinMax(A.data(), B.data(), N);
    EXPECT_EQ(A, RefA);
    EXPECT_EQ(Changed, RefChanged);
  }
}

TEST_P(ClockKernelsTest, JoinMaxDetectsSingleLaneChange) {
  // A single differing lane must flip Changed wherever it lands in the
  // vector, including the scalar tail.
  for (size_t N : {1u, 4u, 7u, 8u, 9u, 16u, 31u, 64u, 65u}) {
    for (size_t Lane = 0; Lane < N; ++Lane) {
      std::vector<uint32_t> A(N, 10), B(N, 10);
      EXPECT_FALSE(kernels::joinMax(A.data(), B.data(), N));
      B[Lane] = 11;
      EXPECT_TRUE(kernels::joinMax(A.data(), B.data(), N));
      EXPECT_EQ(A[Lane], 11u);
    }
  }
}

TEST_P(ClockKernelsTest, AllLeqMatchesReferenceRandomized) {
  Rng R(99);
  for (int Round = 0; Round < 500; ++Round) {
    size_t N = R.nextBelow(130);
    std::vector<uint32_t> A = randomWords(R, N, 30);
    std::vector<uint32_t> B = A;
    // Half the rounds: perturb one lane either way.
    if (N > 0 && Round % 2 == 0) {
      size_t Lane = R.nextBelow(N);
      if (Round % 4 == 0)
        B[Lane] += 1;
      else if (A[Lane] > 0)
        B[Lane] = A[Lane] - 1;
    }
    EXPECT_EQ(kernels::allLeq(A.data(), B.data(), N),
              refAllLeq(A.data(), B.data(), N));
  }
}

TEST_P(ClockKernelsTest, AllZeroMatchesReferenceRandomized) {
  Rng R(7);
  for (int Round = 0; Round < 300; ++Round) {
    size_t N = R.nextBelow(130);
    std::vector<uint32_t> A(N, 0);
    if (N > 0 && Round % 3 != 0)
      A[R.nextBelow(N)] = 1 + static_cast<uint32_t>(R.nextBelow(5));
    EXPECT_EQ(kernels::allZero(A.data(), N), refAllZero(A.data(), N));
  }
}

TEST_P(ClockKernelsTest, CopyWordsAndTrimTrailingZeros) {
  Rng R(42);
  for (int Round = 0; Round < 200; ++Round) {
    size_t N = R.nextBelow(100);
    std::vector<uint32_t> Src = randomWords(R, N, 10);
    // Zero a random-length tail so trim has something to find.
    size_t Tail = N == 0 ? 0 : R.nextBelow(N + 1);
    for (size_t I = N - Tail; I < N; ++I)
      Src[I] = 0;
    std::vector<uint32_t> Dst(N, 0xdeadbeefu);
    kernels::copyWords(Dst.data(), Src.data(), N);
    EXPECT_EQ(Dst, Src);

    size_t M = kernels::trimTrailingZeros(Src.data(), N);
    EXPECT_LE(M, N);
    for (size_t I = M; I < N; ++I)
      EXPECT_EQ(Src[I], 0u);
    if (M > 0) {
      EXPECT_NE(Src[M - 1], 0u);
    }
  }
}

// VectorClock-level differential: joinWith/leq over unequal lengths and
// implicit-zero tails route through the kernels; compare against an
// entry-wise model.
TEST_P(ClockKernelsTest, VectorClockJoinUnequalLengths) {
  Rng R(2026);
  for (int Round = 0; Round < 200; ++Round) {
    auto NA = static_cast<uint32_t>(R.nextBelow(40));
    auto NB = static_cast<uint32_t>(R.nextBelow(40));
    VectorClock A, B;
    std::vector<uint32_t> ModelA(std::max(NA, NB), 0);
    for (uint32_t I = 0; I < NA; ++I) {
      auto V = static_cast<uint32_t>(R.nextBelow(50)); // Zeros likely: tails stay implicit.
      A.set(I, V);
      ModelA[I] = V;
    }
    std::vector<uint32_t> ModelB(std::max(NA, NB), 0);
    for (uint32_t I = 0; I < NB; ++I) {
      auto V = static_cast<uint32_t>(R.nextBelow(50));
      B.set(I, V);
      ModelB[I] = V;
    }
    bool ModelLeq = true;
    for (size_t I = 0; I < ModelA.size(); ++I)
      ModelLeq &= ModelA[I] <= ModelB[I];
    EXPECT_EQ(A.leq(B), ModelLeq);

    bool ModelChanged = false;
    for (size_t I = 0; I < ModelA.size(); ++I) {
      if (ModelB[I] > ModelA[I]) {
        ModelA[I] = ModelB[I];
        ModelChanged = true;
      }
    }
    EXPECT_EQ(A.joinWith(B), ModelChanged);
    for (size_t I = 0; I < ModelA.size(); ++I)
      EXPECT_EQ(A.get(static_cast<ThreadId>(I)), ModelA[I]);
    // Joining again is a no-op: change detection must not re-fire.
    EXPECT_FALSE(A.joinWith(B));
  }
}

INSTANTIATE_TEST_SUITE_P(SimdAndScalar, ClockKernelsTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &Info) {
                           return Info.param ? "ForcedScalar" : "ActiveIsa";
                         });

TEST(ClockKernelsIsaTest, ActiveIsaIsNamed) {
  const char *Isa = kernels::activeIsa();
  ASSERT_NE(Isa, nullptr);
  EXPECT_STRNE(Isa, "");
  kernels::setForceIsa(kernels::Isa::Scalar);
  EXPECT_STREQ(kernels::activeIsa(), "scalar");
  kernels::clearForceIsa();
}

} // namespace
