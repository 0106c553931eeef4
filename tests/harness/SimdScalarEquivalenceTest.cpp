//===- tests/harness/SimdScalarEquivalenceTest.cpp ------------------------==//
//
// End-to-end SIMD/scalar equivalence: a full trial run with the SIMD
// clock kernels must produce an AnalysisResult *bit-identical* to the same
// trial with the kernels forced onto the always-correct scalar path --
// for every detector, sequentially and sharded. This is the in-process
// half of the guarantee; CI's PACER_DISABLE_SIMD build leg re-runs the
// whole suite with the SIMD paths compiled out entirely.
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "runtime/AnalysisSession.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pacer;
using namespace pacer::test;

namespace {

struct NamedSetup {
  const char *Name;
  DetectorSetup Setup;
};

std::vector<NamedSetup> allSetups() {
  DetectorSetup PacerSampled = pacerSetup(0.03);
  PacerSampled.Sampling.PeriodBytes = 12 * 1024; // Many period boundaries.
  return {{"pacer_r3", PacerSampled},
          {"pacer_r100", pacerSetup(1.0)},
          {"fasttrack", fastTrackSetup()},
          {"generic", genericSetup()},
          {"literace", literaceSetup()}};
}

class SimdScalarEquivalenceTest : public ::testing::Test {
protected:
  void TearDown() override { kernels::clearForceIsa(); }
};

void expectSimdScalarInvariant(const WorkloadSpec &Spec, uint64_t Seed) {
  CompiledWorkload Workload(Spec);
  for (const NamedSetup &NS : allSetups()) {
    for (unsigned Shards : {1u, 4u}) {
      DetectorSetup Setup = NS.Setup;
      Setup.Shards = Shards;
      const AnalysisSession Session(Workload, {.Setup = Setup, .Seed = Seed});
      kernels::clearForceIsa();
      AnalysisResult Simd = Session.analyzeGenerated();
      kernels::setForceIsa(kernels::Isa::Scalar);
      AnalysisResult Scalar = Session.analyzeGenerated();
      kernels::clearForceIsa();
      expectSameAnalysis(Simd, Scalar,
                         std::string(NS.Name) + " shards=" +
                             std::to_string(Shards));
    }
  }
}

TEST_F(SimdScalarEquivalenceTest, TinyWorkloadBitIdentical) {
  expectSimdScalarInvariant(tinyTestWorkload(), /*Seed=*/11);
}

TEST_F(SimdScalarEquivalenceTest, MediumWorkloadBitIdentical) {
  expectSimdScalarInvariant(mediumTestWorkload(), /*Seed=*/23);
}

} // namespace
