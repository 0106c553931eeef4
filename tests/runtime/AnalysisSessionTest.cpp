//===- tests/runtime/AnalysisSessionTest.cpp ------------------------------==//
//
// Regression pins for the AnalysisSession facade: what a generated trial
// reports for each detector kind, and that the analyze* paths over the
// same input -- in-memory trace, whole-file load, streamed file, explicit
// reader, at every chunking and shard count -- agree bit-for-bit on
// everything the analysis computes. These equalities are what let every
// sequential path share one replay core, and they must survive future
// refactors of either layer.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"

#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace pacer;
using namespace pacer::test;

namespace {

/// Every detector kind, with PACER configured to cross many sampling
/// periods on the tiny workload.
std::vector<std::pair<std::string, DetectorSetup>> detectorMatrix() {
  DetectorSetup Pacer = pacerSetup(0.3);
  Pacer.Sampling.PeriodBytes = 16 * 1024;
  return {{"generic", genericSetup()},
          {"fasttrack", fastTrackSetup()},
          {"pacer_r30", Pacer},
          {"literace", literaceSetup(100)}};
}

AnalysisRequest requestFor(DetectorSetup Setup, unsigned Shards,
                           uint64_t Seed) {
  AnalysisRequest Request;
  Request.Setup = std::move(Setup);
  Request.Setup.Shards = Shards;
  Request.Setup.ShardJobs = 1; // Deterministic and CI-friendly.
  Request.Seed = Seed;
  return Request;
}

TEST(AnalysisSessionTest, FastTrackFindsCertainRacesInTinyWorkload) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload, {.Setup = fastTrackSetup(), .Seed = 1})
          .analyzeGenerated();
  EXPECT_GT(Result.TraceEvents, 1000u);
  EXPECT_GT(Result.DynamicRaces, 0u);
  EXPECT_FALSE(Result.Races.empty());
  EXPECT_GT(Result.ReplaySeconds, 0.0);
  EXPECT_GT(Result.FinalMetadataBytes, 0u);
}

TEST(AnalysisSessionTest, ReportedKeysAreRacyPairs) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload, {.Setup = fastTrackSetup(), .Seed = 2})
          .analyzeGenerated();
  std::set<RaceKey> Planted;
  for (uint32_t Race = 0; Race < Workload.numRaces(); ++Race)
    Planted.insert(Workload.racyKey(Race));
  for (const auto &[Key, Count] : Result.Races) {
    EXPECT_TRUE(Planted.count(Key))
        << "every detected race must be a planted one (" << Key.FirstSite
        << "," << Key.SecondSite << ")";
    EXPECT_GT(Count, 0u);
  }
}

TEST(AnalysisSessionTest, PacerAtZeroFindsNothing) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload, {.Setup = pacerSetup(0.0), .Seed = 1})
          .analyzeGenerated();
  EXPECT_EQ(Result.DynamicRaces, 0u);
  EXPECT_DOUBLE_EQ(Result.EffectiveAccessRate, 0.0);
}

TEST(AnalysisSessionTest, PacerAtFullRateMatchesFastTrackKeys) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult FastTrack =
      AnalysisSession(Workload, {.Setup = fastTrackSetup(), .Seed = 3})
          .analyzeGenerated();
  AnalysisResult Pacer =
      AnalysisSession(Workload, {.Setup = pacerSetup(1.0), .Seed = 3})
          .analyzeGenerated();
  EXPECT_EQ(FastTrack.Races.size(), Pacer.Races.size());
  for (const auto &[Key, Count] : FastTrack.Races)
    EXPECT_EQ(Pacer.dynamicCount(Key), Count);
  EXPECT_NEAR(Pacer.EffectiveAccessRate, 1.0, 1e-9);
}

TEST(AnalysisSessionTest, DeterministicAcrossRuns) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult A =
      AnalysisSession(Workload, {.Setup = pacerSetup(0.3), .Seed = 5})
          .analyzeGenerated();
  AnalysisResult B =
      AnalysisSession(Workload, {.Setup = pacerSetup(0.3), .Seed = 5})
          .analyzeGenerated();
  EXPECT_EQ(A.DynamicRaces, B.DynamicRaces);
  EXPECT_EQ(A.Races, B.Races);
  EXPECT_DOUBLE_EQ(A.EffectiveAccessRate, B.EffectiveAccessRate);
}

TEST(AnalysisSessionTest, PacerPopulatesSamplingFields) {
  CompiledWorkload Workload(tinyTestWorkload());
  DetectorSetup Setup = pacerSetup(0.5);
  Setup.Sampling.PeriodBytes = 16 * 1024;
  AnalysisResult Result =
      AnalysisSession(Workload, {.Setup = Setup, .Seed = 7})
          .analyzeGenerated();
  EXPECT_GT(Result.Boundaries, 0u);
  EXPECT_GT(Result.EffectiveAccessRate, 0.0);
  EXPECT_GT(Result.EffectiveSyncRate, 0.0);
}

TEST(AnalysisSessionTest, LiteRacePopulatesEffectiveRate) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload, {.Setup = literaceSetup(100), .Seed = 1})
          .analyzeGenerated();
  EXPECT_GT(Result.LiteRaceEffectiveRate, 0.0);
  EXPECT_LE(Result.LiteRaceEffectiveRate, 1.0);
}

TEST(AnalysisSessionTest, MakeDetectorProducesEveryKind) {
  CompiledWorkload Workload(tinyTestWorkload());
  NullRaceSink Sink;
  for (DetectorSetup Setup :
       {nullSetup(), genericSetup(), fastTrackSetup(), pacerSetup(0.1),
        literaceSetup()}) {
    std::unique_ptr<Detector> D = makeDetector(Setup, Sink, Workload, 1);
    ASSERT_NE(D, nullptr);
    EXPECT_STREQ(D->name(), detectorKindName(Setup.Kind));
    // Only PACER samples by period.
    EXPECT_EQ(makeSamplingController(Setup, 1) != nullptr,
              Setup.Kind == DetectorKind::Pacer);
  }
}

TEST(AnalysisSessionTest, NullDetectorBaselineIsCheapest) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Null =
      AnalysisSession(Workload, {.Setup = nullSetup(), .Seed = 1})
          .analyzeGenerated();
  EXPECT_EQ(Null.DynamicRaces, 0u);
  EXPECT_EQ(Null.FinalMetadataBytes, 0u);
}

TEST(AnalysisSessionTest, EscapeAnalysisElisionKeepsRacesDropsLocals) {
  // Section 4: the compiler pass does not instrument provably local
  // accesses. Eliding them must not change the races found (locals never
  // race) but removes their instrumentation entirely.
  CompiledWorkload Workload(tinyTestWorkload());
  DetectorSetup Plain = fastTrackSetup();
  DetectorSetup Elided = fastTrackSetup();
  Elided.ElideLocalAccesses = true;
  AnalysisResult WithLocals =
      AnalysisSession(Workload, {.Setup = Plain, .Seed = 4})
          .analyzeGenerated();
  AnalysisResult WithoutLocals =
      AnalysisSession(Workload, {.Setup = Elided, .Seed = 4})
          .analyzeGenerated();
  EXPECT_EQ(WithLocals.Races, WithoutLocals.Races);
  EXPECT_LT(WithoutLocals.Stats.totalReads() +
                WithoutLocals.Stats.totalWrites(),
            (WithLocals.Stats.totalReads() + WithLocals.Stats.totalWrites()) /
                2)
      << "local accesses dominate the tiny workload's traffic";
}

TEST(AnalysisSessionTest, GenericAndFastTrackAgreeOnRaceExistence) {
  CompiledWorkload Workload(tinyTestWorkload());
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    AnalysisResult Generic =
        AnalysisSession(Workload, {.Setup = genericSetup(), .Seed = Seed})
            .analyzeGenerated();
    AnalysisResult FastTrack =
        AnalysisSession(Workload, {.Setup = fastTrackSetup(), .Seed = Seed})
            .analyzeGenerated();
    EXPECT_EQ(Generic.Races.empty(), FastTrack.Races.empty());
  }
}

TEST(AnalysisSessionTest, AllInputPathsAgreeBitForBit) {
  CompiledWorkload Workload(tinyTestWorkload());
  const uint64_t Seed = 17;
  Trace T = generateTrace(Workload, Seed);
  std::string Path = ::testing::TempDir() + "/pacer_session_paths.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, T));

  for (const auto &[Name, Setup] : detectorMatrix()) {
    for (unsigned Shards : {1u, 4u}) {
      AnalysisSession Session(Workload, requestFor(Setup, Shards, Seed));
      const std::string What = Name + " K=" + std::to_string(Shards);

      AnalysisResult FromTrace = Session.analyzeTrace(T);
      AnalysisResult FromFile = Session.analyzeFile(Path);
      expectSameAnalysis(FromTrace, FromFile, What + " file");
      EXPECT_EQ(FromFile.ResolvedShards, Shards) << What;

      // Streamed file analysis: same numbers from O(window) memory.
      AnalysisRequest Streamed = requestFor(Setup, Shards, Seed);
      Streamed.Stream = true;
      Streamed.StreamWindow = 700; // Forces many windows on ~10k actions.
      AnalysisResult FromStreamedFile =
          AnalysisSession(Workload, Streamed).analyzeFile(Path);
      expectSameAnalysis(FromTrace, FromStreamedFile, What + " streamed");
    }
  }
  std::remove(Path.c_str());
}

TEST(AnalysisSessionTest, SequentialPathsAgreeOnEveryDeterministicField) {
  // Every sequential input path feeds the one replay core a different
  // chunking: the span in one piece, readers at windows of 1 action, 97
  // actions and the whole trace, and analyzeFile mapping, parsing or
  // streaming a binary or text file. Chunk edges must not show in any
  // field the comparator checks, peak slot count included.
  CompiledWorkload Workload(tinyTestWorkload());
  const uint64_t Seed = 29;
  Trace T = generateTrace(Workload, Seed);
  const std::string BinPath =
      ::testing::TempDir() + "/pacer_session_sequential.btrace";
  const std::string TextPath =
      ::testing::TempDir() + "/pacer_session_sequential.trace";
  ASSERT_TRUE(writeTraceFile(BinPath, T, TraceFormat::Binary));
  ASSERT_TRUE(writeTraceFile(TextPath, T, TraceFormat::Text));

  auto Setups = detectorMatrix();
  Setups.push_back({"null", nullSetup()});
  for (const auto &[Name, Setup] : Setups) {
    for (bool Accordion : {false, true}) {
      for (bool Elide : {false, true}) {
        AnalysisRequest Request = requestFor(Setup, 1, Seed);
        Request.Setup.AccordionClocks = Accordion;
        Request.Setup.ElideLocalAccesses = Elide;
        const std::string Cell = Name + (Accordion ? " accordion" : "") +
                                 (Elide ? " elided" : "");
        const AnalysisSession Session(Workload, Request);
        const AnalysisResult Span = Session.analyzeTrace(T);

        AnalysisRequest Streamed = Request;
        Streamed.Stream = true;
        Streamed.StreamWindow = 97;
        for (const std::string &Path : {BinPath, TextPath}) {
          const std::string What = Cell + " " + Path;
          for (size_t Window : {size_t(1), size_t(97), T.size()}) {
            StreamingTraceReader Reader(Path, Window);
            expectSameAnalysis(Span, Session.analyzeStream(Reader),
                               What + " window " + std::to_string(Window));
          }
          expectSameAnalysis(Span, Session.analyzeFile(Path), What);
          expectSameAnalysis(
              Span, AnalysisSession(Workload, Streamed).analyzeFile(Path),
              What + " streamed");
        }
      }
    }
  }
  std::remove(BinPath.c_str());
  std::remove(TextPath.c_str());
}

TEST(AnalysisSessionTest, ShardCountsAgreeAndAutoResolves) {
  CompiledWorkload Workload(tinyTestWorkload());
  const uint64_t Seed = 19;
  Trace T = generateTrace(Workload, Seed);
  DetectorSetup Setup = fastTrackSetup();

  AnalysisResult Sequential =
      AnalysisSession(Workload, requestFor(Setup, 1, Seed)).analyzeTrace(T);
  AnalysisResult Sharded =
      AnalysisSession(Workload, requestFor(Setup, 4, Seed)).analyzeTrace(T);
  expectSameAnalysis(Sequential, Sharded, "K=1 vs K=4");
  // Few enough reports that no replica reaches its sample cap.
  EXPECT_EQ(sortedReports(Sequential), sortedReports(Sharded));
  EXPECT_EQ(Sequential.ResolvedShards, 1u);
  EXPECT_EQ(Sharded.ResolvedShards, 4u);

  // Auto shards (Shards = 0) resolve to a concrete count.
  AnalysisResult Auto =
      AnalysisSession(Workload, requestFor(Setup, 0, Seed)).analyzeTrace(T);
  ASSERT_TRUE(Auto.Ok) << Auto.Error;
  EXPECT_GE(Auto.ResolvedShards, 1u);
  expectSameAnalysis(Sequential, Auto, "K=1 vs auto");
}

TEST(AnalysisSessionTest, RepeatedCallsAreIndependentAndDeterministic) {
  // The session is stateless across calls: the third analysis of the
  // same trace equals the first.
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 23);
  DetectorSetup Pacer = pacerSetup(0.4);
  Pacer.Sampling.PeriodBytes = 16 * 1024;
  AnalysisSession Session(Workload, requestFor(Pacer, 1, 23));

  AnalysisResult First = Session.analyzeTrace(T);
  Session.analyzeTrace(T);
  AnalysisResult Third = Session.analyzeTrace(T);
  expectSameAnalysis(First, Third, "repeat");
}

TEST(AnalysisSessionTest, FileErrorsSurfaceCleanly) {
  CompiledWorkload Workload(flatSiteWorkload());
  AnalysisSession Session(Workload, AnalysisRequest{});

  AnalysisResult Missing =
      Session.analyzeFile(::testing::TempDir() + "/pacer_no_such.trace");
  EXPECT_FALSE(Missing.Ok);
  EXPECT_FALSE(Missing.Error.empty());

  std::string Path = ::testing::TempDir() + "/pacer_session_bad.trace";
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(Out, nullptr);
  std::fputs("pacer-trace v1 1\nnot an action\n", Out);
  std::fclose(Out);
  AnalysisResult Corrupt = Session.analyzeFile(Path);
  EXPECT_FALSE(Corrupt.Ok);
  EXPECT_FALSE(Corrupt.Error.empty());
  std::remove(Path.c_str());
}

} // namespace
