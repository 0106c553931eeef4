//===- tests/harness/StreamingReplayTest.cpp ------------------------------==//
//
// The bit-identity matrix for the trace read paths: one generated trace,
// replayed as {in-memory text parse, in-memory binary read, mmap view,
// bounded-window stream} x {1 shard, 4 shards}, must produce exactly the
// same AnalysisResult for every detector. Also pins the pieces that make
// that hold: Runtime::replayChunk is chunking-invariant, and
// TraceIndex::Builder is chunking-invariant and equal to the one-shot
// build.
//
//===----------------------------------------------------------------------==//

#include "runtime/AnalysisSession.h"
#include "runtime/RaceLog.h"
#include "runtime/Runtime.h"
#include "runtime/TraceIndex.h"
#include "sim/StreamingTraceReader.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/TraceView.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace pacer;
using namespace pacer::test;

namespace {

struct NamedSetup {
  const char *Name;
  DetectorSetup Setup;
};

std::vector<NamedSetup> allSetups() {
  DetectorSetup PacerSampled = pacerSetup(0.03);
  PacerSampled.Sampling.PeriodBytes = 12 * 1024;
  return {{"pacer_r3", PacerSampled},
          {"pacer_r100", pacerSetup(1.0)},
          {"fasttrack", fastTrackSetup()},
          {"generic", genericSetup()},
          {"literace", literaceSetup()}};
}

TEST(StreamingReplayTest, AllReadPathsMatchForAllDetectors) {
  CompiledWorkload Workload(mediumTestWorkload());
  const uint64_t Seed = 7;
  Trace T = generateTrace(Workload, Seed);

  std::string TextPath = ::testing::TempDir() + "/pacer_paths.trace";
  std::string BinPath = ::testing::TempDir() + "/pacer_paths.btrace";
  ASSERT_TRUE(writeTraceFile(TextPath, T, TraceFormat::Text));
  ASSERT_TRUE(writeTraceFile(BinPath, T, TraceFormat::Binary));

  TraceParseResult FromText = readTraceFile(TextPath);
  ASSERT_TRUE(FromText.Ok) << FromText.Error;
  TraceParseResult FromBinary = readTraceFile(BinPath);
  ASSERT_TRUE(FromBinary.Ok) << FromBinary.Error;
  TraceView View = TraceView::open(BinPath);
  ASSERT_TRUE(View.ok()) << View.error();

  for (const NamedSetup &NS : allSetups()) {
    SCOPED_TRACE(NS.Name);
    for (unsigned Shards : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(Shards));
      DetectorSetup Setup = NS.Setup;
      Setup.Shards = Shards;
      const AnalysisSession Session(Workload, {.Setup = Setup, .Seed = Seed});

      AnalysisResult Baseline = Session.analyzeTrace(T);
      expectSameAnalysis(Baseline, Session.analyzeTrace(FromText.T), "text");
      expectSameAnalysis(Baseline, Session.analyzeTrace(FromBinary.T),
                         "binary");
      expectSameAnalysis(Baseline, Session.analyzeTrace(View.actions()),
                         "view");

      // The streaming path is sequential; its result must match the
      // sharded in-memory runs too (sharding is bit-identical).
      for (size_t Window : {size_t(97), size_t(1 << 20)}) {
        for (const std::string &Path : {TextPath, BinPath}) {
          StreamingTraceReader Reader(Path, Window);
          ASSERT_TRUE(Reader.ok()) << Reader.error();
          expectSameAnalysis(Baseline, Session.analyzeStream(Reader),
                             Path + " window " + std::to_string(Window));
        }
      }
    }
  }

  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

TEST(StreamingReplayTest, ReplayChunkIsChunkingInvariant) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 3);

  for (const NamedSetup &NS : allSetups()) {
    SCOPED_TRACE(NS.Name);
    AnalysisResult Baseline =
        AnalysisSession(Workload, {.Setup = NS.Setup, .Seed = 3})
            .analyzeTrace(T);
    for (size_t Chunk : {size_t(1), size_t(13), size_t(257)}) {
      RaceLog Log;
      std::unique_ptr<Detector> D =
          makeDetector(NS.Setup, Log, Workload, 3);
      std::unique_ptr<SamplingController> Controller =
          makeSamplingController(NS.Setup, 3);
      Runtime RT(*D, Controller.get());
      RT.start();
      for (size_t I = 0; I < T.size(); I += Chunk)
        RT.replayChunk(
            TraceSpan(T.data() + I, std::min(Chunk, T.size() - I)),
            AccessShard::all());
      EXPECT_EQ(Baseline.Races, Log.counts()) << "chunk " << Chunk;
      EXPECT_EQ(Baseline.DynamicRaces, Log.dynamicCount());
      EXPECT_TRUE(sameStats(Baseline.Stats, D->stats()));
    }
  }
}

TEST(StreamingReplayTest, StreamedIndexBuildMatchesOneShot) {
  CompiledWorkload Workload(mediumTestWorkload());
  Trace T = generateTrace(Workload, 11);
  const unsigned Shards = 4;
  TraceIndex OneShot = TraceIndex::build(T, Shards);

  for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
    TraceIndex::Builder Builder(Shards);
    for (size_t I = 0; I < T.size(); I += Chunk)
      Builder.addChunk(
          TraceSpan(T.data() + I, std::min(Chunk, T.size() - I)));
    EXPECT_EQ(Builder.accessCount(), OneShot.accessCount());
    TraceIndex Streamed = Builder.take();

    ASSERT_EQ(Streamed.events().size(), OneShot.events().size());
    for (size_t I = 0; I != OneShot.events().size(); ++I) {
      EXPECT_EQ(Streamed.events()[I].Pos, OneShot.events()[I].Pos);
      EXPECT_EQ(Streamed.events()[I].BeginTid, OneShot.events()[I].BeginTid);
    }
    ASSERT_EQ(Streamed.epochs().size(), OneShot.epochs().size());
    for (size_t I = 0; I != OneShot.epochs().size(); ++I) {
      EXPECT_EQ(Streamed.epochs()[I].Begin, OneShot.epochs()[I].Begin);
      EXPECT_EQ(Streamed.epochs()[I].End, OneShot.epochs()[I].End);
    }
    for (unsigned S = 0; S < Shards; ++S) {
      EXPECT_EQ(Streamed.ownedAccessCount(S), OneShot.ownedAccessCount(S));
      ASSERT_EQ(Streamed.runs(S).size(), OneShot.runs(S).size());
      for (size_t I = 0; I != OneShot.runs(S).size(); ++I) {
        EXPECT_EQ(Streamed.runs(S)[I].Begin, OneShot.runs(S)[I].Begin);
        EXPECT_EQ(Streamed.runs(S)[I].End, OneShot.runs(S)[I].End);
        EXPECT_EQ(Streamed.runs(S)[I].Epoch, OneShot.runs(S)[I].Epoch);
      }
    }
  }
}

TEST(StreamingReplayTest, StreamHonoursElideLocalAccesses) {
  CompiledWorkload Workload(tinyTestWorkload());
  const uint64_t Seed = 5;
  Trace T = generateTrace(Workload, Seed);
  std::string Path = ::testing::TempDir() + "/pacer_elide.btrace";
  ASSERT_TRUE(writeTraceFile(Path, T, TraceFormat::Binary));

  DetectorSetup Setup = fastTrackSetup();
  Setup.ElideLocalAccesses = true;
  const AnalysisSession Session(Workload, {.Setup = Setup, .Seed = Seed});

  StreamingTraceReader Reader(Path, 61);
  ASSERT_TRUE(Reader.ok()) << Reader.error();
  expectSameAnalysis(Session.analyzeTrace(T), Session.analyzeStream(Reader));
  std::remove(Path.c_str());
}

TEST(StreamingReplayTest, StreamErrorSurfacesAsNotOk) {
  CompiledWorkload Workload(tinyTestWorkload());
  StreamingTraceReader Reader("/nonexistent/path/x.trace");
  AnalysisResult Result =
      AnalysisSession(Workload, {.Setup = fastTrackSetup(), .Seed = 1})
          .analyzeStream(Reader);
  EXPECT_FALSE(Result.Ok);
  EXPECT_FALSE(Result.Error.empty());
  EXPECT_EQ(Result.TraceEvents, 0u);
}

} // namespace
