//===- tests/sim/TraceIOTest.cpp ------------------------------------------==//

#include "sim/TraceIO.h"

#include "runtime/AnalysisSession.h"
#include "sim/StreamingTraceReader.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceView.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>

#include <unistd.h>

using namespace pacer;
using namespace pacer::test;

namespace {

bool sameTrace(const Trace &A, const Trace &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    if (A[I].Kind != B[I].Kind || A[I].Tid != B[I].Tid ||
        A[I].Target != B[I].Target || A[I].Site != B[I].Site)
      return false;
  }
  return true;
}

TEST(TraceIOTest, RoundTripsHandTrace) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(1, 7)
                .write(1, 3, 42)
                .rel(1, 7)
                .volWrite(1, 2)
                .volRead(0, 2)
                .join(0, 1)
                .take();
  T.push_back({ActionKind::AwaitVolatile, 0, 2, 1});
  T.push_back({ActionKind::ThreadExit, 0, InvalidId, InvalidId});
  TraceParseResult Result = parseTrace(serializeTrace(T));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(sameTrace(T, Result.T));
}

TEST(TraceIOTest, RoundTripsGeneratedWorkload) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 5);
  TraceParseResult Result = parseTrace(serializeTrace(T));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(sameTrace(T, Result.T));
}

TEST(TraceIOTest, EmptyTraceRoundTrips) {
  TraceParseResult Result = parseTrace(serializeTrace(Trace{}));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(Result.T.empty());
}

TEST(TraceIOTest, InvalidIdRendersAsDash) {
  Trace T;
  T.push_back({ActionKind::ThreadExit, 3, InvalidId, InvalidId});
  std::string Text = serializeTrace(T);
  EXPECT_NE(Text.find("exit 3 - -"), std::string::npos) << Text;
}

TEST(TraceIOTest, RejectsBadMagic) {
  TraceParseResult Result = parseTrace("not-a-trace v1 0\n");
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("magic"), std::string::npos);
}

TEST(TraceIOTest, RejectsBadVersion) {
  TraceParseResult Result = parseTrace("pacer-trace v9 0\n");
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("version"), std::string::npos);
}

TEST(TraceIOTest, RejectsMalformedLines) {
  const char *Header = "pacer-trace v1 1\n";
  EXPECT_FALSE(parseTrace(std::string(Header) + "rd 0\n").Ok);
  EXPECT_FALSE(parseTrace(std::string(Header) + "zap 0 1 2\n").Ok);
  EXPECT_FALSE(parseTrace(std::string(Header) + "rd x 1 2\n").Ok);
  EXPECT_FALSE(parseTrace(std::string(Header) + "rd 0 1 2 3\n").Ok);
  EXPECT_FALSE(parseTrace(std::string(Header) + "rd 0 99999999999 2\n").Ok);
}

TEST(TraceIOTest, ErrorNamesLine) {
  TraceParseResult Result =
      parseTrace("pacer-trace v1 2\nrd 0 1 2\nbad line here extra\n");
  ASSERT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("line 3"), std::string::npos) << Result.Error;
}

TEST(TraceIOTest, SkipsBlankLines) {
  TraceParseResult Result =
      parseTrace("pacer-trace v1 1\n\nrd 0 1 2\n\n");
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.T.size(), 1u);
}

TEST(TraceIOTest, FileRoundTrip) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 9);
  std::string Path = ::testing::TempDir() + "/pacer_trace_io_test.trace";
  ASSERT_TRUE(writeTraceFile(Path, T));
  TraceParseResult Result = readTraceFile(Path);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(sameTrace(T, Result.T));
  std::remove(Path.c_str());
}

TEST(TraceIOTest, MissingFileReportsError) {
  TraceParseResult Result = readTraceFile("/nonexistent/path/x.trace");
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("cannot open"), std::string::npos);
}

// --- Binary format (v2) --------------------------------------------------

/// A hand trace exercising the encoding's edge values: InvalidId targets
/// and sites, the AwaitVolatile kind (spin-loop threshold reads carry a
/// Site), the maximal 24-bit thread id, and extreme target/site values
/// (the largest VarId the readers accept is InvalidId - 2).
Trace edgeCaseTrace() {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(1, 7)
                .write(1, 3, 42)
                .rel(1, 7)
                .volWrite(1, 2)
                .volRead(0, 2)
                .join(0, 1)
                .take();
  T.push_back({ActionKind::AwaitVolatile, 0, 2, 1});
  T.push_back({ActionKind::Read, MaxActionTid, 0xFFFFFFFDu, 0xFFFFFFFEu});
  T.push_back({ActionKind::ThreadExit, 0, InvalidId, InvalidId});
  return T;
}

TEST(TraceIOBinaryTest, RecordPackUnpackRoundTrips) {
  for (const Action &A : edgeCaseTrace()) {
    unsigned char Rec[BinaryTraceRecordBytes];
    packBinaryRecord(A, Rec);
    Action Back{};
    ASSERT_TRUE(unpackBinaryRecord(Rec, Back));
    EXPECT_EQ(A.Kind, Back.Kind);
    EXPECT_EQ(A.Tid, Back.Tid);
    EXPECT_EQ(A.Target, Back.Target);
    EXPECT_EQ(A.Site, Back.Site);
  }
}

TEST(TraceIOBinaryTest, FileRoundTripsEdgeCases) {
  Trace T = edgeCaseTrace();
  std::string Path = ::testing::TempDir() + "/pacer_bin_edge.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, T));
  TraceFormat Format = TraceFormat::Text;
  TraceParseResult Result = readTraceFile(Path, &Format);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Format, TraceFormat::Binary);
  EXPECT_TRUE(sameTrace(T, Result.T));
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, TextBinaryTextIsByteIdentical) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 13);
  std::string TextPath = ::testing::TempDir() + "/pacer_tbt.trace";
  std::string BinPath = ::testing::TempDir() + "/pacer_tbt.btrace";
  ASSERT_TRUE(writeTraceFile(TextPath, T, TraceFormat::Text));

  TraceParseResult FromText = readTraceFile(TextPath);
  ASSERT_TRUE(FromText.Ok) << FromText.Error;
  ASSERT_TRUE(writeTraceFileBinary(BinPath, FromText.T));

  TraceParseResult FromBinary = readTraceFile(BinPath);
  ASSERT_TRUE(FromBinary.Ok) << FromBinary.Error;
  // The text writer is canonical, so a full text -> binary -> text cycle
  // reproduces the original file bytes exactly.
  EXPECT_EQ(serializeTrace(T), serializeTrace(FromBinary.T));
  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

TEST(TraceIOBinaryTest, EmptyTraceRoundTrips) {
  std::string Path = ::testing::TempDir() + "/pacer_bin_empty.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, Trace{}));
  TraceParseResult Result = readTraceFile(Path);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(Result.T.empty());
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsTruncatedHeader) {
  std::string Bytes = binaryTraceImage(edgeCaseTrace());
  std::string Path =
      writeTempFile("pacer_bin_hdr.btrace", Bytes.substr(0, 10));
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("truncated header"), std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsBadMagic) {
  std::string Bytes = binaryTraceImage(edgeCaseTrace());
  Bytes[3] = 'X'; // Still starts with 0xB7, so it classifies as binary.
  std::string Path = writeTempFile("pacer_bin_magic.btrace", Bytes);
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("magic"), std::string::npos) << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsBadVersion) {
  std::string Bytes = binaryTraceImage(edgeCaseTrace());
  Bytes[8] = 9;
  std::string Path = writeTempFile("pacer_bin_ver.btrace", Bytes);
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("version"), std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsTruncatedRecords) {
  std::string Bytes = binaryTraceImage(edgeCaseTrace());
  std::string Path = writeTempFile("pacer_bin_trunc.btrace",
                                   Bytes.substr(0, Bytes.size() - 5));
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("truncated trace"), std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsTrailingBytes) {
  std::string Bytes = binaryTraceImage(edgeCaseTrace());
  Bytes.append(12, '\0');
  std::string Path = writeTempFile("pacer_bin_trail.btrace", Bytes);
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("trailing bytes"), std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsBadKindByte) {
  std::string Bytes = binaryTraceImage(edgeCaseTrace());
  Bytes[BinaryTraceHeaderBytes + BinaryTraceRecordBytes] = '\x7F';
  std::string Path = writeTempFile("pacer_bin_kind.btrace", Bytes);
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("bad action kind in record 1"),
            std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, DetectsFormatByFirstByte) {
  EXPECT_EQ(traceFormatOf(BinaryTraceMagic0), TraceFormat::Binary);
  EXPECT_EQ(traceFormatOf('p'), TraceFormat::Text);
  Trace T = edgeCaseTrace();
  std::string TextPath = ::testing::TempDir() + "/pacer_fmt.trace";
  std::string BinPath = ::testing::TempDir() + "/pacer_fmt.btrace";
  ASSERT_TRUE(writeTraceFile(TextPath, T, TraceFormat::Text));
  ASSERT_TRUE(writeTraceFile(BinPath, T, TraceFormat::Binary));
  for (auto [Path, Expected] : {std::pair(TextPath, TraceFormat::Text),
                                std::pair(BinPath, TraceFormat::Binary)}) {
    TraceFormat Format = Expected == TraceFormat::Text ? TraceFormat::Binary
                                                       : TraceFormat::Text;
    ASSERT_TRUE(readTraceFile(Path, &Format).Ok) << Path;
    EXPECT_EQ(Format, Expected) << Path;
    EXPECT_EQ(StreamingTraceReader(Path).format(), Expected) << Path;
  }
  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

TEST(TraceIOTest, FileDiagnosticsNameThePath) {
  // A string has no file, so parseTrace keeps the bare "line N: why".
  const std::string Bad = "pacer-trace v1 2\nrd 0 1 2\nzap 0 1 2\n";
  EXPECT_EQ(parseTrace(Bad).Error, "line 3: unknown action kind");
  // A file's diagnostic names it, from every reader and analysis path.
  const std::string BadPath = writeTempFile("pacer_named_bad.trace", Bad);
  const std::string EmptyPath = writeTempFile("pacer_named_empty.trace", "");
  for (auto [Path, Expected] :
       {std::pair(BadPath, BadPath + ": line 3: unknown action kind"),
        std::pair(EmptyPath, EmptyPath + ": empty file")}) {
    EXPECT_EQ(readTraceFile(Path).Error, Expected);
    StreamingTraceReader Reader(Path, 1);
    while (!Reader.next().empty())
      ;
    EXPECT_EQ(Reader.error(), Expected);
    for (bool Stream : {false, true}) {
      AnalysisRequest Request;
      Request.Setup = fastTrackSetup();
      Request.Stream = Stream;
      EXPECT_EQ(AnalysisSession(flatSiteWorkload(), Request)
                    .analyzeFile(Path)
                    .Error,
                Expected)
          << "stream=" << Stream;
    }
  }
  std::remove(BadPath.c_str());
  std::remove(EmptyPath.c_str());
}

// --- TraceView (mmap zero-copy) ------------------------------------------

TEST(TraceViewTest, MappedViewMatchesTrace) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 21);
  std::string Path = ::testing::TempDir() + "/pacer_view.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, T));

  for (bool ForceBuffered : {false, true}) {
    TraceView View = TraceView::open(Path, ForceBuffered);
    ASSERT_TRUE(View.ok()) << View.error();
    TraceSpan S = View.actions();
    ASSERT_EQ(S.size(), T.size());
    for (size_t I = 0; I != T.size(); ++I) {
      EXPECT_EQ(T[I].Kind, S[I].Kind);
      EXPECT_EQ(T[I].Tid, S[I].Tid);
      EXPECT_EQ(T[I].Target, S[I].Target);
      EXPECT_EQ(T[I].Site, S[I].Site);
    }
  }
  std::remove(Path.c_str());
}

TEST(TraceViewTest, OpensTextTraces) {
  // A text trace cannot be mapped, so the view loads it.
  Trace T = edgeCaseTrace();
  std::string Path = ::testing::TempDir() + "/pacer_view.trace";
  ASSERT_TRUE(writeTraceFile(Path, T, TraceFormat::Text));
  for (bool ForceBuffered : {false, true}) {
    TraceView View = TraceView::open(Path, ForceBuffered);
    ASSERT_TRUE(View.ok()) << View.error();
    EXPECT_FALSE(View.mapped());
    EXPECT_TRUE(sameActions(View.actions(), T));
  }
  std::remove(Path.c_str());
}

TEST(TraceViewTest, RejectsTruncatedFile) {
  std::string Bytes = binaryTraceImage(edgeCaseTrace());
  std::string Path = writeTempFile("pacer_view_trunc.btrace",
                                Bytes.substr(0, Bytes.size() - 3));
  TraceView View = TraceView::open(Path);
  EXPECT_FALSE(View.ok());
  EXPECT_NE(View.error().find("truncated trace"), std::string::npos)
      << View.error();
  std::remove(Path.c_str());
}

TEST(TraceViewTest, MissingFileReportsError) {
  TraceView View = TraceView::open("/nonexistent/path/x.btrace");
  EXPECT_FALSE(View.ok());
  EXPECT_NE(View.error().find("cannot open"), std::string::npos);
}

// --- StreamingTraceReader ------------------------------------------------

TEST(StreamingTraceReaderTest, ChunksConcatenateToFullTrace) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 33);
  std::string TextPath = ::testing::TempDir() + "/pacer_stream.trace";
  std::string BinPath = ::testing::TempDir() + "/pacer_stream.btrace";
  ASSERT_TRUE(writeTraceFile(TextPath, T, TraceFormat::Text));
  ASSERT_TRUE(writeTraceFile(BinPath, T, TraceFormat::Binary));

  for (const std::string &Path : {TextPath, BinPath}) {
    for (size_t Window : {size_t(1), size_t(7), size_t(1 << 20)}) {
      StreamingTraceReader Reader(Path, Window);
      ASSERT_TRUE(Reader.ok()) << Reader.error();
      Trace Rebuilt;
      for (TraceSpan Chunk = Reader.next(); !Chunk.empty();
           Chunk = Reader.next()) {
        EXPECT_LE(Chunk.size(), Window);
        Rebuilt.insert(Rebuilt.end(), Chunk.begin(), Chunk.end());
      }
      ASSERT_TRUE(Reader.ok()) << Reader.error();
      EXPECT_TRUE(Reader.done());
      EXPECT_EQ(Reader.actionsDelivered(), T.size());
      EXPECT_TRUE(sameTrace(T, Rebuilt))
          << Path << " window " << Window;
    }
  }

  StreamingTraceReader BinReader(BinPath);
  EXPECT_EQ(BinReader.format(), TraceFormat::Binary);
  ASSERT_TRUE(BinReader.totalActions().has_value());
  EXPECT_EQ(*BinReader.totalActions(), T.size());
  StreamingTraceReader TextReader(TextPath);
  EXPECT_EQ(TextReader.format(), TraceFormat::Text);
  EXPECT_FALSE(TextReader.totalActions().has_value());

  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

TEST(StreamingTraceReaderTest, ReportsMidStreamTruncation) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 3);
  ASSERT_GT(T.size(), 1000u); // Larger than stdio buffers ahead.
  const std::string Bytes = binaryTraceImage(T);
  std::string Expected = ": truncated trace (header promises ";
  Expected += std::to_string(T.size());
  Expected += " records)";

  // A file already short at open fails there: its size is checked
  // against the header before any record is read.
  std::string Path = writeTempFile("pacer_stream_trunc.btrace",
                                   Bytes.substr(0, Bytes.size() - 5));
  StreamingTraceReader Short(Path, 2);
  EXPECT_FALSE(Short.ok());
  EXPECT_EQ(Short.error(), Path + Expected);

  // A file that shrinks after open fails mid-stream, with the same
  // diagnostic.
  writeTempFile("pacer_stream_trunc.btrace", Bytes);
  StreamingTraceReader Reader(Path, 2);
  ASSERT_TRUE(Reader.ok()) << Reader.error();
  ASSERT_EQ(::truncate(Path.c_str(), static_cast<off_t>(Bytes.size() / 2)),
            0);
  while (!Reader.next().empty())
    ;
  EXPECT_FALSE(Reader.ok());
  EXPECT_EQ(Reader.error(), Path + Expected);
  EXPECT_LT(Reader.actionsDelivered(), T.size());
  std::remove(Path.c_str());
}

TEST(StreamingTraceReaderTest, ReportsMalformedTextLine) {
  std::string Path = writeTempFile(
      "pacer_stream_bad.trace", "pacer-trace v1 2\nrd 0 1 2\nzap 0 1 2\n");
  StreamingTraceReader Reader(Path, 1);
  ASSERT_TRUE(Reader.ok()) << Reader.error();
  while (!Reader.next().empty())
    ;
  EXPECT_FALSE(Reader.ok());
  EXPECT_NE(Reader.error().find("line 3"), std::string::npos)
      << Reader.error();
  std::remove(Path.c_str());
}

TEST(StreamingTraceReaderTest, MissingFileReportsError) {
  StreamingTraceReader Reader("/nonexistent/path/x.trace");
  EXPECT_FALSE(Reader.ok());
  EXPECT_NE(Reader.error().find("cannot open"), std::string::npos);
  EXPECT_TRUE(Reader.next().empty());
}

TEST(TraceIOTest, ReplayOfParsedTraceFindsSameRaces) {
  // End to end: record, parse, re-analyse offline; identical reports.
  CompiledWorkload Workload(tinyTestWorkload());
  Trace Original = generateTrace(Workload, 11);
  TraceParseResult Parsed = parseTrace(serializeTrace(Original));
  ASSERT_TRUE(Parsed.Ok);

  const AnalysisSession Session(Workload,
                                {.Setup = fastTrackSetup(), .Seed = 1});
  EXPECT_EQ(Session.analyzeTrace(Original).Races,
            Session.analyzeTrace(Parsed.T).Races);
}

} // namespace
