//===- tests/sim/TraceCorruptionTest.cpp ----------------------------------==//
//
// Corrupt-input corpus for the trace formats, applied uniformly to every
// read path: readTraceFile, TraceView (mmap and its forced loaded path),
// StreamingTraceReader (bounded window), and AnalysisSession::analyzeFile
// in its default and Stream modes. The daemon feeds attacker-controlled
// bytes straight into these readers, so every corruption must produce one
// clean diagnostic, the same from every path and naming the file -- never
// a crash, an abort (e.g. a reserve() sized from a hostile record count),
// or a silently truncated parse. Record-level corruptions also run
// through every analyzeFile configuration, where the default path leaves
// the record check to the replay segmenter.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"
#include "sim/StreamingTraceReader.h"
#include "sim/TraceIO.h"
#include "sim/TraceView.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace pacer;
using namespace pacer::test;

namespace {

/// A small legal trace to corrupt.
Trace baseTrace() {
  return TraceBuilder()
      .fork(0, 1)
      .acq(1, 3)
      .write(1, 5, 42)
      .rel(1, 3)
      .read(0, 5, 43)
      .exit(1)
      .join(0, 1)
      .exit(0)
      .take();
}

/// Overwrites the header's u64 record count in place.
void patchCount(std::string &Bytes, uint64_t Count) {
  ASSERT_GE(Bytes.size(), BinaryTraceHeaderBytes);
  for (int I = 0; I < 8; ++I)
    Bytes[16 + I] = static_cast<char>((Count >> (8 * I)) & 0xFF);
}

struct CorpusEntry {
  const char *Name;
  std::string Bytes;
};

/// Every corruption the readers must reject. Built fresh per test (gtest
/// has no cheap fixture-scoped lazy init under -fno-exceptions).
std::vector<CorpusEntry> corruptCorpus() {
  const Trace T = baseTrace();
  const std::string Good = binaryTraceImage(T);
  std::vector<CorpusEntry> Corpus;

  CorpusEntry BadMagic{"bad_magic", Good};
  BadMagic.Bytes[3] = 'X';
  Corpus.push_back(BadMagic);

  // First byte still 0xB7 so the file classifies as binary, rest wrong.
  CorpusEntry TornMagic{"torn_magic", Good};
  TornMagic.Bytes[7] = '9';
  Corpus.push_back(TornMagic);

  CorpusEntry BadVersion{"bad_version", Good};
  BadVersion.Bytes[8] = 0x7F;
  Corpus.push_back(BadVersion);

  CorpusEntry BadFlags{"bad_flags", Good};
  BadFlags.Bytes[12] = 0x01;
  Corpus.push_back(BadFlags);

  Corpus.push_back({"short_header", Good.substr(0, 10)});
  Corpus.push_back({"header_only_count_nonzero",
                    Good.substr(0, BinaryTraceHeaderBytes)});
  Corpus.push_back({"truncated_mid_record",
                    Good.substr(0, Good.size() - 5)});
  Corpus.push_back({"trailing_bytes", Good + "tail"});

  // Count larger than the records present: a lying header must not make
  // the reader allocate for (or wait on) records that never arrive.
  CorpusEntry CountOverrun{"count_overrun", Good};
  patchCount(CountOverrun.Bytes, T.size() + 1000);
  Corpus.push_back(CountOverrun);

  // Count whose byte size overflows u64 (count * 12 wraps): the readers'
  // overflow guards must reject it before any size arithmetic is trusted.
  CorpusEntry CountOverflow{"count_overflow", Good};
  patchCount(CountOverflow.Bytes, UINT64_MAX / 2);
  Corpus.push_back(CountOverflow);

  CorpusEntry BadKind{"bad_kind_byte", Good};
  BadKind.Bytes[BinaryTraceHeaderBytes] = static_cast<char>(0xEE);
  Corpus.push_back(BadKind);

  // Fork/Join Target is a thread id and must fit the 24-bit tid space;
  // 0xFFFFFFFE would grow per-thread detector state without bound.
  {
    Trace Bad = T;
    Bad[0].Target = 0xFFFFFFFEu; // The fork.
    Corpus.push_back({"fork_tid_out_of_range", binaryTraceImage(Bad)});
  }
  {
    Trace Bad = T;
    Bad[6].Target = 0xFFFFFFFEu; // The join.
    Corpus.push_back({"join_tid_out_of_range", binaryTraceImage(Bad)});
  }

  // Only a thread exit may omit its target: detectors size per-target
  // state as Target + 1, which wraps to 0 for InvalidId, and a read or
  // write of InvalidId - 1 would land on the var table's tombstone key.
  {
    Trace Bad = T;
    Bad[4].Target = InvalidId; // The read.
    Corpus.push_back({"read_missing_target", binaryTraceImage(Bad)});
  }
  {
    Trace Bad = T;
    Bad[2].Target = InvalidId; // The write.
    Corpus.push_back({"write_missing_target", binaryTraceImage(Bad)});
  }
  {
    Trace Bad = T;
    Bad[1].Target = InvalidId; // The acquire.
    Corpus.push_back({"acquire_missing_target", binaryTraceImage(Bad)});
  }
  {
    Trace Bad = T;
    Bad[2] = {ActionKind::VolatileWrite, 1, InvalidId, 42};
    Corpus.push_back({"volatile_write_missing_target", binaryTraceImage(Bad)});
  }
  {
    Trace Bad = T;
    Bad[4].Target = InvalidId - 1; // The read.
    Corpus.push_back({"read_tombstone_target", binaryTraceImage(Bad)});
  }

  return Corpus;
}

TEST(TraceCorruptionTest, EveryReaderRejectsEveryCorruption) {
  for (const CorpusEntry &Entry : corruptCorpus()) {
    SCOPED_TRACE(Entry.Name);
    const std::string Path = writeTempFile(
        std::string("pacer_corrupt_") + Entry.Name, Entry.Bytes);
    // Tiny stream window so record validation happens across refills.
    const std::string Error = expectEveryReaderAgrees(Path, 2);
    EXPECT_EQ(Error.rfind(Path + ": ", 0), 0u) << Error;
    std::remove(Path.c_str());
  }
}

TEST(TraceCorruptionTest, CorpusBaseImageIsAccepted) {
  // The corpus is only meaningful if the uncorrupted image passes
  // everywhere; guard against the generator itself drifting.
  const Trace T = baseTrace();
  std::string Path =
      writeTempFile("pacer_corrupt_base_ok", binaryTraceImage(T));

  TraceParseResult Buffered = readTraceFile(Path);
  ASSERT_TRUE(Buffered.Ok) << Buffered.Error;
  EXPECT_EQ(Buffered.T.size(), T.size());

  TraceView View = TraceView::open(Path);
  ASSERT_TRUE(View.ok()) << View.error();
  EXPECT_EQ(View.actions().size(), T.size());

  StreamingTraceReader Stream(Path, 2);
  size_t Streamed = 0;
  while (!Stream.done()) {
    TraceSpan Chunk = Stream.next();
    ASSERT_TRUE(Stream.ok()) << Stream.error();
    Streamed += Chunk.size();
  }
  EXPECT_EQ(Streamed, T.size());
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, EmptyAndGarbageFilesRejectCleanly) {
  // Not valid in either format: empty file, pure garbage (classifies as
  // text), a text header followed by garbage, and well-formed lines whose
  // lock or variable is "-" (InvalidId).
  const struct {
    const char *Name;
    const char *Bytes;
  } Cases[] = {
      {"empty", ""},
      {"garbage_text", "not a trace at all\n"},
      {"text_bad_body", "pacer-trace v1 2\nrd 0 1 2\nbogus line here\n"},
      {"text_missing_lock", "pacer-trace v1 2\nacq 0 - -\nrel 0 - -\n"},
      {"text_missing_var", "pacer-trace v1 2\nwr 0 - 1\nwr 1 - 2\n"},
  };
  for (const auto &Case : Cases) {
    SCOPED_TRACE(Case.Name);
    const std::string Path = writeTempFile(
        std::string("pacer_corrupt_") + Case.Name, Case.Bytes);
    const std::string Error = expectEveryReaderAgrees(Path, 4);
    EXPECT_EQ(Error.rfind(Path + ": ", 0), 0u) << Error;
    std::remove(Path.c_str());
  }
}

/// A legal trace with the shapes the segmenter treats specially, over
/// \p Local, a variable the escape-analysis filter drops (so under
/// ElideLocalAccesses the replayed trace's indices differ from the
/// file's).
Trace segmenterShapesTrace(VarId Local) {
  return TraceBuilder()
      .fork(0, 1)      // 0: thread 0's first sight.
      .write(0, Local) // 1
      .read(0, 5)      // 2
      .acq(1, 3)       // 3: thread 1's first sight, opens a pair run.
      .rel(1, 3)       // 4
      .acq(1, 3)       // 5
      .rel(1, 3)       // 6
      .write(1, 6)     // 7: just after the pair run.
      .read(1, Local)  // 8
      .fork(0, 2)      // 9
      .read(0, 5)      // 10: an access run opens.
      .read(2, 6)      // 11: thread 2's first sight, inside the run.
      .write(2, 7)     // 12: just after that first sight.
      .read(2, 8)      // 13
      .exit(2)         // 14
      .join(0, 2)      // 15
      .exit(1)         // 16
      .join(0, 1)      // 17
      .write(0, 9)     // 18
      .exit(0)         // 19: the last record.
      .take();
}

TEST(TraceCorruptionTest, EveryAnalysisPathGivesTheViewsDiagnostic) {
  const CompiledWorkload &Workload = flatSiteWorkload();
  const VarId Local = Workload.localVar(0, 0);
  ASSERT_TRUE(Workload.isLocalVar(Local));
  const Trace Base = segmenterShapesTrace(Local);

  const struct {
    const char *Name;
    Action (*Corrupt)(Action);
  } Corruptions[] = {
      {"bad_kind_byte",
       [](Action A) {
         A.Kind = static_cast<ActionKind>(0xEE);
         return A;
       }},
      {"fork_tid_out_of_range",
       [](Action A) { return Action{ActionKind::Fork, A.Tid, 0xFFFFFFFEu}; }},
      {"join_tid_out_of_range",
       [](Action A) { return Action{ActionKind::Join, A.Tid, 0xFFFFFFFEu}; }},
      {"read_missing_target",
       [](Action A) {
         return Action{ActionKind::Read, A.Tid, InvalidId, 42};
       }},
      {"write_missing_target",
       [](Action A) {
         return Action{ActionKind::Write, A.Tid, InvalidId, 42};
       }},
      {"acquire_missing_target",
       [](Action A) { return Action{ActionKind::Acquire, A.Tid, InvalidId}; }},
      {"volatile_write_missing_target",
       [](Action A) {
         return Action{ActionKind::VolatileWrite, A.Tid, InvalidId};
       }},
      {"read_tombstone_target",
       [](Action A) {
         return Action{ActionKind::Read, A.Tid, InvalidId - 1, 42};
       }},
  };
  const size_t Positions[] = {0, 12, 7, Base.size() - 1};
  const DetectorSetup Setups[] = {pacerSetup(0.03), fastTrackSetup(),
                                  literaceSetup()};

  // Every path analyses the uncorrupted trace cleanly, or the rejections
  // below would prove nothing.
  auto ForEachPath = [&](auto &&Check) {
    for (const DetectorSetup &Setup : Setups)
      for (unsigned Shards : {1u, 4u, 0u})
        for (bool Stream : {false, true})
          for (bool Elide : {false, true}) {
            AnalysisRequest Request;
            Request.Setup = Setup;
            Request.Setup.Shards = Shards;
            Request.Setup.ElideLocalAccesses = Elide;
            Request.Stream = Stream;
            Request.StreamWindow = 4;
            SCOPED_TRACE(std::string(detectorKindName(Setup.Kind)) +
                         " shards=" + std::to_string(Shards) +
                         " stream=" + std::to_string(Stream) +
                         " elide=" + std::to_string(Elide));
            Check(AnalysisSession(Workload, Request));
          }
  };
  {
    const std::string Path =
        writeTempFile("pacer_corrupt_shapes_ok", binaryTraceImage(Base));
    ForEachPath([&](const AnalysisSession &Session) {
      AnalysisResult Result = Session.analyzeFile(Path);
      EXPECT_TRUE(Result.Ok) << Result.Error;
      EXPECT_EQ(Result.TraceEvents, Base.size());
    });
    std::remove(Path.c_str());
  }

  for (const auto &Corruption : Corruptions) {
    for (size_t Pos : Positions) {
      Trace Bad = Base;
      Bad[Pos] = Corruption.Corrupt(Bad[Pos]);
      const std::string Path = writeTempFile(
          std::string("pacer_corrupt_shapes_") + Corruption.Name + "_" +
              std::to_string(Pos),
          binaryTraceImage(Bad));
      SCOPED_TRACE(std::string(Corruption.Name) + " at record " +
                   std::to_string(Pos));
      const std::string Expected = TraceView::open(Path).error();
      ASSERT_NE(Expected.find(" in record " + std::to_string(Pos)),
                std::string::npos)
          << Expected;
      ForEachPath([&](const AnalysisSession &Session) {
        AnalysisResult Result = Session.analyzeFile(Path);
        EXPECT_FALSE(Result.Ok);
        EXPECT_EQ(Result.Error, Expected);
      });
      std::remove(Path.c_str());
    }
  }
}

} // namespace
