//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared across the test suite: a race sink that collects full
/// reports, a fluent builder for hand-written traces, a dispatcher that
/// replays traces straight into a detector (no sampling controller), a
/// wrapper that pins a detector to the per-access reference loop, the one
/// comparator for two analyses of the same trace, a legality validator
/// for generated traces, and the trace-file helpers behind the corrupt-
/// input corpus and the trace fuzzer: a v2 byte image, a temp-file writer,
/// and the check that every read path agrees on a file.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_TESTS_TESTUTIL_H
#define PACER_TESTS_TESTUTIL_H

#include "core/RaceReport.h"
#include "detectors/Detector.h"
#include "runtime/AnalysisSession.h"
#include "runtime/Runtime.h"
#include "sim/Action.h"
#include "sim/StreamingTraceReader.h"
#include "sim/TraceIO.h"
#include "sim/TraceView.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace pacer::test {

/// Sink that stores every report.
class CollectingSink final : public RaceSink {
public:
  std::vector<RaceReport> Reports;

  void onRace(const RaceReport &Report) override {
    Reports.push_back(Report);
  }

  /// Normalized distinct keys of all reports.
  std::set<RaceKey> keys() const {
    std::set<RaceKey> Keys;
    for (const RaceReport &Report : Reports) {
      SiteId A = Report.FirstSite, B = Report.SecondSite;
      Keys.insert({std::min(A, B), std::max(A, B)});
    }
    return Keys;
  }

  bool empty() const { return Reports.empty(); }
  size_t size() const { return Reports.size(); }
};

/// Fluent hand-trace builder. Sites default to 100 + var id so race keys
/// are predictable in scenario tests.
class TraceBuilder {
public:
  TraceBuilder &read(ThreadId Tid, VarId Var, SiteId Site = InvalidId) {
    T.push_back({ActionKind::Read, Tid, Var, defaultSite(Var, Site)});
    return *this;
  }
  TraceBuilder &write(ThreadId Tid, VarId Var, SiteId Site = InvalidId) {
    T.push_back({ActionKind::Write, Tid, Var, defaultSite(Var, Site)});
    return *this;
  }
  TraceBuilder &acq(ThreadId Tid, LockId Lock) {
    T.push_back({ActionKind::Acquire, Tid, Lock, InvalidId});
    return *this;
  }
  TraceBuilder &rel(ThreadId Tid, LockId Lock) {
    T.push_back({ActionKind::Release, Tid, Lock, InvalidId});
    return *this;
  }
  TraceBuilder &fork(ThreadId Parent, ThreadId Child) {
    T.push_back({ActionKind::Fork, Parent, Child, InvalidId});
    return *this;
  }
  TraceBuilder &join(ThreadId Parent, ThreadId Child) {
    T.push_back({ActionKind::Join, Parent, Child, InvalidId});
    return *this;
  }
  TraceBuilder &volRead(ThreadId Tid, VolatileId Vol) {
    T.push_back({ActionKind::VolatileRead, Tid, Vol, InvalidId});
    return *this;
  }
  TraceBuilder &volWrite(ThreadId Tid, VolatileId Vol) {
    T.push_back({ActionKind::VolatileWrite, Tid, Vol, InvalidId});
    return *this;
  }
  TraceBuilder &exit(ThreadId Tid) {
    T.push_back({ActionKind::ThreadExit, Tid, InvalidId, InvalidId});
    return *this;
  }

  Trace take() { return std::move(T); }

private:
  static SiteId defaultSite(VarId Var, SiteId Site) {
    return Site == InvalidId ? 100 + Var : Site;
  }
  Trace T;
};

/// Replays \p T into \p D with no sampling controller.
inline void replayInto(Detector &D, const Trace &T) {
  Runtime RT(D);
  RT.replay(T);
}

/// Wraps a detector so both batch entry points, accessBatch and
/// accessRun, fall back to the base class's per-access read()/write()
/// loop -- the reference every batch path must match -- bypassing the
/// detector's own overrides. accessRun ignores the replay scan's write
/// count, so a miscounted run shows as a stats mismatch.
template <typename Base> class ForceDefaultBatch final : public Base {
public:
  using Base::Base;
  using Detector::accessBatch;
  void accessBatch(std::span<const Action> Batch,
                   const AccessShard &Shard) override {
    this->Detector::accessBatch(Batch, Shard);
  }
  void accessRun(std::span<const Action> Run, uint64_t) override {
    this->Detector::accessBatch(Run, AccessShard::all());
  }
};

/// DetectorStats is a flat aggregate of u64 counters; bytewise equality
/// is field equality.
inline bool sameStats(const DetectorStats &A, const DetectorStats &B) {
  return std::memcmp(&A, &B, sizeof(DetectorStats)) == 0;
}

/// \p R's sample reports, rendered and sorted: sharded replay merges them
/// replica by replica, so only the set is order-independent.
inline std::vector<std::string> sortedReports(const AnalysisResult &R) {
  std::vector<std::string> Reports;
  for (const RaceReport &Report : R.SampleReports)
    Reports.push_back(Report.str());
  std::sort(Reports.begin(), Reports.end());
  return Reports;
}

/// Expects two analyses of one trace to agree on everything deterministic:
/// races and dynamic counts, DetectorStats, the three rates, boundaries,
/// trace events, final metadata bytes and peak slot count, plus the
/// sorted sample reports when both ran at one shard count (sharded replay
/// caps reports per replica). Timings change with everything and are not
/// compared.
inline void expectSameAnalysis(const AnalysisResult &A,
                               const AnalysisResult &B,
                               const std::string &What = "") {
  ASSERT_TRUE(A.Ok) << What << ": " << A.Error;
  ASSERT_TRUE(B.Ok) << What << ": " << B.Error;
  EXPECT_EQ(A.Races, B.Races) << What;
  EXPECT_EQ(A.DynamicRaces, B.DynamicRaces) << What;
  EXPECT_TRUE(sameStats(A.Stats, B.Stats)) << What;
  EXPECT_EQ(A.EffectiveAccessRate, B.EffectiveAccessRate) << What;
  EXPECT_EQ(A.EffectiveSyncRate, B.EffectiveSyncRate) << What;
  EXPECT_EQ(A.LiteRaceEffectiveRate, B.LiteRaceEffectiveRate) << What;
  EXPECT_EQ(A.Boundaries, B.Boundaries) << What;
  EXPECT_EQ(A.TraceEvents, B.TraceEvents) << What;
  EXPECT_EQ(A.FinalMetadataBytes, B.FinalMetadataBytes) << What;
  EXPECT_EQ(A.PeakSlotCount, B.PeakSlotCount) << What;
  if (A.ResolvedShards == B.ResolvedShards) {
    EXPECT_EQ(sortedReports(A), sortedReports(B)) << What;
  }
}

/// Checks synchronization legality of a generated trace. Returns an empty
/// string if legal, else a description of the first violation.
inline std::string validateTrace(const Trace &T, uint32_t TotalThreads) {
  std::vector<int> ThreadState(TotalThreads, 0); // 0=unborn 1=live 2=done
  ThreadState[0] = 1;
  std::vector<ThreadId> LockOwner;
  auto Owner = [&LockOwner](LockId Lock) -> ThreadId & {
    if (Lock >= LockOwner.size())
      LockOwner.resize(Lock + 1, InvalidId);
    return LockOwner[Lock];
  };

  for (size_t I = 0; I != T.size(); ++I) {
    const Action &A = T[I];
    if (A.Tid >= TotalThreads)
      return "thread id out of range at " + std::to_string(I);
    if (ThreadState[A.Tid] != 1)
      return "action by non-live thread at " + std::to_string(I);
    switch (A.Kind) {
    case ActionKind::Acquire:
      if (Owner(A.Target) != InvalidId)
        return "acquire of held lock at " + std::to_string(I);
      Owner(A.Target) = A.Tid;
      break;
    case ActionKind::Release:
      if (Owner(A.Target) != A.Tid)
        return "release of unheld lock at " + std::to_string(I);
      Owner(A.Target) = InvalidId;
      break;
    case ActionKind::Fork:
      if (A.Target >= TotalThreads || ThreadState[A.Target] != 0)
        return "bad fork at " + std::to_string(I);
      ThreadState[A.Target] = 1;
      break;
    case ActionKind::Join:
      if (A.Target >= TotalThreads || ThreadState[A.Target] != 2)
        return "join of unfinished thread at " + std::to_string(I);
      break;
    case ActionKind::ThreadExit:
      ThreadState[A.Tid] = 2;
      break;
    default:
      // AwaitVolatile may legally execute before its threshold: a spin
      // expires when nothing else can run.
      break;
    }
  }
  for (ThreadId Owner : LockOwner)
    if (Owner != InvalidId)
      return "lock still held at end of trace";
  for (uint32_t Tid = 0; Tid < TotalThreads; ++Tid)
    if (ThreadState[Tid] != 2)
      return "thread never finished: " + std::to_string(Tid);
  return "";
}

/// Byte image of a well-formed v2 file for \p T, packed portably.
inline std::string binaryTraceImage(TraceSpan T) {
  std::string Bytes(BinaryTraceHeaderBytes, '\0');
  packBinaryHeader(T.size(), reinterpret_cast<unsigned char *>(&Bytes[0]));
  for (const Action &A : T) {
    unsigned char Rec[BinaryTraceRecordBytes];
    packBinaryRecord(A, Rec);
    Bytes.append(reinterpret_cast<char *>(Rec), sizeof(Rec));
  }
  return Bytes;
}

/// Writes \p Bytes to the file \p Name in the test temp dir; returns its
/// path.
inline std::string writeTempFile(const std::string &Name,
                                 const std::string &Bytes) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  return Path;
}

/// Field-wise equality of two action sequences.
inline bool sameActions(TraceSpan A, TraceSpan B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(),
                    [](const Action &X, const Action &Y) {
                      return X.Kind == Y.Kind && X.Tid == Y.Tid &&
                             X.Target == Y.Target && X.Site == Y.Site;
                    });
}

/// Reads \p Path every way the library reads a trace file --
/// readTraceFile, TraceView::open mapped and loaded, a StreamingTraceReader
/// with a window of \p Window actions, and AnalysisSession::analyzeFile in
/// its default and Stream modes at one shard -- and expects them all to
/// agree: on accepting the file, on the diagnostic when they reject it,
/// and on the actions (for the analyses, their count) when they accept
/// it. Returns readTraceFile's diagnostic, empty when it accepted.
inline std::string expectEveryReaderAgrees(const std::string &Path,
                                           size_t Window) {
  const TraceParseResult Ref = readTraceFile(Path);
  // True when both accepted, so their readings compare.
  auto SameVerdict = [&](const char *Reader, bool Ok,
                         const std::string &Error) {
    EXPECT_EQ(Ok, Ref.Ok) << Reader << " on " << Path;
    EXPECT_EQ(Error, Ref.Error) << Reader << " on " << Path;
    return Ok && Ref.Ok;
  };
  for (bool ForceBuffered : {false, true}) {
    const char *Reader =
        ForceBuffered ? "loaded TraceView" : "mapped TraceView";
    const TraceView View = TraceView::open(Path, ForceBuffered);
    if (SameVerdict(Reader, View.ok(), View.error())) {
      EXPECT_TRUE(sameActions(View.actions(), Ref.T)) << Reader;
    }
  }
  {
    StreamingTraceReader Reader(Path, Window);
    Trace Streamed;
    for (TraceSpan Chunk = Reader.next(); !Chunk.empty();
         Chunk = Reader.next())
      Streamed.insert(Streamed.end(), Chunk.begin(), Chunk.end());
    if (SameVerdict("StreamingTraceReader", Reader.ok(), Reader.error())) {
      EXPECT_TRUE(sameActions(Streamed, Ref.T)) << "StreamingTraceReader";
    }
  }
  for (bool Stream : {false, true}) {
    AnalysisRequest Request;
    Request.Setup = nullSetup();
    Request.Setup.Shards = 1;
    Request.Stream = Stream;
    Request.StreamWindow = Window;
    const AnalysisResult Result =
        AnalysisSession(flatSiteWorkload(), Request).analyzeFile(Path);
    const char *Reader = Stream ? "streamed analyzeFile" : "analyzeFile";
    if (SameVerdict(Reader, Result.Ok, Result.Error)) {
      EXPECT_EQ(Result.TraceEvents, Ref.T.size()) << Reader;
    }
  }
  return Ref.Error;
}

} // namespace pacer::test

#endif // PACER_TESTS_TESTUTIL_H
