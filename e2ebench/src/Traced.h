//===- e2ebench/src/Traced.h - analyzeFile rebuilt with timing -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's replay pipelines, rebuilt from the public pieces
/// AnalysisSession composes (TraceView::open, TraceIndex, makeDetector,
/// SamplingController, Runtime::replay / shardedReplay,
/// StreamingTraceReader) with spans around each layer call and every
/// detector wrapped in a TimingDetector. Their outcomes must equal the
/// untraced AnalysisSession results exactly; the caller checks that.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_E2EBENCH_TRACED_H
#define PACER_E2EBENCH_TRACED_H

#include "Bench.h"
#include "TimingDetector.h"

#include <string>
#include <vector>

namespace pacer::e2e {

struct TracedFile {
  bool Ok = true;
  std::string Error;
  Outcome Result;
  double LoadMs = 0;   ///< TraceView::open.
  double IndexMs = 0;  ///< Auto-shard count + TraceIndex::build.
  double ReplayMs = 0; ///< Runtime::replay or shardedReplay.
  double WallMs = 0;   ///< All of the above, as analyzeFile's wall.
  HookTimes Hooks;     ///< Summed over shard replicas, net of the proxy.
  std::vector<HookTimes> Replicas; ///< One per shard replica (one if K = 1).
  unsigned Shards = 1;
  size_t MetadataBytes = 0;
  size_t PeakSlots = 0;
  uint64_t ProbeVectorResolved = 0;
  uint64_t ProbeScalarFallback = 0;
};

/// analyzeFile's in-memory path for a binary trace, traced. Hook times
/// are net of \p Plain (sequential replay) or \p Mirrored (sharded
/// replicas, whose proxies mirror stats), from measureProxyOverhead().
TracedFile tracedAnalyzeFile(const std::string &Path,
                             const AnalysisRequest &Request,
                             const ProxyOverhead &Plain,
                             const ProxyOverhead &Mirrored);

struct TracedStream {
  bool Ok = true;
  std::string Error;
  Outcome Result;
  double ReadMs = 0; ///< Time inside StreamingTraceReader::next.
};

/// analyzeStream over a StreamingTraceReader of \p Path, traced.
TracedStream tracedAnalyzeStream(const std::string &Path,
                                 const AnalysisRequest &Request);

} // namespace pacer::e2e

#endif // PACER_E2EBENCH_TRACED_H
