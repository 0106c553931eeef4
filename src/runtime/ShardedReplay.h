//===- runtime/ShardedReplay.h - Intra-trial parallel replay ---*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shards one trace replay across concurrent detector replicas, cutting
/// single-trial latency (the ROADMAP item PR 1's trial-level parallelism
/// left open) while keeping the result bit-identical to sequential replay.
///
/// Design: variables are partitioned by VarId % Shards. Each shard runs a
/// full detector replica that processes every synchronization action,
/// thread-lifecycle event, and sampling-period boundary, but analyses
/// only the data accesses it owns. Two engines produce that view:
///
///  - the *indexed* engine (default): a TraceIndex partitions the trace
///    once into the shared sync skeleton and per-shard owned-access runs,
///    and each replica walks only the skeleton plus its runs -- O(sync +
///    owned accesses) per replica (see runtime/TraceIndex.h). Detectors
///    whose analysis is not shard-local (LiteRace) transparently fall
///    back to the filtered full stream inside replayShard.
///
///  - the *full-scan* engine (UseIndex = false): each replica re-scans
///    the whole trace through Runtime::replay with an AccessShard filter,
///    O(trace) per replica. Kept as the reference implementation; the
///    two engines are bit-identical for every detector and shard count.
///
/// Replica 0 holds the canonical synchronization-side state: because the sampling
/// controller's boundary schedule is a pure function of the action-kind
/// stream (never of detector state), and threadBegin pins per-thread
/// state creation to first sight in the trace, every replica observes
/// identical synchronization clocks, identical sbegin/send schedules, and
/// identical sampling decisions. Per-variable metadata for any given
/// variable lives on exactly one replica, so replicas share nothing and
/// run with no synchronization at all.
///
/// Merge (deterministic, in shard order):
///  - access-side stats (read/write path counters, races reported) sum
///    across replicas; sync-side stats come from replica 0 alone;
///  - race counts sum per distinct key; dynamic totals sum;
///  - metadata bytes = replica 0's liveMetadataBytes() (sync side plus
///    its own variables) + other replicas' accessMetadataBytes().
///
//===----------------------------------------------------------------------===//

#ifndef PACER_RUNTIME_SHARDEDREPLAY_H
#define PACER_RUNTIME_SHARDEDREPLAY_H

#include "detectors/Detector.h"
#include "runtime/SamplingController.h"
#include "runtime/TraceIndex.h"
#include "sim/Action.h"

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace pacer {

/// Builds one detector replica reporting into \p Sink. Must be a pure
/// function: every invocation returns an identically configured and
/// identically seeded detector.
using DetectorFactory =
    std::function<std::unique_ptr<Detector>(RaceSink &Sink)>;

/// Configuration for one sharded replay.
struct ShardedReplayConfig {
  /// Number of variable shards (detector replicas). 1 degenerates to a
  /// plain sequential replay.
  unsigned Shards = 1;
  /// Worker concurrency for the replicas; 0 = one job per shard (capped
  /// at the hardware).
  unsigned Jobs = 0;
  /// When true, each replica drives an identically seeded
  /// SamplingController built from \p Sampling and \p ControllerSeed.
  bool UseController = false;
  SamplingConfig Sampling;
  uint64_t ControllerSeed = 0;
  /// Replay through a TraceIndex (O(sync + owned accesses) per replica)
  /// instead of full-trace re-scans. Only engages when Shards > 1 or an
  /// \p Index is supplied, so the single-shard default path is untouched.
  bool UseIndex = true;
  /// Optional caller-built index for \p T with shardCount() == Shards;
  /// reusing one index across trials and detector configs amortizes the
  /// build. Ignored (a private index is built) on a shard-count mismatch.
  const TraceIndex *Index = nullptr;
  /// Coalesce same-thread acquire/release pair runs in the sync skeleton
  /// into Detector::syncBatch() calls (both engines). Every replica
  /// replays the full skeleton, so the collapse compounds with Shards;
  /// results are bit-identical either way.
  bool SyncBatching = true;
};

/// Merged outcome of a sharded replay; field for field comparable with a
/// sequential replay of the same trace.
struct ShardedReplayResult {
  /// Dynamic count per distinct (site-pair) race.
  std::unordered_map<RaceKey, uint64_t> Races;
  /// Total dynamic races.
  uint64_t DynamicRaces = 0;
  /// Merged operation counters (see file comment for the merge rule).
  DetectorStats Stats;
  /// Merged end-of-trace metadata bytes.
  size_t FinalMetadataBytes = 0;
  /// High-water thread-slot count, from replica 0 (slot allocation and
  /// recycling are sync-side and replica-identical).
  size_t PeakSlotCount = 0;
  /// Controller measurements from replica 0 (zero without a controller).
  double EffectiveAccessRate = 0.0;
  double EffectiveSyncRate = 0.0;
  uint64_t Boundaries = 0;
  /// Up to 32 full reports for diagnostics, concatenated in shard order
  /// (the per-report set matches sequential replay; the order of reports
  /// from different shards does not).
  std::vector<RaceReport> SampleReports;
  /// Always zero (see Detector::ProbeCounters); kept for the end-to-end
  /// benchmark, which reads it.
  Detector::ProbeCounters Probe;
};

/// Replays \p T through Config.Shards concurrent detector replicas built
/// by \p Factory and merges their results deterministically. For every
/// detector whose accessBatch overrides honour the AccessShard contract,
/// the merged result is bit-identical to sequential replay for any shard
/// count. \p T may be a memory-mapped TraceView span: analysis never
/// materializes a Trace.
ShardedReplayResult shardedReplay(TraceSpan T,
                                  const DetectorFactory &Factory,
                                  const ShardedReplayConfig &Config);

} // namespace pacer

#endif // PACER_RUNTIME_SHARDEDREPLAY_H
