//===- runtime/ShardedReplay.cpp ------------------------------------------==//

#include "runtime/ShardedReplay.h"

#include "runtime/RaceLog.h"
#include "runtime/Runtime.h"
#include "runtime/TraceIndex.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <optional>

using namespace pacer;

namespace {

/// Everything one replica produces; heap-allocated so parallelMap can
/// move results through its slot vector cheaply.
struct ReplicaOutcome {
  RaceLog Log;
  DetectorStats Stats;
  size_t LiveBytes = 0;
  size_t AccessBytes = 0;
  size_t PeakSlots = 0;
  double EffectiveAccessRate = 0.0;
  double EffectiveSyncRate = 0.0;
  uint64_t Boundaries = 0;
};

/// Adds the counters owned by the access path -- the only counters a
/// non-zero shard contributes. Everything else (joins, copies, sync ops,
/// clock clones) is driven solely by synchronization and sampling
/// actions, which every replica processes identically; those come from
/// replica 0 alone or the merge would double-count them.
void addAccessSideStats(DetectorStats &Into, const DetectorStats &From) {
  Into.ReadSlowSampling += From.ReadSlowSampling;
  Into.ReadSlowNonSampling += From.ReadSlowNonSampling;
  Into.ReadFastNonSampling += From.ReadFastNonSampling;
  Into.WriteSlowSampling += From.WriteSlowSampling;
  Into.WriteSlowNonSampling += From.WriteSlowNonSampling;
  Into.WriteFastNonSampling += From.WriteFastNonSampling;
  Into.RacesReported += From.RacesReported;
}

} // namespace

ShardedReplayResult pacer::shardedReplay(TraceSpan T,
                                         const DetectorFactory &Factory,
                                         const ShardedReplayConfig &Config) {
  const unsigned Shards = std::max(1u, Config.Shards);
  const unsigned Jobs =
      Config.Jobs != 0 ? Config.Jobs : std::min(Shards, hardwareJobs());

  // Engage the indexed engine for genuinely sharded replays, or whenever
  // the caller went to the trouble of supplying an index (K = 1 included,
  // so tests can exercise the indexed path degenerately).
  const bool UseIndex =
      Config.UseIndex && (Shards > 1 || Config.Index != nullptr);
  const TraceIndex *Index = nullptr;
  std::optional<TraceIndex> OwnedIndex;
  if (UseIndex) {
    if (Config.Index && Config.Index->shardCount() == Shards)
      Index = Config.Index;
    else
      Index = &OwnedIndex.emplace(TraceIndex::build(T, Shards));
  }

  std::vector<std::unique_ptr<ReplicaOutcome>> Replicas =
      parallelMap(Jobs, Shards, [&](size_t Shard) {
        auto Out = std::make_unique<ReplicaOutcome>();
        std::unique_ptr<Detector> D = Factory(Out->Log);
        std::unique_ptr<SamplingController> Controller;
        if (Config.UseController)
          Controller = std::make_unique<SamplingController>(
              Config.Sampling, Config.ControllerSeed);
        if (Index) {
          Index->replayShard(T, static_cast<uint32_t>(Shard), *D,
                             Controller.get(), Config.SyncBatching);
        } else {
          Runtime RT(*D, Controller.get(), Config.SyncBatching);
          RT.replay(T, AccessShard(static_cast<uint32_t>(Shard), Shards));
        }
        Out->Stats = D->stats();
        Out->LiveBytes = D->liveMetadataBytes();
        Out->AccessBytes = D->accessMetadataBytes();
        Out->PeakSlots = D->peakSlotCount();
        if (Controller) {
          Out->EffectiveAccessRate = Controller->effectiveAccessRate();
          Out->EffectiveSyncRate = Controller->effectiveSyncRate();
          Out->Boundaries = Controller->boundaryCount();
        }
        return Out;
      });

  ShardedReplayResult Result;
  const ReplicaOutcome &First = *Replicas.front();
  Result.Stats = First.Stats;
  Result.FinalMetadataBytes = First.LiveBytes;
  Result.PeakSlotCount = First.PeakSlots;
  Result.EffectiveAccessRate = First.EffectiveAccessRate;
  Result.EffectiveSyncRate = First.EffectiveSyncRate;
  Result.Boundaries = First.Boundaries;

  for (size_t Shard = 0; Shard < Replicas.size(); ++Shard) {
    const ReplicaOutcome &Out = *Replicas[Shard];
    if (Shard != 0) {
      addAccessSideStats(Result.Stats, Out.Stats);
      Result.FinalMetadataBytes += Out.AccessBytes;
    }
    Result.DynamicRaces += Out.Log.dynamicCount();
    for (const auto &[Key, Count] : Out.Log.counts())
      Result.Races[Key] += Count;
    for (const RaceReport &Report : Out.Log.sampleReports()) {
      if (Result.SampleReports.size() >= 32)
        break;
      Result.SampleReports.push_back(Report);
    }
  }
  return Result;
}
