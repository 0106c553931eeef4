//===- detectors/Detector.h - Dynamic race-detector interface --*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation interface every detector implements. These are
/// exactly the analysis hooks a compiler pass (the paper uses Jikes RVM's
/// baseline and optimizing compilers) inserts: synchronization actions
/// (acquire, release, fork, join, volatile read/write) and data-variable
/// reads and writes, each carrying its static program site. The sampling
/// controller additionally delivers sbegin/send actions to detectors that
/// sample (PACER).
///
/// Detector statistics mirror the operation classification of the paper's
/// Table 3: slow (O(n)) vs fast (O(1)) vector-clock joins, deep vs shallow
/// copies, and slow-path vs fast-path read/write instrumentation, each
/// split by sampling vs non-sampling period.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_DETECTORS_DETECTOR_H
#define PACER_DETECTORS_DETECTOR_H

#include "core/Ids.h"
#include "core/RaceReport.h"
#include "sim/Action.h"

#include <cstdint>
#include <span>

namespace pacer {

/// Ownership filter for sharded replay. Shard \p Index of \p Count owns
/// variable v iff v % Count == Index; a default-constructed shard (Count
/// <= 1) owns every variable, which is the sequential-replay case. The
/// partition is by VarId only, so per-variable metadata for a given
/// variable lives on exactly one shard.
class AccessShard {
public:
  constexpr AccessShard() = default;
  constexpr AccessShard(uint32_t Index, uint32_t Count)
      : Index(Index), Count(Count) {}

  /// The shard that owns everything (sequential replay).
  static constexpr AccessShard all() { return {}; }

  constexpr bool ownsAll() const { return Count <= 1; }
  constexpr bool owns(VarId Var) const {
    return Count <= 1 || Var % Count == Index;
  }

  constexpr uint32_t index() const { return Index; }
  constexpr uint32_t count() const { return Count; }

private:
  uint32_t Index = 0;
  uint32_t Count = 1;
};

/// Operation counters in the layout of the paper's Table 3.
struct DetectorStats {
  // Vector-clock joins (lock acquire, thread join, volatile read, fork).
  uint64_t SlowJoinsSampling = 0;
  uint64_t FastJoinsSampling = 0;
  uint64_t SlowJoinsNonSampling = 0;
  uint64_t FastJoinsNonSampling = 0;

  // Vector-clock copies (lock release, volatile write).
  uint64_t DeepCopiesSampling = 0;
  uint64_t ShallowCopiesSampling = 0;
  uint64_t DeepCopiesNonSampling = 0;
  uint64_t ShallowCopiesNonSampling = 0;

  // Read instrumentation. During sampling every read takes the slow path.
  uint64_t ReadSlowSampling = 0;
  uint64_t ReadSlowNonSampling = 0;
  uint64_t ReadFastNonSampling = 0;

  // Write instrumentation.
  uint64_t WriteSlowSampling = 0;
  uint64_t WriteSlowNonSampling = 0;
  uint64_t WriteFastNonSampling = 0;

  /// Dynamic races reported.
  uint64_t RacesReported = 0;

  /// Synchronization operations analysed (all kinds).
  uint64_t SyncOps = 0;

  /// Copy-on-write clones of shared clock payloads.
  uint64_t ClockClones = 0;

  uint64_t totalJoins() const {
    return SlowJoinsSampling + FastJoinsSampling + SlowJoinsNonSampling +
           FastJoinsNonSampling;
  }
  uint64_t totalCopies() const {
    return DeepCopiesSampling + ShallowCopiesSampling +
           DeepCopiesNonSampling + ShallowCopiesNonSampling;
  }
  uint64_t totalReads() const {
    return ReadSlowSampling + ReadSlowNonSampling + ReadFastNonSampling;
  }
  uint64_t totalWrites() const {
    return WriteSlowSampling + WriteSlowNonSampling + WriteFastNonSampling;
  }

  /// Accesses analysed on the hot (sampling / full-analysis) path. For a
  /// sampling detector this is the r-proportional slice of the trace; for
  /// FastTrack and GENERIC it is every access.
  uint64_t hotAccesses() const { return ReadSlowSampling + WriteSlowSampling; }

  /// Accesses handled on the cold (non-sampling) path: the inlined
  /// fast-path returns plus the non-sampling slow path that discards
  /// metadata. At PACER's operating rates this is >97% of the trace, so
  /// its per-event cost *is* the overhead curve (Figures 8-9).
  uint64_t coldAccesses() const {
    return ReadSlowNonSampling + ReadFastNonSampling + WriteSlowNonSampling +
           WriteFastNonSampling;
  }
};

/// Abstract dynamic race detector.
class Detector {
public:
  explicit Detector(RaceSink &Sink) : Sink(Sink) {}
  virtual ~Detector();

  Detector(const Detector &) = delete;
  Detector &operator=(const Detector &) = delete;

  /// Short human-readable algorithm name.
  virtual const char *name() const = 0;

  // --- Synchronization actions (always analysed in full) ---

  /// Thread \p Parent forks thread \p Child.
  virtual void fork(ThreadId Parent, ThreadId Child) = 0;

  /// Thread \p Parent joins (blocks on termination of) thread \p Child.
  virtual void join(ThreadId Parent, ThreadId Child) = 0;

  /// Thread \p Tid acquires lock \p Lock.
  virtual void acquire(ThreadId Tid, LockId Lock) = 0;

  /// Thread \p Tid releases lock \p Lock.
  virtual void release(ThreadId Tid, LockId Lock) = 0;

  /// Analyses \p Pairs consecutive acquire(Tid, Lock); release(Tid, Lock)
  /// pairs with no other action of any thread in between -- the shape a
  /// tight lock-protected loop leaves in the trace, and what the runtime's
  /// sync-run coalescer extracts. The default replays the per-event loop;
  /// overrides must be observationally identical to it (same stats, same
  /// metadata, same clock values), which is possible in O(1) because after
  /// the first pair each further join finds the lock clock already at the
  /// thread's frontier. Every sharded replica replays the full sync
  /// skeleton, so this is the per-shard fixed cost that compounds with
  /// --shards.
  virtual void syncBatch(ThreadId Tid, LockId Lock, uint64_t Pairs);

  /// Thread \p Tid reads volatile \p Vol.
  virtual void volatileRead(ThreadId Tid, VolatileId Vol) = 0;

  /// Thread \p Tid writes volatile \p Vol.
  virtual void volatileWrite(ThreadId Tid, VolatileId Vol) = 0;

  // --- Data accesses ---

  /// Thread \p Tid reads variable \p Var at program site \p Site.
  virtual void read(ThreadId Tid, VarId Var, SiteId Site) = 0;

  /// Thread \p Tid writes variable \p Var at program site \p Site.
  virtual void write(ThreadId Tid, VarId Var, SiteId Site) = 0;

  /// Analyses one *epoch* of the trace: a maximal run of data accesses
  /// with no synchronization action or sampling-period boundary inside
  /// it, so per-access analysis state is loop-invariant across the batch.
  /// Only accesses whose variable \p Shard owns are analysed; the default
  /// dispatches each owned access to read()/write(). Overrides must be
  /// observationally identical to that loop (same reports, same stats,
  /// same metadata) for every shard value.
  virtual void accessBatch(std::span<const Action> Batch,
                           const AccessShard &Shard);

  /// Sequential convenience: analyse the whole batch.
  void accessBatch(std::span<const Action> Batch) {
    accessBatch(Batch, AccessShard::all());
  }

  /// Analyses one whole access run as the sequential replay scan found
  /// it: no sampling-period boundary inside, every access analysed, and
  /// \p Writes of its accesses writes (the scan counts them from the kind
  /// bytes it reads to find the run). The default forwards to
  /// accessBatch(); an override must be observationally identical to it.
  /// PACER's is: outside sampling, with no metadata, the count is all the
  /// run needs. The runtime calls it only when takesRunWriteCounts() is
  /// true; runs split at a boundary or filtered by a shard still arrive
  /// through accessBatch().
  virtual void accessRun(std::span<const Action> Run, uint64_t Writes) {
    (void)Writes;
    accessBatch(Run, AccessShard::all());
  }

  /// True if this detector overrides accessRun() to use the write count.
  /// The runtime sends whole runs through accessRun() only then; every
  /// other detector gets them straight through accessBatch(), without
  /// the forwarding call, which slowed FastTrack's replay measurably.
  bool takesRunWriteCounts() const { return TakesRunWriteCounts; }

  /// True iff analysing an owned access depends only on previously
  /// analysed *owned* accesses and synchronization actions -- never on
  /// accesses some other shard owns. When true, a sharded replica may be
  /// driven from just its owned-access runs (TraceIndex::replayShard's
  /// fast path); when false (LiteRace, whose code-indexed sampler
  /// advances for every access in the trace), the replica must observe
  /// the full access stream through a filtering accessBatch.
  virtual bool accessAnalysisIsShardLocal() const { return true; }

  // --- Thread lifecycle ---

  /// Thread \p Tid is about to perform its first action of the trace.
  /// Delivered by the runtime before that action (and before any fork by
  /// the thread itself); detectors use it to materialize per-thread state
  /// at a point that is a pure function of the trace, so every shard
  /// replica sees thread slots appear at identical times regardless of
  /// which accesses it owns.
  virtual void threadBegin(ThreadId Tid) { (void)Tid; }

  /// Thread \p Tid terminates (the scheduler's ThreadExit marker).
  virtual void threadExit(ThreadId Tid) { (void)Tid; }

  // --- Thread-slot recycling (accordion clocks; see core/SlotRecycler.h)

  /// Reclaims any dead thread slots whose final clocks every live thread
  /// dominates, and compacts clocks when enough slots have been freed.
  /// The runtime invokes this after every join and thread exit (the only
  /// points where a slot can die), so recycling behaviour is a pure
  /// function of the trace's synchronization prefix and is identical
  /// across replay engines and shard counts. Returns the number of slots
  /// reclaimed; detectors without recycling return 0.
  virtual size_t recycleDeadSlots() { return 0; }

  /// Number of thread slots currently backing clocks and metadata
  /// vectors. Without recycling this equals the number of threads ever
  /// seen; with recycling it is bounded by the live-thread high-water
  /// mark between compactions.
  virtual size_t slotCount() const { return 0; }

  /// High-water slotCount() over the run (compaction never lowers it).
  virtual size_t peakSlotCount() const { return slotCount(); }

  // --- Sampling actions (no-ops for non-sampling detectors) ---

  /// The sbegin() action: the analysis enters a sampling period.
  virtual void beginSamplingPeriod() {}

  /// The send() action: the analysis leaves a sampling period.
  virtual void endSamplingPeriod() {}

  /// True while in a sampling period. Non-sampling detectors analyse
  /// everything and report true.
  virtual bool isSampling() const { return true; }

  // --- Introspection ---

  /// Live analysis metadata in bytes: per-variable entries plus
  /// deduplicated synchronization clock payloads. Used by the Figure 10
  /// space experiment.
  virtual size_t liveMetadataBytes() const = 0;

  /// The per-variable slice of liveMetadataBytes(): bytes attributable to
  /// access metadata alone, independent of container capacity, so the
  /// value is additive across a variable partition. Invariant for
  /// detectors that track accesses: liveMetadataBytes() == sync-side
  /// bytes + accessMetadataBytes(). Sharded replay merges space
  /// measurements as replica 0's live bytes plus the other replicas'
  /// access bytes.
  virtual size_t accessMetadataBytes() const { return 0; }

  /// Operation counters.
  const DetectorStats &stats() const { return Stats; }

  /// Tallies of a var-table gather probe that no detector runs any more:
  /// they always read zero. They stay only because the end-to-end
  /// benchmark (e2ebench/) compiles against them, and go when it next
  /// changes.
  struct ProbeCounters {
    uint64_t VectorResolved = 0; ///< Always zero.
    uint64_t ScalarFallback = 0; ///< Always zero.
  };
  const ProbeCounters &probeCounters() const { return Probe; }
  void addProbeCounters(const ProbeCounters &Other) {
    Probe.VectorResolved += Other.VectorResolved;
    Probe.ScalarFallback += Other.ScalarFallback;
  }

protected:
  /// Reports a race and bumps the counter; detectors then continue,
  /// updating metadata as if the execution were race free.
  void reportRace(const RaceReport &Report) {
    ++Stats.RacesReported;
    Sink.onRace(Report);
  }

  RaceSink &Sink;
  /// Set by a detector whose accessRun() override uses the write count.
  bool TakesRunWriteCounts = false;
  DetectorStats Stats;
  ProbeCounters Probe;
};

/// Detector that analyses nothing; the baseline for overhead experiments.
class NullDetector final : public Detector {
public:
  explicit NullDetector(RaceSink &Sink) : Detector(Sink) {}

  const char *name() const override { return "null"; }
  void fork(ThreadId, ThreadId) override {}
  void join(ThreadId, ThreadId) override {}
  void acquire(ThreadId, LockId) override {}
  void release(ThreadId, LockId) override {}
  void syncBatch(ThreadId, LockId, uint64_t) override {}
  void volatileRead(ThreadId, VolatileId) override {}
  void volatileWrite(ThreadId, VolatileId) override {}
  void read(ThreadId, VarId, SiteId) override {}
  void write(ThreadId, VarId, SiteId) override {}
  // Empty batch hooks too: the overhead experiments divide by this
  // detector's replay time, which must take the batch path every real
  // detector takes.
  using Detector::accessBatch;
  void accessBatch(std::span<const Action>, const AccessShard &) override {}
  size_t liveMetadataBytes() const override { return 0; }
};

} // namespace pacer

#endif // PACER_DETECTORS_DETECTOR_H
