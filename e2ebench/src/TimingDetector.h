//===- e2ebench/src/TimingDetector.h - Forwarding timing proxy -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Detector that forwards every hook to an inner detector and times the
/// call from outside, so the benchmark's traced run can attribute replay
/// time to the detector layer without any tracing inside the program.
/// Access batches are charged to the hot bucket while the inner detector
/// is sampling and to the cold bucket otherwise; synchronization,
/// lifecycle, recycling and sampling-period hooks go to the sync bucket.
/// The proxy's own cost (its virtual hop, the isSampling() query, the
/// clock reads and the stats mirror) is measured separately by
/// measureProxyOverhead() and deducted: from the buckets the clock-read
/// share that falls inside each span, and from the replay wall the whole
/// added cost. Replay time left after both is the runtime segmenter's.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_E2EBENCH_TIMINGDETECTOR_H
#define PACER_E2EBENCH_TIMINGDETECTOR_H

#include "detectors/Detector.h"

#include <chrono>
#include <cstdint>
#include <memory>

namespace pacer::e2e {

/// What the proxy adds to one hook over a direct call to the inner
/// detector. WindowNs is the part inside the timed span (about one clock
/// read), which the hook's bucket would otherwise be charged; CallNs is
/// the whole addition, WindowNs included.
struct HookOverhead {
  double WindowNs = 0;
  double CallNs = 0;
};

/// The proxy's cost per access hook and per sync hook.
struct ProxyOverhead {
  HookOverhead Access, Sync;
};

/// Time and call counts one proxy accumulated.
struct HookTimes {
  double HotNs = 0;
  double ColdNs = 0;
  double SyncNs = 0;
  uint64_t HotCalls = 0;
  uint64_t ColdCalls = 0;
  uint64_t SyncCalls = 0;
  /// Replay time the proxy itself added; set by deductProxy().
  double ProxyNs = 0;

  uint64_t accessCalls() const { return HotCalls + ColdCalls; }
  double totalNs() const { return HotNs + ColdNs + SyncNs; }

  /// Turns the raw spans into hook time net of the proxy: removes the
  /// clock-read share from every span and records the proxy's whole cost
  /// in ProxyNs.
  void deductProxy(const ProxyOverhead &O) {
    HotNs -= static_cast<double>(HotCalls) * O.Access.WindowNs;
    ColdNs -= static_cast<double>(ColdCalls) * O.Access.WindowNs;
    SyncNs -= static_cast<double>(SyncCalls) * O.Sync.WindowNs;
    ProxyNs = static_cast<double>(accessCalls()) * O.Access.CallNs +
              static_cast<double>(SyncCalls) * O.Sync.CallNs;
  }

  void add(const HookTimes &O) {
    HotNs += O.HotNs;
    ColdNs += O.ColdNs;
    SyncNs += O.SyncNs;
    HotCalls += O.HotCalls;
    ColdCalls += O.ColdCalls;
    SyncCalls += O.SyncCalls;
    ProxyNs += O.ProxyNs;
  }
};

class TimingDetector final : public Detector {
public:
  /// \p Sink must be the inner detector's sink (the proxy itself never
  /// reports). With \p MirrorStats the inner's DetectorStats and probe
  /// counters are copied into this object after every hook, for callers
  /// such as shardedReplay that read the non-virtual stats() of the
  /// detector they were handed.
  TimingDetector(std::unique_ptr<Detector> Inner, RaceSink &Sink,
                 HookTimes &Times, bool MirrorStats)
      : Detector(Sink), Inner(std::move(Inner)), Times(Times),
        MirrorStats(MirrorStats) {}

  Detector &inner() { return *Inner; }

  const char *name() const override { return Inner->name(); }

  void fork(ThreadId Parent, ThreadId Child) override {
    sync([&] { Inner->fork(Parent, Child); });
  }
  void join(ThreadId Parent, ThreadId Child) override {
    sync([&] { Inner->join(Parent, Child); });
  }
  void acquire(ThreadId Tid, LockId Lock) override {
    sync([&] { Inner->acquire(Tid, Lock); });
  }
  void release(ThreadId Tid, LockId Lock) override {
    sync([&] { Inner->release(Tid, Lock); });
  }
  void syncBatch(ThreadId Tid, LockId Lock, uint64_t Pairs) override {
    sync([&] { Inner->syncBatch(Tid, Lock, Pairs); });
  }
  void volatileRead(ThreadId Tid, VolatileId Vol) override {
    sync([&] { Inner->volatileRead(Tid, Vol); });
  }
  void volatileWrite(ThreadId Tid, VolatileId Vol) override {
    sync([&] { Inner->volatileWrite(Tid, Vol); });
  }
  void threadBegin(ThreadId Tid) override {
    sync([&] { Inner->threadBegin(Tid); });
  }
  void threadExit(ThreadId Tid) override {
    sync([&] { Inner->threadExit(Tid); });
  }
  size_t recycleDeadSlots() override {
    size_t Reclaimed = 0;
    sync([&] { Reclaimed = Inner->recycleDeadSlots(); });
    return Reclaimed;
  }
  void beginSamplingPeriod() override {
    sync([&] { Inner->beginSamplingPeriod(); });
  }
  void endSamplingPeriod() override {
    sync([&] { Inner->endSamplingPeriod(); });
  }

  void read(ThreadId Tid, VarId Var, SiteId Site) override {
    access([&] { Inner->read(Tid, Var, Site); });
  }
  void write(ThreadId Tid, VarId Var, SiteId Site) override {
    access([&] { Inner->write(Tid, Var, Site); });
  }
  void accessBatch(std::span<const Action> Batch,
                   const AccessShard &Shard) override {
    access([&] { Inner->accessBatch(Batch, Shard); });
  }

  bool accessAnalysisIsShardLocal() const override {
    return Inner->accessAnalysisIsShardLocal();
  }
  size_t slotCount() const override { return Inner->slotCount(); }
  size_t peakSlotCount() const override { return Inner->peakSlotCount(); }
  bool isSampling() const override { return Inner->isSampling(); }
  size_t liveMetadataBytes() const override {
    return Inner->liveMetadataBytes();
  }
  size_t accessMetadataBytes() const override {
    return Inner->accessMetadataBytes();
  }

private:
  using Clock = std::chrono::steady_clock;

  static double nsBetween(Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double, std::nano>(B - A).count();
  }

  template <typename Fn> void sync(Fn &&Call) {
    const auto Start = Clock::now();
    Call();
    Times.SyncNs += nsBetween(Start, Clock::now());
    ++Times.SyncCalls;
    mirror();
  }

  template <typename Fn> void access(Fn &&Call) {
    const bool Hot = Inner->isSampling();
    const auto Start = Clock::now();
    Call();
    (Hot ? Times.HotNs : Times.ColdNs) += nsBetween(Start, Clock::now());
    ++(Hot ? Times.HotCalls : Times.ColdCalls);
    mirror();
  }

  void mirror() {
    if (MirrorStats) {
      Stats = Inner->stats();
      Probe = Inner->probeCounters();
    }
  }

  std::unique_ptr<Detector> Inner;
  HookTimes &Times;
  bool MirrorStats;
};

/// Measures the proxy's own cost by driving proxies around NullDetectors
/// in a tight loop, against direct calls; the median of several repeats.
/// \p MirrorStats as for TimingDetector. A tight loop keeps the proxy's
/// code and data cached, so in a replay its cost may differ; the traced
/// run prints the estimate beside the measured traced - untraced wall.
ProxyOverhead measureProxyOverhead(bool MirrorStats);

} // namespace pacer::e2e

#endif // PACER_E2EBENCH_TIMINGDETECTOR_H
