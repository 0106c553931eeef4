//===- support/ThreadPool.h - Deterministic trial parallelism --*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool and parallelFor/parallelMap helpers for the
/// experiment harness. Every trial of a detection, overhead, or space
/// experiment is a pure function of (workload, setup, seed), so trials can
/// run concurrently; results are written into an index-addressed slot and
/// aggregated in index (seed) order afterwards, which makes parallel
/// output bit-identical to the serial loop it replaces. There is no work
/// stealing and no reduction tree: determinism comes entirely from the
/// ordered aggregation, and scheduling is a plain atomic cursor.
///
/// With Jobs <= 1 (the default everywhere) the helpers degenerate to an
/// inline serial loop on the calling thread -- no threads are created, so
/// single-job behaviour is exactly the pre-parallel harness.
///
/// The pool is built for coarse tasks (a trial is milliseconds to seconds
/// of replay); per-batch dispatch costs a couple of mutex acquisitions and
/// one atomic add per task, which is noise at that granularity.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SUPPORT_THREADPOOL_H
#define PACER_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pacer {

/// Fixed set of worker threads executing indexed task batches.
class ThreadPool {
public:
  /// Starts \p Workers threads. Zero workers is valid: run() then executes
  /// inline on the calling thread.
  explicit ThreadPool(unsigned Workers);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Joins all workers.
  ~ThreadPool();

  /// Number of worker threads (0 means inline execution).
  unsigned workerCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Runs Fn(Index) for every Index in [0, Count) and blocks until all
  /// complete. Indices are claimed from an atomic cursor, so tasks run in
  /// roughly ascending order but on arbitrary workers; the calling thread
  /// works the cursor too. Reusable: run() may be called any number of
  /// times, from one controlling thread at a time. When exceptions are
  /// enabled, the lowest failing index's exception is rethrown on the
  /// caller after the batch drains -- the same exception the serial loop
  /// would have surfaced first.
  void run(size_t Count, const std::function<void(size_t)> &Fn);

private:
  /// All state of one run() call. Workers hold a shared_ptr snapshot, so a
  /// worker that wakes late (or is still draining its claim loop when the
  /// batch completes) can only ever touch its own batch's cursor, never a
  /// subsequently started batch's.
  struct Batch {
    const std::function<void(size_t)> *Fn = nullptr;
    size_t Count = 0;
    std::atomic<size_t> NextIndex{0};
    std::atomic<size_t> Remaining{0};
#if defined(__cpp_exceptions)
    std::mutex ErrorMutex;
    size_t FirstErrorIndex = 0;
    std::exception_ptr FirstError;
#endif
  };

  /// Claims and executes tasks from \p B until the cursor is exhausted.
  void processBatch(Batch &B);

  void workerLoop();

  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable BatchDone;
  std::shared_ptr<Batch> Current;
  uint64_t Generation = 0;
  bool Stopping = false;
};

/// Number of jobs requested via the PACER_JOBS environment variable;
/// 1 (serial) when unset, empty, or unparsable. Clamped to [1, 256].
unsigned defaultJobs();

/// std::thread::hardware_concurrency with a floor of 1.
unsigned hardwareJobs();

/// Runs Fn(I) for I in [0, Count) on \p Jobs-way concurrency (a transient
/// pool of Jobs - 1 workers plus the calling thread's share of the
/// cursor). Jobs <= 1 runs the loop inline.
void parallelFor(unsigned Jobs, size_t Count,
                 const std::function<void(size_t)> &Fn);

/// Maps [0, Count) through \p Fn into an index-ordered result vector.
/// Aggregating the returned vector front to back reproduces the serial
/// loop's result exactly, whatever the interleaving was.
template <typename FnT>
auto parallelMap(unsigned Jobs, size_t Count, FnT Fn)
    -> std::vector<decltype(Fn(size_t(0)))> {
  std::vector<decltype(Fn(size_t(0)))> Results(Count);
  parallelFor(Jobs, Count, [&](size_t I) { Results[I] = Fn(I); });
  return Results;
}

} // namespace pacer

#endif // PACER_SUPPORT_THREADPOOL_H
