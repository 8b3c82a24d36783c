#ifndef DEEPDIVE_UTIL_THREAD_POOL_H_
#define DEEPDIVE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace deepdive {

/// Fixed-size worker pool for data-parallel inference (the DimmWitted-style
/// execution backbone: one pool, many Gibbs/grounding shards). Tasks are
/// plain std::function<void()>; Wait() blocks until every submitted task has
/// finished, which together with the internal mutex gives the caller a
/// happens-before edge over all worker writes (so relaxed-atomic world state
/// read after Wait() is quiescent and consistent). Symmetrically, Submit
/// publishes everything the calling thread wrote before the call to the
/// worker that runs the task — both edges go through `mu_`, so data handed
/// between a ParallelFor join and a later Submit needs no fences of its own
/// (parallel_gibbs.cc's RecomputeStats documents the one place this contract
/// is load-bearing for relaxed-atomic statistics).
///
/// A pool constructed with `num_threads <= 1` starts no workers; Submit and
/// ParallelFor then run inline on the calling thread, so sequential
/// configurations pay no synchronization cost and stay deterministic.
///
/// Pass `inline_when_single = false` to force dedicated workers even for a
/// single-thread pool: Submit then never runs on the calling thread, which is
/// what background jobs (e.g. async materialization) need to return without
/// blocking.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads, bool inline_when_single = true);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (0 when running inline).
  size_t size() const { return workers_.size(); }

  /// Shards ParallelFor splits work into: max(1, size()).
  size_t shards() const { return workers_.empty() ? 1 : workers_.size(); }

  /// Enqueues a task (or runs it inline when there are no workers).
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  /// Partitions [0, n) into `shards()` contiguous ranges and runs
  /// body(shard, begin, end) for each non-empty range, blocking until all
  /// complete. Shard s always maps to the same range for a given n, so
  /// per-shard RNG streams resample the same variables every sweep.
  void ParallelFor(size_t n,
                   const std::function<void(size_t shard, size_t begin, size_t end)>& body);

  /// Hardware concurrency with a sane floor of 1.
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  /// Worker threads. The one sanctioned home of raw std::thread in src/ (the
  /// analyzer's raw-thread rule): everything else shards through a pool.
  /// Written only by the constructor and joined by the destructor; size() is
  /// safe from any thread because the vector is never resized in between.
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  Mutex mu_;
  CondVar task_ready_;
  CondVar all_done_;
  size_t in_flight_ GUARDED_BY(mu_) = 0;  // queued + running
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace deepdive

#endif  // DEEPDIVE_UTIL_THREAD_POOL_H_
