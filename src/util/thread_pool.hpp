// Fixed-size thread pool with a blocking parallel_for.
//
// The routing engines (Min-Hop BFS sweeps, DFSSSP Dijkstra sweeps) are
// embarrassingly parallel across destinations/sources; parallel_for gives
// them a simple static-chunked work distribution without exposing futures to
// the callers. The pool is created on demand and reused (thread creation at
// 11k-node scale would otherwise dominate small runs).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ibvs {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers; 0 means hardware_concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs body(i) for every i in [begin, end), distributing contiguous chunks
  /// over the workers, and blocks until all iterations finished. Exceptions
  /// thrown by `body` propagate (the first one wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Like parallel_for but hands each worker a contiguous [chunk_begin,
  /// chunk_end) range, letting the body keep per-chunk scratch state.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// Number of shards parallel_for_shards() will split `total` items into:
  /// one contiguous range per worker (never more shards than items). Callers
  /// use it to pre-size per-shard result slots before fanning out.
  [[nodiscard]] std::size_t shard_count(std::size_t total) const noexcept {
    return std::min(total, size());
  }

  /// Coarse-grained fan-out: splits [begin, end) into exactly
  /// shard_count(end - begin) contiguous, balanced ranges — one task per
  /// worker instead of the 4x-oversubscribed chunks of parallel_for_chunks.
  /// `body(shard, shard_begin, shard_end)` runs once per shard; shard
  /// indices are dense in [0, shard_count). This is the DPDK-style lcore
  /// model for the sweep hot paths: per-shard scratch state is touched by
  /// exactly one worker and task-queue traffic is O(workers), not O(items).
  void parallel_for_shards(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

  /// Process-wide shared pool. Sized, in priority order, by the last
  /// set_global_threads() call, the IBVS_THREADS environment variable, or
  /// hardware_concurrency.
  static ThreadPool& global();

  /// Resizes the global pool: the current one (if any) is torn down and the
  /// next global() call builds a pool with `threads` workers. 0 restores
  /// the IBVS_THREADS/hardware default. Must not be called while another
  /// thread is inside a global-pool parallel_for — the benches use it
  /// between measurements to sweep thread counts within one process.
  static void set_global_threads(std::size_t threads);

  /// Worker count the current (or next) global pool has (resolves the
  /// override/environment/hardware chain without forcing pool creation).
  static std::size_t global_thread_count();

 private:
  void submit(std::function<void()> task);
  void worker_loop();
  /// Submits task(0) .. task(count - 1) and blocks until all finished;
  /// the first exception thrown propagates. The fan-out APIs differ only
  /// in how they map a task index to a range.
  void run_tasks(std::size_t count,
                 const std::function<void(std::size_t)>& task);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace ibvs
