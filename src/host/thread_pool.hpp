// A small reusable thread pool with a parallel_for entry point, used by the
// multithreaded host SAT. Threads are created once and woken per batch —
// the standard fork/join worker pattern.
//
// Chunk claiming is lock-free: each batch carries its own atomic cursor and
// workers fetch-add to claim, so the pool mutex is touched only at batch
// start (publication + wakeup) and batch end (completion signal). Batch
// state lives on the heap behind a shared_ptr — a worker that wakes late
// from a previous batch still holds a valid (exhausted) batch object and
// can never claim chunks of a newer batch with a stale function pointer.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace obs {
class Counter;
class Histogram;
class Registry;
class TraceSink;
}  // namespace obs

namespace sathost {

class ThreadPool {
 public:
  /// `workers == 0` picks the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_.size() + 1; }

  /// The calling thread's lane, the trace tid its pool chunks use: i for a
  /// pool's worker thread i, 0 for every other thread.
  [[nodiscard]] static std::uint64_t lane();

  /// Runs fn(chunk_index) for chunk_index in [0, chunks), distributing
  /// chunks over the workers (the calling thread participates). Blocks
  /// until every chunk is done. fn must not throw.
  void parallel_for(std::size_t chunks,
                    const std::function<void(std::size_t)>& fn);

  /// Runs fn(worker_index) once per worker_index in [0, workers)
  /// (`workers == 0` means size()) and blocks until all return. Unlike
  /// parallel_for's short chunks, each invocation is a long-lived worker
  /// body that claims its own work (e.g. tiles from an atomic counter) and
  /// may spin on peer-published flags — nothing pool-related is locked
  /// while it runs, so a flag-spinning worker never blocks a peer on the
  /// pool mutex, and the per-chunk obs hooks are deliberately not applied.
  /// `workers` may exceed the pool size: surplus invocations run after
  /// earlier ones return, on whichever thread frees up first. Safe only
  /// for worker bodies whose inter-worker waits are deadlock-free under
  /// any degree of serialization (see src/host/sat_skss_lb.hpp).
  void run_persistent(std::size_t workers,
                      const std::function<void(std::size_t)>& fn);

  /// Opt-in observability: when `reg` is non-null every parallel_for chunk
  /// bumps host.pool.chunks and records its wall time in
  /// host.pool.chunk_us; when `trace` is non-null each chunk emits one
  /// span (tid = worker index, the calling thread is tid 0). Either may be
  /// null. Call while no batch is running; pointers are not owned and must
  /// outlive use.
  void set_obs(obs::Registry* reg, obs::TraceSink* trace);

 private:
  struct Batch;

  void submit_and_wait(std::size_t chunks,
                       const std::function<void(std::size_t)>& fn,
                       bool instrument);
  void drain(Batch& batch);
  void finish_chunk(Batch& batch);
  void worker_loop(std::uint64_t worker_index);
  void run_chunk(std::size_t chunk, const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;

  std::shared_ptr<Batch> batch_;  // published under mu_
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  obs::Counter* obs_chunks_ = nullptr;
  obs::Histogram* obs_chunk_us_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  int trace_pid_ = 0;
};

}  // namespace sathost
