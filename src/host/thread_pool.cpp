#include "host/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sathost {

namespace {
thread_local std::uint64_t t_lane = 0;  // set once by worker_loop
}  // namespace

std::uint64_t ThreadPool::lane() { return t_lane; }

// One submitted batch. Heap-allocated and shared so a worker waking late
// from an old generation holds an exhausted Batch rather than racing a new
// one; the cursor only ever grows, so a stale claim harmlessly overshoots.
struct ThreadPool::Batch {
  Batch(std::size_t n, const std::function<void(std::size_t)>& f,
        bool instrumented)
      : fn(&f), chunks(n), pending(n), instrument(instrumented) {}

  const std::function<void(std::size_t)>* fn;  // outlives the batch: the
                                               // submitter blocks on pending
  std::size_t chunks;
  std::atomic<std::size_t> cursor{0};   // next chunk to claim (may overshoot)
  std::atomic<std::size_t> pending;     // chunks not yet finished
  bool instrument;                      // apply per-chunk obs hooks
};

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread participates in parallel_for, so spawn workers−1;
  // worker i gets trace lane i+1 (the caller is lane 0).
  threads_.reserve(workers - 1);
  for (std::size_t i = 0; i + 1 < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

void ThreadPool::set_obs(obs::Registry* reg, obs::TraceSink* trace) {
  obs_chunks_ = reg != nullptr ? &reg->counter("host.pool.chunks") : nullptr;
  obs_chunk_us_ =
      reg != nullptr ? &reg->histogram("host.pool.chunk_us") : nullptr;
  trace_ = trace;
  trace_pid_ =
      trace != nullptr ? trace->register_process("host thread pool") : 0;
}

void ThreadPool::run_chunk(std::size_t chunk,
                           const std::function<void(std::size_t)>& fn) {
  if (obs_chunks_ != nullptr || trace_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    const double ts = trace_ != nullptr ? trace_->now_host_us() : 0.0;
    fn(chunk);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (obs_chunks_ != nullptr) {
      obs_chunks_->add();
      obs_chunk_us_->record(static_cast<std::uint64_t>(us + 0.5));
    }
    if (trace_ != nullptr) {
      char args[48];
      std::snprintf(args, sizeof args, "{\"chunk\":%zu}", chunk);
      trace_->complete(trace_pid_, t_lane, "chunk", "host", ts, us, args);
    }
    return;
  }
  fn(chunk);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::parallel_for(std::size_t chunks,
                              const std::function<void(std::size_t)>& fn) {
  submit_and_wait(chunks, fn, /*instrument=*/true);
}

void ThreadPool::run_persistent(std::size_t workers,
                                const std::function<void(std::size_t)>& fn) {
  submit_and_wait(workers != 0 ? workers : size(), fn, /*instrument=*/false);
}

void ThreadPool::drain(Batch& batch) {
  for (;;) {
    // Relaxed is enough: the claim carries no payload — all batch state a
    // chunk needs was published by the mutex (workers) or is caller-local.
    const std::size_t chunk =
        batch.cursor.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= batch.chunks) break;
    if (batch.instrument) {
      run_chunk(chunk, *batch.fn);
    } else {
      (*batch.fn)(chunk);
    }
    finish_chunk(batch);
  }
}

void ThreadPool::finish_chunk(Batch& batch) {
  // acq_rel: release the chunk's writes to the submitter, acquire every
  // other chunk's writes for whoever observes zero.
  if (batch.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Taking mu_ before notifying closes the check-then-sleep window in
    // submit_and_wait's predicate wait.
    std::lock_guard lock(mu_);
    done_cv_.notify_all();
  }
}

void ThreadPool::submit_and_wait(std::size_t chunks,
                                 const std::function<void(std::size_t)>& fn,
                                 bool instrument) {
  if (chunks == 0) return;
  auto batch = std::make_shared<Batch>(chunks, fn, instrument);
  {
    std::lock_guard lock(mu_);
    batch_ = batch;
    ++generation_;
  }
  // Wake only as many helpers as the batch can occupy — the caller drains
  // as lane 0, so a 1-worker run_persistent on a big pool wakes nobody
  // instead of stampeding every thread through mu_ just to find an
  // exhausted cursor. Lost wakeups are benign: worker_loop's predicate
  // re-checks the generation under the lock before sleeping, so a thread
  // that was mid-drain during the notify still picks the batch up.
  const std::size_t to_wake = std::min(chunks - 1, threads_.size());
  if (to_wake == threads_.size()) {
    work_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < to_wake; ++i) work_cv_.notify_one();
  }

  // The calling thread drains chunks too (lane/worker 0).
  drain(*batch);

  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [&] {
    return batch->pending.load(std::memory_order_acquire) == 0;
  });
  batch_.reset();
}

void ThreadPool::worker_loop(std::uint64_t worker_index) {
  t_lane = worker_index;
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      batch = batch_;
    }
    drain(*batch);
  }
}

}  // namespace sathost
