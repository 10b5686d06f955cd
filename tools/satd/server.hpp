// satd server core: TCP listener + admission queue + batching dispatcher
// + localhost HTTP shim for /metrics and /healthz.
//
// Two threads, not counting the engine pool (docs/satd.md "Inside the
// daemon"): the loop thread owns every socket and never blocks on one, and
// the dispatcher runs each same-shape batch through ONE
// sat::compute_sat_batch_into call on the server-owned ThreadPool
// (Options::pool), whose only caller it is, so engine passes need no lock.
// The dispatcher hands its replies to the loop through a mutex-guarded
// outbox. Admission is a non-blocking try_push: a full queue turns into an
// immediate kOverloaded reply — the explicit-backpressure contract the
// tests pin.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "tools/satd/protocol.hpp"
#include "tools/satd/queue.hpp"

namespace satd {

struct ServerOptions {
  /// TCP port for the binary protocol; 0 binds an ephemeral port
  /// (Server::port() reports the choice). Always 127.0.0.1.
  std::uint16_t port = 0;
  /// Port for the HTTP shim (/metrics, /healthz); 0 = ephemeral.
  std::uint16_t http_port = 0;
  /// Admission queue bound: jobs accepted but not yet dispatched. A full
  /// queue rejects with ErrorCode::kOverloaded.
  std::size_t queue_cap = 64;
  /// Max same-shape jobs coalesced into one engine pass.
  std::size_t batch_max = 8;
  /// Workers of the shared engine pool (0 = hardware concurrency).
  std::size_t cpu_threads = 0;
  /// Reject frames whose frame_len exceeds this many bytes.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Metrics sink. Null ⇒ the server owns a private registry (the HTTP
  /// shim serves whichever is active).
  obs::Registry* metrics = nullptr;
  /// Trace sink for per-request async spans ('b'/'e', id = trace_id).
  /// Null ⇒ no tracing.
  obs::TraceSink* trace = nullptr;
  /// Test hook: when set, the dispatcher calls this at the top of its
  /// loop, *before* popping a batch. A hook that blocks freezes dispatch,
  /// letting tests fill the queue deterministically.
  std::function<void()> dispatch_hook;
};

/// A connection whose queued, unsent replies exceed this many bytes is not
/// read again until they drain below it: a client that sends but never
/// reads stalls itself, not the server's memory.
inline constexpr std::size_t kMaxUnsentBytes = kDefaultMaxFrameBytes;

/// stop() sends the replies already queued for at most this long, then
/// closes every socket, so a client that never reads cannot hold it.
inline constexpr int kDrainMs = 1000;

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds both listeners and spawns the loop and dispatcher threads.
  /// Returns false (with a message on stderr) on bind failure.
  [[nodiscard]] bool start();

  /// Full teardown: refuse new work, drain the queue, send what is queued
  /// for at most kDrainMs, close every socket, join both threads.
  /// Idempotent. Must not be called from a server-owned thread — use
  /// request_stop() there.
  void stop();

  /// Async shutdown trigger, safe from the loop thread (SHUTDOWN frame)
  /// and from the signal-watching loop in satd's main. Marks the server
  /// draining — new jobs get kShuttingDown — and wakes wait_for_ms().
  void request_stop();

  /// Bounded wait; returns true once stop has been requested. Lets satd's
  /// main interleave waiting with signal-flag polling (a signal handler
  /// cannot safely notify a condition variable).
  [[nodiscard]] bool wait_for_ms(int timeout_ms);

  /// Bound ports (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint16_t http_port() const { return http_port_; }

  /// The registry the HTTP shim serves (the caller's or the private one).
  [[nodiscard]] obs::Registry& registry() { return *metrics_; }

 private:
  struct Conn;  // one client socket, owned by the loop thread (server.cpp)

  struct Job {
    /// The connection's id. Ids are never reused, so a reply that outlives
    /// its connection is dropped instead of reaching a recycled fd.
    std::uint64_t conn = 0;
    std::uint64_t trace_id = 0;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    Dtype dtype = Dtype::kF32;
    /// Requested server-side storage mode. Jobs only coalesce with
    /// same-storage peers (one engine pass = one Options::storage); the
    /// RESULT matrix is dense on the wire for every mode.
    WireStorage storage = WireStorage::kDense;
    /// Element bytes, 8-aligned so spans of any supported dtype can view
    /// them directly.
    std::vector<std::uint64_t> elements;
    std::chrono::steady_clock::time_point enqueued;
  };

  void loop();
  bool receive(std::uint64_t id, Conn& c, std::vector<std::uint8_t>& buf);
  void handle_frame(std::uint64_t id, Conn& c, Frame&& frame);
  void answer_http(Conn& c);
  void dispatcher_loop();
  void run_batch(std::vector<Job>& batch);
  template <class T>
  void run_batch_typed(std::vector<Job>& batch);

  ServerOptions opts_;
  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Registry* metrics_ = nullptr;

  sathost::ThreadPool pool_;
  BoundedQueue<Job> queue_;

  int listen_fd_ = -1;
  int http_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: the dispatcher and stop() wake the loop
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;

  std::mutex state_mu_;
  std::condition_variable state_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

  std::mutex outbox_mu_;
  /// Guarded by outbox_mu_: replies the dispatcher has handed over, by
  /// connection id, and whether stop() has joined the dispatcher.
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> outbox_;
  bool drain_ = false;

  int trace_pid_ = 0;

  // Handles resolved once in start() (name lookup takes the registry
  // mutex; these are on the per-request path).
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_responses_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_bad_frames_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Histogram* m_batch_size_ = nullptr;
  obs::Histogram* m_queue_depth_ = nullptr;
  obs::Histogram* m_request_us_ = nullptr;
  obs::Gauge* m_active_conns_ = nullptr;

  std::thread loop_thread_;
  std::thread dispatch_thread_;
};

}  // namespace satd
