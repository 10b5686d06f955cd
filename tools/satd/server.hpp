// satd server core: TCP listener + admission queue + batching dispatcher
// + localhost HTTP shim for /metrics and /healthz.
//
// Threading model (docs/satd.md "Inside the daemon"):
//   - one accept thread per listener (binary + HTTP);
//   - one reader thread per client connection, which decodes frames and
//     either replies inline (PING, errors, backpressure) or enqueues a Job;
//   - `dispatchers` dispatcher threads, each popping a same-shape batch
//     from the bounded queue and running it through ONE
//     sat::compute_sat_batch_into call on the shared, server-owned
//     ThreadPool (Options::pool), so same-shape requests coalesce into a
//     single engine pass;
//   - replies go back on the request's connection under a per-connection
//     write mutex (reader replies and dispatcher results interleave
//     safely).
//
// Nothing here blocks the accept path on compute: admission is a
// non-blocking try_push and a full queue turns into an immediate
// kOverloaded reply — the explicit-backpressure contract the tests pin.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
  /// Dispatcher threads. 1 keeps every job on the one shared pool (the
  /// default: the pool's workers are the parallelism); >1 only pays off
  /// when jobs are tiny and engine passes don't saturate the pool.
  std::size_t dispatchers = 1;
  /// Workers of the shared engine pool (0 = hardware concurrency).
  std::size_t cpu_threads = 0;
  /// Tile width forwarded to the engine (0 = automatic).
  std::size_t tile_w = 0;
  /// Reject frames whose frame_len exceeds this many bytes.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Metrics sink. Null ⇒ the server owns a private registry (the HTTP
  /// shim serves whichever is active).
  obs::Registry* metrics = nullptr;
  /// Trace sink for per-request async spans ('b'/'e', id = trace_id).
  /// Null ⇒ no tracing.
  obs::TraceSink* trace = nullptr;
  /// Test hook: when set, every dispatcher calls this at the top of its
  /// loop, *before* popping a batch. A hook that blocks freezes dispatch,
  /// letting tests fill the queue deterministically.
  std::function<void()> dispatch_hook;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds both listeners and spawns the accept / dispatcher / HTTP
  /// threads. Returns false (with a message on stderr) on bind failure.
  [[nodiscard]] bool start();

  /// Full teardown: stop accepting, drain the queue, answer everything
  /// in flight, close connections, join every thread. Idempotent. Must
  /// not be called from a server-owned thread — use request_stop() there.
  void stop();

  /// Async shutdown trigger, safe from reader threads (SHUTDOWN frame)
  /// and from the signal-watching loop in satd's main. Marks the server
  /// draining — new jobs get kShuttingDown — and wakes wait().
  void request_stop();

  /// Blocks until request_stop() (or stop()) is called.
  void wait();

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
  struct Conn {
    /// Cleared (-1) only under both conn_mu_ and write_mu, so either one
    /// suffices to read it.
    int fd = -1;
    std::mutex write_mu;
  };

  struct Job {
    std::shared_ptr<Conn> conn;
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
    double enqueue_ts_us = 0.0;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Conn> conn);
  void dispatcher_loop();
  void http_loop();
  void handle_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void run_batch(std::vector<Job>& batch);
  template <class T>
  void run_batch_typed(std::vector<Job>& batch);
  void send_error(const std::shared_ptr<Conn>& conn, std::uint64_t trace_id,
                  ErrorCode code, std::string_view msg);
  void send_bytes(const std::shared_ptr<Conn>& conn,
                  const std::vector<std::uint8_t>& bytes);
  void close_all_connections();

  ServerOptions opts_;
  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Registry* metrics_ = nullptr;

  sathost::ThreadPool pool_;
  /// Serializes engine passes: the shared pool runs one batch at a time
  /// (Options::pool contract), so with dispatchers > 1 only the framing
  /// and queue work overlap.
  std::mutex engine_mu_;
  BoundedQueue<Job> queue_;

  int listen_fd_ = -1;
  int http_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;

  std::thread accept_thread_;
  std::thread http_thread_;
  std::vector<std::thread> dispatcher_threads_;
  std::mutex conn_mu_;
  std::vector<std::thread> reader_threads_;
  std::vector<std::weak_ptr<Conn>> conns_;
  std::size_t open_conns_ = 0;  ///< live sockets, guarded by conn_mu_

  std::mutex state_mu_;
  std::condition_variable state_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

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
};

}  // namespace satd
