#include "tools/satd/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#include "util/span2d.hpp"

// The wire format is little-endian and the engines compute in place on the
// received bytes; a big-endian port would need byte-swapping copies here.
static_assert(std::endian::native == std::endian::little,
              "satd assumes a little-endian host");

namespace satd {

namespace {

/// Binds a non-blocking localhost listener; returns {fd, bound_port} or
/// {-1, 0} with a note on stderr.
std::pair<int, std::uint16_t> make_listener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("satd: socket");
    return {-1, 0};
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    std::perror("satd: bind/listen");
    ::close(fd);
    return {-1, 0};
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return {fd, ntohs(addr.sin_port)};
}

/// accept() gated on a 100 ms poll so the loop can observe shutdown;
/// returns -1 on timeout or listener teardown.
int poll_accept(int listen_fd) {
  pollfd p{listen_fd, POLLIN, 0};
  const int r = ::poll(&p, 1, /*timeout_ms=*/100);
  if (r <= 0 || (p.revents & POLLIN) == 0) return -1;
  return ::accept(listen_fd, nullptr, nullptr);
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

double now_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::chrono::steady_clock::time_point g_t0 = std::chrono::steady_clock::now();

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.cpu_threads),
      queue_(opts_.queue_cap) {
  if (opts_.metrics != nullptr) {
    metrics_ = opts_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::Registry>();
    metrics_ = owned_metrics_.get();
  }
  pool_.set_obs(metrics_, opts_.trace);
}

Server::~Server() { stop(); }

bool Server::start() {
  auto [lfd, lport] = make_listener(opts_.port);
  if (lfd < 0) return false;
  auto [hfd, hport] = make_listener(opts_.http_port);
  if (hfd < 0) {
    ::close(lfd);
    return false;
  }
  listen_fd_ = lfd;
  port_ = lport;
  http_fd_ = hfd;
  http_port_ = hport;

  m_requests_ = &metrics_->counter("satd.requests_total");
  m_responses_ = &metrics_->counter("satd.responses_total");
  m_rejected_ = &metrics_->counter("satd.rejected_overload_total");
  m_bad_frames_ = &metrics_->counter("satd.bad_frames_total");
  m_batches_ = &metrics_->counter("satd.batches_total");
  m_batch_size_ = &metrics_->histogram("satd.batch_size");
  m_queue_depth_ = &metrics_->histogram("satd.queue_depth");
  m_request_us_ = &metrics_->histogram("satd.request_us");
  m_active_conns_ = &metrics_->gauge("satd.active_connections");
  if (opts_.trace != nullptr) trace_pid_ = opts_.trace->register_process("satd");

  accept_thread_ = std::thread([this] { accept_loop(); });
  http_thread_ = std::thread([this] { http_loop(); });
  dispatch_thread_ = std::thread([this] { dispatcher_loop(); });
  return true;
}

void Server::request_stop() {
  {
    std::lock_guard lock(state_mu_);
    stop_requested_ = true;
  }
  state_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock lock(state_mu_);
  state_cv_.wait(lock, [&] { return stop_requested_; });
}

bool Server::wait_for_ms(int timeout_ms) {
  std::unique_lock lock(state_mu_);
  return state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return stop_requested_; });
}

void Server::stop() {
  {
    std::lock_guard lock(state_mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  state_cv_.notify_all();

  // Drain: the dispatcher answers everything already admitted, then exits.
  queue_.close();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();

  // Stop accepting (the accept/http loops poll the stop flag), then force
  // every blocked reader out of recv().
  for (std::thread* t : {&accept_thread_, &http_thread_})
    if (t->joinable()) t->join();  // not if start() failed
  ::close(listen_fd_);
  ::close(http_fd_);
  listen_fd_ = http_fd_ = -1;
  close_all_connections();
  std::vector<std::thread> readers;
  {
    std::lock_guard lock(conn_mu_);
    readers.swap(finished_);
    for (auto& [conn, t] : readers_) readers.push_back(std::move(t));
    readers_.clear();
  }
  for (auto& t : readers) t.join();
}

void Server::close_all_connections() {
  std::lock_guard lock(conn_mu_);
  for (const auto& [conn, t] : readers_)
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::accept_loop() {
  for (;;) {
    {
      std::lock_guard lock(state_mu_);
      if (stop_requested_) return;
    }
    const int fd = poll_accept(listen_fd_);
    if (fd < 0) continue;
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::vector<std::thread> exited;
    {
      // Held while the reader starts, so its exit always finds its entry.
      std::lock_guard lock(conn_mu_);
      exited.swap(finished_);
      const Conn* key = conn.get();
      readers_[key] =
          std::thread([this, c = std::move(conn)] { reader_loop(c); });
      m_active_conns_->set(static_cast<double>(++open_conns_));
    }
    for (auto& t : exited) t.join();  // reap: each gives back its stack
  }
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // peer closed, or stop() shut the socket down
    buf.insert(buf.end(), chunk, chunk + n);
    std::size_t off = 0;
    bool drop = false;
    for (;;) {
      Frame frame;
      std::size_t consumed = 0;
      const DecodeStatus st = decode_frame(buf.data() + off, buf.size() - off,
                                           frame, consumed,
                                           opts_.max_frame_bytes);
      if (st == DecodeStatus::kNeedMore) break;
      if (st != DecodeStatus::kOk) {
        // Framing is lost: reply once, then drop the connection.
        m_bad_frames_->add();
        const ErrorCode code = st == DecodeStatus::kTooLarge
                                   ? ErrorCode::kTooLarge
                                   : ErrorCode::kBadFrame;
        send_error(conn, 0, code,
                   std::string("frame rejected: ") +
                       std::string(decode_status_name(st)));
        drop = true;
        break;
      }
      off += consumed;
      handle_frame(conn, std::move(frame));
    }
    if (drop) break;
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
  }
  // Park the fd under both mutexes: write_mu so a dispatcher mid-reply
  // never writes into a recycled descriptor, conn_mu_ so
  // close_all_connections never shuts one down. That lets
  // close_all_connections stay off write_mu, so stop() never waits behind
  // a reply blocked in write_all. Then, unless stop() took it, park this
  // thread in finished_ for the next accept to join.
  std::scoped_lock lock(conn_mu_, conn->write_mu);
  ::close(conn->fd);
  conn->fd = -1;
  m_active_conns_->set(static_cast<double>(--open_conns_));
  if (auto it = readers_.find(conn.get()); it != readers_.end()) {
    finished_.push_back(std::move(it->second));
    readers_.erase(it);
  }
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn, Frame&& frame) {
  switch (frame.type) {
    case Type::kPing:
      send_bytes(conn, encode_frame(Type::kPong, frame.trace_id));
      return;
    case Type::kShutdown:
      // Ack first so the client sees the frame was honored, then begin
      // the drain; in-flight jobs still complete.
      send_bytes(conn, encode_frame(Type::kPong, frame.trace_id));
      request_stop();
      return;
    case Type::kCompute: break;
    default:
      send_error(conn, frame.trace_id, ErrorCode::kUnsupported,
                 "unexpected frame type");
      return;
  }

  m_requests_->add();
  {
    std::lock_guard lock(state_mu_);
    if (stop_requested_) {
      send_error(conn, frame.trace_id, ErrorCode::kShuttingDown,
                 "server is draining");
      return;
    }
  }
  MatrixPayload m;
  if (!parse_matrix_payload(frame.payload, m)) {
    send_error(conn, frame.trace_id, ErrorCode::kUnsupported,
               "malformed COMPUTE payload");
    return;
  }

  Job job;
  job.conn = conn;
  job.trace_id = frame.trace_id;
  job.rows = m.rows;
  job.cols = m.cols;
  job.dtype = m.dtype;
  job.storage = m.storage;
  const std::size_t nbytes =
      static_cast<std::size_t>(m.rows) * m.cols * dtype_size(m.dtype);
  job.elements.resize((nbytes + 7) / 8);
  std::memcpy(job.elements.data(), m.data, nbytes);
  job.enqueue_ts_us = now_us(g_t0);

  // The span opens before the push: once the job is queued a dispatcher
  // may run it and record the 'e' at any moment.
  if (opts_.trace != nullptr) {
    char args[112];
    std::snprintf(args, sizeof args,
                  "{\"rows\":%u,\"cols\":%u,\"dtype\":%u,\"storage\":%u}",
                  m.rows, m.cols, static_cast<unsigned>(m.dtype),
                  static_cast<unsigned>(m.storage));
    opts_.trace->async_begin(trace_pid_, frame.trace_id, "request", "satd",
                             opts_.trace->now_host_us(), args);
  }
  if (!queue_.try_push(std::move(job))) {
    m_rejected_->add();
    send_error(conn, frame.trace_id, ErrorCode::kOverloaded,
               "admission queue full; retry with backoff");
    if (opts_.trace != nullptr)
      opts_.trace->async_end(trace_pid_, frame.trace_id, "request", "satd",
                             opts_.trace->now_host_us(),
                             "{\"overloaded\":true}");
    return;
  }
  m_queue_depth_->record(queue_.size());
}

void Server::dispatcher_loop() {
  for (;;) {
    if (opts_.dispatch_hook) opts_.dispatch_hook();
    std::vector<Job> batch = queue_.pop_batch(
        opts_.batch_max == 0 ? 1 : opts_.batch_max,
        [](const Job& a, const Job& b) {
          return a.rows == b.rows && a.cols == b.cols &&
                 a.dtype == b.dtype && a.storage == b.storage;
        });
    if (batch.empty()) return;  // queue closed and drained
    m_batches_->add();
    m_batch_size_->record(batch.size());
    run_batch(batch);
  }
}

void Server::run_batch(std::vector<Job>& batch) {
  switch (batch.front().dtype) {
    case Dtype::kF32: run_batch_typed<float>(batch); return;
    case Dtype::kI32: run_batch_typed<std::int32_t>(batch); return;
    case Dtype::kI64: run_batch_typed<std::int64_t>(batch); return;
  }
}

template <class T>
void Server::run_batch_typed(std::vector<Job>& batch) {
  const std::uint32_t rows = batch.front().rows;
  const std::uint32_t cols = batch.front().cols;
  std::vector<satutil::Span2d<const T>> srcs;
  std::vector<satutil::Span2d<T>> dsts;
  std::vector<std::vector<std::uint64_t>> results(batch.size());
  srcs.reserve(batch.size());
  dsts.reserve(batch.size());
  const std::size_t n = static_cast<std::size_t>(rows) * cols;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    results[b].resize((n * sizeof(T) + 7) / 8);
    srcs.emplace_back(reinterpret_cast<const T*>(batch[b].elements.data()),
                      rows, cols);
    dsts.emplace_back(reinterpret_cast<T*>(results[b].data()), rows, cols);
  }

  std::string failure;
  try {
    sat::Options opt;
    opt.cpu_engine = sat::CpuEngine::kSkssLb;
    opt.cpu_tile_w = opts_.tile_w;
    switch (batch.front().storage) {
      case WireStorage::kDense: break;
      case WireStorage::kKahan:
        opt.storage = sat::Storage::kKahanF32;
        break;
    }
    opt.pool = &pool_;
    opt.metrics = metrics_;
    opt.trace = opts_.trace;
    (void)sat::compute_sat_batch_into<T>(srcs, dsts, opt);
  } catch (const std::exception& e) {
    failure = e.what();
  }

  for (std::size_t b = 0; b < batch.size(); ++b) {
    Job& job = batch[b];
    if (failure.empty()) {
      const auto payload = encode_matrix_payload(
          rows, cols, job.dtype, results[b].data());
      // Counted before the send, so a client holding its reply also sees
      // it in satd.responses_total (send_bytes reports no failure anyway).
      m_responses_->add();
      send_bytes(job.conn, encode_frame(Type::kResult, job.trace_id, payload));
    } else {
      send_error(job.conn, job.trace_id, ErrorCode::kInternal, failure);
    }
    m_request_us_->record(static_cast<std::uint64_t>(
        now_us(g_t0) - job.enqueue_ts_us));
    if (opts_.trace != nullptr) {
      opts_.trace->async_end(trace_pid_, job.trace_id, "request", "satd",
                             opts_.trace->now_host_us());
    }
  }
}

void Server::send_error(const std::shared_ptr<Conn>& conn,
                        std::uint64_t trace_id, ErrorCode code,
                        std::string_view msg) {
  send_bytes(conn, encode_frame(Type::kError, trace_id,
                                encode_error_payload(code, msg)));
}

void Server::send_bytes(const std::shared_ptr<Conn>& conn,
                        const std::vector<std::uint8_t>& bytes) {
  std::lock_guard lock(conn->write_mu);
  if (conn->fd < 0) return;
  (void)write_all(conn->fd, bytes.data(), bytes.size());
}

void Server::http_loop() {
  for (;;) {
    {
      std::lock_guard lock(state_mu_);
      if (stop_requested_) return;
    }
    const int fd = poll_accept(http_fd_);
    if (fd < 0) continue;
    char req[4096];
    const ssize_t n = ::recv(fd, req, sizeof req - 1, 0);
    std::string body, status = "404 Not Found",
                 content_type = "text/plain; charset=utf-8";
    if (n > 0) {
      req[n] = '\0';
      const std::string_view line(req);
      if (line.rfind("GET /metrics", 0) == 0) {
        status = "200 OK";
        content_type = "application/json";
        body = metrics_->snapshot().to_json();
        body += '\n';
      } else if (line.rfind("GET /healthz", 0) == 0) {
        status = "200 OK";
        body = "ok\n";
      } else {
        body = "not found\n";
      }
    }
    char head[160];
    std::snprintf(head, sizeof head,
                  "HTTP/1.0 %s\r\nContent-Type: %s\r\n"
                  "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                  status.c_str(), content_type.c_str(), body.size());
    (void)write_all(fd, reinterpret_cast<const std::uint8_t*>(head),
                    std::strlen(head));
    (void)write_all(fd, reinterpret_cast<const std::uint8_t*>(body.data()),
                    body.size());
    ::close(fd);
  }
}

}  // namespace satd
