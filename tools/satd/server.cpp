#include "tools/satd/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <string>
#include <utility>

#include "util/span2d.hpp"

// The wire format is little-endian and the engines compute in place on the
// received bytes; a big-endian port would need byte-swapping copies here.
static_assert(std::endian::native == std::endian::little,
              "satd assumes a little-endian host");

namespace satd {

namespace {

/// Every read goes through one loop-owned buffer of this size: a length
/// prefix never sizes an allocation, only bytes that arrived grow one.
constexpr std::size_t kReadBytes = 1 << 20;

using Clock = std::chrono::steady_clock;

/// Binds a non-blocking localhost listener; returns {fd, bound_port} or
/// {-1, 0} with a note on stderr.
std::pair<int, std::uint16_t> make_listener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
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

std::vector<std::uint8_t> error_frame(std::uint64_t trace_id, ErrorCode code,
                                      std::string_view msg) {
  return encode_frame(Type::kError, trace_id, encode_error_payload(code, msg));
}

}  // namespace

/// One client socket. Only the loop thread touches it, so it needs no lock.
struct Server::Conn {
  int fd = -1;
  bool http = false;     ///< an HTTP shim client: one request, one reply
  bool closing = false;  ///< read no more; close once `out` is sent
  std::vector<std::uint8_t> in{};               ///< received, not decoded
  std::deque<std::vector<std::uint8_t>> out{};  ///< replies, oldest first
  std::size_t sent = 0;    ///< bytes of out.front() already sent
  std::size_t unsent = 0;  ///< bytes of `out` not yet sent

  void reply(std::vector<std::uint8_t> bytes) {
    unsent += bytes.size();
    out.push_back(std::move(bytes));
  }

  /// Sends queued replies until the socket would block; false once the
  /// peer is gone.
  bool flush() {
    while (!out.empty()) {
      const std::vector<std::uint8_t>& front = out.front();
      const ssize_t n = ::send(fd, front.data() + sent, front.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EINTR;
      sent += static_cast<std::size_t>(n);
      unsent -= static_cast<std::size_t>(n);
      if (sent == front.size()) {
        out.pop_front();
        sent = 0;
      }
    }
    return true;
  }
};

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
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    std::perror("satd: eventfd");
    return false;
  }
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

  loop_thread_ = std::thread([this] { loop(); });
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
  // Its last replies are in the outbox now. The loop sends what it holds
  // for at most kDrainMs, closes every socket and returns.
  {
    std::lock_guard lock(outbox_mu_);
    drain_ = true;
  }
  eventfd_write(wake_fd_, 1);
  if (loop_thread_.joinable()) loop_thread_.join();  // not if start() failed
  ::close(wake_fd_);
}

void Server::loop() {
  std::vector<std::uint8_t> buf(kReadBytes);
  // Ids only grow, so a connection accepted during an iteration sorts
  // after every polled one: conns iterates in the order of fds[3...].
  std::map<std::uint64_t, Conn> conns;
  std::uint64_t next_id = 0;
  std::size_t binary_conns = 0;
  std::vector<pollfd> fds;
  bool draining = false;
  Clock::time_point deadline;
  for (;;) {
    fds.assign({{wake_fd_, POLLIN, 0},
                {listen_fd_, POLLIN, 0},
                {http_fd_, POLLIN, 0}});
    bool unsent = false;
    for (const auto& [id, c] : conns) {
      // A client over kMaxUnsentBytes is not read until it takes its
      // replies, and nothing is read once stop() drains.
      const bool read = !draining && !c.closing && c.unsent <= kMaxUnsentBytes;
      const int events = (read ? POLLIN : 0) | (c.out.empty() ? 0 : POLLOUT);
      fds.push_back({c.fd, static_cast<short>(events), 0});
      unsent = unsent || !c.out.empty();
    }
    if (draining && (!unsent || Clock::now() >= deadline)) break;
    // While draining, wake often enough to honor the deadline.
    if (::poll(fds.data(), fds.size(), draining ? 10 : -1) < 0) continue;

    eventfd_t wakes = 0;
    if ((fds[0].revents & POLLIN) != 0 && eventfd_read(wake_fd_, &wakes) == 0) {
      decltype(outbox_) replies;
      {
        std::lock_guard lock(outbox_mu_);
        replies.swap(outbox_);
        if (drain_ && !draining)
          deadline = Clock::now() + std::chrono::milliseconds(kDrainMs);
        draining = drain_;
      }
      // A reply whose connection has closed has no one to go to.
      for (auto& [id, bytes] : replies)
        if (const auto it = conns.find(id); it != conns.end())
          it->second.reply(std::move(bytes));
    }
    for (const std::size_t k : {1, 2}) {
      if ((fds[k].revents & POLLIN) == 0) continue;
      for (int fd; (fd = ::accept4(fds[k].fd, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0;) {
        conns.emplace(next_id++, Conn{.fd = fd, .http = k == 2});
        if (k == 1) m_active_conns_->set(static_cast<double>(++binary_conns));
      }
    }
    auto next = conns.begin();
    for (std::size_t k = 3; k < fds.size(); ++k) {
      const auto it = next++;
      Conn& c = it->second;
      // POLLHUP or POLLERR: the peer reset the connection or is gone, so
      // nothing sent to it can arrive any more.
      const short ev = fds[k].revents;
      bool open = (ev & (POLLHUP | POLLERR)) == 0;
      if (open && (ev & POLLIN) != 0) open = receive(it->first, c, buf);
      if (open && !c.out.empty()) open = c.flush();
      if (open && !(c.closing && c.out.empty())) continue;
      ::close(c.fd);
      if (!c.http) m_active_conns_->set(static_cast<double>(--binary_conns));
      conns.erase(it);
    }
  }
  for (const auto& [id, c] : conns) ::close(c.fd);
  ::close(listen_fd_);
  ::close(http_fd_);
}

bool Server::receive(std::uint64_t id, Conn& c,
                     std::vector<std::uint8_t>& buf) {
  const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
  if (n <= 0) return n < 0 && (errno == EAGAIN || errno == EINTR);  // 0: EOF
  c.in.insert(c.in.end(), buf.data(), buf.data() + n);
  if (c.http) answer_http(c);
  std::size_t off = 0;
  while (!c.closing) {
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus st =
        decode_frame(c.in.data() + off, c.in.size() - off, frame, consumed,
                     opts_.max_frame_bytes);
    if (st == DecodeStatus::kNeedMore) break;
    if (st != DecodeStatus::kOk) {
      // Framing is lost: reply once, then close once that is sent.
      m_bad_frames_->add();
      c.reply(error_frame(0,
                          st == DecodeStatus::kTooLarge ? ErrorCode::kTooLarge
                                                        : ErrorCode::kBadFrame,
                          "frame rejected: " +
                              std::string(decode_status_name(st))));
      c.closing = true;
      break;
    }
    off += consumed;
    handle_frame(id, c, std::move(frame));
  }
  c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

void Server::handle_frame(std::uint64_t id, Conn& c, Frame&& frame) {
  switch (frame.type) {
    case Type::kPing:
      c.reply(encode_frame(Type::kPong, frame.trace_id));
      return;
    case Type::kShutdown:
      // Ack first so the client sees the frame was honored, then begin
      // the drain; in-flight jobs still complete.
      c.reply(encode_frame(Type::kPong, frame.trace_id));
      request_stop();
      return;
    case Type::kCompute: break;
    default:
      c.reply(error_frame(frame.trace_id, ErrorCode::kUnsupported,
                          "unexpected frame type"));
      return;
  }

  m_requests_->add();
  {
    std::lock_guard lock(state_mu_);
    if (stop_requested_) {
      c.reply(error_frame(frame.trace_id, ErrorCode::kShuttingDown,
                          "server is draining"));
      return;
    }
  }
  MatrixPayload m;
  if (!parse_matrix_payload(frame.payload, m)) {
    c.reply(error_frame(frame.trace_id, ErrorCode::kUnsupported,
                        "malformed COMPUTE payload"));
    return;
  }

  Job job;
  job.conn = id;
  job.trace_id = frame.trace_id;
  job.rows = m.rows;
  job.cols = m.cols;
  job.dtype = m.dtype;
  job.storage = m.storage;
  const std::size_t nbytes =
      static_cast<std::size_t>(m.rows) * m.cols * dtype_size(m.dtype);
  job.elements.resize((nbytes + 7) / 8);
  std::memcpy(job.elements.data(), m.data, nbytes);
  job.enqueued = Clock::now();

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
    c.reply(error_frame(frame.trace_id, ErrorCode::kOverloaded,
                        "admission queue full; retry with backoff"));
    if (opts_.trace != nullptr)
      opts_.trace->async_end(trace_pid_, frame.trace_id, "request", "satd",
                             opts_.trace->now_host_us(),
                             "{\"overloaded\":true}");
    return;
  }
  m_queue_depth_->record(queue_.size());
}

void Server::answer_http(Conn& c) {
  const std::string_view request(reinterpret_cast<const char*>(c.in.data()),
                                 c.in.size());
  std::string body = "not found\n", status = "404 Not Found",
              content_type = "text/plain; charset=utf-8";
  if (request.rfind("GET /metrics", 0) == 0) {
    status = "200 OK";
    content_type = "application/json";
    body = metrics_->snapshot().to_json();
    body += '\n';
  } else if (request.rfind("GET /healthz", 0) == 0) {
    status = "200 OK";
    body = "ok\n";
  }
  char head[160];
  std::snprintf(head, sizeof head,
                "HTTP/1.0 %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                status.c_str(), content_type.c_str(), body.size());
  c.reply(std::vector<std::uint8_t>(head, head + std::strlen(head)));
  c.reply(std::vector<std::uint8_t>(body.begin(), body.end()));
  c.closing = true;
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
    // Counted before the hand-off, so a client holding its reply also sees
    // it in satd.responses_total.
    if (failure.empty()) m_responses_->add();
    std::vector<std::uint8_t> reply =
        failure.empty()
            ? encode_frame(Type::kResult, job.trace_id,
                           encode_matrix_payload(rows, cols, job.dtype,
                                                 results[b].data()))
            : error_frame(job.trace_id, ErrorCode::kInternal, failure);
    {
      std::lock_guard lock(outbox_mu_);
      outbox_.emplace_back(job.conn, std::move(reply));
    }
    eventfd_write(wake_fd_, 1);
    m_request_us_->record(static_cast<std::uint64_t>(
        std::chrono::duration<double, std::micro>(Clock::now() - job.enqueued)
            .count()));
    if (opts_.trace != nullptr) {
      opts_.trace->async_end(trace_pid_, job.trace_id, "request", "satd",
                             opts_.trace->now_host_us());
    }
  }
}

}  // namespace satd
