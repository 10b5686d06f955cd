// The satd layer, measured in host_bulk's traced run: the satd daemon
// binary with default flags, driven over loopback by one generator thread
// on nproc connections. The seeded mix is dominated by 512² f32 with a
// minority of 640×480 i32 and 1024² f32, so same-shape coalescing both hits
// and misses. The engine needs well under a millisecond per request here,
// so framing, copies, queueing and coalescing dominate.
//
// An open loop of Poisson arrivals at a fixed rate, each request timed from
// its due time, runs against a plain daemon and then against one writing
// its own trace (--trace-out), followed by a closed loop with kClosedWindow
// requests in flight per connection on the traced daemon.
#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "core/api.hpp"
#include "host/sat_cpu.hpp"
#include "host/thread_pool.hpp"
#include "tools/satd/protocol.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

// ---- the traffic mix -------------------------------------------------------

struct Shape {
  std::uint32_t rows, cols;
  satd::Dtype dtype;
  double weight;
};
constexpr Shape kShapes[] = {
    {512, 512, satd::Dtype::kF32, 0.70},
    {480, 640, satd::Dtype::kI32, 0.20},
    {1024, 1024, satd::Dtype::kF32, 0.10},
};
constexpr std::size_t kImagesPerShape = 4;
// Fixed open-loop rate: about a quarter of the ~315-450 req/s the daemon
// sustained in the closed loop on a calm 4-core Xeon when this benchmark was
// written, so the open loop stays unsaturated when a shared host runs 2x
// slower.
constexpr double kOpenRate = 80;
constexpr std::size_t kOpenWindow = 16;   // per connection; 4×16 = queue cap
constexpr std::size_t kClosedWindow = 4;  // per connection
constexpr float kF32RelTol = 1e-4f;  // validate_sat's documented f32 bound
constexpr double kGraceSeconds = 30;  // hard deadline past a phase's end

/// One image of the mix, its wire payload inputs and its oracle.
struct Image {
  std::size_t shape = 0;
  std::vector<std::uint8_t> bytes;   ///< row-major elements, little-endian
  std::vector<std::uint8_t> oracle;  ///< sat_sequential of `bytes`
};

template <class T>
void make_image(Image& im, const Shape& s, std::uint64_t seed) {
  sat::Matrix<T> in(s.rows, s.cols), ref(s.rows, s.cols);
  satutil::Rng rng(seed);
  for (std::size_t i = 0; i < in.size(); ++i)
    in.data()[i] = std::is_floating_point_v<T>
                       ? static_cast<T>(rng.next_double())
                       : static_cast<T>(rng.next_below(256));
  sathost::sat_sequential<T>(in.view(), ref.view());
  const std::size_t nbytes = in.size() * sizeof(T);
  im.bytes.resize(nbytes);
  im.oracle.resize(nbytes);
  std::memcpy(im.bytes.data(), in.data(), nbytes);
  std::memcpy(im.oracle.data(), ref.data(), nbytes);
}

/// True when a RESULT payload's elements are the image's SAT.
bool result_ok(const Image& im, const satd::MatrixPayload& m) {
  const Shape& s = kShapes[im.shape];
  if (m.rows != s.rows || m.cols != s.cols || m.dtype != s.dtype) return false;
  const std::size_t n = std::size_t{s.rows} * s.cols;
  if (s.dtype == satd::Dtype::kI32)
    return std::memcmp(m.data, im.oracle.data(), n * 4) == 0;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    float g, e;
    std::memcpy(&g, m.data + 4 * i, 4);
    std::memcpy(&e, im.oracle.data() + 4 * i, 4);
    bad += std::fabs(g - e) > kF32RelTol * std::max(1.0f, std::fabs(e)) ? 1 : 0;
  }
  return bad == 0;
}

// ---- the daemon process ----------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Blocking send/receive with a receive timeout, for PING and SHUTDOWN.
bool exchange(int fd, satd::Type type, satd::Type want) {
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  const std::vector<std::uint8_t> f = satd::encode_frame(type, 7);
  if (::send(fd, f.data(), f.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(f.size()))
    return false;
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[256];
  for (;;) {
    satd::Frame fr;
    std::size_t used = 0;
    if (satd::decode_frame(buf.data(), buf.size(), fr, used) ==
        satd::DecodeStatus::kOk)
      return fr.type == want;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

/// One satd process: spawned with default flags (plus ephemeral ports and,
/// when tracing, --trace-out), reaped on every path.
class Daemon {
 public:
  Daemon(const RunConfig& cfg, const std::string& tag, bool trace) {
    port_file_ = cfg.work_dir + "/satd-" + tag + ".ports";
    if (trace) trace_file_ = cfg.work_dir + "/satd-" + tag + ".trace.json";
    const std::string log = cfg.work_dir + "/satd-" + tag + ".log";
    ::unlink(port_file_.c_str());
    std::vector<std::string> args = {cfg.satd_path, "--port-file", port_file_};
    if (trace) {
      args.push_back("--trace-out");
      args.push_back(trace_file_);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot spawn " + cfg.satd_path);

    const auto t0 = Clock::now();
    while (port_ == 0 || http_ == 0) {
      if (seconds_between(t0, Clock::now()) > 20) {
        kill_now();
        throw std::runtime_error("satd did not publish its ports");
      }
      std::ifstream in(port_file_);
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("port=", 0) == 0) port_ = std::stoi(line.substr(5));
        if (line.rfind("http=", 0) == 0) http_ = std::stoi(line.substr(5));
      }
      if (port_ == 0 || http_ == 0) ::usleep(500);
    }
    const int fd = connect_loopback(static_cast<std::uint16_t>(port_));
    const bool pong = fd >= 0 && exchange(fd, satd::Type::kPing,
                                          satd::Type::kPong);
    if (fd >= 0) ::close(fd);
    if (!pong) {
      kill_now();
      throw std::runtime_error("satd did not answer PING");
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const {
    return static_cast<std::uint16_t>(port_);
  }
  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const std::string& trace_file() const { return trace_file_; }

  /// GET /metrics (one JSON line).
  [[nodiscard]] std::string metrics() const {
    const int fd = connect_loopback(static_cast<std::uint16_t>(http_));
    if (fd < 0) return {};
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    (void)::send(fd, req, sizeof req - 1, MSG_NOSIGNAL);
    std::string body;
    char chunk[65536];
    for (ssize_t n; (n = ::recv(fd, chunk, sizeof chunk, 0)) > 0;)
      body.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);
    const auto p = body.find("\r\n\r\n");
    return p == std::string::npos ? std::string() : body.substr(p + 4);
  }

  /// SHUTDOWN frame, then wait for exit (the trace file is written on
  /// the way out); SIGKILL if it does not exit in time.
  void stop() {
    if (pid_ <= 0) return;
    const int fd = connect_loopback(static_cast<std::uint16_t>(port_));
    if (fd >= 0) {
      (void)exchange(fd, satd::Type::kShutdown, satd::Type::kPong);
      ::close(fd);
    }
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_between(t0, Clock::now()) > 15) {
        kill_now();
        return;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }

 private:
  void kill_now() {
    int status = 0;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int port_ = 0;
  int http_ = 0;
  std::string port_file_;
  std::string trace_file_;
};

// ---- /metrics parsing --------------------------------------------------------

/// The number after `"name":` (a counter or gauge), if present.
std::optional<double> json_value(const std::string& js, const std::string& name) {
  const auto p = js.find("\"" + name + "\":");
  if (p == std::string::npos) return std::nullopt;
  return std::strtod(js.c_str() + p + name.size() + 3, nullptr);
}

struct Hist {
  double count = 0, sum = 0;
  std::vector<Bucket> buckets;
};

Hist json_hist(const std::string& js, const std::string& name) {
  Hist h;
  const auto p = js.find("\"" + name + "\":{");
  if (p == std::string::npos) return h;
  const auto end = js.find('}', p);
  const std::string obj = js.substr(p, end - p);
  h.count = json_value(obj, "count").value_or(0);
  h.sum = json_value(obj, "sum").value_or(0);
  auto b = obj.find("\"buckets\":[");
  if (b == std::string::npos) return h;
  b += 11;
  while ((b = obj.find('[', b)) != std::string::npos) {
    char* q = nullptr;
    Bucket k;
    k.lo = std::strtod(obj.c_str() + b + 1, &q);
    k.hi = std::strtod(q + 1, &q);
    k.count = std::strtod(q + 1, &q);
    h.buckets.push_back(k);
    b = static_cast<std::size_t>(q - obj.c_str());
  }
  return h;
}

// ---- the load generator -------------------------------------------------------

struct Request {
  double due_s = 0;  ///< seconds after the phase start
  std::size_t image = 0;
  std::uint64_t trace_id = 0;
  Clock::time_point sent{};
  Clock::time_point done{};
  bool finished = false;
  std::int64_t span = -1;
};

struct Conn {
  int fd = -1;
  std::deque<std::vector<std::uint8_t>> out;  ///< frames not fully written
  std::size_t out_off = 0;                    ///< bytes of out.front() sent
  std::vector<std::uint8_t> in;               ///< bytes received
  std::size_t in_off = 0;                     ///< bytes of `in` decoded
  std::size_t inflight = 0;
};

/// One generator thread over non-blocking sockets and poll(): it reads
/// replies while it writes requests, keeps at most `window` requests in
/// flight per connection, counts every ERROR reply (OVERLOADED included)
/// as a failure without retrying, and gives up at a hard deadline.
class LoadGen {
 public:
  LoadGen(std::uint16_t port, std::size_t conns, const std::vector<Image>& imgs,
          Tracer& tracer, Report& rep)
      : images_(imgs), tracer_(tracer), rep_(rep) {
    for (std::size_t i = 0; i < conns; ++i) {
      const int fd = connect_loopback(port);
      if (fd < 0) throw std::runtime_error("cannot connect to satd");
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(Conn{});
      conns_.back().fd = fd;
    }
  }
  ~LoadGen() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Open loop: sends reqs[i] at its due time (or as soon after as a
  /// window allows). Returns when all finished or the deadline passed.
  void open_loop(std::vector<Request>& reqs, std::size_t window) {
    reqs_ = &reqs;
    window_ = window;
    t0_ = Clock::now();
    const double deadline = (reqs.empty() ? 0 : reqs.back().due_s) +
                            kGraceSeconds;
    std::size_t next = 0;
    while (finished_ < reqs.size()) {
      const double now = seconds_between(t0_, Clock::now());
      if (now > deadline) break;
      while (next < reqs.size() && reqs[next].due_s <= now && issue(next))
        ++next;
      // Sleep until the next due time, or (when every window is full) until
      // a reply frees room; at most 5 ms so the deadline is observed.
      double wait_s = 0.005;
      if (next < reqs.size() && reqs[next].due_s > now)
        wait_s = std::min(wait_s, reqs[next].due_s - now);
      pump(wait_s);
    }
    abandon();
  }

  /// Closed loop: keeps `window` requests in flight per connection for
  /// `seconds`, drawing images from `pick`, then drains.
  void closed_loop(std::vector<Request>& reqs, std::size_t window,
                   double seconds, const std::function<std::size_t()>& pick,
                   std::uint64_t id_base) {
    reqs_ = &reqs;
    window_ = window;
    t0_ = Clock::now();
    for (;;) {
      const double now = seconds_between(t0_, Clock::now());
      if (now > seconds + kGraceSeconds) break;
      if (now < seconds) {
        while (has_room()) {
          reqs.push_back(Request{now, pick(), id_base + reqs.size() + 1});
          if (!issue(reqs.size() - 1)) break;
        }
      } else if (finished_ == reqs.size()) {
        break;
      }
      pump(0.005);
    }
    abandon();
  }

 private:
  [[nodiscard]] bool has_room() const {
    for (const Conn& c : conns_)
      if (c.inflight < window_) return true;
    return false;
  }

  /// Encodes request i onto the least-loaded connection with room.
  bool issue(std::size_t i) {
    Conn* best = nullptr;
    for (Conn& c : conns_)
      if (c.inflight < window_ && (best == nullptr || c.inflight < best->inflight))
        best = &c;
    if (best == nullptr) return false;
    Request& r = (*reqs_)[i];
    const Image& im = images_[r.image];
    const Shape& s = kShapes[im.shape];
    r.sent = Clock::now();
    if (tracer_.enabled())
      r.span = tracer_.begin_at("satd.request",
                                tracer_.us_at(t0_) + 1e6 * r.due_s, -1,
                                r.trace_id);
    {
      Scope enc(tracer_, "satd.client.encode", r.span, r.trace_id);
      best->out.push_back(satd::encode_frame(
          satd::Type::kCompute, r.trace_id,
          satd::encode_matrix_payload(s.rows, s.cols, s.dtype,
                                      im.bytes.data())));
    }
    ++best->inflight;
    by_id_[r.trace_id] = {i, static_cast<std::size_t>(best - conns_.data())};
    rep_.attempt();
    return true;
  }

  void pump(double wait_s) {
    std::vector<pollfd> pfd;
    for (const Conn& c : conns_)
      pfd.push_back(pollfd{c.fd,
                           static_cast<short>(POLLIN |
                                              (c.out.empty() ? 0 : POLLOUT)),
                           0});
    const auto ns = static_cast<long>(std::max(0.0, wait_s) * 1e9);
    const timespec ts{ns / 1000000000L, ns % 1000000000L};
    if (::ppoll(pfd.data(), pfd.size(), &ts, nullptr) <= 0) return;
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      Conn& c = conns_[k];
      if ((pfd[k].revents & POLLOUT) != 0) write_some(c);
      if ((pfd[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_some(c);
    }
  }

  void write_some(Conn& c) {
    while (!c.out.empty()) {
      const std::vector<std::uint8_t>& f = c.out.front();
      const ssize_t n = ::send(c.fd, f.data() + c.out_off, f.size() - c.out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n <= 0) return;  // EAGAIN (or an error the reader will see)
      c.out_off += static_cast<std::size_t>(n);
      if (c.out_off < f.size()) return;
      c.out.pop_front();
      c.out_off = 0;
    }
  }

  void read_some(Conn& c) {
    for (;;) {
      if (c.in.size() - c.in_off < (1u << 20)) {
        if (c.in_off > 0) {
          c.in.erase(c.in.begin(),
                     c.in.begin() + static_cast<std::ptrdiff_t>(c.in_off));
          c.in_off = 0;
        }
      }
      const std::size_t old = c.in.size();
      c.in.resize(old + (1u << 20));
      const ssize_t n = ::recv(c.fd, c.in.data() + old, 1u << 20, MSG_DONTWAIT);
      c.in.resize(old + (n > 0 ? static_cast<std::size_t>(n) : 0));
      if (n <= 0) break;
      decode(c);
    }
  }

  void decode(Conn& c) {
    for (;;) {
      satd::Frame f;
      std::size_t used = 0;
      const auto a = Clock::now();
      const satd::DecodeStatus st =
          satd::decode_frame(c.in.data() + c.in_off, c.in.size() - c.in_off, f,
                             used, std::size_t{1} << 30);
      if (st == satd::DecodeStatus::kNeedMore) return;
      if (st != satd::DecodeStatus::kOk) {
        rep_.fail(std::string("undecodable reply: ") +
                  std::string(satd::decode_status_name(st)));
        c.in_off = c.in.size();
        return;
      }
      c.in_off += used;
      const auto it = by_id_.find(f.trace_id);
      if (it == by_id_.end()) {
        rep_.fail("reply with an unknown trace_id");
        continue;
      }
      Request& r = (*reqs_)[it->second.first];
      conns_[it->second.second].inflight--;
      by_id_.erase(it);
      satd::MatrixPayload m;
      const bool parsed = f.type == satd::Type::kResult &&
                          satd::parse_matrix_payload(f.payload, m);
      const auto b = Clock::now();
      if (tracer_.enabled()) {
        const auto d = tracer_.begin_at("satd.client.decode", tracer_.us_at(a),
                                        r.span, r.trace_id);
        tracer_.end_at(d, tracer_.us_at(b));
      }
      if (!parsed) {
        satd::ErrorPayload e;
        rep_.fail(f.type == satd::Type::kError &&
                          satd::parse_error_payload(f.payload, e)
                      ? "error reply " +
                            std::to_string(static_cast<unsigned>(e.code)) +
                            ": " + e.message
                      : "malformed reply");
      } else if (!result_ok(images_[r.image], m)) {
        rep_.fail("satd result differs from the sat_sequential oracle");
      }
      r.done = b;
      r.finished = true;
      tracer_.end_at(r.span, tracer_.us_at(b));
      ++finished_;
    }
  }

  /// Requests still outstanding at the deadline count as failures.
  void abandon() {
    if (!by_id_.empty())
      rep_.fail("requests unanswered at the deadline", by_id_.size());
    by_id_.clear();
    for (Conn& c : conns_) c.inflight = 0;
  }

  const std::vector<Image>& images_;
  Tracer& tracer_;
  Report& rep_;
  std::vector<Conn> conns_;
  std::vector<Request>* reqs_ = nullptr;
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> by_id_;
  std::size_t window_ = 1;
  std::size_t finished_ = 0;
  Clock::time_point t0_{};
};

// ---- the workload -------------------------------------------------------------

struct Mix {
  std::vector<Image> images;
  satutil::Rng rng;

  explicit Mix(std::uint64_t seed) : rng(mix_seed(seed, 3)) {
    for (std::size_t s = 0; s < std::size(kShapes); ++s)
      for (std::size_t k = 0; k < kImagesPerShape; ++k) {
        Image im;
        im.shape = s;
        const std::uint64_t is = mix_seed(seed, 10 + images.size());
        if (kShapes[s].dtype == satd::Dtype::kF32)
          make_image<float>(im, kShapes[s], is);
        else
          make_image<std::int32_t>(im, kShapes[s], is);
        images.push_back(std::move(im));
      }
  }

  std::size_t pick() {
    double u = rng.next_double();
    std::size_t s = 0;
    while (s + 1 < std::size(kShapes) && u >= kShapes[s].weight)
      u -= kShapes[s++].weight;
    return s * kImagesPerShape + rng.next_below(kImagesPerShape);
  }

  /// Poisson arrivals at `rate` for `seconds` (at least `min_n` of them).
  std::vector<Request> schedule(double rate, double seconds, std::size_t min_n,
                                std::uint64_t id_base) {
    std::vector<Request> reqs;
    double t = 0;
    while (t < seconds || reqs.size() < min_n) {
      t += -std::log(1.0 - rng.next_double()) / rate;
      reqs.push_back(Request{t, pick(), id_base + reqs.size() + 1});
    }
    return reqs;
  }
};

/// Open-loop latencies from due time, and the generator's lag (send time
/// minus due time), in milliseconds.
void open_loop_times(const std::vector<Request>& reqs, Clock::time_point t0,
                     std::vector<double>& lat_ms, std::vector<double>& lag_ms) {
  std::vector<double> due, done;
  for (const Request& r : reqs) {
    if (!r.finished) continue;
    due.push_back(r.due_s);
    done.push_back(seconds_between(t0, r.done));
    lag_ms.push_back(1e3 * (seconds_between(t0, r.sent) - r.due_s));
  }
  for (double s : latencies_from_due(due, done)) lat_ms.push_back(1e3 * s);
}

/// Server-side request time per trace_id from the daemon's trace file
/// (its async 'b'/'e' spans, one JSON event per line). The daemon records a
/// request's 'b' after admitting it, so a fast dispatcher can record the
/// 'e' first: ends are joined to begins after the whole file is read, and
/// such a request's time comes out negative.
std::map<std::uint64_t, double> server_times_us(const std::string& path) {
  std::map<std::uint64_t, double> begin, end, out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"cat\":\"satd\"") == std::string::npos) continue;
    const bool b = line.find("\"ph\":\"b\"") != std::string::npos;
    const bool e = line.find("\"ph\":\"e\"") != std::string::npos;
    const auto ts = line.find("\"ts\":");
    const auto id = line.find("\"id\":\"0x");
    if ((!b && !e) || ts == std::string::npos || id == std::string::npos)
      continue;
    const double t = std::strtod(line.c_str() + ts + 5, nullptr);
    const std::uint64_t key = std::strtoull(line.c_str() + id + 8, nullptr, 16);
    (b ? begin : end)[key] = t;
  }
  for (const auto& [key, t] : end)
    if (const auto it = begin.find(key); it != begin.end())
      out[key] = t - it->second;
  return out;
}

/// The same mix computed in-process through compute_sat_batch_into, one
/// request at a time: what the daemon adds is the rest.
double direct_ms(const std::vector<Image>& images, Mix& mix) {
  sathost::ThreadPool pool(worker_count());
  sat::Options opt;
  opt.backend = sat::Backend::kCpu;
  opt.cpu_engine = sat::CpuEngine::kSkssLb;
  opt.pool = &pool;
  std::vector<std::uint8_t> out(4u << 20);
  std::vector<double> ms;
  for (int i = 0; i < 300; ++i) {
    const Image& im = images[mix.pick()];
    const Shape& s = kShapes[im.shape];
    const auto a = Clock::now();
    if (s.dtype == satd::Dtype::kF32)
      (void)sat::compute_sat_batch_into<float>(
          {satutil::Span2d<const float>(
              reinterpret_cast<const float*>(im.bytes.data()), s.rows, s.cols)},
          {satutil::Span2d<float>(reinterpret_cast<float*>(out.data()), s.rows,
                                  s.cols)},
          opt);
    else
      (void)sat::compute_sat_batch_into<std::int32_t>(
          {satutil::Span2d<const std::int32_t>(
              reinterpret_cast<const std::int32_t*>(im.bytes.data()), s.rows,
              s.cols)},
          {satutil::Span2d<std::int32_t>(
              reinterpret_cast<std::int32_t*>(out.data()), s.rows, s.cols)},
          opt);
    ms.push_back(1e3 * seconds_between(a, Clock::now()));
  }
  return median(ms);
}

}  // namespace

void measure_satd_layer(const RunConfig& cfg, Report& rep) {
  if (cfg.satd_path.empty() || ::access(cfg.satd_path.c_str(), X_OK) != 0)
    throw std::runtime_error("no satd binary at '" + cfg.satd_path + "'");
  ::signal(SIGPIPE, SIG_IGN);
  // Keep the generator's multi-MiB frame buffers on the heap: with glibc's
  // default each one is a fresh mmap, and the page faults of encoding a
  // 1024² request (~ms) would show up as generator lag, not daemon time.
  ::mallopt(M_MMAP_THRESHOLD, 256 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 512 << 20);
  Mix mix(cfg.seed);
  const std::size_t conns = worker_count();
  note("satd: %zu images in the mix; %zu connections", mix.images.size(),
       conns);
  const double closed_s = 0.3 * cfg.seconds;
  const auto pick = [&] { return mix.pick(); };
  Tracer off(false);
  auto d = std::make_unique<Daemon>(cfg, "plain", false);

  // An open loop of Poisson arrivals against the plain daemon (the
  // untraced reference), then the same against a daemon writing its own
  // trace, then a closed loop on it; the two sides join on trace_id.
  const double open_s = 0.3 * cfg.seconds;
  std::vector<Request> open = mix.schedule(kOpenRate, open_s, 0, 1ull << 32);
  std::vector<double> lat, lag;
  {
    LoadGen gen(d->port(), conns, mix.images, off, rep);
    const auto t0 = Clock::now();
    gen.open_loop(open, kOpenWindow);
    open_loop_times(open, t0, lat, lag);
  }
  d->stop();

  Tracer tracer(true);
  Daemon td(cfg, "traced", true);
  std::vector<Request> topen =
      mix.schedule(kOpenRate, open_s, 0, 3ull << 32);
  std::vector<double> tlat, tlag;
  {
    LoadGen gen(td.port(), conns, mix.images, tracer, rep);
    const auto t0 = Clock::now();
    gen.open_loop(topen, kOpenWindow);
    open_loop_times(topen, t0, tlat, tlag);
  }
  const std::string m_open = td.metrics();
  std::vector<Request> tclosed;
  {
    LoadGen gen(td.port(), conns, mix.images, tracer, rep);
    gen.closed_loop(tclosed, kClosedWindow, closed_s, pick, 4ull << 32);
  }
  const std::string m_all = td.metrics();
  td.stop();
  RunConfig traced_cfg = cfg;
  traced_cfg.workload += "-satd";
  write_trace(traced_cfg, tracer);

  // Open-loop figures from the first snapshot; coalescing and pipelining
  // from the closed loop (the second snapshot minus the first).
  const Hist req_us = json_hist(m_open, "satd.request_us");
  const Hist depth = json_hist(m_open, "satd.queue_depth");
  rep.metric("satd.server.request_us_p50", bucket_percentile(req_us.buckets, 50),
             "us");
  rep.metric("satd.server.request_us_p99", bucket_percentile(req_us.buckets, 99),
             "us");
  rep.metric("satd.queue_depth_mean", ratio(depth.sum, depth.count,
                                            "queue_depth_mean (samples)"),
             "count");
  const double reqs = json_value(m_all, "satd.requests_total").value_or(0) -
                      json_value(m_open, "satd.requests_total").value_or(0);
  const double batches = json_value(m_all, "satd.batches_total").value_or(0) -
                         json_value(m_open, "satd.batches_total").value_or(0);
  rep.metric("satd.batch_size_mean",
             batch_size_mean(static_cast<std::uint64_t>(reqs),
                             static_cast<std::uint64_t>(batches)),
             "count");
  rep.metric("satd.rejected_ratio",
             rejected_ratio(static_cast<std::uint64_t>(
                                json_value(m_all, "satd.rejected_overload_total")
                                    .value_or(0)),
                            static_cast<std::uint64_t>(
                                json_value(m_all, "satd.requests_total")
                                    .value_or(0))),
             "ratio");
  rep.metric("satd.engine.fastpath_ratio",
             fastpath_ratio(static_cast<std::uint64_t>(
                                json_value(m_all, "host.lookback.fastpath_tiles")
                                    .value_or(0)),
                            static_cast<std::uint64_t>(
                                json_value(m_all, "host.lookback.tiles_retired")
                                    .value_or(0))),
             "ratio");
  const Hist wait = json_hist(m_all, "host.lookback.flag_wait_us");
  rep.metric("satd.engine.flag_wait_us_per_op",
             ratio(wait.sum,
                   json_value(m_all, "satd.responses_total").value_or(0),
                   "flag_wait_us_per_op (responses)"),
             "us");
  rep.metric("host.lookback.pipeline_overlap_pct",
             json_value(m_all, "host.lookback.pipeline_overlap_pct").value_or(0),
             "%");

  rep.metric("satd.client.encode_us",
             mean(tracer.self_us_of("satd.client.encode")), "us");
  rep.metric("satd.client.decode_us",
             mean(tracer.self_us_of("satd.client.decode")), "us");
  const std::map<std::uint64_t, double> server = server_times_us(td.trace_file());
  std::vector<double> wire;
  std::size_t joined = 0, client = 0;
  for (const std::vector<Request>* v : {&topen, &tclosed})
    for (const Request& r : *v) {
      if (!r.finished) continue;
      ++client;
      const auto it = server.find(r.trace_id);
      if (it == server.end()) continue;
      ++joined;
      if (v == &topen && it->second >= 0)
        wire.push_back(1e6 * seconds_between(r.sent, r.done) - it->second);
    }
  rep.metric("satd.trace_joined_ratio",
             ratio(static_cast<double>(joined), static_cast<double>(client),
                   "trace_joined_ratio (client requests)"),
             "ratio");
  rep.metric("satd.wire_us_p50", wire.empty() ? 0.0 : median(wire), "us");
  rep.metric("loadgen.lag_ms_p99", percentile(tlag, 99), "ms");
  const double direct = direct_ms(mix.images, mix);
  rep.metric("satd.direct_ms", direct, "ms");
  rep.metric("satd.overhead_x", ratio(median(lat), direct, "overhead_x (direct)"),
             "x");
  // From due time, on the plain daemon; the tail by the tail rule.
  rep.metric("satd.latency_ms_p50", median(lat), "ms");
  rep.metric("satd.latency_ms_tail", percentile(lat, tail_percentile(lat.size())),
             "ms");
  rep.metric("satd.trace_overhead_pct", overhead_pct(median(tlat), median(lat)),
             "%");
}

}  // namespace perfbench
