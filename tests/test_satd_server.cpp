// satd server end-to-end over real loopback sockets: concurrent clients
// get bit-exact results vs the sat_sequential oracle, a full admission
// queue replies with the documented OVERLOADED code instead of hanging,
// draining resumes acceptance, the HTTP shim serves the obs registry,
// per-request trace IDs come out as 'b'/'e' async events, each request's
// 'b' ahead of its 'e', and no client that stops reading or sending holds
// back another client, the HTTP shim or stop().
//
// Every server binds port 0 (ephemeral), so parallel ctest runs never
// collide.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/matrix.hpp"
#include "host/sat_cpu.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "tools/satd/client.hpp"
#include "tools/satd/server.hpp"

namespace {

using satd::Dtype;
using satd::ErrorCode;
using satd::Frame;
using satd::Type;

/// Sends one COMPUTE and asserts the RESULT matches sat_sequential.
template <class T>
void roundtrip_one(satd::Client& client, std::uint64_t trace_id,
                   std::uint32_t rows, std::uint32_t cols, Dtype dtype,
                   std::uint64_t seed) {
  const auto input = sat::Matrix<T>::random(rows, cols, seed);
  ASSERT_TRUE(client.send(Type::kCompute, trace_id,
                          satd::encode_matrix_payload(rows, cols, dtype,
                                                      input.view().data())));
  Frame reply;
  ASSERT_TRUE(client.recv(reply));
  ASSERT_EQ(reply.type, Type::kResult) << "trace " << trace_id;
  EXPECT_EQ(reply.trace_id, trace_id);

  satd::MatrixPayload m;
  ASSERT_TRUE(satd::parse_matrix_payload(reply.payload, m));
  ASSERT_EQ(m.rows, rows);
  ASSERT_EQ(m.cols, cols);

  sat::Matrix<T> expected(rows, cols);
  sathost::sat_sequential<T>(input.view(), expected.view());
  // Integral dtypes are bit-exact regardless of tile/batch schedule.
  EXPECT_EQ(std::memcmp(m.data, expected.view().data(),
                        std::size_t{rows} * cols * sizeof(T)),
            0)
      << rows << "x" << cols << " trace " << trace_id;
}

TEST(SatdServer, PingPong) {
  satd::Server server({});
  ASSERT_TRUE(server.start());
  satd::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.send(Type::kPing, 123));
  Frame reply;
  ASSERT_TRUE(client.recv(reply));
  EXPECT_EQ(reply.type, Type::kPong);
  EXPECT_EQ(reply.trace_id, 123u);
  server.stop();
}

/// The number after `key` in /proc/self/status (0 if absent).
std::size_t proc_status(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(key, 0) == 0) return std::stoul(line.substr(key.size()));
  return 0;
}

/// This process's VmSize in KiB.
std::size_t vm_size_kib() { return proc_status("VmSize:"); }

TEST(SatdServer, ConnectionChurnReclaimsReaderThreads) {
  // Sequential connect-PING-close cycles, one connection open at a time.
  // A closed connection must give back all it held: when each one had a
  // reader thread kept until stop(), every connection held on to an 8 MiB
  // stack, and 64 more cycles grew VmSize by 512 MiB. The bound is half
  // that.
  satd::Server server({});
  ASSERT_TRUE(server.start());
  auto cycle = [&](std::uint64_t id) {
    satd::Client client;
    ASSERT_TRUE(client.connect(server.port()));
    ASSERT_TRUE(client.send(Type::kPing, id));
    Frame reply;
    ASSERT_TRUE(client.recv(reply));
    EXPECT_EQ(reply.type, Type::kPong);
  };
  for (std::uint64_t id = 0; id < 64; ++id) cycle(id);
  const std::size_t at64 = vm_size_kib();
  for (std::uint64_t id = 64; id < 128; ++id) cycle(id);
  const std::size_t at128 = vm_size_kib();
  ASSERT_GT(at64, 0u) << "no VmSize line in /proc/self/status";
  EXPECT_LT(at128, at64 + 256 * 1024)
      << "VmSize grew " << (at128 - at64) / 1024 << " MiB over 64 cycles";
  server.stop();
}

/// A plain loopback socket connected to `port`, or -1.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0)
    return fd;
  if (fd >= 0) ::close(fd);
  return -1;
}

bool send_bytes(int fd, const std::vector<std::uint8_t>& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

/// Appends what `fd` receives to `buf` until `done(buf)` holds or the peer
/// closes; false if `timeout_ms` passes first. Waiting through poll() makes
/// a server that never answers fail the test instead of hanging it.
template <class Done>
bool read_within(int fd, std::vector<std::uint8_t>& buf, int timeout_ms,
                 Done done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::uint8_t chunk[4096];
  while (!done(buf)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd p{fd, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) return false;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return true;
    buf.insert(buf.end(), chunk, chunk + n);
  }
  return true;
}

/// Reads one whole frame from `fd` within `timeout_ms`.
bool recv_frame_within(int fd, Frame& out, int timeout_ms) {
  std::vector<std::uint8_t> buf;
  const auto whole = [&](const std::vector<std::uint8_t>& b) {
    std::size_t used = 0;
    return satd::decode_frame(b.data(), b.size(), out, used) ==
           satd::DecodeStatus::kOk;
  };
  return read_within(fd, buf, timeout_ms, whole) && whole(buf);
}

TEST(SatdServer, UnreadRepliesHoldBackOnlyTheirClient) {
  // One client pipelines 16 COMPUTEs of 1024² f32 and never reads its
  // 64 MiB of replies. They must wait for it alone: another client is
  // still answered, and stop() still returns, while it stays connected.
  // A dispatcher replying with a blocking send() stalls on that client
  // and holds every other client and stop() with it.
  satd::Server server({});
  ASSERT_TRUE(server.start());
  satd::Client hog;
  ASSERT_TRUE(hog.connect(server.port()));
  const auto big = sat::Matrix<float>::random(1024, 1024, 1);
  const auto big_payload = satd::encode_matrix_payload(
      1024, 1024, Dtype::kF32, big.view().data());
  for (std::uint64_t id = 1; id <= 16; ++id)
    ASSERT_TRUE(hog.send(Type::kCompute, id, big_payload));

  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const auto small = sat::Matrix<std::int32_t>::random(8, 8, 2);
  ASSERT_TRUE(send_bytes(
      fd, satd::encode_frame(Type::kCompute, 99,
                             satd::encode_matrix_payload(
                                 8, 8, Dtype::kI32, small.view().data()))));
  Frame reply;
  EXPECT_TRUE(recv_frame_within(fd, reply, 5000))
      << "a client that never reads held back another client";
  EXPECT_EQ(reply.type, Type::kResult);
  EXPECT_EQ(reply.trace_id, 99u);
  ::close(fd);

  std::promise<void> stopped;
  std::thread stopper([&] {
    server.stop();
    stopped.set_value();
  });
  EXPECT_EQ(stopped.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "stop() waited on a client that never reads";
  hog.close();  // lets a stop() blocked on the hog finish
  stopper.join();
}

TEST(SatdServer, OpenConnectionsAddNoThreads) {
  // Connections are sockets in the server's poll set, not threads: 32
  // open clients leave the process's thread count where it was.
  satd::Server server({});
  ASSERT_TRUE(server.start());
  const std::size_t before = proc_status("Threads:");
  ASSERT_GT(before, 0u) << "no Threads line in /proc/self/status";
  std::vector<int> fds;
  for (std::uint64_t id = 0; id < 32; ++id) {
    fds.push_back(connect_raw(server.port()));
    ASSERT_GE(fds.back(), 0);
    ASSERT_TRUE(send_bytes(fds.back(), satd::encode_frame(Type::kPing, id)));
    Frame reply;
    ASSERT_TRUE(recv_frame_within(fds.back(), reply, 5000));
    EXPECT_EQ(reply.type, Type::kPong);
  }
  EXPECT_EQ(proc_status("Threads:"), before);
  for (const int fd : fds) ::close(fd);
  server.stop();
}

TEST(SatdServer, SilentHttpClientDoesNotBlockMetrics) {
  // An HTTP client that connects and sends nothing must not hold the
  // shim: the next client's /healthz is still answered.
  satd::Server server({});
  ASSERT_TRUE(server.start());
  const int silent = connect_raw(server.http_port());
  ASSERT_GE(silent, 0);
  const int fd = connect_raw(server.http_port());
  ASSERT_GE(fd, 0);
  const std::string req = "GET /healthz HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(
      send_bytes(fd, std::vector<std::uint8_t>(req.begin(), req.end())));
  std::vector<std::uint8_t> buf;
  EXPECT_TRUE(read_within(fd, buf, 3000, [](const auto&) { return false; }))
      << "a silent HTTP client held back /healthz";
  const std::string health(buf.begin(), buf.end());
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);
  ::close(fd);
  ::close(silent);  // lets a shim blocked on it get back to accept()
  server.stop();
}

TEST(SatdServer, StopWithoutStartIsANoop) {
  // stop() (also run by the destructor) must not join threads that a
  // failed or missing start() never created.
  satd::Server server({});
  server.stop();
}

TEST(SatdServer, ConcurrentClientsMatchSequentialOracle) {
  satd::ServerOptions opts;
  opts.cpu_threads = 2;
  opts.batch_max = 4;
  satd::Server server(opts);
  ASSERT_TRUE(server.start());

  // 4 concurrent connections x 6 requests of mixed shapes and dtypes —
  // the randomized differential test of the whole pipeline: framing,
  // admission, shape coalescing, batch engine, reply routing.
  constexpr int kClients = 4;
  constexpr int kRequests = 6;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      satd::Client client;
      ASSERT_TRUE(client.connect(server.port()));
      for (int i = 0; i < kRequests; ++i) {
        const std::uint64_t trace_id =
            (std::uint64_t(c + 1) << 32) | std::uint64_t(i);
        const std::uint64_t seed = 100 * std::uint64_t(c) + std::uint64_t(i);
        switch (i % 3) {
          case 0:
            roundtrip_one<std::int32_t>(client, trace_id, 64, 64, Dtype::kI32,
                                        seed);
            break;
          case 1:
            roundtrip_one<std::int32_t>(client, trace_id, 33, 57, Dtype::kI32,
                                        seed);
            break;
          default:
            roundtrip_one<std::int64_t>(client, trace_id, 48, 16, Dtype::kI64,
                                        seed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const obs::Snapshot snap = server.registry().snapshot();
  const std::uint64_t* reqs = snap.counter("satd.requests_total");
  const std::uint64_t* resps = snap.counter("satd.responses_total");
  ASSERT_NE(reqs, nullptr);
  ASSERT_NE(resps, nullptr);
  EXPECT_EQ(*reqs, std::uint64_t(kClients) * kRequests);
  EXPECT_EQ(*resps, std::uint64_t(kClients) * kRequests);
  server.stop();
}

TEST(SatdServer, PipelinedSameShapeBurstCoalesces) {
  // Dispatch stays frozen until the whole burst is queued, so the batch
  // does not depend on how fast the loop admits jobs. The loop handles a
  // connection's frames in order and no RESULT can be sent while dispatch
  // is frozen, so the PONG to a PING sent after the burst proves that all
  // 8 jobs are queued.
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;

  satd::ServerOptions opts;
  opts.batch_max = 8;
  opts.dispatch_hook = [&] {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return released; });
  };
  satd::Server server(opts);
  ASSERT_TRUE(server.start());

  satd::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  constexpr int kBurst = 8;
  std::vector<sat::Matrix<std::int32_t>> inputs;
  for (int i = 0; i < kBurst; ++i) {
    inputs.push_back(sat::Matrix<std::int32_t>::random(40, 40, 500 + i));
    ASSERT_TRUE(client.send(
        Type::kCompute, std::uint64_t(i + 1),
        satd::encode_matrix_payload(40, 40, Dtype::kI32,
                                    inputs.back().view().data())));
  }
  ASSERT_TRUE(client.send(Type::kPing, 99));
  Frame reply;
  ASSERT_TRUE(client.recv(reply));
  ASSERT_EQ(reply.type, Type::kPong);

  {
    std::lock_guard lock(mu);
    released = true;
  }
  cv.notify_all();

  std::vector<bool> seen(kBurst, false);
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.recv(reply));
    ASSERT_EQ(reply.type, Type::kResult);
    ASSERT_GE(reply.trace_id, 1u);
    ASSERT_LE(reply.trace_id, std::uint64_t(kBurst));
    const auto idx = static_cast<std::size_t>(reply.trace_id - 1);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;

    satd::MatrixPayload m;
    ASSERT_TRUE(satd::parse_matrix_payload(reply.payload, m));
    sat::Matrix<std::int32_t> expected(40, 40);
    sathost::sat_sequential<std::int32_t>(inputs[idx].view(),
                                          expected.view());
    EXPECT_EQ(std::memcmp(m.data, expected.view().data(), 40 * 40 * 4), 0);
  }

  // The whole queued burst shares one shape, so it is one engine pass.
  const obs::Snapshot snap = server.registry().snapshot();
  const std::uint64_t* batches = snap.counter("satd.batches_total");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(*batches, 1u);
  server.stop();
}

TEST(SatdServer, FullQueueRepliesOverloadedAndDrainResumes) {
  // A dispatch hook that blocks until released: with dispatch frozen, the
  // queue (capacity 2) fills deterministically and the third request must
  // get the documented backpressure reply, not a hang.
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;

  satd::ServerOptions opts;
  opts.queue_cap = 2;
  opts.dispatch_hook = [&] {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return released; });
  };
  satd::Server server(opts);
  ASSERT_TRUE(server.start());

  satd::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  const auto input = sat::Matrix<std::int32_t>::random(16, 16, 1);
  const auto payload = satd::encode_matrix_payload(
      16, 16, Dtype::kI32, input.view().data());
  for (std::uint64_t id = 1; id <= 3; ++id)
    ASSERT_TRUE(client.send(Type::kCompute, id, payload));

  // The reader admits 1 and 2, then finds the queue full: the first (and
  // only) reply so far must be the id-3 rejection.
  Frame reply;
  ASSERT_TRUE(client.recv(reply));
  EXPECT_EQ(reply.type, Type::kError);
  EXPECT_EQ(reply.trace_id, 3u);
  satd::ErrorPayload err;
  ASSERT_TRUE(satd::parse_error_payload(reply.payload, err));
  EXPECT_EQ(err.code, ErrorCode::kOverloaded);

  {
    std::lock_guard lock(mu);
    released = true;
  }
  cv.notify_all();

  // Draining must answer the two admitted jobs...
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.recv(reply));
    EXPECT_EQ(reply.type, Type::kResult);
  }
  // ...and resume acceptance afterwards.
  ASSERT_TRUE(client.send(Type::kCompute, 4, payload));
  ASSERT_TRUE(client.recv(reply));
  EXPECT_EQ(reply.type, Type::kResult);
  EXPECT_EQ(reply.trace_id, 4u);

  const obs::Snapshot snap = server.registry().snapshot();
  const std::uint64_t* rejected =
      snap.counter("satd.rejected_overload_total");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(*rejected, 1u);
  server.stop();
}

TEST(SatdServer, MalformedComputeKeepsConnectionUsable) {
  satd::Server server({});
  ASSERT_TRUE(server.start());
  satd::Client client;
  ASSERT_TRUE(client.connect(server.port()));

  // dtype byte 0x55 is unknown: UNSUPPORTED, but framing is intact so the
  // connection must survive.
  const std::int32_t vals[4] = {1, 2, 3, 4};
  auto payload = satd::encode_matrix_payload(2, 2, Dtype::kI32, vals);
  payload[8] = 0x55;
  ASSERT_TRUE(client.send(Type::kCompute, 9, payload));
  Frame reply;
  ASSERT_TRUE(client.recv(reply));
  EXPECT_EQ(reply.type, Type::kError);
  satd::ErrorPayload err;
  ASSERT_TRUE(satd::parse_error_payload(reply.payload, err));
  EXPECT_EQ(err.code, ErrorCode::kUnsupported);

  ASSERT_TRUE(client.send(Type::kPing, 10));
  ASSERT_TRUE(client.recv(reply));
  EXPECT_EQ(reply.type, Type::kPong);
  server.stop();
}

TEST(SatdServer, GarbageBytesGetBadFrameThenDisconnect) {
  satd::Server server({});
  ASSERT_TRUE(server.start());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  // A plausible length prefix followed by garbage where the magic belongs.
  const std::uint8_t junk[] = {0x20, 0, 0, 0, 'j', 'u', 'n', 'k',
                               1,    0, 1, 0, 0,   0,   0,   0,
                               0,    0, 0, 0, 0,   0,   0,   0,
                               0,    0, 0, 0, 0,   0,   0,   0,
                               0,    0, 0, 0};
  ASSERT_EQ(::send(fd, junk, sizeof junk, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof junk));

  // Expect one ERROR(kBadFrame) frame, then EOF.
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buf.insert(buf.end(), chunk, chunk + n);
  }
  ::close(fd);

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(satd::decode_frame(buf.data(), buf.size(), frame, consumed),
            satd::DecodeStatus::kOk);
  EXPECT_EQ(frame.type, Type::kError);
  satd::ErrorPayload err;
  ASSERT_TRUE(satd::parse_error_payload(frame.payload, err));
  EXPECT_EQ(err.code, ErrorCode::kBadFrame);
  EXPECT_EQ(consumed, buf.size()) << "nothing should follow the error";

  const obs::Snapshot snap = server.registry().snapshot();
  const std::uint64_t* bad = snap.counter("satd.bad_frames_total");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(*bad, 1u);
  server.stop();
}

TEST(SatdServer, HttpShimServesMetricsAndHealth) {
  satd::Server server({});
  ASSERT_TRUE(server.start());

  satd::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  roundtrip_one<std::int32_t>(client, 77, 32, 32, Dtype::kI32, 3);

  const auto http_get = [&](const std::string& path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.http_port());
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(req.size()));
    std::string out;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
  };

  const std::string health = http_get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = http_get("/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/json"), std::string::npos);
  EXPECT_NE(metrics.find("\"satd.requests_total\":1"), std::string::npos);
  EXPECT_NE(metrics.find("\"satd.responses_total\":1"), std::string::npos);
  EXPECT_NE(metrics.find("satd.request_us"), std::string::npos);
  // The engine publishes into the same registry: host.* appears beside
  // satd.* exactly as docs/satd.md promises.
  EXPECT_NE(metrics.find("host.lookback.tiles_retired"), std::string::npos);

  EXPECT_NE(http_get("/nope").find("404"), std::string::npos);
  server.stop();
}

TEST(SatdServer, TraceIdsComeOutAsAsyncEvents) {
  obs::TraceSink trace;
  satd::ServerOptions opts;
  opts.trace = &trace;
  satd::Server server(opts);
  ASSERT_TRUE(server.start());

  satd::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  roundtrip_one<std::int32_t>(client, 0xFEEDBEEFull, 24, 24, Dtype::kI32, 4);
  server.stop();

  std::ostringstream os;
  trace.write(os);
  const std::string json = os.str();
  // One 'b'/'e' pair keyed by the request's trace id, in the "satd"
  // category (the Perfetto correlation workflow in docs/satd.md).
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0xfeedbeef\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"satd\""), std::string::npos);
}

/// One satd request event from a written trace: its phase, id and time,
/// plus whether the span was closed as an OVERLOADED rejection.
struct RequestEvent {
  char ph = 0;
  std::string id;
  double ts = 0.0;
  bool overloaded = false;
};

/// The "request" 'b'/'e' events of a TraceSink::write() output, in event
/// order (the writer puts one event per line).
std::vector<RequestEvent> request_events(const std::string& json) {
  const auto field = [](const std::string& line, const std::string& key) {
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos) return std::string();
    std::size_t from = at + tag.size();
    std::size_t to = line.find_first_of(",}", from);
    if (line[from] == '"') to = line.find('"', ++from);
    return line.substr(from, to - from);
  };
  std::vector<RequestEvent> out;
  std::istringstream is(json);
  for (std::string line; std::getline(is, line);) {
    const std::string ph = field(line, "ph");
    if (field(line, "name") != "request" || field(line, "cat") != "satd" ||
        (ph != "b" && ph != "e"))
      continue;
    RequestEvent e;
    e.ph = ph[0];
    e.id = field(line, "id");
    e.ts = std::stod(field(line, "ts"));
    e.overloaded = line.find("\"overloaded\":true") != std::string::npos;
    out.push_back(e);
  }
  return out;
}

TEST(SatdServer, TraceSpansOpenBeforeTheyClose) {
  // A pipelined burst of tiny requests lets the dispatcher finish a job
  // while the reader is still admitting the next ones; a queue this short
  // also turns some of them away. Either way, every request's 'b' must
  // come before its 'e' in the trace, by position and by timestamp.
  obs::TraceSink trace;
  satd::ServerOptions opts;
  opts.trace = &trace;
  opts.queue_cap = 4;
  satd::Server server(opts);
  ASSERT_TRUE(server.start());

  satd::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  constexpr std::uint64_t kBurst = 64;
  const auto input = sat::Matrix<std::int32_t>::random(8, 8, 3);
  const auto payload =
      satd::encode_matrix_payload(8, 8, Dtype::kI32, input.view().data());
  for (std::uint64_t id = 1; id <= kBurst; ++id)
    ASSERT_TRUE(client.send(Type::kCompute, id, payload));
  std::size_t overloaded = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    Frame reply;
    ASSERT_TRUE(client.recv(reply));
    if (reply.type == Type::kError) {
      satd::ErrorPayload err;
      ASSERT_TRUE(satd::parse_error_payload(reply.payload, err));
      ASSERT_EQ(err.code, ErrorCode::kOverloaded);
      ++overloaded;
    } else {
      ASSERT_EQ(reply.type, Type::kResult);
    }
  }
  server.stop();

  std::ostringstream os;
  trace.write(os);
  struct Span {
    int begins = 0, ends = 0;
    std::size_t begin_at = 0, end_at = 0;
    double begin_ts = 0.0, end_ts = 0.0;
  };
  std::map<std::string, Span> spans;
  std::size_t overloaded_ends = 0;
  const std::vector<RequestEvent> events = request_events(os.str());
  for (std::size_t k = 0; k < events.size(); ++k) {
    Span& s = spans[events[k].id];
    if (events[k].ph == 'b') {
      ++s.begins;
      s.begin_at = k;
      s.begin_ts = events[k].ts;
    } else {
      ++s.ends;
      s.end_at = k;
      s.end_ts = events[k].ts;
      overloaded_ends += events[k].overloaded ? 1 : 0;
    }
  }
  EXPECT_EQ(spans.size(), kBurst);
  for (const auto& [id, s] : spans) {
    EXPECT_EQ(s.begins, 1) << id;
    EXPECT_EQ(s.ends, 1) << id;
    EXPECT_LT(s.begin_at, s.end_at) << id;
    EXPECT_LE(s.begin_ts, s.end_ts) << id;
  }
  // A refused request's span is closed on the spot, tagged overloaded.
  EXPECT_EQ(overloaded_ends, overloaded);
}

TEST(SatdServer, ShutdownFrameDrainsAndRejectsNewWork) {
  satd::Server server({});
  ASSERT_TRUE(server.start());

  satd::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.send(Type::kShutdown, 1));
  Frame reply;
  ASSERT_TRUE(client.recv(reply));
  EXPECT_EQ(reply.type, Type::kPong);  // the shutdown ack

  // Post-shutdown COMPUTEs are refused with the draining code.
  const auto input = sat::Matrix<std::int32_t>::random(8, 8, 9);
  ASSERT_TRUE(client.send(Type::kCompute, 2,
                          satd::encode_matrix_payload(
                              8, 8, Dtype::kI32, input.view().data())));
  ASSERT_TRUE(client.recv(reply));
  EXPECT_EQ(reply.type, Type::kError);
  satd::ErrorPayload err;
  ASSERT_TRUE(satd::parse_error_payload(reply.payload, err));
  EXPECT_EQ(err.code, ErrorCode::kShuttingDown);
  server.stop();
}

}  // namespace
