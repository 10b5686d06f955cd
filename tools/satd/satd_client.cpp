// satd-client — load and correctness driver for satd.
//
//   satd-client --port-file /tmp/satd.port --connections 4 --requests 32
//               --shapes 256x256,128x512 --dtype i32 --validate
//
// Each connection runs on its own thread and *pipelines*: it builds every
// request first, then writes them back to back before reading any reply,
// so a burst of same-shape frames lands in the server's queue together and
// exercises the batching path. Replies are matched to requests by trace_id
// (batching reorders across shapes).
// OVERLOADED replies are retried with backoff up to --retries times; any
// other error, a missing reply, or (--validate) a result that mismatches
// the sat_sequential oracle makes the exit status nonzero.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/matrix.hpp"
#include "host/sat_cpu.hpp"
#include "tools/satd/client.hpp"
#include "util/argparse.hpp"

namespace {

struct Shape {
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
};

std::vector<Shape> parse_shapes(const std::string& spec) {
  std::vector<Shape> shapes;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    unsigned r = 0, c = 0;
    if (std::sscanf(item.c_str(), "%ux%u", &r, &c) != 2 || r == 0 || c == 0) {
      std::fprintf(stderr, "satd-client: bad shape '%s' (want RxC)\n",
                   item.c_str());
      return {};
    }
    shapes.push_back({r, c});
    pos = end + 1;
  }
  return shapes;
}

std::uint16_t resolve_port(const satutil::ArgParser& args) {
  const std::string port_file = args.get("port-file");
  if (port_file.empty())
    return static_cast<std::uint16_t>(args.get_int("port"));
  std::FILE* f = std::fopen(port_file.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "satd-client: cannot read port file '%s'\n",
                 port_file.c_str());
    return 0;
  }
  unsigned port = 0;
  char line[128];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "port=%u", &port) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::uint16_t>(port);
}

/// One request's spec, input and encoded payload (resent on OVERLOADED),
/// kept until its reply arrives.
template <class T>
struct Pending {
  Shape shape;
  sat::Matrix<T> input;
  std::vector<std::uint8_t> payload;
};

template <class T>
bool check_result(const Pending<T>& p, const satd::MatrixPayload& m) {
  sat::Matrix<T> expected(p.shape.rows, p.shape.cols);
  sathost::sat_sequential<T>(p.input.view(), expected.view());
  const T* got = reinterpret_cast<const T*>(m.data);
  for (std::uint32_t r = 0; r < p.shape.rows; ++r) {
    for (std::uint32_t c = 0; c < p.shape.cols; ++c) {
      const T want = expected(r, c);
      const T have = got[static_cast<std::size_t>(r) * p.shape.cols + c];
      bool ok;
      if constexpr (std::is_floating_point_v<T>) {
        const double tol =
            1e-4 * std::max(1.0, std::abs(static_cast<double>(want)));
        ok = std::abs(static_cast<double>(have) -
                      static_cast<double>(want)) <= tol;
      } else {
        ok = have == want;  // integral results are bit-exact
      }
      if (!ok) {
        std::fprintf(stderr,
                     "satd-client: mismatch at (%u,%u) of %ux%u: got %g "
                     "want %g\n",
                     r, c, p.shape.rows, p.shape.cols,
                     static_cast<double>(have), static_cast<double>(want));
        return false;
      }
    }
  }
  return true;
}

template <class T>
int run_connection(std::uint16_t port, satd::Dtype dtype,
                   const std::vector<Shape>& shapes, int requests,
                   std::uint64_t conn_index, std::uint64_t seed, bool validate,
                   int retries) {
  satd::Client client;
  if (!client.connect(port)) {
    std::fprintf(stderr, "satd-client: connect to 127.0.0.1:%u failed\n",
                 port);
    return 1;
  }

  // Trace ids grow with i, so the map iterates in request order.
  std::map<std::uint64_t, Pending<T>> pending;
  for (int i = 0; i < requests; ++i) {
    const Shape shape = shapes[static_cast<std::size_t>(i) % shapes.size()];
    const std::uint64_t trace_id = (conn_index << 32) | std::uint64_t(i + 1);
    auto input = sat::Matrix<T>::random(shape.rows, shape.cols,
                                        seed + trace_id);
    auto payload = satd::encode_matrix_payload(shape.rows, shape.cols, dtype,
                                               input.view().data());
    pending.emplace(trace_id, Pending<T>{shape, std::move(input),
                                         std::move(payload)});
  }
  for (const auto& [trace_id, p] : pending) {
    if (!client.send(satd::Type::kCompute, trace_id, p.payload)) {
      std::fprintf(stderr, "satd-client: send failed\n");
      return 1;
    }
  }

  int failures = 0;
  std::map<std::uint64_t, int> retries_left;
  while (!pending.empty()) {
    satd::Frame reply;
    if (!client.recv(reply)) {
      std::fprintf(stderr, "satd-client: connection lost with %zu replies "
                           "outstanding\n",
                   pending.size());
      return 1;
    }
    auto it = pending.find(reply.trace_id);
    if (it == pending.end()) {
      std::fprintf(stderr, "satd-client: reply for unknown trace id %" PRIx64
                           "\n",
                   reply.trace_id);
      return 1;
    }
    if (reply.type == satd::Type::kError) {
      satd::ErrorPayload err;
      if (!satd::parse_error_payload(reply.payload, err)) return 1;
      if (err.code == satd::ErrorCode::kOverloaded) {
        int& left = retries_left.try_emplace(reply.trace_id, retries).first
                        ->second;
        if (left-- > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          if (!client.send(satd::Type::kCompute, reply.trace_id,
                           it->second.payload))
            return 1;
          continue;
        }
      }
      std::fprintf(stderr, "satd-client: server error %u: %s\n",
                   static_cast<unsigned>(err.code), err.message.c_str());
      ++failures;
      pending.erase(it);
      continue;
    }
    if (reply.type != satd::Type::kResult) {
      std::fprintf(stderr, "satd-client: unexpected reply type 0x%x\n",
                   static_cast<unsigned>(reply.type));
      return 1;
    }
    satd::MatrixPayload m;
    if (!satd::parse_matrix_payload(reply.payload, m) ||
        m.rows != it->second.shape.rows || m.cols != it->second.shape.cols) {
      std::fprintf(stderr, "satd-client: malformed RESULT payload\n");
      ++failures;
    } else if (validate && !check_result<T>(it->second, m)) {
      ++failures;
    }
    pending.erase(it);
  }
  return failures == 0 ? 0 : 1;
}

template <class T>
int run_all(std::uint16_t port, satd::Dtype dtype,
            const std::vector<Shape>& shapes, int connections, int requests,
            std::uint64_t seed, bool validate, int retries) {
  std::vector<std::thread> threads;
  std::vector<int> status(static_cast<std::size_t>(connections), 0);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      status[static_cast<std::size_t>(c)] =
          run_connection<T>(port, dtype, shapes, requests,
                            static_cast<std::uint64_t>(c + 1), seed, validate,
                            retries);
    });
  }
  for (auto& t : threads) t.join();
  int rc = 0;
  for (const int s : status) rc |= s;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("satd-client",
                          "satd load/correctness driver (see docs/satd.md)");
  args.add("port", "0", "satd binary-protocol port")
      .add("port-file", "", "read the port from satd's --port-file output")
      .add("connections", "2", "concurrent client connections")
      .add("requests", "8", "pipelined requests per connection")
      .add("shapes", "256x256", "comma list of RxC request shapes")
      .add("dtype", "i32", "element type: f32, i32, or i64")
      .add("seed", "1", "base RNG seed for request matrices")
      .add("retries", "50", "max OVERLOADED retries per request")
      .add_flag("validate", "check every result against sat_sequential")
      .add_flag("shutdown", "send a SHUTDOWN frame after the burst");
  if (!args.parse(argc, argv)) return 2;

  const std::uint16_t port = resolve_port(args);
  if (port == 0) {
    std::fprintf(stderr, "satd-client: no port (use --port or --port-file)\n");
    return 2;
  }
  const auto shapes = parse_shapes(args.get("shapes"));
  if (shapes.empty()) return 2;
  const int connections = static_cast<int>(args.get_int("connections"));
  const int requests = static_cast<int>(args.get_int("requests"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool validate = args.get_flag("validate");
  const int retries = static_cast<int>(args.get_int("retries"));
  const std::string dtype = args.get("dtype");

  int rc;
  if (dtype == "f32") {
    rc = run_all<float>(port, satd::Dtype::kF32, shapes, connections,
                        requests, seed, validate, retries);
  } else if (dtype == "i32") {
    rc = run_all<std::int32_t>(port, satd::Dtype::kI32, shapes, connections,
                               requests, seed, validate, retries);
  } else if (dtype == "i64") {
    rc = run_all<std::int64_t>(port, satd::Dtype::kI64, shapes, connections,
                               requests, seed, validate, retries);
  } else {
    std::fprintf(stderr, "satd-client: unknown dtype '%s'\n", dtype.c_str());
    return 2;
  }

  if (args.get_flag("shutdown")) {
    satd::Client client;
    if (!client.connect(port) || !client.send(satd::Type::kShutdown, 0)) {
      std::fprintf(stderr, "satd-client: SHUTDOWN send failed\n");
      return 1;
    }
    satd::Frame ack;
    if (!client.recv(ack) || ack.type != satd::Type::kPong) {
      std::fprintf(stderr, "satd-client: no SHUTDOWN ack\n");
      return 1;
    }
  }

  std::printf("satd-client: %d connection(s) x %d request(s): %s\n",
              connections, requests, rc == 0 ? "ok" : "FAILED");
  return rc;
}
