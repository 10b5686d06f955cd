// satd — the SAT service daemon. Binds the length-prefixed binary protocol
// and the HTTP /metrics + /healthz shim on localhost and serves until
// SIGINT/SIGTERM or a SHUTDOWN frame. docs/satd.md is the operator manual.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "tools/satd/server.hpp"
#include "util/argparse.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("satd", "SAT service daemon (see docs/satd.md)");
  args.add("port", "0", "TCP port for the binary protocol (0 = ephemeral)")
      .add("http-port", "0", "port for /metrics and /healthz (0 = ephemeral)")
      .add("port-file", "",
           "write 'port=N' and 'http=N' lines here once bound (for scripts)")
      .add("queue-cap", "64",
           "admission queue bound; a full queue replies OVERLOADED")
      .add("batch-max", "8", "max same-shape jobs coalesced per engine pass")
      .add("threads", "0", "engine pool workers (0 = hardware concurrency)")
      .add("max-frame-mb", "64", "reject frames larger than this many MiB")
      .add("trace-out", "",
           "write a Chrome trace_events JSON here on shutdown");
  if (!args.parse(argc, argv)) return 2;

  obs::Registry metrics;
  std::unique_ptr<obs::TraceSink> trace;
  const std::string trace_out = args.get("trace-out");
  if (!trace_out.empty()) trace = std::make_unique<obs::TraceSink>();

  satd::ServerOptions opts;
  opts.port = static_cast<std::uint16_t>(args.get_int("port"));
  opts.http_port = static_cast<std::uint16_t>(args.get_int("http-port"));
  opts.queue_cap = static_cast<std::size_t>(args.get_int("queue-cap"));
  opts.batch_max = static_cast<std::size_t>(args.get_int("batch-max"));
  opts.cpu_threads = static_cast<std::size_t>(args.get_int("threads"));
  opts.max_frame_bytes =
      static_cast<std::size_t>(args.get_int("max-frame-mb")) << 20;
  opts.metrics = &metrics;
  opts.trace = trace.get();

  satd::Server server(opts);
  if (!server.start()) return 1;

  std::printf("satd listening on 127.0.0.1:%u (http 127.0.0.1:%u)\n",
              server.port(), server.http_port());
  std::fflush(stdout);

  const std::string port_file = args.get("port-file");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "satd: cannot write port file '%s'\n",
                   port_file.c_str());
      server.stop();
      return 1;
    }
    std::fprintf(f, "port=%u\nhttp=%u\n", server.port(), server.http_port());
    std::fclose(f);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Poll the signal flag between bounded waits: a handler can set a flag
  // but cannot notify the server's condition variable.
  while (g_signal == 0 && !server.wait_for_ms(200)) {
  }

  std::printf("satd: shutting down (%s)\n",
              g_signal != 0 ? "signal" : "SHUTDOWN frame");
  std::fflush(stdout);
  server.stop();

  if (trace && !trace->write_file(trace_out)) return 1;
  return 0;
}
