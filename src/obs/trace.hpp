// Structured trace sink: records spans and instants and serializes them in
// the Chrome `trace_events` JSON format, loadable in chrome://tracing and
// https://ui.perfetto.dev. See docs/observability.md for the span schema
// this repository emits (block lifetimes, look-back walks, flag waits,
// host thread-pool chunks).
//
// Two clock domains share one file, separated by process id:
//   - simulated-GPU events carry *simulated* microseconds (the discrete-
//     event clock of gpusim), one process per kernel launch;
//   - host events carry wall-clock microseconds since the sink's creation
//     (now_host_us()).
// Timestamps are comparable within a process, not across the two domains.
//
// Thread safety: every recording call takes the sink's mutex. Spans are
// coarse (one per block / walk / wait / pool chunk, not per memory access),
// so the lock is far off any hot path; the zero-overhead-when-off rule is
// enforced by callers holding a null TraceSink* (the only off switch; see
// obs/registry.hpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace obs {

class TraceSink {
 public:
  TraceSink();

  /// Registers a named process track (a kernel launch, a host pool) and
  /// returns its pid. Emits the `process_name` metadata event.
  int register_process(std::string_view name);

  /// A complete span (`ph:"X"`): [ts_us, ts_us + dur_us) on (pid, tid).
  /// `args_json`, when non-empty, must be a serialized JSON object and is
  /// embedded verbatim as the event's "args".
  void complete(int pid, std::uint64_t tid, std::string_view name,
                std::string_view cat, double ts_us, double dur_us,
                std::string args_json = {});

  /// A zero-duration instant event (`ph:"i"`).
  void instant(int pid, std::uint64_t tid, std::string_view name,
               std::string_view cat, double ts_us, std::string args_json = {});

  /// Nestable async span begin/end (`ph:"b"` / `ph:"e"`). Unlike complete
  /// spans these are keyed by (cat, id), not by thread, so one logical
  /// operation that hops threads — a satd request travelling
  /// reader → queue → dispatcher — renders as a single track row in
  /// Perfetto. `id` is the correlation key (tools/satd passes the request's
  /// trace id); begin and end must use the same pid, cat, and id.
  void async_begin(int pid, std::uint64_t id, std::string_view name,
                   std::string_view cat, double ts_us,
                   std::string args_json = {});
  void async_end(int pid, std::uint64_t id, std::string_view name,
                 std::string_view cat, double ts_us,
                 std::string args_json = {});

  /// Host-side clock: wall microseconds since this sink was created.
  [[nodiscard]] double now_host_us() const;

  [[nodiscard]] std::size_t event_count() const;

  /// Serializes {"traceEvents":[...],"displayTimeUnit":"ms"}.
  void write(std::ostream& os) const;

  /// Writes the JSON to `path`; prints a diagnostic to stderr and returns
  /// false on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  struct Event {
    char ph;  ///< 'X' complete, 'i' instant, 'M' metadata, 'b'/'e' async
    int pid;
    std::uint64_t tid;  ///< thread lane ('X'/'i') or correlation id ('b'/'e')
    double ts_us;
    double dur_us;
    std::string name;
    std::string cat;
    std::string args_json;
  };

  mutable std::mutex mu_;
  std::vector<Event> events_;
  int next_pid_ = 1;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace obs
