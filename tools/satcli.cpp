// satcli — command-line front end for the library.
//
//   satcli --mode compute --rows 512 --cols 768 --algorithm skss_lb --w 64
//   satcli --mode compute --rows 1024 --cols 1024 --check-protocol
//   satcli --mode cell --n 8192 --algorithm skss_lb --w 128
//   satcli --mode tune --rows 4096 --cols 4096
//   satcli --mode trace --n 2048 --w 128 --out trace.csv
//   satcli --mode verify
//
// modes:
//   compute  run an algorithm on a random matrix, validate, print stats
//   cell     price one Table III cell with the performance model
//   tune     pick the fastest (algorithm, W) for a shape
//   trace    dump the per-block timeline of a SKSS-LB run as CSV
//   verify   run every registry algorithm under the soft-sync protocol
//            checker across a size/tile-width sweep
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "model/table3.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "repro/repro.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

namespace {

/// Observability requested on the command line: `--metrics[=json|pretty]`
/// and `--trace-out <file>`, honored by compute and cell modes.
struct ObsRequest {
  std::string metrics_mode;  ///< "" (off), "json", or "pretty"
  std::string trace_path;    ///< "" when no trace requested
  obs::Registry registry;
  obs::TraceSink trace;

  [[nodiscard]] bool metrics_on() const { return !metrics_mode.empty(); }
  [[nodiscard]] bool trace_on() const { return !trace_path.empty(); }

  explicit ObsRequest(const satutil::ArgParser& args) {
    const std::string m = args.get("metrics");
    if (m == "true" || m == "pretty") metrics_mode = "pretty";
    else if (m == "json") metrics_mode = "json";
    else if (m != "false") {
      std::fprintf(stderr,
                   "unknown --metrics format '%s' (want json or pretty)\n",
                   m.c_str());
      std::exit(1);
    }
    trace_path = args.get("trace-out");
  }

  /// Prints the snapshot and writes the trace file. Returns false on I/O
  /// failure writing the trace.
  [[nodiscard]] bool finish() {
    if (metrics_on()) {
      const obs::Snapshot snap = registry.snapshot();
      const std::string out =
          metrics_mode == "json" ? snap.to_json() + "\n" : snap.to_pretty();
      std::fputs(out.c_str(), stdout);
    }
    if (trace_on()) {
      if (!trace.write_file(trace_path)) return false;
      std::printf("wrote %zu trace events to %s\n", trace.event_count(),
                  trace_path.c_str());
    }
    return true;
  }
};

sat::CpuEngine parse_host_impl(const std::string& name) {
  if (name == "sequential") return sat::CpuEngine::kSequential;
  if (name == "simd") return sat::CpuEngine::kSimd;
  SAT_CHECK_MSG(name == "skss_lb", "unknown host engine '" << name << "'");
  return sat::CpuEngine::kSkssLb;
}

sat::Storage parse_storage(const std::string& name) {
  if (name == "dense") return sat::Storage::kDense;
  if (name == "residual") return sat::Storage::kTiledResidual;
  if (name == "kahan") return sat::Storage::kKahanF32;
  SAT_CHECK_MSG(false, "unknown storage mode '" << name << "'");
  return sat::Storage::kDense;
}

satalgo::Algorithm parse_algorithm(const std::string& name) {
  if (name == "duplicate") return satalgo::Algorithm::kDuplicate;
  if (name == "2r2w") return satalgo::Algorithm::k2R2W;
  if (name == "2r2w_opt") return satalgo::Algorithm::k2R2WOptimal;
  if (name == "2r1w") return satalgo::Algorithm::k2R1W;
  if (name == "1r1w") return satalgo::Algorithm::k1R1W;
  if (name == "hybrid") return satalgo::Algorithm::kHybrid;
  if (name == "skss") return satalgo::Algorithm::kSkss;
  if (name == "skss_lb") return satalgo::Algorithm::kSkssLb;
  SAT_CHECK_MSG(false, "unknown algorithm '" << name << "'");
  return satalgo::Algorithm::kSkssLb;
}

/// Validates every table against the CPU oracle and prints one summary
/// line; returns the first mismatch.
std::optional<std::string> report(const std::string& algorithm,
                                  std::span<const sat::Matrix<float>> inputs,
                                  std::span<const sat::Matrix<float>> tables,
                                  const std::string& shape) {
  std::optional<std::string> err;
  for (std::size_t k = 0; k < inputs.size() && !err; ++k) {
    if (auto e = sat::validate_sat(inputs[k], tables[k])) {
      err = inputs.size() > 1 ? "image " + std::to_string(k) + ": " + *e : *e;
    }
  }
  const char* ok = inputs.size() > 1 ? "all images validated against CPU oracle"
                                     : "validated against CPU oracle";
  std::printf("%s on %s: %s\n", algorithm.c_str(), shape.c_str(),
              err ? err->c_str() : ok);
  return err;
}

/// --host-impl: the host core's engines (sat::compute_sat[_batch]).
std::optional<std::string> compute_on_host(
    const satutil::ArgParser& args, const std::vector<sat::Matrix<float>>& in,
    ObsRequest& obs, const std::string& shape) {
  sat::Options opts;
  opts.cpu_engine = parse_host_impl(args.get("host-impl"));
  opts.cpu_tile_w = static_cast<std::size_t>(args.get_int("tile-width"));
  opts.cpu_threads = static_cast<std::size_t>(args.get_int("threads"));
  opts.storage = parse_storage(args.get("storage"));
  if (obs.metrics_on()) opts.metrics = &obs.registry;
  if (obs.trace_on()) opts.trace = &obs.trace;
  if (in.size() > 1) {
    const auto res = sat::compute_sat_batch(in, opts);
    return report(res.stats.algorithm, in, res.tables, shape);
  }
  const auto res = sat::compute_sat(in[0], opts);
  return report(res.stats.algorithm, in, {&res.table, 1}, shape);
}

/// The paper's algorithms on the simulated device (satrepro).
std::optional<std::string> compute_on_simulator(
    const satutil::ArgParser& args, const std::vector<sat::Matrix<float>>& in,
    ObsRequest& obs, const std::string& shape) {
  SAT_CHECK_MSG(parse_storage(args.get("storage")) == sat::Storage::kDense,
                "--storage " << args.get("storage")
                             << " needs --host-impl (CPU only)");
  satrepro::Options opts;
  opts.algorithm = parse_algorithm(args.get("algorithm"));
  opts.params.tile_w = static_cast<std::size_t>(args.get_int("w"));
  gpusim::ProtocolChecker checker;
  if (args.get_flag("check-protocol")) opts.checker = &checker;
  if (obs.metrics_on()) opts.metrics = &obs.registry;
  if (obs.trace_on()) opts.trace = &obs.trace;
  if (in.size() > 1) {
    const auto res = satrepro::compute_sat_batch(in, opts);
    return report(res.stats.algorithm, in, res.tables, shape);
  }
  const auto res = satrepro::compute_sat(in[0], opts);
  const auto err = report(
      res.stats.algorithm, in, {&res.table, 1},
      shape + " (padded to " + std::to_string(res.stats.padded_n) +
          "-aligned)");
  if (opts.checker != nullptr)
    std::printf("protocol: %s\n", checker.summary().c_str());
  const auto& s = res.stats;
  std::printf(
      "kernels %zu | threads %s | reads %s | writes %s | model %.4f ms\n",
      s.kernel_calls, satutil::format_count(s.max_threads).c_str(),
      satutil::format_count(s.element_reads).c_str(),
      satutil::format_count(s.element_writes).c_str(),
      s.critical_path_us / 1e3);
  return err;
}

int mode_compute(const satutil::ArgParser& args) {
  const auto rows = static_cast<std::size_t>(args.get_int("rows"));
  const auto cols = static_cast<std::size_t>(args.get_int("cols"));
  const auto batch = static_cast<std::size_t>(args.get_int("batch"));
  SAT_CHECK_MSG(batch > 0, "--batch must be at least 1");
  // --batch B runs B same-shape random images in one call: the host
  // skss_lb engine pipelines them through one claim counter, the simulated
  // device runs one batched kernel.
  std::vector<sat::Matrix<float>> inputs;
  inputs.reserve(batch);
  for (std::size_t k = 0; k < batch; ++k) {
    inputs.push_back(sat::Matrix<float>::random(
        rows, cols, static_cast<std::uint64_t>(args.get_int("seed")) + k,
        0.0f, 1.0f));
  }
  std::string shape = std::to_string(rows) + "x" + std::to_string(cols);
  if (batch > 1) shape = std::to_string(batch) + " x " + shape;
  ObsRequest obs(args);
  // --host-impl switches the run to the host engines; --tile-width sets the
  // host tile size (independent of the device --w, which must stay a
  // multiple of 32).
  const auto err = args.get("host-impl").empty()
                       ? compute_on_simulator(args, inputs, obs, shape)
                       : compute_on_host(args, inputs, obs, shape);
  if (!obs.finish()) return 1;
  return err ? 1 : 0;
}

int mode_cell(const satutil::ArgParser& args) {
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto algo = parse_algorithm(args.get("algorithm"));
  const auto w = static_cast<std::size_t>(args.get_int("w"));
  ObsRequest obs(args);
  const auto cell = satmodel::run_cell(
      n, algo, w, /*materialize=*/false, /*seed=*/1,
      obs.metrics_on() ? &obs.registry : nullptr,
      obs.trace_on() ? &obs.trace : nullptr);
  std::printf("%s, n=%zu, W=%zu: model %.4f ms", satalgo::name_of(algo), n, w,
              cell.model_ms);
  if (cell.paper_ms) std::printf(" (paper: %.4f ms)", *cell.paper_ms);
  std::printf("\nkernels %zu | max threads %s | reads/n^2 %.4f | "
              "writes/n^2 %.4f | max LB depth %zu\n",
              cell.kernel_calls,
              satutil::format_count(cell.max_threads).c_str(),
              double(cell.totals.element_reads) / double(n) / double(n),
              double(cell.totals.element_writes) / double(n) / double(n),
              cell.max_lookback_depth);
  return obs.finish() ? 0 : 1;
}

int mode_tune(const satutil::ArgParser& args) {
  const auto rows = static_cast<std::size_t>(args.get_int("rows"));
  const auto cols = static_cast<std::size_t>(args.get_int("cols"));
  const auto opts = satrepro::auto_tune(rows, cols);
  std::printf("best for %zux%zu: %s with W=%zu\n", rows, cols,
              satalgo::name_of(opts.algorithm), opts.params.tile_w);
  return 0;
}

int mode_trace(const satutil::ArgParser& args) {
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto w = static_cast<std::size_t>(args.get_int("w"));
  gpusim::SimContext sim;
  sim.materialize = false;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  satalgo::SatParams p;
  p.tile_w = w;
  p.record_trace = true;
  const auto run =
      satalgo::run_algorithm(sim, satalgo::Algorithm::kSkssLb, a, b, n, p);
  const satalgo::TileGrid grid(n, w);

  const std::string out = args.get("out");
  std::ofstream os(out);
  if (!os) {
    std::fprintf(stderr, "cannot open '%s'\n", out.c_str());
    return 1;
  }
  os << "serial,tile_i,tile_j,start_us,finish_us,wait_us\n";
  for (const auto& t : run.reports[0].trace) {
    const auto [ti, tj] = grid.tile_of_serial(t.logical_block);
    os << t.logical_block << ',' << ti << ',' << tj << ',' << t.start_us
       << ',' << t.finish_us << ',' << t.wait_us << '\n';
  }
  std::printf("wrote %zu block records to %s (critical path %.1f us)\n",
              run.reports[0].trace.size(), out.c_str(),
              run.reports[0].critical_path_us);
  return 0;
}

int mode_verify(const satutil::ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::vector<std::size_t> sizes = {256, 1024};
  const std::vector<std::size_t> widths = {32, 64, 128};
  std::size_t runs = 0;
  std::size_t failures = 0;
  for (satalgo::Algorithm algo : satalgo::all_sat_algorithms()) {
    for (std::size_t n : sizes) {
      for (std::size_t w : widths) {
        // Non-tiled algorithms ignore W; sweep them once per size.
        if (!satalgo::is_tiled(algo) && w != widths.front()) continue;
        gpusim::ProtocolChecker checker;
        gpusim::SimContext sim;
        sim.materialize = false;  // counters + protocol only: fast sweep
        sim.checker = &checker;
        gpusim::GlobalBuffer<float> a(sim, n * n, "verify.in");
        gpusim::GlobalBuffer<float> b(sim, n * n, "verify.out");
        satalgo::SatParams p;
        p.tile_w = w;
        p.seed = seed;
        ++runs;
        try {
          satalgo::run_algorithm(sim, algo, a, b, n, p);
          std::printf("ok   %-14s n=%-5zu W=%-4zu %s\n", satalgo::name_of(algo),
                      n, w, checker.summary().c_str());
        } catch (const gpusim::ProtocolError& e) {
          ++failures;
          std::printf("FAIL %-14s n=%-5zu W=%-4zu %s\n", satalgo::name_of(algo),
                      n, w, e.what());
        }
      }
    }
  }
  std::printf("%zu/%zu protocol-checked runs passed\n", runs - failures, runs);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("satcli", "summed-area-table command-line tool");
  args.add("mode", "compute", "compute | cell | tune | trace | verify")
      .add("rows", "1024", "matrix rows")
      .add("cols", "1024", "matrix cols")
      .add("batch", "1",
           "compute mode: run this many same-shape images in one batched "
           "launch (CPU skss_lb pipelines them through one scheduler)")
      .add("n", "1024", "matrix side (cell/trace modes)")
      .add("algorithm", "skss_lb",
           "duplicate|2r2w|2r2w_opt|2r1w|1r1w|hybrid|skss|skss_lb")
      .add("w", "64", "tile width")
      .add("host-impl", "",
           "run on the host engines with this dense engine: "
           "sequential|simd|skss_lb (--storage residual|kahan ignore it)")
      .add("tile-width", "0",
           "host tile width W, 0 = engine default (with --host-impl)")
      .add("threads", "0",
           "host worker threads, 0 = hardware concurrency (with --host-impl)")
      .add("storage", "dense",
           "output storage mode (with --host-impl): dense | residual "
           "(tiled base+residual) | kahan (compensated f32 scans)")
      .add("seed", "1", "workload seed")
      .add("out", "trace.csv", "output file (trace mode)")
      .add_flag("check-protocol",
                "verify the soft-sync protocol during compute mode")
      .add_flag("metrics",
                "print run metrics (compute/cell modes): --metrics for a "
                "pretty table, --metrics=json for one JSON line")
      .add("trace-out", "",
           "write Chrome trace_events JSON of the run to this file "
           "(compute/cell modes; open in ui.perfetto.dev)");
  if (!args.parse(argc, argv)) return 1;

  const std::string mode = args.get("mode");
  if (mode == "compute") return mode_compute(args);
  if (mode == "cell") return mode_cell(args);
  if (mode == "tune") return mode_tune(args);
  if (mode == "trace") return mode_trace(args);
  if (mode == "verify") return mode_verify(args);
  std::fprintf(stderr, "unknown mode '%s'\n%s", mode.c_str(),
               args.usage().c_str());
  return 1;
}
