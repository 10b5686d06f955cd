// paper_table3: regenerates the paper's Table III. Every (algorithm, W, n)
// cell from 256² to 32K² runs through satmodel::run_cell count-only, plus
// the materialized cells at small n. The only workload that exercises
// gpusim, the simulated algorithms and the model; host and satd sit idle,
// and its counters repeat exactly, so they are checked against a golden
// file stored with the benchmark (golden/table3.txt).
//
// Operation = one cell. Latency = the cell's wall time; throughput = cells
// per second over a whole table (144 ÷ the median table time). The seed
// shuffles the order cells run in.
#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include "model/table3.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using satalgo::Algorithm;

constexpr std::size_t kFunctionalMax = 512;  // materialized cells: n ≤ this

struct Cell {
  Algorithm algo;
  std::size_t w;  ///< run_cell tile width (64 for untiled algorithms)
  std::size_t n;
};

std::vector<Cell> table_cells() {
  std::vector<Cell> cells;
  for (std::size_t n : satmodel::kPaperSizes) {
    cells.push_back({Algorithm::kDuplicate, 64, n});
    for (Algorithm a : satalgo::all_sat_algorithms()) {
      if (satalgo::is_tiled(a)) {
        for (std::size_t w : {32, 64, 128}) cells.push_back({a, w, n});
      } else {
        cells.push_back({a, 64, n});
      }
    }
  }
  return cells;
}

/// Name slug of a simulated algorithm ("1R1W-SKSS-LB" → "1r1w_skss_lb").
std::string algo_slug(const char* name) {
  std::string s;
  for (const char* p = name; *p != '\0'; ++p) {
    const char c = *p;
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!s.empty() && s.back() != '_') {
      s += '_';
    }
  }
  while (!s.empty() && s.back() == '_') s.pop_back();
  return s;
}

std::string cell_key(const Cell& c) {
  return std::string(satalgo::name_of(c.algo)) + "/" + std::to_string(c.w) +
         "/" + std::to_string(c.n);
}

/// The counters a cell must reproduce exactly, as one golden-file line.
std::string counter_line(const satmodel::CellResult& r) {
  const gpusim::Counters& t = r.totals;
  char model[32];
  std::snprintf(model, sizeof model, "%.9g", r.model_ms);
  std::ostringstream os;
  os << r.kernel_calls << ' ' << r.max_threads << ' ' << t.element_reads << ' '
     << t.element_writes << ' ' << t.global_read_sectors << ' '
     << t.global_write_sectors << ' ' << t.atomic_ops << ' ' << t.flag_reads
     << ' ' << t.flag_writes << ' ' << r.max_lookback_depth << ' ' << model;
  return os.str();
}

std::map<std::string, std::string> read_golden(const std::string& path) {
  std::map<std::string, std::string> g;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp != std::string::npos) g[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return g;
}

/// The paper's qualitative claims, as bench_table3 states them: returns the
/// failing checks (empty = all hold) and counts how many were made.
std::vector<std::string> shape_checks(
    const std::map<std::string, satmodel::CellResult>& res,
    std::size_t& checks) {
  auto best = [&](Algorithm a, std::size_t n) {
    double b = 1e300;
    for (std::size_t w : {32, 64, 128}) {
      if (!satalgo::is_tiled(a) && w != 64) continue;
      b = std::min(b, res.at(cell_key({a, w, n})).model_ms);
    }
    return b;
  };
  std::vector<std::string> failed;
  checks = 0;
  auto check = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) failed.push_back(what);
  };
  for (std::size_t n : satmodel::kPaperSizes) {
    const double dup = best(Algorithm::kDuplicate, n);
    const double lb = best(Algorithm::kSkssLb, n);
    const double worst = best(Algorithm::k2R2W, n);
    bool fastest = true, slowest = true;
    for (Algorithm a : satalgo::all_sat_algorithms()) {
      if (a != Algorithm::kSkssLb && best(a, n) < lb) fastest = false;
      if (a != Algorithm::k2R2W && best(a, n) > worst) slowest = false;
    }
    const std::string at = " at n=" + std::to_string(n);
    check(fastest, "1R1W-SKSS-LB fastest" + at);
    check(slowest, "2R2W slowest" + at);
    check(satmodel::overhead_pct(best(Algorithm::k2R2WOptimal, n), dup) >= 99.0,
          "2R2W-optimal overhead >= 100%" + at);
    if (n >= 8192) {
      check(satmodel::overhead_pct(best(Algorithm::k2R1W, n), dup) >= 50.0,
            "2R1W overhead >= 50%" + at);
      check(satmodel::overhead_pct(lb, dup) <= 15.0,
            "1R1W-SKSS-LB overhead <= 15%" + at);
    }
  }
  const std::size_t n0 = satmodel::kPaperSizes[0];
  bool none_below = true;
  for (Algorithm a : satalgo::tiled_sat_algorithms())
    if (satmodel::overhead_pct(best(a, n0), best(Algorithm::kDuplicate, n0)) <
        100.0)
      none_below = false;
  check(none_below, "no tiled algorithm below 100% overhead at 256^2");
  return failed;
}

struct Pass {
  std::vector<double> cell_ms;
  double seconds = 0;
};

/// One full table in a seeded order; checks counters and shape claims.
Pass run_pass(const std::vector<Cell>& cells, std::uint64_t seed,
              const std::map<std::string, std::string>& golden,
              obs::Registry* metrics, Tracer& tracer, Report& rep) {
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));

  Pass p;
  std::map<std::string, satmodel::CellResult> res;
  const auto t0 = Clock::now();
  const std::int64_t table = tracer.begin("model.table3");
  for (std::size_t i : order) {
    const Cell& c = cells[i];
    const auto a = Clock::now();
    const std::int64_t span =
        tracer.begin("model.cell." + algo_slug(satalgo::name_of(c.algo)), table);
    satmodel::CellResult r =
        satmodel::run_cell(c.n, c.algo, c.w, /*materialize=*/false, 1, metrics);
    tracer.end(span);
    p.cell_ms.push_back(1e3 * seconds_between(a, Clock::now()));
    rep.attempt();
    const auto g = golden.find(cell_key(c));
    if (g == golden.end() || g->second != counter_line(r))
      rep.fail("cell " + cell_key(c) + " counters differ from golden");
    res.emplace(cell_key(c), std::move(r));
  }
  tracer.end(table);
  p.seconds = seconds_between(t0, Clock::now());
  std::size_t checks = 0;
  const std::vector<std::string> bad = shape_checks(res, checks);
  rep.attempt(checks);
  for (const std::string& b : bad) rep.fail("shape check failed: " + b);
  note("table pass: %zu cells in %.2f s, %zu of %zu shape checks hold",
       cells.size(), p.seconds, checks - bad.size(), checks);
  return p;
}

/// Materialized (functional) cells at small n; their counters must equal
/// the count-only golden. Returns per-cell milliseconds.
std::vector<double> functional_cells(
    const std::vector<Cell>& cells,
    const std::map<std::string, std::string>& golden, Report& rep) {
  std::vector<double> ms;
  for (const Cell& c : cells) {
    if (c.n > kFunctionalMax) continue;
    const auto a = Clock::now();
    const satmodel::CellResult r =
        satmodel::run_cell(c.n, c.algo, c.w, /*materialize=*/true);
    ms.push_back(1e3 * seconds_between(a, Clock::now()));
    rep.attempt();
    const auto g = golden.find(cell_key(c));
    if (g == golden.end() || g->second != counter_line(r))
      rep.fail("functional cell " + cell_key(c) + " counters differ");
  }
  return ms;
}

}  // namespace

void run_paper_table3(const RunConfig& cfg, Report& rep) {
  const std::vector<Cell> cells = table_cells();
  const std::string golden_path = cfg.bench_dir + "/golden/table3.txt";

  if (cfg.write_golden) {
    std::ofstream out(golden_path);
    out << "# cell kernel_calls max_threads element_reads element_writes "
           "read_sectors write_sectors atomic_ops flag_reads flag_writes "
           "max_lookback_depth model_ms\n";
    for (const Cell& c : cells)
      out << cell_key(c) << ' '
          << counter_line(satmodel::run_cell(c.n, c.algo, c.w, false)) << '\n';
    if (!out) throw std::runtime_error("cannot write " + golden_path);
    note("wrote %s", golden_path.c_str());
    rep.attempt();
    return;
  }
  const std::map<std::string, std::string> golden = read_golden(golden_path);
  if (golden.empty()) throw std::runtime_error("no golden at " + golden_path);

  // Program-side set-up: the first column of the table (every n = 256
  // cell) materialized, i.e. the simulator allocating and filling real
  // device buffers from cold.
  EndToEnd e;
  e.setup_s = median_seconds(5, [&] {
    for (const Cell& c : cells)
      if (c.n == satmodel::kPaperSizes[0])
        (void)satmodel::run_cell(c.n, c.algo, c.w, /*materialize=*/true);
  });
  const std::vector<double> functional = functional_cells(cells, golden, rep);

  Tracer off(false);
  if (!cfg.trace) {
    // Whole passes only; start another while it is expected to end in time.
    std::vector<Pass> passes;
    const auto t0 = Clock::now();
    do {
      passes.push_back(run_pass(cells, mix_seed(cfg.seed, passes.size()),
                                golden, nullptr, off, rep));
    } while (seconds_between(t0, Clock::now()) + passes.back().seconds <=
             cfg.seconds);
    std::vector<double> pass_s;
    for (const Pass& p : passes) {
      e.latency_ms.insert(e.latency_ms.end(), p.cell_ms.begin(),
                          p.cell_ms.end());
      pass_s.push_back(p.seconds);
    }
    e.peak_rss_mib = peak_rss_mib();
    e.throughput_per_s =
        per_second(static_cast<double>(cells.size()), median(pass_s));
    report_end_to_end(e, rep);
    return;
  }

  // Traced run: one plain pass, one traced pass with the simulator's
  // counters on.
  const Pass plain = run_pass(cells, mix_seed(cfg.seed, 0), golden, nullptr,
                              off, rep);
  obs::Registry reg;
  Tracer tracer(true);
  const Pass traced = run_pass(cells, mix_seed(cfg.seed, 0), golden, &reg,
                               tracer, rep);
  write_trace(cfg, tracer);

  rep.metric("model.table3_s", plain.seconds, "s");
  rep.metric("model.functional_cell_ms", mean(functional), "ms");
  std::map<std::string, double> per_algo;
  const std::vector<double> self = tracer.self_times_us();
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const std::string& name = tracer.spans()[i].name;
    if (name.rfind("model.cell.", 0) == 0) per_algo[name] += self[i] / 1e3;
  }
  for (const auto& [name, ms] : per_algo) {
    const std::string metric = "model.cell_ms." + name.substr(11);
    rep.metric(metric, ms, "ms");
  }
  const obs::Snapshot snap = reg.snapshot();
  const auto counter = [&](const char* n) -> double {
    const std::uint64_t* c = snap.counter(n);
    return c != nullptr ? static_cast<double>(*c) : 0.0;
  };
  rep.metric("gpusim.blocks_retired", counter("sim.blocks_retired"), "count");
  rep.metric("gpusim.flag_spins", counter("sim.flag_spins"), "count");
  rep.metric("gpusim.kernel_launches", counter("sim.kernel_launches"), "count");
  rep.metric("gpusim.blocks_per_s",
             per_second(counter("sim.blocks_retired"), traced.seconds), "1/s");
  report_phases(plain.cell_ms, traced.cell_ms, rep);
}

}  // namespace perfbench
