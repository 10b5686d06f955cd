// satmc: static model checker for the 1R1W-SKSS-LB look-back protocol.
//
//   satmc --verify [--max-grid N] [--max-workers W]
//       Exhaustively checks the clean protocol for every g_rows×g_cols grid
//       with g_rows,g_cols ≤ N and 1..W workers; prints the state count per
//       configuration. Exit 0 iff every configuration is violation-free.
//
//   satmc --mutate all
//       Runs the three seeded protocol bugs, each at the smallest
//       configuration that exposes it, and requires the expected verdict
//       plus a counterexample schedule. The checker's own test suite.
//
//   satmc --grid RxC --workers W [--mutate NAME] [--emit-schedule FILE]
//       Checks one configuration; prints (and optionally emits as JSON) the
//       counterexample schedule if a violation is found.
//
//   satmc --dump-model
//       Prints the model's protocol declaration (flag lattices, transition
//       tables, publish sequences, walk thresholds, memory orders) as JSON
//       for tools/satmc/conformance.py to diff against the real headers.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "explore.hpp"
#include "model.hpp"
#include "util/argparse.hpp"

namespace {

using satmc::Explorer;
using satmc::Model;
using satmc::Mutation;
using satmc::Result;
using satmc::Verdict;

struct MutationCase {
  Mutation mutation;
  const char* name;
  std::size_t g_rows, g_cols, workers;
  Verdict expected;
};

// Smallest configurations that expose each seeded bug (2×2 needs a third
// worker for the read bugs: with two workers no in-flight LRS is ever read
// before its writer finishes).
constexpr MutationCase kMutationCases[] = {
    {Mutation::kFlagBeforeData, "flag-before-data", 2, 2, 3,
     Verdict::kReadUnwritten},
    {Mutation::kSigmaInversion, "sigma-order-inversion", 2, 2, 2,
     Verdict::kDeadlock},
    {Mutation::kDroppedRelease, "dropped-release", 2, 2, 3,
     Verdict::kReadUnreleased},
};

Mutation parse_mutation(const std::string& name) {
  for (const auto& c : kMutationCases)
    if (name == c.name) return c.mutation;
  if (name.empty() || name == "none") return Mutation::kNone;
  std::fprintf(stderr, "satmc: unknown mutation '%s'\n", name.c_str());
  std::exit(2);
}

void print_trace(const Result& res) {
  std::printf("  counterexample schedule (%zu steps):\n", res.trace.size());
  for (std::size_t i = 0; i < res.trace.size(); ++i)
    std::printf("    %3zu. %s\n", i, res.trace[i].desc.c_str());
  if (!res.detail.empty()) std::printf("  violation: %s\n", res.detail.c_str());
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (ch == '\n') {
      out += "\\n";
      continue;
    }
    out += ch;
  }
  return out;
}

bool emit_schedule(const std::string& path, const Model& m,
                   const Result& res) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "satmc: cannot write %s\n", path.c_str());
    return false;
  }
  f << "{\n"
    << "  \"tool\": \"satmc\",\n"
    << "  \"version\": 1,\n"
    << "  \"config\": {\"g_rows\": " << m.grid().g_rows()
    << ", \"g_cols\": " << m.grid().g_cols()
    << ", \"workers\": " << m.workers() << "},\n"
    << "  \"mutation\": \"" << satmc::mutation_name(m.mutation()) << "\",\n"
    << "  \"violation\": {\"kind\": \"" << satmc::verdict_name(res.verdict)
    << "\", \"detail\": \"" << json_escape(res.detail) << "\"},\n"
    << "  \"blocked\": [";
  for (std::size_t i = 0; i < res.blocked.size(); ++i) {
    const auto& b = res.blocked[i];
    f << (i ? ", " : "") << "{\"worker\": " << b.worker << ", \"axis\": \""
      << b.axis << "\", \"tile\": " << b.tile
      << ", \"want\": " << int{b.want} << "}";
  }
  f << "],\n  \"schedule\": [\n";
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    f << "    {\"step\": " << i << ", \"worker\": " << res.trace[i].worker
      << ", \"desc\": \"" << json_escape(res.trace[i].desc) << "\"}"
      << (i + 1 < res.trace.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return static_cast<bool>(f);
}

// The model's protocol declaration, for the conformance extractor. Every
// fact here is asserted against the real headers by conformance.py — edit
// the model and this dump together or the satmc_conformance ctest fails.
void dump_model() {
  std::printf(R"json({
  "tool": "satmc",
  "version": 1,
  "flags": {
    "R": {"LRS": 1, "GRS": 2, "GLS": 3, "GS": 4},
    "C": {"LCS": 1, "GCS": 2}
  },
  "transitions": {
    "R": [[0, 1], [1, 2], [2, 3], [3, 4]],
    "C": [[0, 1], [1, 2]]
  },
  "terminal": {"R": 4, "C": 2},
  "publish_sequence": {
    "fast": [["R", "GS"], ["C", "GCS"]],
    "slow": [["R", "LRS"], ["C", "LCS"], ["R", "GRS"], ["C", "GCS"],
             ["R", "GLS"], ["R", "GS"]]
  },
  "walks": [
    {"axis": "R", "local": "LRS", "global": "GRS"},
    {"axis": "C", "local": "LCS", "global": "GCS"},
    {"axis": "R", "local": "GLS", "global": "GS"}
  ],
  "fast_guard": [["R", "GRS"], ["C", "GCS"], ["R", "GS"]],
  "claim": {"counter": "work_counter", "step": 1},
  "orders": {"publish": "release", "observe": "acquire", "claim": "relaxed"}
}
)json");
}

int run_verify(std::size_t max_grid, std::size_t max_workers, bool symmetry) {
  std::printf(
      "satmc: exhaustive verification, grids up to %zux%zu, up to %zu "
      "workers%s\n",
      max_grid, max_grid, max_workers, symmetry ? "" : " (symmetry off)");
  std::size_t configs = 0, total_states = 0;
  for (std::size_t gr = 1; gr <= max_grid; ++gr)
    for (std::size_t gc = 1; gc <= max_grid; ++gc)
      for (std::size_t w = 1; w <= max_workers; ++w) {
        Model m(gr, gc, w);
        Result res = Explorer(m, symmetry).run();
        ++configs;
        total_states += res.states;
        std::printf("  %zux%zu w=%zu: %-8s states=%-9zu transitions=%zu\n",
                    gr, gc, w, satmc::verdict_name(res.verdict), res.states,
                    res.transitions);
        if (res.verdict != Verdict::kOk) {
          print_trace(res);
          std::printf("satmc: VERIFY FAILED at %zux%zu w=%zu\n", gr, gc, w);
          return 1;
        }
      }
  std::printf(
      "satmc: verified %zu configurations clean (deadlock freedom, flag "
      "monotonicity, publish/release discipline, sigma progress); %zu "
      "canonical states total\n",
      configs, total_states);
  return 0;
}

int run_mutations(bool symmetry) {
  int rc = 0;
  for (const auto& c : kMutationCases) {
    Model m(c.g_rows, c.g_cols, c.workers, c.mutation);
    Result res = Explorer(m, symmetry).run();
    const bool pass =
        res.verdict == c.expected && !res.trace.empty();
    std::printf("satmc: mutation %-22s %zux%zu w=%zu -> %s (expected %s) %s\n",
                c.name, c.g_rows, c.g_cols, c.workers,
                satmc::verdict_name(res.verdict),
                satmc::verdict_name(c.expected), pass ? "PASS" : "FAIL");
    print_trace(res);
    if (!pass) rc = 1;
  }
  if (rc == 0)
    std::printf("satmc: all %zu seeded mutations produced their expected "
                "counterexamples\n",
                std::size(kMutationCases));
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("satmc",
                          "static model checker for the 1R1W-SKSS-LB "
                          "look-back protocol");
  args.add_flag("verify", "sweep all configs up to --max-grid/--max-workers")
      .add("max-grid", "4", "max tiles per grid side for --verify")
      .add("max-workers", "4", "max worker count for --verify")
      .add("grid", "", "single config: RxC tile grid (e.g. 2x2)")
      .add("workers", "2", "single config: worker count")
      .add("mutate", "", "seeded bug to inject (name, or 'all')")
      .add("emit-schedule", "", "write the counterexample schedule JSON here")
      .add_flag("no-symmetry", "disable worker-permutation reduction")
      .add_flag("dump-model", "print the protocol declaration as JSON");
  if (!args.parse(argc, argv)) return 2;

  const bool symmetry = !args.get_flag("no-symmetry");

  if (args.get_flag("dump-model")) {
    dump_model();
    return 0;
  }
  if (args.get_flag("verify")) {
    const auto max_grid = static_cast<std::size_t>(args.get_int("max-grid"));
    const auto max_workers =
        static_cast<std::size_t>(args.get_int("max-workers"));
    if (max_workers > 16) {
      std::fprintf(stderr, "satmc: at most 16 workers supported\n");
      return 2;
    }
    return run_verify(max_grid, max_workers, symmetry);
  }
  if (args.get("mutate") == "all") return run_mutations(symmetry);

  const std::string grid = args.get("grid");
  if (grid.empty()) {
    std::fprintf(stderr, "%s", args.usage().c_str());
    return 2;
  }
  const auto x = grid.find('x');
  if (x == std::string::npos) {
    std::fprintf(stderr, "satmc: --grid wants RxC, got '%s'\n", grid.c_str());
    return 2;
  }
  const std::size_t gr = std::stoul(grid.substr(0, x));
  const std::size_t gc = std::stoul(grid.substr(x + 1));
  const auto workers = static_cast<std::size_t>(args.get_int("workers"));
  if (gr == 0 || gc == 0 || workers == 0 || workers > 16) {
    std::fprintf(stderr, "satmc: bad config %zux%zu w=%zu\n", gr, gc,
                 workers);
    return 2;
  }

  Model m(gr, gc, workers, parse_mutation(args.get("mutate")));
  Result res = Explorer(m, symmetry).run();
  std::printf("satmc: %zux%zu w=%zu mutation=%s -> %s states=%zu "
              "transitions=%zu\n",
              gr, gc, workers, satmc::mutation_name(m.mutation()),
              satmc::verdict_name(res.verdict), res.states, res.transitions);
  if (res.verdict != Verdict::kOk) print_trace(res);

  const std::string out = args.get("emit-schedule");
  if (!out.empty()) {
    if (res.verdict == Verdict::kOk) {
      std::fprintf(stderr,
                   "satmc: no violation found, nothing to emit to %s\n",
                   out.c_str());
      return 1;
    }
    if (!emit_schedule(out, m, res)) return 1;
    std::printf("satmc: schedule written to %s\n", out.c_str());
  }

  // With a mutation requested, finding its violation is the success case.
  if (m.mutation() != Mutation::kNone)
    return res.verdict == Verdict::kOk ? 1 : 0;
  return res.verdict == Verdict::kOk ? 0 : 1;
}
