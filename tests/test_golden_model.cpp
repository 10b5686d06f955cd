// Golden regression tests for the performance model: exact counter values
// and model times pinned to the digit. Any change to the cost parameters,
// the scheduler's event ordering, or an algorithm's traffic shows up here
// first — intentional recalibrations must update these values AND the
// numbers quoted in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "model/table3.hpp"
#include "sat/registry.hpp"

namespace {

struct Golden {
  satalgo::Algorithm algo;
  std::size_t w;
  std::size_t n;
  double model_ms;
  std::uint64_t element_reads;
};

// Regenerate with the recipe in the comment at the bottom of this file.
const Golden kGolden[] = {
    {satalgo::Algorithm::kDuplicate, 64, 1024, 0.0225243761, 1048576ull},
    {satalgo::Algorithm::k2R2W, 64, 1024, 2.8160631478, 2097152ull},
    {satalgo::Algorithm::k2R2WOptimal, 64, 2048, 0.1935428098, 8517632ull},
    {satalgo::Algorithm::k2R1W, 64, 2048, 0.1281449011, 8648641ull},
    {satalgo::Algorithm::k1R1W, 128, 2048, 0.3737852687, 4255969ull},
    {satalgo::Algorithm::kHybrid, 64, 2048, 0.3029185959, 5474305ull},
    {satalgo::Algorithm::kSkss, 64, 4096, 0.3255316955, 17035264ull},
    {satalgo::Algorithm::kSkssLb, 128, 4096, 0.2816306538, 17032129ull},
    // Every other tile width of the paper's kernel, from
    // perfbench/golden/table3.txt.
    {satalgo::Algorithm::kSkssLb, 32, 1024, 0.0820521463, 1113025ull},
    {satalgo::Algorithm::kSkssLb, 64, 1024, 0.0536844236, 1079521ull},
    {satalgo::Algorithm::kSkssLb, 32, 4096, 0.389293289, 17833729ull},
    {satalgo::Algorithm::kSkssLb, 64, 4096, 0.300015161, 17297281ull},
};

TEST(GoldenModel, CellsMatchPinnedValues) {
  for (const Golden& g : kGolden) {
    const auto cell = satmodel::run_cell(g.n, g.algo, g.w, false);
    EXPECT_EQ(cell.totals.element_reads, g.element_reads)
        << satalgo::name_of(g.algo) << " n=" << g.n << " W=" << g.w;
    EXPECT_NEAR(cell.model_ms, g.model_ms, 1e-6 * g.model_ms)
        << satalgo::name_of(g.algo) << " n=" << g.n << " W=" << g.w;
  }
}

// Regeneration recipe (after an intentional model change):
//   for each row: satmodel::run_cell(n, algo, w, false) and print
//   cell.model_ms to 10 decimals and cell.totals.element_reads; paste here
//   and update the affected numbers in EXPERIMENTS.md.

}  // namespace
