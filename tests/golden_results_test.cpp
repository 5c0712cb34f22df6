/// Golden regression tests: pin the exact outputs of the deterministic
/// pipeline on the benchmark suite.  Two tiers:
///  - circuit fingerprints (pin counts, max net size) are pure integer
///    artifacts of the generator and must match on every platform;
///  - algorithm outputs (cuts, ranks, side sizes) are determined by the
///    seeded Lanczos iteration; they are stable for a given platform /
///    compiler and guard against accidental algorithmic regressions.
///    If a legitimate algorithm change shifts them, re-record here and in
///    EXPERIMENTS.md together.

#include <gtest/gtest.h>

#include "circuits/benchmarks.hpp"
#include "hypergraph/stats.hpp"
#include "igmatch/igmatch.hpp"
#include "igvote/igvote.hpp"

namespace netpart {
namespace {

struct Golden {
  const char* name;
  std::int64_t pins;
  std::int32_t max_net_size;
  std::int32_t igmatch_cut;
  std::int32_t igmatch_rank;
  std::int32_t igmatch_left;
  std::int32_t igvote_cut;
};

// Recorded from the reference build (see file comment).
constexpr Golden kGolden[] = {
    {"bm1", 2494, 90, 1, 4, 876, 1},
    {"19ks", 9652, 240, 132, 2158, 963, 144},
    {"Prim1", 2505, 46, 32, 599, 276, 34},
    {"Prim2", 7871, 34, 1, 3018, 10, 1},
    {"Test02", 4510, 33, 54, 558, 1116, 57},
    {"Test03", 4261, 55, 44, 380, 1244, 45},
    {"Test04", 4456, 50, 76, 820, 758, 80},
    {"Test05", 7727, 120, 1, 2743, 6, 1},
    {"Test06", 4012, 150, 1, 1525, 16, 1},
};

// Without this, gtest prints the parameter as raw bytes, which include the
// `name` pointer and so change from process to process under ASLR, giving
// the discovered CTest names a different suffix on every build.
void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.name; }

class GoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTest, CircuitFingerprint) {
  const Golden& golden = GetParam();
  const GeneratedCircuit g = make_benchmark(golden.name);
  const HypergraphStats s = compute_stats(g.hypergraph);
  EXPECT_EQ(s.num_pins, golden.pins);
  EXPECT_EQ(s.max_net_size, golden.max_net_size);
}

TEST_P(GoldenTest, IgMatchOutputPinned) {
  const Golden& golden = GetParam();
  const GeneratedCircuit g = make_benchmark(golden.name);
  const IgMatchResult r = igmatch_partition(g.hypergraph);
  EXPECT_EQ(r.nets_cut, golden.igmatch_cut);
  EXPECT_EQ(r.best_rank, golden.igmatch_rank);
  EXPECT_EQ(r.partition.size(Side::kLeft), golden.igmatch_left);
}

TEST_P(GoldenTest, IgVoteOutputPinned) {
  const Golden& golden = GetParam();
  const GeneratedCircuit g = make_benchmark(golden.name);
  const IgVoteResult r = igvote_partition(g.hypergraph);
  EXPECT_EQ(r.nets_cut, golden.igvote_cut);
}

TEST_P(GoldenTest, IgMatchNeverWorseThanIgVote) {
  // Table 3's domination claim, pinned per circuit.
  const Golden& golden = GetParam();
  const GeneratedCircuit g = make_benchmark(golden.name);
  const IgMatchResult igm = igmatch_partition(g.hypergraph);
  const IgVoteResult igv = igvote_partition(g.hypergraph);
  EXPECT_LE(igm.ratio, igv.ratio + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Suite, GoldenTest, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& param) {
                           return std::string(param.param.name);
                         });

}  // namespace
}  // namespace netpart
