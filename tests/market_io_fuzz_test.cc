/// Robustness tests for the market/assignment parsers: external input
/// must never crash the process — every malformed file yields a clean
/// error. The "fuzzing" here is deterministic: random line drops,
/// duplications, truncations, and byte mutations of a valid file, all
/// seeded.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "gen/market_generator.h"
#include "io/market_io.h"
#include "util/rng.h"

namespace mbta {
namespace {

std::string ValidMarketText() {
  const LaborMarket m = GenerateMarket(UpworkLikeConfig(25, 5));
  std::stringstream buffer;
  WriteMarket(m, buffer);
  return buffer.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Parses and requires either success or a clean error — in particular,
/// no abort and no exception.
void ExpectNoCrash(const std::string& text) {
  std::stringstream in(text);
  std::string error;
  const auto market = ReadMarket(in.str(), &error);
  if (!market.has_value()) {
    EXPECT_FALSE(error.empty()) << "failure without an error message";
  }
}

class IoFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(IoFuzzTest, DroppedLinesNeverCrash) {
  Rng rng(GetParam() * 7 + 1);
  auto lines = SplitLines(ValidMarketText());
  const std::size_t drops = 1 + rng.NextBounded(5);
  for (std::size_t i = 0; i < drops && !lines.empty(); ++i) {
    lines.erase(lines.begin() +
                static_cast<std::ptrdiff_t>(rng.NextBounded(lines.size())));
  }
  ExpectNoCrash(JoinLines(lines));
}

TEST_P(IoFuzzTest, DuplicatedLinesNeverCrash) {
  Rng rng(GetParam() * 11 + 2);
  auto lines = SplitLines(ValidMarketText());
  const std::size_t idx = rng.NextBounded(lines.size());
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(idx),
               lines[idx]);
  ExpectNoCrash(JoinLines(lines));
}

TEST_P(IoFuzzTest, TruncationNeverCrashes) {
  Rng rng(GetParam() * 13 + 3);
  const std::string text = ValidMarketText();
  const std::size_t cut = rng.NextBounded(text.size());
  ExpectNoCrash(text.substr(0, cut));
}

TEST_P(IoFuzzTest, ByteMutationsNeverCrash) {
  Rng rng(GetParam() * 17 + 4);
  std::string text = ValidMarketText();
  const std::size_t mutations = 1 + rng.NextBounded(20);
  for (std::size_t i = 0; i < mutations; ++i) {
    text[rng.NextBounded(text.size())] =
        static_cast<char>(32 + rng.NextBounded(95));
  }
  ExpectNoCrash(text);
}

TEST_P(IoFuzzTest, ShuffledSectionsNeverCrash) {
  Rng rng(GetParam() * 19 + 5);
  auto lines = SplitLines(ValidMarketText());
  // Swap two random lines a few times.
  for (int i = 0; i < 4; ++i) {
    const std::size_t a = rng.NextBounded(lines.size());
    const std::size_t b = rng.NextBounded(lines.size());
    std::swap(lines[a], lines[b]);
  }
  ExpectNoCrash(JoinLines(lines));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzzTest, ::testing::Range(0, 25));

TEST(IoFuzzTest, AssignmentParserSurvivesGarbage) {
  const LaborMarket m = GenerateMarket(UniformConfig(20, 20, 2));
  const Assignment a = GreedySolver().Solve({&m, {}});
  std::stringstream buffer;
  WriteAssignment(m, a, buffer);
  std::string text = buffer.str();

  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = text;
    const std::size_t mutations = 1 + rng.NextBounded(10);
    for (std::size_t i = 0; i < mutations; ++i) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(32 + rng.NextBounded(95));
    }
    std::stringstream in(mutated);
    std::string error;
    const auto parsed = ReadAssignment(m, in.str(), &error);
    if (!parsed.has_value()) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(IoFuzzTest, HugeDeclaredCountsFailGracefully) {
  // Header claims a billion workers: rejected at the header itself —
  // before any per-entity loop or speculative allocation runs.
  std::stringstream in("mbta-market v1\nname x\nworkers 1000000000\n");
  std::string error;
  EXPECT_FALSE(ReadMarket(in.str(), &error).has_value());
  EXPECT_NE(error.find("implausible"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hostile numeric corpora: NaN/Inf fields, overflowing counts, absurd
// headers. Every case must produce a clean error, never an accept.
// ---------------------------------------------------------------------------

/// Asserts the text is *rejected* with a non-empty error.
void ExpectRejected(const std::string& text) {
  std::stringstream in(text);
  std::string error;
  EXPECT_FALSE(ReadMarket(in.str(), &error).has_value())
      << "hostile input accepted:\n" << text;
  EXPECT_FALSE(error.empty());
}

TEST(IoHostileNumericsTest, NanAndInfFieldsAreRejected) {
  // NaN slips through naive range checks (every comparison is false), so
  // each double field gets its own corpus entry.
  const std::string nan_worker =
      "mbta-market v1\nname x\nworkers 1\nw 1 0.1 nan 0.9\n"
      "tasks 0\nedges 0\n";
  const std::string inf_worker =
      "mbta-market v1\nname x\nworkers 1\nw 1 inf 0.5 0.9\n"
      "tasks 0\nedges 0\n";
  const std::string nan_skill =
      "mbta-market v1\nname x\nworkers 1\nw 1 0.1 0.5 0.9 nan\n"
      "tasks 0\nedges 0\n";
  const std::string nan_task =
      "mbta-market v1\nname x\nworkers 0\ntasks 1\nt 1 nan 1.0 0.5 0\n"
      "edges 0\n";
  const std::string inf_task_value =
      "mbta-market v1\nname x\nworkers 0\ntasks 1\nt 1 0.5 inf 0.5 0\n"
      "edges 0\n";
  const std::string nan_edge =
      "mbta-market v1\nname x\nworkers 1\nw 1 0.1 0.5 0.9\n"
      "tasks 1\nt 1 0.5 1.0 0.5 0\nedges 1\ne 0 0 nan 0.5\n";
  const std::string inf_benefit =
      "mbta-market v1\nname x\nworkers 1\nw 1 0.1 0.5 0.9\n"
      "tasks 1\nt 1 0.5 1.0 0.5 0\nedges 1\ne 0 0 0.9 inf\n";
  for (const std::string& text :
       {nan_worker, inf_worker, nan_skill, nan_task, inf_task_value,
        nan_edge, inf_benefit}) {
    ExpectRejected(text);
  }
}

TEST(IoHostileNumericsTest, OverflowingCountsAreRejected) {
  // 20 nines overflows long long; must be a parse error, not a wrap.
  ExpectRejected(
      "mbta-market v1\nname x\nworkers 99999999999999999999\n");
  ExpectRejected(
      "mbta-market v1\nname x\nworkers 0\ntasks 99999999999999999999\n");
  ExpectRejected(
      "mbta-market v1\nname x\nworkers 0\ntasks 0\n"
      "edges 99999999999999999999\n");
  ExpectRejected("mbta-market v1\nname x\nworkers -1\n");
}

TEST(IoHostileNumericsTest, AbsurdHeadersAreRejectedBeforeAllocation) {
  // Representable but implausible counts die at the header.
  ExpectRejected("mbta-market v1\nname x\nworkers 50000001\n");
  ExpectRejected(
      "mbta-market v1\nname x\nworkers 0\ntasks 9000000000\n");
  ExpectRejected(
      "mbta-market v1\nname x\nworkers 0\ntasks 0\nedges 600000000\n");
}

TEST(IoHostileNumericsTest, EdgeCountBeyondCompleteGraphIsRejected) {
  // 1 worker x 1 task admits at most 1 distinct edge; claiming 2 is a
  // lie the reader catches before trusting the count.
  ExpectRejected(
      "mbta-market v1\nname x\nworkers 1\nw 1 0.1 0.5 0.9\n"
      "tasks 1\nt 1 0.5 1.0 0.5 0\nedges 2\n"
      "e 0 0 0.9 0.5\ne 0 0 0.9 0.5\n");
}

TEST(IoHostileNumericsTest, AssignmentOverflowingCountIsRejected) {
  const LaborMarket m = GenerateMarket(UniformConfig(5, 5, 3));
  std::stringstream in(
      "mbta-assignment v1\npairs 99999999999999999999\n");
  std::string error;
  EXPECT_FALSE(ReadAssignment(m, in.str(), &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(IoHostileNumericsTest, ValidFileStillParsesAfterHardening) {
  // Canary: the hardened reader still accepts a round-tripped market.
  std::stringstream in(ValidMarketText());
  std::string error;
  EXPECT_TRUE(ReadMarket(in.str(), &error).has_value()) << error;
}

}  // namespace
}  // namespace mbta
