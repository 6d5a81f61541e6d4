#include "io/market_io.h"

#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "gen/market_generator.h"
#include "tests/test_markets.h"

namespace mbta {
namespace {

void ExpectMarketsEqual(const LaborMarket& a, const LaborMarket& b) {
  ASSERT_EQ(a.NumWorkers(), b.NumWorkers());
  ASSERT_EQ(a.NumTasks(), b.NumTasks());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.name(), b.name());
  for (WorkerId w = 0; w < a.NumWorkers(); ++w) {
    EXPECT_EQ(a.worker(w).capacity, b.worker(w).capacity);
    EXPECT_DOUBLE_EQ(a.worker(w).unit_cost, b.worker(w).unit_cost);
    EXPECT_DOUBLE_EQ(a.worker(w).fatigue, b.worker(w).fatigue);
    EXPECT_DOUBLE_EQ(a.worker(w).reliability, b.worker(w).reliability);
    EXPECT_EQ(a.worker(w).skills, b.worker(w).skills);
  }
  for (TaskId t = 0; t < a.NumTasks(); ++t) {
    EXPECT_EQ(a.task(t).capacity, b.task(t).capacity);
    EXPECT_DOUBLE_EQ(a.task(t).payment, b.task(t).payment);
    EXPECT_DOUBLE_EQ(a.task(t).value, b.task(t).value);
    EXPECT_DOUBLE_EQ(a.task(t).difficulty, b.task(t).difficulty);
    EXPECT_EQ(a.task(t).requester, b.task(t).requester);
    EXPECT_EQ(a.task(t).required_skills, b.task(t).required_skills);
  }
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    EXPECT_EQ(a.EdgeWorker(e), b.EdgeWorker(e));
    EXPECT_EQ(a.EdgeTask(e), b.EdgeTask(e));
    EXPECT_DOUBLE_EQ(a.Quality(e), b.Quality(e));
    EXPECT_DOUBLE_EQ(a.WorkerBenefit(e), b.WorkerBenefit(e));
  }
}

TEST(MarketIoTest, RoundTripHandBuiltMarket) {
  const LaborMarket m = MakeTestMarket(
      {2, 1}, {1, 3}, {{0, 0, 0.8, 1.25}, {1, 1, 0.65, 0.5}}, {2.0, 5.0});
  std::stringstream buffer;
  WriteMarket(m, buffer);
  std::string error;
  const auto parsed = ReadMarket(buffer.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ExpectMarketsEqual(m, *parsed);
}

TEST(MarketIoTest, RoundTripGeneratedMarketsWithSkills) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const LaborMarket m = GenerateMarket(UpworkLikeConfig(60, seed));
    std::stringstream buffer;
    WriteMarket(m, buffer);
    std::string error;
    const auto parsed = ReadMarket(buffer.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ExpectMarketsEqual(m, *parsed);
  }
}

TEST(MarketIoTest, RoundTripEmptyMarket) {
  const LaborMarket m = MakeTestMarket({}, {}, {});
  std::stringstream buffer;
  WriteMarket(m, buffer);
  std::string error;
  const auto parsed = ReadMarket(buffer.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->NumWorkers(), 0u);
  EXPECT_EQ(parsed->NumEdges(), 0u);
}

TEST(MarketIoTest, CommentsAndBlankLinesIgnored) {
  const LaborMarket m = MakeTestMarket({1}, {1}, {{0, 0, 0.8, 1.0}});
  std::stringstream buffer;
  buffer << "# leading comment\n\n";
  WriteMarket(m, buffer);
  std::string error;
  EXPECT_TRUE(ReadMarket(buffer.str(), &error).has_value()) << error;
}

TEST(MarketIoTest, RejectsBadHeader) {
  std::stringstream buffer("not-a-market v9\n");
  std::string error;
  EXPECT_FALSE(ReadMarket(buffer.str(), &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(MarketIoTest, RejectsTruncatedWorkerSection) {
  std::stringstream buffer(
      "mbta-market v1\nname x\nworkers 2\nw 1 0 1 0.8\n");
  std::string error;
  EXPECT_FALSE(ReadMarket(buffer.str(), &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(MarketIoTest, RejectsOutOfRangeEdgeEndpoint) {
  std::stringstream buffer(
      "mbta-market v1\nname x\nworkers 1\nw 1 0 1 0.8\ntasks 1\n"
      "t 1 1 1 0 0\nedges 1\ne 0 5 0.8 1.0\n");
  std::string error;
  EXPECT_FALSE(ReadMarket(buffer.str(), &error).has_value());
  EXPECT_NE(error.find("bad edge"), std::string::npos);
}

TEST(MarketIoTest, RejectsInvalidAttributeRanges) {
  // fatigue > 1
  std::stringstream buffer(
      "mbta-market v1\nname x\nworkers 1\nw 1 0 1.5 0.8\ntasks 0\n"
      "edges 0\n");
  std::string error;
  EXPECT_FALSE(ReadMarket(buffer.str(), &error).has_value());
}

// A two-worker, two-task market whose line `index` (0-based, counting
// every line) is replaced by `line`.
std::string MarketWithLine(std::size_t index, const std::string& line) {
  std::vector<std::string> lines = {
      "mbta-market v1", "name x",        "workers 2",
      "w 2 0.1 1 0.8",  "w 1 0 1 0.9",   "tasks 2",
      "t 2 1 1 0 0",    "t 1 1 2 0.5 0", "edges 2",
      "e 0 0 0.8 1",    "e 1 1 0.7 0.5"};
  lines.at(index) = line;
  std::string text;
  for (const std::string& l : lines) text += l + "\n";
  return text;
}

TEST(MarketIoTest, FractionalIntegerFieldsAreRejected) {
  // The old reader split "3.5" into 3 and ".5" and shifted every later
  // field by one, so each of these loaded as some other market.
  struct Case {
    std::size_t line;
    const char* text;
    const char* error;
  };
  for (const Case& c : {Case{3, "w 3.5 1 0.5 0.5", "bad worker line"},
                        Case{6, "t 1.5 0.5 1 0.5 0", "bad task line"},
                        Case{9, "e 0 1.5 0.5 0.5", "bad edge line"}}) {
    std::string error;
    EXPECT_FALSE(
        ReadMarket(MarketWithLine(c.line, c.text), &error)
            .has_value())
        << c.text;
    EXPECT_NE(error.find(c.error), std::string::npos) << error;
  }
}

TEST(MarketIoTest, MinusInUnsignedFieldsIsRejected) {
  // The old reader wrapped "-1" to 4294967295 in the requester field and
  // read "-0" as worker 0.
  for (const std::string& text :
       {MarketWithLine(7, "t 1 1 2 0.5 -1"),
        MarketWithLine(10, "e -0 1 0.7 0.5")}) {
    std::string error;
    EXPECT_FALSE(ReadMarket(text, &error).has_value())
        << text;
    EXPECT_NE(error.find("bad"), std::string::npos) << error;
  }
}

TEST(MarketIoTest, DuplicateEdgeQuotesTheFirstRepeatingLine) {
  // The repeat of (1, 1) comes before a malformed line: the duplicate is
  // reported, at its own line.
  const std::string text =
      "mbta-market v1\nname x\nworkers 2\nw 2 0.1 1 0.8\nw 1 0 1 0.9\n"
      "tasks 2\nt 2 1 1 0 0\nt 1 1 2 0.5 0\nedges 4\ne 1 1 0.7 0.5\n"
      "e 0 0 0.8 1\ne 1 1 0.1 0.1\ne 0 1 x 1\n";
  std::string error;
  EXPECT_FALSE(ReadMarket(text, &error).has_value());
  EXPECT_EQ(error, "duplicate edge: e 1 1 0.1 0.1");
}

TEST(MarketIoTest, LinesAreTrimmedAndAnEmptyNameRoundTrips) {
  const LaborMarket m = MakeTestMarket({1}, {1}, {{0, 0, 0.8, 1.0}});
  LaborMarketBuilder b;
  b.SetName("");
  b.AddWorker(m.worker(0));
  b.AddTask(m.task(0));
  b.AddEdge(0, 0, EdgeAttributes{0.8, 1.0});
  const LaborMarket unnamed = b.Build();
  std::stringstream buffer;
  WriteMarket(unnamed, buffer);
  const std::string text = buffer.str();
  std::string error;
  const auto parsed = ReadMarket(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->name(), "");
  // CRLF line ends and trailing tabs read the same market.
  std::string indented;
  for (char c : text) {
    indented += c;
    if (c == '\n') indented.insert(indented.size() - 1, "\r\t");
  }
  const auto again = ReadMarket(indented, &error);
  ASSERT_TRUE(again.has_value()) << error;
  ExpectMarketsEqual(*parsed, *again);
}

TEST(MarketIoTest, FileRoundTrip) {
  const LaborMarket m = GenerateMarket(UniformConfig(30, 30, 4));
  const std::string path = ::testing::TempDir() + "/market_io_test.market";
  std::string error;
  ASSERT_TRUE(WriteMarketToFile(m, path, &error)) << error;
  const auto parsed = ReadMarketFromFile(path, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ExpectMarketsEqual(m, *parsed);
}

TEST(MarketIoTest, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(
      ReadMarketFromFile("/nonexistent/nowhere.market", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(AssignmentIoTest, RoundTripSolvedAssignment) {
  const LaborMarket m = GenerateMarket(UniformConfig(40, 40, 6));
  const MbtaProblem p{&m, {}};
  const Assignment a = GreedySolver().Solve(p);
  std::stringstream buffer;
  WriteAssignment(m, a, buffer);
  std::string error;
  const auto parsed = ReadAssignment(m, buffer.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  std::vector<EdgeId> original = a.edges, round_tripped = parsed->edges;
  std::sort(original.begin(), original.end());
  std::sort(round_tripped.begin(), round_tripped.end());
  EXPECT_EQ(original, round_tripped);
}

TEST(AssignmentIoTest, RejectsNonEdgePair) {
  const LaborMarket m = MakeTestMarket({1, 1}, {1, 1},
                                       {{0, 0, 0.8, 1.0}});
  std::stringstream buffer("mbta-assignment v1\npairs 1\na 1 1\n");
  std::string error;
  EXPECT_FALSE(ReadAssignment(m, buffer.str(), &error).has_value());
  EXPECT_NE(error.find("not an eligible edge"), std::string::npos);
}

TEST(AssignmentIoTest, RejectsInfeasibleAssignment) {
  const LaborMarket m = MakeTestMarket({1}, {1, 1},
                                       {{0, 0, 0.8, 1.0}, {0, 1, 0.8, 1.0}});
  // Worker capacity 1 but two pairs.
  std::stringstream buffer("mbta-assignment v1\npairs 2\na 0 0\na 0 1\n");
  std::string error;
  EXPECT_FALSE(ReadAssignment(m, buffer.str(), &error).has_value());
  EXPECT_NE(error.find("violates"), std::string::npos);
}

TEST(AssignmentIoTest, FractionalAndNegativePairFieldsAreRejected) {
  // The old reader took "0 1.5" as the pair (0, 1) and ignored ".5".
  const LaborMarket m = MakeTestMarket(
      {2, 1}, {1, 3}, {{0, 0, 0.8, 1.25}, {0, 1, 0.6, 1.0}, {1, 1, 0.65, 0.5}},
      {2.0, 5.0});
  for (const char* line : {"a 0 1.5", "a 0.5 1", "a -0 1", "a 0 1 1"}) {
    const std::string text =
        std::string("mbta-assignment v1\npairs 1\n") + line + "\n";
    std::string error;
    EXPECT_FALSE(ReadAssignment(m, text, &error).has_value()) << line;
    EXPECT_NE(error.find("bad pair line"), std::string::npos) << error;
  }
}

TEST(AssignmentIoTest, RejectsDuplicatePair) {
  const LaborMarket m = MakeTestMarket({2}, {2}, {{0, 0, 0.8, 1.0}});
  std::stringstream buffer("mbta-assignment v1\npairs 2\na 0 0\na 0 0\n");
  std::string error;
  EXPECT_FALSE(ReadAssignment(m, buffer.str(), &error).has_value());
}

}  // namespace
}  // namespace mbta
