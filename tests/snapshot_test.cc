#include "service/snapshot.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "service/delta.h"
#include "util/fault_injector.h"

namespace mbta {
namespace {

std::string TempSnap(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

ServiceState MakeState() {
  ServiceState state;
  StableWorker w1;
  w1.id = 10;
  w1.worker.capacity = 2;
  w1.worker.unit_cost = 0.125;
  w1.worker.skills = {0.1, 0.9};
  StableWorker w2;
  w2.id = 20;
  w2.worker.reliability = 0.9;
  state.workers = {w1, w2};
  StableTask t1;
  t1.id = 5;
  t1.task.payment = 1.0 / 3.0;  // exercises 17-digit round-tripping
  t1.task.value = 2.5;
  t1.task.required_skills = {0.2, 0.8};
  state.tasks = {t1};
  state.pairs = {{10, 5}, {20, 5}};
  Delta pending;
  pending.kind = DeltaKind::kTaskPayment;
  pending.id = 5;
  pending.amount = 0.7;
  state.pending.push_back(pending);
  state.epoch = 3;
  state.wal_records = 12;
  state.reference_bits = 0x4004000000000000ull;
  return state;
}

TEST(SnapshotTest, RoundTripsByteIdentically) {
  const std::string path = TempSnap("snapshot_roundtrip.snap");
  const ServiceState state = MakeState();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(state, path, &error)) << error;
  const auto loaded = ReadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  // The recovery contract is byte identity of the canonical form.
  EXPECT_EQ(SerializeServiceState(*loaded), SerializeServiceState(state));
  EXPECT_EQ(StateChecksum(*loaded), StateChecksum(state));
}

TEST(SnapshotTest, OverwriteIsAtomic) {
  const std::string path = TempSnap("snapshot_overwrite.snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(ServiceState{}, path, &error)) << error;
  ASSERT_TRUE(WriteSnapshot(MakeState(), path, &error)) << error;
  const auto loaded = ReadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->epoch, 3u);
  // No temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(SnapshotTest, WriteFaultPointLeavesOldSnapshotIntact) {
  const std::string path = TempSnap("snapshot_fault.snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(ServiceState{}, path, &error)) << error;
  FaultInjector faults;
  faults.Arm("service/snapshot/write");
  EXPECT_THROW(WriteSnapshot(MakeState(), path, &error, &faults),
               FaultInjectedError);
  const auto loaded = ReadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->epoch, 0u);  // still the old state
}

TEST(SnapshotTest, ChecksumMismatchIsRejected) {
  const std::string path = TempSnap("snapshot_badsum.snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(MakeState(), path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Corrupt one state byte, leaving the trailer in place.
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_FALSE(ReadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(SnapshotTest, TruncatedFileIsRejected) {
  const std::string path = TempSnap("snapshot_truncated.snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(MakeState(), path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (const double frac : {0.25, 0.5, 0.9}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(
                  static_cast<double>(bytes.size()) * frac));
    out.close();
    EXPECT_FALSE(ReadSnapshot(path, &error).has_value())
        << "truncation to " << frac << " accepted";
  }
}

TEST(SnapshotTest, MissingTrailerIsRejected) {
  const std::string path = TempSnap("snapshot_notrailer.snap");
  std::ofstream(path) << SerializeServiceState(MakeState());
  std::string error;
  EXPECT_FALSE(ReadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("trailer"), std::string::npos) << error;
}

TEST(SnapshotTest, DanglingPairIsRejected) {
  const std::string path = TempSnap("snapshot_dangling.snap");
  ServiceState state = MakeState();
  state.pairs.push_back({999, 5});  // worker 999 does not exist
  std::string error;
  ASSERT_TRUE(WriteSnapshot(state, path, &error)) << error;
  EXPECT_FALSE(ReadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("unknown entity"), std::string::npos) << error;
}

TEST(SnapshotTest, SerializeParseRoundTripsPendingDeltas) {
  const ServiceState state = MakeState();
  std::string error;
  const auto parsed = ParseServiceState(SerializeServiceState(state), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->pending.size(), 1u);
  EXPECT_TRUE(parsed->pending.front() == state.pending.front());
}

/// MakeState's body with the first line starting `from` replaced by `to`.
std::string BodyWith(const std::string& from, const std::string& to) {
  std::string body = SerializeServiceState(MakeState());
  const std::size_t at = body.find("\n" + from) + 1;
  EXPECT_NE(at, 0u) << from;
  return body.replace(at, body.find('\n', at) - at, to);
}

TEST(SnapshotTest, FractionalIntegerFieldsAreRejected) {
  // Worker 10 holds capacity 2 and task 5 capacity 1: the old parser
  // read "2.5" as 2 and shifted every later field, and read the pair
  // "10 5.0" as (10, 5) before the junk check caught ".0".
  for (const auto& [from, to, why] :
       {std::tuple<std::string, std::string, std::string>{
            "w 10 ", "w 10 2.5 0.125 1 0.75 0.1 0.9", "bad worker line"},
        {"t 5 ", "t 5 1.5 0.33 0.5 0 5 0.2 0.8", "bad task line"},
        {"a 10 5", "a 10 5.0", "bad pair line"}}) {
    std::string error;
    EXPECT_FALSE(ParseServiceState(BodyWith(from, to), &error).has_value())
        << to;
    EXPECT_NE(error.find(why), std::string::npos) << error;
  }
}

TEST(SnapshotTest, MinusInAnUnsignedPairEndpointIsRejected) {
  // With a worker whose id is 2^64 - 1, the old parser resolved "a -1 5"
  // to that worker and accepted the pair.
  ServiceState state = MakeState();
  state.workers[1].id = 18446744073709551615ull;
  state.pairs = {{10, 5}};
  std::string body = SerializeServiceState(state);
  const std::size_t at = body.find("a 10 5");
  body.replace(at, 6, "a -1 5");
  std::string error;
  EXPECT_FALSE(ParseServiceState(body, &error).has_value());
  EXPECT_EQ(error, "bad pair line: a -1 5");
}

TEST(SnapshotTest, RepeatedIdIsReportedAheadOfALaterBadLine) {
  ServiceState state = MakeState();
  StableWorker extra = state.workers[0];
  state.workers.push_back(extra);  // id 10 again
  state.workers.push_back(extra);
  std::string body = SerializeServiceState(state);
  // Break the last worker line: the repeat on the line before still wins.
  const std::size_t last = body.rfind("\nw 10 ") + 1;
  body.replace(last, 4, "w 1x");
  std::string error;
  EXPECT_FALSE(ParseServiceState(body, &error).has_value());
  EXPECT_EQ(error, "duplicate worker id: 10");
}

}  // namespace
}  // namespace mbta
