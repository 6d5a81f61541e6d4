// Hostile-bytes corpus for the durability readers (ReadWal, ReadSnapshot,
// ParseDelta): seeded random garbage, targeted frame attacks (huge /
// zero lengths, checksummed-but-undecodable payloads), and re-sealed
// snapshot bodies that reach the parser with poisoned counts and
// non-finite numerics. The contract everywhere: never crash, never
// over-allocate, fail with a message — mirroring market_io_fuzz_test.
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "service/snapshot.h"
#include "service/wal.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace mbta {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string WalHeader() { return std::string(kWalMagic, sizeof(kWalMagic)); }

void PutU32(std::uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

// A frame whose checksum is genuinely valid for `payload` — the only way
// hostile bytes get past the CRC gate and into the decoders.
std::string SealedFrame(const std::string& payload) {
  std::string frame;
  PutU32(static_cast<std::uint32_t>(payload.size()), &frame);
  PutU32(Crc32(payload), &frame);
  return frame + payload;
}

// A WAL with real records to mutate, built through the real writer.
std::string ValidWalBytes(const std::string& name) {
  const std::string path = TempPath(name);
  WalWriter writer;
  std::string error;
  EXPECT_TRUE(writer.Open(path, &error)) << error;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Delta d;
    d.kind = id % 2 == 1 ? DeltaKind::kAddWorker : DeltaKind::kAddTask;
    d.id = id;
    d.worker.capacity = 1;
    d.task.capacity = 1;
    d.task.payment = 1.0;
    EXPECT_TRUE(writer.AppendDelta(d, &error)) << error;
  }
  EpochCommit commit;
  commit.epoch = 1;
  commit.num_deltas = 4;
  EXPECT_TRUE(writer.AppendEpoch(commit, &error)) << error;
  EXPECT_TRUE(writer.Sync(&error)) << error;
  writer.Close();
  return ReadFile(path);
}

TEST(WalFuzzTest, RandomBytesAfterTheHeaderNeverCrashTheReader) {
  const std::string path = TempPath("fuzz_random.wal");
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 7919);
    std::string bytes = WalHeader();
    const std::size_t n = 1 + rng.NextBounded(512);
    for (std::size_t i = 0; i < n; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    WriteFile(path, bytes);
    std::string error;
    const auto result = ReadWal(path, &error);
    if (result.has_value()) {
      EXPECT_LE(result->valid_bytes, bytes.size()) << "seed " << seed;
    } else {
      EXPECT_FALSE(error.empty()) << "seed " << seed;
    }
  }
}

TEST(WalFuzzTest, RandomMutationsOfAValidWalStayBounded) {
  const std::string base = ValidWalBytes("fuzz_mutate_base.wal");
  const std::string path = TempPath("fuzz_mutate.wal");
  std::string error;
  WriteFile(path, base);
  const auto full = ReadWal(path, &error);
  ASSERT_TRUE(full.has_value()) << error;
  const std::size_t total = full->records.size();
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed * 104729);
    std::string bytes = base;
    const std::size_t mutations = 1 + rng.NextBounded(8);
    for (std::size_t i = 0; i < mutations; ++i) {
      bytes[rng.NextBounded(bytes.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
    WriteFile(path, bytes);
    const auto result = ReadWal(path, &error);
    if (result.has_value()) {
      EXPECT_LE(result->records.size(), total) << "seed " << seed;
      EXPECT_LE(result->valid_bytes, bytes.size()) << "seed " << seed;
    } else {
      EXPECT_FALSE(error.empty()) << "seed " << seed;
    }
  }
}

TEST(WalFuzzTest, ImplausibleLengthFieldsAreATornTailNotAnAllocation) {
  const std::string path = TempPath("fuzz_length.wal");
  for (const std::uint32_t len :
       {0u, kWalMaxRecordLen + 1, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
    std::string bytes = WalHeader();
    PutU32(len, &bytes);
    PutU32(0x12345678u, &bytes);  // claimed checksum, never reached
    bytes += "short";
    WriteFile(path, bytes);
    std::string error;
    const auto result = ReadWal(path, &error);
    ASSERT_TRUE(result.has_value()) << "len " << len;
    EXPECT_TRUE(result->tail_dropped) << "len " << len;
    EXPECT_TRUE(result->records.empty()) << "len " << len;
    EXPECT_EQ(result->valid_bytes, sizeof(kWalMagic)) << "len " << len;
  }
}

TEST(WalFuzzTest, ChecksummedGarbageDeltaIsAStructuralError) {
  const std::string path = TempPath("fuzz_garbage_delta.wal");
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kDelta));
  payload += "not a delta encoding";
  WriteFile(path, WalHeader() + SealedFrame(payload));
  std::string error;
  EXPECT_FALSE(ReadWal(path, &error).has_value());
  EXPECT_NE(error.find("decode"), std::string::npos) << error;
}

TEST(WalFuzzTest, UnknownRecordTypeIsAStructuralError) {
  const std::string path = TempPath("fuzz_unknown_type.wal");
  std::string payload;
  payload.push_back(static_cast<char>(99));
  payload += "future schema";
  WriteFile(path, WalHeader() + SealedFrame(payload));
  std::string error;
  EXPECT_FALSE(ReadWal(path, &error).has_value());
  EXPECT_NE(error.find("unknown"), std::string::npos) << error;
}

TEST(WalFuzzTest, WrongSizedEpochBodyIsAStructuralError) {
  const std::string path = TempPath("fuzz_epoch_size.wal");
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kEpoch));
  payload += "12345";  // far from the 25-byte epoch body
  WriteFile(path, WalHeader() + SealedFrame(payload));
  std::string error;
  EXPECT_FALSE(ReadWal(path, &error).has_value());
  EXPECT_NE(error.find("epoch"), std::string::npos) << error;
}

TEST(WalFuzzTest, BadEpochModeByteIsAStructuralError) {
  const std::string path = TempPath("fuzz_epoch_mode.wal");
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kEpoch));
  payload.append(8, '\0');            // epoch
  payload.push_back('\x7F');          // mode byte out of range
  payload.append(4 + 8 + 4, '\0');    // num_deltas, value_bits, state_crc
  WriteFile(path, WalHeader() + SealedFrame(payload));
  std::string error;
  EXPECT_FALSE(ReadWal(path, &error).has_value());
  EXPECT_NE(error.find("mode"), std::string::npos) << error;
}

// --- snapshot side -------------------------------------------------------

ServiceState SmallState() {
  ServiceState state;
  StableWorker w;
  w.id = 1;
  w.worker.capacity = 2;
  StableTask t;
  t.id = 9;
  t.task.payment = 1.5;
  t.task.value = 2.0;
  state.workers = {w};
  state.tasks = {t};
  state.pairs = {{1, 9}};
  state.epoch = 2;
  state.wal_records = 5;
  return state;
}

// Re-seals a (possibly tampered) body with a *valid* trailer so the
// hostile text reaches ParseServiceState instead of dying at the CRC.
void WriteSealedSnapshot(const std::string& path, const std::string& body) {
  WriteFile(path, body + "checksum " + std::to_string(Crc32(body)) + "\n");
}

std::string ReplaceOnce(std::string text, const std::string& from,
                        const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

TEST(WalFuzzTest, PoisonedSnapshotCountsAreRejectedBeforeAllocation) {
  const std::string path = TempPath("fuzz_snap_counts.snap");
  const std::string body = SerializeServiceState(SmallState());
  for (const std::string& hostile :
       {std::string("workers 4000000000"), std::string("workers -1"),
        std::string("workers 99999999999999999999"),
        std::string("workers 1e9"), std::string("workers NaN")}) {
    WriteSealedSnapshot(path, ReplaceOnce(body, "workers 1", hostile));
    std::string error;
    EXPECT_FALSE(ReadSnapshot(path, &error).has_value()) << hostile;
    EXPECT_FALSE(error.empty()) << hostile;
  }
  WriteSealedSnapshot(path, ReplaceOnce(body, "pairs 1", "pairs 600000000"));
  std::string error;
  EXPECT_FALSE(ReadSnapshot(path, &error).has_value());
}

TEST(WalFuzzTest, NonFiniteSnapshotNumericsAreRejected) {
  const std::string path = TempPath("fuzz_snap_nan.snap");
  const std::string body = SerializeServiceState(SmallState());
  // The task line carries payment 1.5: poison it.
  for (const std::string& hostile : {std::string("nan"), std::string("inf"),
                                     std::string("-inf")}) {
    WriteSealedSnapshot(path, ReplaceOnce(body, "1.5", hostile));
    std::string error;
    EXPECT_FALSE(ReadSnapshot(path, &error).has_value()) << hostile;
  }
}

TEST(WalFuzzTest, MutatedSnapshotBodiesParseToCanonicalStatesOrFail) {
  const std::string path = TempPath("fuzz_snap_mutate.snap");
  const std::string body = SerializeServiceState(SmallState());
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed * 31337);
    std::string mutated = body;
    const std::size_t mutations = 1 + rng.NextBounded(6);
    for (std::size_t i = 0; i < mutations; ++i) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(32 + rng.NextBounded(95));
    }
    WriteSealedSnapshot(path, mutated);
    std::string error;
    const auto state = ReadSnapshot(path, &error);
    if (state.has_value()) {
      // Anything accepted must be canonical: serialize → parse is the
      // identity, byte for byte.
      const std::string round = SerializeServiceState(*state);
      const auto again = ParseServiceState(round, &error);
      ASSERT_TRUE(again.has_value()) << "seed " << seed << ": " << error;
      EXPECT_EQ(SerializeServiceState(*again), round) << "seed " << seed;
    } else {
      EXPECT_FALSE(error.empty()) << "seed " << seed;
    }
  }
}

TEST(WalFuzzTest, TruncatedSnapshotsAtEveryLineAreRejectedOrCanonical) {
  const std::string path = TempPath("fuzz_snap_cut.snap");
  const std::string body = SerializeServiceState(SmallState());
  for (std::size_t cut = 0; cut < body.size(); cut += 2) {
    // Honest trailer over the truncated body: the cut reaches the parser.
    WriteSealedSnapshot(path, body.substr(0, cut));
    std::string error;
    const auto state = ReadSnapshot(path, &error);
    if (state.has_value()) {
      const std::string round = SerializeServiceState(*state);
      EXPECT_FALSE(round.empty());
    } else {
      EXPECT_FALSE(error.empty()) << "cut " << cut;
    }
  }
}

TEST(WalFuzzTest, HostileDeltaLinesAreRejected) {
  for (const std::string& line : {
           std::string("add-worker"),
           std::string("add-worker x 1 0 1 1"),
           std::string("add-worker 1 1 0 1 1 trailing junk"),
           std::string("add-worker 1 1 nan 1 1"),
           std::string("add-worker 1 -5 0 1 1"),
           std::string("add-task 7 1 inf 2 0.5 0"),
           std::string("task-payment 7"),
           std::string("rm-worker 1 2"),
           std::string("launch-missiles 1"),
           std::string(""),
       }) {
    std::string error;
    EXPECT_FALSE(ParseDelta(line, &error).has_value()) << "accepted: " << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(WalFuzzTest, FractionalIntegerDeltaFieldsAreRejected) {
  // The old parser split "2.5" into 2 and ".5": this add-task loaded as
  // "t 7 2 0.5 1 1 0 0.5 0 1", every field after the capacity shifted.
  for (const std::string& line :
       {std::string("add-task 7 2.5 1 1 0.5 0 1"),
        std::string("add-worker 9 2.5 0.1 0.9 0.8"),
        std::string("add-task 7 2 1 1 0.5 0.5 1"),
        std::string("worker-capacity 5 2.5"),
        std::string("task-capacity 5 1e0")}) {
    std::string error;
    EXPECT_FALSE(ParseDelta(line, &error).has_value()) << "accepted: " << line;
    EXPECT_EQ(error, "bad delta line: " + line);
    std::string script_error;
    EXPECT_FALSE(ParseDeltaScript(line + "\n",
                                  &script_error)
                     .has_value())
        << line;
    EXPECT_EQ(script_error, "line 1: bad delta line: " + line);
  }
}

TEST(WalFuzzTest, MinusInUnsignedDeltaFieldsIsRejected) {
  // The old parser wrapped "-1" to id 18446744073709551615, so this
  // script admitted a worker and then removed it.
  for (const std::string& line :
       {std::string("add-worker -1 1 0 1 1"), std::string("rm-worker -1"),
        std::string("rm-task -0"), std::string("add-task 8 1 1 1 0.5 -2")}) {
    std::string error;
    EXPECT_FALSE(ParseDelta(line, &error).has_value()) << "accepted: " << line;
    EXPECT_EQ(error, "bad delta line: " + line);
  }
  std::string error;
  EXPECT_FALSE(
      ParseDeltaScript("add-worker -1 1 0 1 1\nepoch\n"
                                        "rm-worker -1\nepoch\n",
                       &error)
          .has_value());
  EXPECT_EQ(error, "line 1: bad delta line: add-worker -1 1 0 1 1");
}

}  // namespace
}  // namespace mbta
