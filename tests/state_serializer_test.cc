// Byte-identity of the to_chars state serializer against the ostringstream
// codec it replaced (tests/reference_state_serializer.h), on random states
// full of awkward doubles: subnormals, ±1e300, 17-significant-digit
// values, integral doubles, signed zeros. Empty sections and pending
// deltas of every kind are covered too.
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "service/state.h"
#include "tests/reference_state_serializer.h"
#include "util/rng.h"

namespace mbta {
namespace {

double AwkwardDouble(Rng& rng) {
  switch (rng.NextBounded(10)) {
    case 0:  // subnormal
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.NextBounded(1u << 20));
    case 1:
      return rng.NextBool(0.5) ? 1e300 : -1e300;
    case 2:  // integral
      return static_cast<double>(rng.NextInt(-1'000'000'000, 1'000'000'000));
    case 3:  // integral past 2^53 and around the %g exponent switch
      return rng.NextBool(0.5) ? 1e16 : 123456789012345678.0;
    case 4:
      return rng.NextBool(0.5) ? 0.0 : -0.0;
    case 5:  // tiny normal, scientific notation
      return rng.NextDouble() * 1e-5;
    case 6:
      return std::numeric_limits<double>::max();
    case 7:
      return 0.1 + static_cast<double>(rng.NextBounded(10));
    default:  // 17 significant digits
      return rng.NextDouble(-10.0, 10.0);
  }
}

SkillVector Skills(Rng& rng) {
  SkillVector s(rng.NextBounded(5));
  for (double& v : s) v = AwkwardDouble(rng);
  return s;
}

Worker RandomWorker(Rng& rng) {
  Worker w;
  w.capacity = static_cast<int>(rng.NextInt(-3, 1'000'000));
  w.unit_cost = AwkwardDouble(rng);
  w.fatigue = AwkwardDouble(rng);
  w.reliability = AwkwardDouble(rng);
  w.skills = Skills(rng);
  return w;
}

Task RandomTask(Rng& rng) {
  Task t;
  t.capacity = static_cast<int>(rng.NextInt(-3, 1'000'000));
  t.payment = AwkwardDouble(rng);
  t.value = AwkwardDouble(rng);
  t.difficulty = AwkwardDouble(rng);
  t.requester = rng.NextBool(0.2) ? std::numeric_limits<std::uint32_t>::max()
                                  : static_cast<std::uint32_t>(rng.Next());
  t.required_skills = Skills(rng);
  return t;
}

std::uint64_t RandomId(Rng& rng) {
  return rng.NextBool(0.1) ? std::numeric_limits<std::uint64_t>::max()
                           : rng.NextBounded(1'000'000);
}

Delta RandomDelta(Rng& rng, int kind) {
  Delta d;
  d.kind = static_cast<DeltaKind>(kind);
  d.id = RandomId(rng);
  d.worker = RandomWorker(rng);
  d.task = RandomTask(rng);
  d.capacity = static_cast<int>(rng.NextInt(-3, 1'000'000));
  d.amount = AwkwardDouble(rng);
  return d;
}

ServiceState RandomState(Rng& rng) {
  ServiceState s;
  s.epoch = rng.Next();
  s.wal_records = rng.Next();
  s.reference_bits = rng.Next();
  // Each section is empty a fifth of the time.
  const auto size = [&rng] {
    return rng.NextBool(0.2) ? 0 : 1 + rng.NextBounded(12);
  };
  for (std::size_t i = size(); i > 0; --i) {
    s.workers.push_back({RandomId(rng), RandomWorker(rng)});
  }
  for (std::size_t i = size(); i > 0; --i) {
    s.tasks.push_back({RandomId(rng), RandomTask(rng)});
  }
  for (std::size_t i = size(); i > 0; --i) {
    s.pairs.push_back({RandomId(rng), RandomId(rng)});
  }
  for (std::size_t i = size(); i > 0; --i) {
    s.pending.push_back(
        RandomDelta(rng, 1 + static_cast<int>(rng.NextBounded(8))));
  }
  return s;
}

TEST(StateSerializerTest, MatchesOstreamCodecByteForByte) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    const ServiceState state = RandomState(rng);
    ASSERT_EQ(SerializeServiceState(state),
              ReferenceSerializeServiceState(state))
        << "seed " << seed;
  }
}

TEST(StateSerializerTest, EveryDeltaKindFormatsLikeTheOstreamCodec) {
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    for (int kind = 1; kind <= 8; ++kind) {
      const Delta d = RandomDelta(rng, kind);
      ASSERT_EQ(FormatDelta(d), ReferenceFormatDelta(d))
          << "kind " << kind << " round " << round;
    }
  }
}

TEST(StateSerializerTest, EmptyStateMatches) {
  const ServiceState empty;
  EXPECT_EQ(SerializeServiceState(empty),
            ReferenceSerializeServiceState(empty));
}

}  // namespace
}  // namespace mbta
