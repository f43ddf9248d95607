#include <gtest/gtest.h>

#include <set>

#include "common/bitmask.h"
#include "common/bloom.h"
#include "common/memory_meter.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/types.h"

namespace tcsm {
namespace {

TEST(Bitmask, BitAndHasBit) {
  EXPECT_EQ(Bit(0), 1u);
  EXPECT_EQ(Bit(5), 32u);
  EXPECT_TRUE(HasBit(0b101010, 1));
  EXPECT_FALSE(HasBit(0b101010, 0));
  EXPECT_TRUE(HasBit(Bit(63), 63));
}

TEST(Bitmask, PopCount) {
  EXPECT_EQ(PopCount(0), 0);
  EXPECT_EQ(PopCount(0b1011), 3);
  EXPECT_EQ(PopCount(~Mask64{0}), 64);
}

TEST(Bitmask, BitRangeIteratesSetBits) {
  std::vector<uint32_t> bits;
  for (uint32_t i : BitRange(0b1000101)) bits.push_back(i);
  EXPECT_EQ(bits, (std::vector<uint32_t>{0, 2, 6}));
  for (uint32_t i : BitRange(0)) {
    FAIL() << "empty mask must not iterate, got " << i;
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ZipfSkewsTowardSmallIndexes) {
  Rng rng(13);
  size_t low = 0;
  const size_t n = 1000;
  for (size_t i = 0; i < 4000; ++i) {
    if (rng.NextZipf(n, 1.0) < n / 10) ++low;
  }
  // With alpha=1, far more than 10% of mass is on the first decile.
  EXPECT_GT(low, 1600u);
}

TEST(Rng, ZipfUniformWhenAlphaZero) {
  Rng rng(17);
  size_t low = 0;
  for (size_t i = 0; i < 4000; ++i) {
    if (rng.NextZipf(1000, 0.0) < 100) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low), 400.0, 120.0);
}

TEST(Rng, GeometricMeanRoughlyMatches) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.NextGeometric(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.3);
}

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad");
  EXPECT_NE(s.ToString().find("bad"), std::string::npos);
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> v(42);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  StatusOr<int> e(Status::NotFound("x"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST(Timer, UnlimitedDeadlineNeverExpires) {
  Deadline d;
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(d.ExpiredNow());
}

TEST(Timer, ZeroOrNegativeLimitMeansUnlimited) {
  Deadline d(0);
  EXPECT_FALSE(d.ExpiredNow());
}

TEST(Timer, TightDeadlineExpires) {
  Deadline d(0.5);
  // Spin until well past the limit.
  StopWatch watch;
  while (watch.ElapsedMs() < 2.0) {
  }
  EXPECT_TRUE(d.ExpiredNow());
}

TEST(MemoryMeter, PeakTracksMaximum) {
  PeakMeter m;
  m.Observe(10);
  m.Observe(5);
  m.Observe(20);
  m.Observe(1);
  EXPECT_EQ(m.peak_bytes(), 20u);
  m.Reset();
  EXPECT_EQ(m.peak_bytes(), 0u);
}

TEST(Types, PackPairRoundTrips) {
  const uint64_t k = PackPair(123456, 654321);
  EXPECT_EQ(PairFirst(k), 123456u);
  EXPECT_EQ(PairSecond(k), 654321u);
}

TEST(Bloom, NeverForgetsAddedKeys) {
  // One-sided error: a key that was added always tests positive.
  Bloom64 b;
  EXPECT_TRUE(b.empty());
  for (uint64_t k = 0; k < 500; ++k) {
    b.Add(k * 0x9e3779b97f4a7c15ull + 7);
    EXPECT_TRUE(b.MayContain(k * 0x9e3779b97f4a7c15ull + 7));
  }
  EXPECT_FALSE(b.empty());
  b.Clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.bits(), 0u);
}

TEST(Bloom, EmptyFilterRejectsEverything) {
  const Bloom64 b;
  for (uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(b.MayContain(k));
}

TEST(Bloom, SparseFillHasUsefulSelectivity) {
  // With a handful of keys (the per-vertex signature regime: a few
  // (elabel, vlabel) pairs), most absent keys must test negative — the
  // whole point of consulting the mask before a bucket scan.
  Bloom64 b;
  for (uint64_t k = 0; k < 4; ++k) b.Add(PackPair(Label(k), Label(k + 9)));
  size_t false_positives = 0;
  const size_t probes = 10000;
  for (uint64_t k = 0; k < probes; ++k) {
    if (b.MayContain(PackPair(Label(k + 100), Label(k + 5000)))) {
      ++false_positives;
    }
  }
  // 4 keys set <= 8 of 64 bits; the expected FP rate is ~(8/64)^2 < 2%.
  // Allow a wide margin — the property that matters is "mostly negative".
  EXPECT_LT(false_positives, probes / 10);
}

TEST(Bloom, DeterministicAcrossInstances) {
  Bloom64 a, b;
  a.Add(42);
  b.Add(42);
  EXPECT_EQ(a.bits(), b.bits());
}

}  // namespace
}  // namespace tcsm
