#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bitvector.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace deepdive {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition), "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  DD_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_FALSE(UseHalf(7, &out).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// Every seeded result in the repository depends on this exact stream.
TEST(RngTest, StreamIsPinnedForSeed) {
  Rng a(42);
  EXPECT_EQ(a.Next(), 1546998764402558742ull);
  EXPECT_EQ(a.Next(), 6990951692964543102ull);
  EXPECT_EQ(a.Next(), 12544586762248559009ull);
  EXPECT_EQ(a.Next(), 17057574109182124193ull);
  Rng b(42);
  EXPECT_EQ(b.Uniform(), 0x1.5780b2e0c2ecp-4);
  EXPECT_EQ(b.Uniform(), 0x1.84136619b444ep-2);
  EXPECT_EQ(b.Uniform(), 0x1.5c2ea66473c93p-1);
  EXPECT_EQ(b.Uniform(), 0x1.d9715a8e0766cp-1);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

// Regression: seed derivation by arithmetic (`seed + k`) makes the stream
// for (seed, stream k) collide with the one for (seed+1, stream k-1) — two
// runs configured with adjacent base seeds silently share randomness.
// MixSeed keying must keep every (seed, stream) pair distinct.
TEST(RngTest, MixSeedStreamsDoNotCollideAcrossAdjacentSeeds) {
  for (uint64_t seed = 0; seed < 16; ++seed) {
    for (uint64_t stream = 1; stream < 16; ++stream) {
      EXPECT_NE(Rng::MixSeed(seed, stream), Rng::MixSeed(seed + 1, stream - 1))
          << "seed=" << seed << " stream=" << stream;
      EXPECT_NE(Rng::MixSeed(seed, stream), seed + stream);
    }
  }
}

TEST(RngTest, MixSeedSubstreamsDistinct) {
  EXPECT_NE(Rng::MixSeed(7, 1, 2), Rng::MixSeed(7, 2, 1));
  EXPECT_NE(Rng::MixSeed(7, 1, 2), Rng::MixSeed(7, 1, 3));
  Rng a(Rng::MixSeed(7, 1)), b(Rng::MixSeed(7, 2));
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformIntIsUnbiasedEnough) {
  Rng rng(9);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.UniformInt(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(19);
  std::vector<uint32_t> perm(20);
  for (uint32_t i = 0; i < 20; ++i) perm[i] = i;
  rng.Shuffle(&perm);
  std::set<uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 20u);
}

TEST(BitVectorTest, SetGetAcrossWordBoundaries) {
  BitVector bits(130);
  EXPECT_EQ(bits.size(), 130u);
  bits.Set(0, true);
  bits.Set(63, true);
  bits.Set(64, true);
  bits.Set(129, true);
  EXPECT_TRUE(bits.Get(0));
  EXPECT_TRUE(bits.Get(63));
  EXPECT_TRUE(bits.Get(64));
  EXPECT_TRUE(bits.Get(129));
  EXPECT_FALSE(bits.Get(1));
  EXPECT_EQ(bits.PopCount(), 4u);
}

TEST(BitVectorTest, InitialValueTrue) {
  BitVector bits(70, true);
  EXPECT_EQ(bits.PopCount(), 70u);
}

TEST(BitVectorTest, ResizePreservesAndFills) {
  BitVector bits(10);
  bits.Set(3, true);
  bits.Resize(100, true);
  EXPECT_TRUE(bits.Get(3));
  EXPECT_FALSE(bits.Get(4));
  EXPECT_TRUE(bits.Get(50));
  EXPECT_EQ(bits.PopCount(), 1u + 90u);
}

TEST(BitVectorTest, HammingDistance) {
  BitVector a(80), b(80);
  a.Set(5, true);
  a.Set(70, true);
  b.Set(70, true);
  b.Set(71, true);
  EXPECT_EQ(a.HammingDistance(b), 2u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
}

TEST(BitVectorTest, EqualityAndByteSize) {
  BitVector a(65), b(65);
  EXPECT_EQ(a, b);
  a.Set(64, true);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.ByteSize(), 16u);
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(SplitString("a,b,,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitString("", ',').empty());
  EXPECT_EQ(SplitString(",,", ',').size(), 0u);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, Strip) {
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("PERSON_12", "PERSON_"));
  EXPECT_FALSE(StartsWith("PER", "PERSON_"));
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(HashTest, MixAvalanches) {
  EXPECT_NE(HashMix(1), HashMix(2));
  EXPECT_NE(HashString("a"), HashString("b"));
  EXPECT_EQ(HashString("abc"), HashString("abc"));
}

TEST(HashTest, CombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2), HashCombine(HashCombine(0, 2), 1));
}

}  // namespace
}  // namespace deepdive
