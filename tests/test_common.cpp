#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "refpga/common/contracts.hpp"
#include "refpga/common/fixed.hpp"
#include "refpga/common/interval_set.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/common/strong_id.hpp"
#include "refpga/common/table.hpp"
#include "refpga/common/thread_pool.hpp"

namespace refpga {
namespace {

// ---------------------------------------------------------------- contracts

TEST(Contracts, ExpectsPassesOnTrue) { EXPECT_NO_THROW(REFPGA_EXPECTS(1 + 1 == 2)); }

TEST(Contracts, ExpectsThrowsOnFalse) {
    EXPECT_THROW(REFPGA_EXPECTS(false), ContractViolation);
}

TEST(Contracts, MessageNamesTheExpression) {
    try {
        REFPGA_ENSURES(2 < 1);
        FAIL() << "should have thrown";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
    }
}

// ---------------------------------------------------------------- strong id

struct FooTag {};
struct BarTag {};
using FooId = StrongId<FooTag>;
using BarId = StrongId<BarTag>;

TEST(StrongId, DefaultIsInvalid) {
    FooId id;
    EXPECT_FALSE(id.valid());
}

TEST(StrongId, ValueRoundTrip) {
    FooId id{42};
    EXPECT_TRUE(id.valid());
    EXPECT_EQ(id.value(), 42u);
}

TEST(StrongId, Comparison) {
    EXPECT_EQ(FooId{3}, FooId{3});
    EXPECT_NE(FooId{3}, FooId{4});
    EXPECT_LT(FooId{3}, FooId{4});
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
    static_assert(!std::is_same_v<FooId, BarId>);
}

TEST(StrongId, Hashable) {
    std::hash<FooId> h;
    EXPECT_EQ(h(FooId{7}), h(FooId{7}));
}

// ---------------------------------------------------------------- fixed

TEST(Fixed, FromIntRoundTrip) {
    const Q16 v = Q16::from_int(-5);
    EXPECT_DOUBLE_EQ(v.to_double(), -5.0);
}

TEST(Fixed, FromDoubleQuantizes) {
    const Q16 v = Q16::from_double(1.5);
    EXPECT_EQ(v.raw(), 3 << 15);
}

TEST(Fixed, Addition) {
    EXPECT_DOUBLE_EQ((Q16::from_double(1.25) + Q16::from_double(2.5)).to_double(), 3.75);
}

TEST(Fixed, MultiplicationKeepsScale) {
    EXPECT_DOUBLE_EQ((Q16::from_double(1.5) * Q16::from_double(2.0)).to_double(), 3.0);
}

TEST(Fixed, DivisionExact) {
    EXPECT_DOUBLE_EQ((Q16::from_double(3.0) / Q16::from_double(2.0)).to_double(), 1.5);
}

TEST(Fixed, SaturatesInsteadOfWrapping) {
    const Q16 big = Q16::from_double(32767.0);
    const Q16 sum = big + big;
    EXPECT_EQ(sum.raw(), Q16::kMaxRaw);
}

TEST(Fixed, DivisionByZeroViolatesContract) {
    EXPECT_THROW(Q16::from_int(1) / Q16{}, ContractViolation);
}

class FixedMulProperty : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(FixedMulProperty, MatchesDoubleWithinLsb) {
    const auto [a, b] = GetParam();
    const double got = (Q16::from_double(a) * Q16::from_double(b)).to_double();
    EXPECT_NEAR(got, a * b, 1.0 / 32768.0 * (std::abs(a) + std::abs(b) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Pairs, FixedMulProperty,
                         ::testing::Values(std::pair{0.5, 0.5}, std::pair{-1.5, 2.25},
                                           std::pair{3.0, -7.125},
                                           std::pair{-0.0625, -16.0},
                                           std::pair{100.0, 0.01}));

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowInRange) {
    Rng r(7);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

// ------------------------------------------------------- gaussian (ziggurat)

/// Sums over 10^7 draws at a fixed seed, shared by the distribution tests.
struct GaussianSample {
    static constexpr int kTailK = 5;
    double n = 0.0;
    double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
    double positive = 0.0;
    double beyond[kTailK + 1] = {};      ///< |g| > k, k = 1..5
    double beyond_pos[kTailK + 1] = {};  ///< g > k

    static const GaussianSample& get() {
        static const GaussianSample sample = [] {
            GaussianSample s;
            Rng r(2008);
            constexpr int kDraws = 10'000'000;
            for (int i = 0; i < kDraws; ++i) {
                const double g = r.next_gaussian();
                const double g2 = g * g;
                s.s1 += g;
                s.s2 += g2;
                s.s3 += g2 * g;
                s.s4 += g2 * g2;
                if (g > 0.0) s.positive += 1.0;
                for (int k = 1; k <= kTailK; ++k) {
                    if (std::fabs(g) > k) s.beyond[k] += 1.0;
                    if (g > k) s.beyond_pos[k] += 1.0;
                }
            }
            s.n = kDraws;
            return s;
        }();
        return sample;
    }
};

TEST(Rng, GaussianMomentsMatchStandardNormal) {
    // Each moment within 5 standard errors of N(0, 1): SE(mean) = 1/sqrt(n),
    // SE(variance) = sqrt(2/n), SE(skewness) = sqrt(6/n), SE(excess
    // kurtosis) = sqrt(24/n). Irwin-Hall-12 fails the kurtosis (-0.1).
    const GaussianSample& s = GaussianSample::get();
    const double n = s.n;
    const double mean = s.s1 / n;
    const double m2 = s.s2 / n - mean * mean;
    const double m3 = s.s3 / n - 3.0 * mean * s.s2 / n + 2.0 * mean * mean * mean;
    const double m4 = s.s4 / n - 4.0 * mean * s.s3 / n +
                      6.0 * mean * mean * s.s2 / n - 3.0 * mean * mean * mean * mean;
    EXPECT_NEAR(mean, 0.0, 5.0 * std::sqrt(1.0 / n));
    EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / n));
    EXPECT_NEAR(m3 / std::pow(m2, 1.5), 0.0, 5.0 * std::sqrt(6.0 / n));
    EXPECT_NEAR(m4 / (m2 * m2) - 3.0, 0.0, 5.0 * std::sqrt(24.0 / n));
}

TEST(Rng, GaussianTailMassMatchesStandardNormal) {
    // P(|g| > k) = 2 Phi(-k) = erfc(k / sqrt 2), within 5 binomial sigma.
    // Irwin-Hall-12 gives 0.00201 at k = 3 and 1.79e-5 at k = 4 against the
    // true 0.00270 and 6.33e-5, and nothing beyond 6.
    const GaussianSample& s = GaussianSample::get();
    for (int k = 1; k <= GaussianSample::kTailK; ++k) {
        const double p = std::erfc(k / std::sqrt(2.0));
        const double sigma = std::sqrt(s.n * p * (1.0 - p));
        EXPECT_NEAR(s.beyond[k], s.n * p, 5.0 * sigma) << "P(|g| > " << k << ")";
    }
}

TEST(Rng, GaussianIsSignSymmetric) {
    // Half the draws positive, and each tail split evenly between the signs
    // (the tail method returns the sign of the layer's uniform).
    const GaussianSample& s = GaussianSample::get();
    EXPECT_NEAR(s.positive, 0.5 * s.n, 5.0 * std::sqrt(0.25 * s.n));
    for (int k = 1; k <= 4; ++k)
        EXPECT_NEAR(s.beyond_pos[k], 0.5 * s.beyond[k],
                    5.0 * std::sqrt(0.25 * s.beyond[k]))
            << "g > " << k;
}

TEST(Rng, ZigguratTablesFollowTheRecurrence) {
    // Re-derives the hexfloat tables from (kR, kV) in extended precision:
    // kX[1] = kR, kX[i+1] = sqrt(-2 ln(kV / kX[i] + f(kX[i]))), kX[0] =
    // kV / f(kR), kX[256] = 0, kF[i] = f(kX[i]), f(x) = exp(-x^2 / 2).
    using namespace ziggurat;
    using Wide = long double;
    const auto f = [](Wide x) { return std::exp(-x * x / 2); };
    const auto rel = [](Wide got, Wide want) {
        return static_cast<double>(std::fabs(got - want) / std::fabs(want));
    };
    constexpr double kTol = 1e-14;
    const Wide r = kR;
    const Wide v = kV;

    // kV is the area of the base layer: the strip under f(kR) plus the tail.
    const Wide tail = std::sqrt(std::acos(Wide{-1}) / 2) * std::erfc(r / std::sqrt(Wide{2}));
    EXPECT_LE(rel(r * f(r) + tail, v), kTol);

    Wide x[kLayers + 1];
    x[0] = v / f(r);
    x[1] = r;
    for (int i = 1; i < kLayers - 1; ++i)
        x[i + 1] = std::sqrt(-2 * std::log(v / x[i] + f(x[i])));
    // kR closes the ziggurat: the top layer [0, kX[255]] x [f(kX[255]), 1]
    // has area kV too.
    EXPECT_LE(rel(x[kLayers - 1] * (1 - f(x[kLayers - 1])), v), kTol);

    for (int i = 0; i < kLayers; ++i) {
        EXPECT_LE(rel(kX[i], x[i]), kTol) << "kX[" << i << "]";
        EXPECT_LE(rel(kF[i], f(x[i])), kTol) << "kF[" << i << "]";
    }
    EXPECT_EQ(kX[kLayers], 0.0);
    EXPECT_EQ(kF[kLayers], 1.0);
}

TEST(Rng, GaussianStreamIsPinned) {
    // Seed 10761's first eight draws cover every path of the ziggurat: draws
    // 0-2 and 5-7 end on the fast path (one next_u64 each), draw 3 is a
    // wedge draw (one more uniform for its height) and draw 4 comes from
    // the tail beyond kR (two more uniforms). The slow-path values assume a
    // glibc-grade std::exp/std::log. A change to the generator must re-pin
    // these values on purpose.
    constexpr double kWant[] = {
        -0x1.37601075ab7e7p+1, -0x1.730e6c2e59b9ap+0, -0x1.e852dce651d1fp-1,
        -0x1.690c603bb854dp-2, 0x1.deaffa0c5daeap+1,  -0x1.0ccdb0dd19a79p-1,
        0x1.bbf468da5996fp+0,  -0x1.4633592ed2937p+0,
    };
    constexpr int kWords[] = {1, 1, 1, 2, 3, 1, 1, 1};
    Rng r(10761);
    for (int i = 0; i < 8; ++i) {
        Rng advanced = r;  // the state before the draw, advanced by hand
        EXPECT_EQ(r.next_gaussian(), kWant[i]) << "draw " << i;
        for (int k = 0; k < kWords[i]; ++k) (void)advanced.next_u64();
        Rng after = r;
        EXPECT_EQ(advanced.next_u64(), after.next_u64())
            << "draw " << i << " consumed other than " << kWords[i] << " words";
    }
    EXPECT_GT(std::fabs(kWant[4]), ziggurat::kR);
    EXPECT_LT(std::fabs(kWant[3]), ziggurat::kR);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersHeaderAndRows) {
    Table t({"a", "bb"});
    t.add_row({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| a "), std::string::npos);
    EXPECT_NE(out.find("| 1 "), std::string::npos);
    EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, RejectsWrongArity) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, NumFormatsPrecision) { EXPECT_EQ(Table::num(3.14159, 2), "3.14"); }

// ---------------------------------------------------------------- intervals

TEST(IntervalSet, CoalescesAndTracksCoverage) {
    IntervalSet set;
    set.add(4, 2);
    set.add(0, 2);
    set.add(2, 2);  // bridges both neighbours
    ASSERT_EQ(set.intervals().size(), 1u);
    EXPECT_EQ(set.intervals()[0], (IntervalSet::Interval{0, 6}));
    EXPECT_EQ(set.count(), 6u);
    EXPECT_TRUE(set.contains(5));
    EXPECT_FALSE(set.contains(6));
    EXPECT_TRUE(set.covers_exactly(6));
    EXPECT_FALSE(set.covers_exactly(7));
}

TEST(IntervalSet, ReportsMissingGaps) {
    IntervalSet set;
    set.add(2, 2);
    set.add(8, 1);
    const auto gaps = set.missing(12);
    ASSERT_EQ(gaps.size(), 3u);
    EXPECT_EQ(gaps[0], (IntervalSet::Interval{0, 2}));
    EXPECT_EQ(gaps[1], (IntervalSet::Interval{4, 8}));
    EXPECT_EQ(gaps[2], (IntervalSet::Interval{9, 12}));
}

TEST(IntervalSet, RejectsOverlapsAndDegenerateRanges) {
    IntervalSet set;
    set.add(0, 4);
    EXPECT_THROW(set.add(3, 2), ContractViolation);
    EXPECT_THROW(set.add(0, 0), ContractViolation);
    EXPECT_FALSE(set.disjoint(2, 1));
    EXPECT_TRUE(set.disjoint(4, 1));
}

// ---------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEverySubmittedJob) {
    std::atomic<int> ran{0};
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i)
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, ThrowingJobDoesNotKillTheWorkers) {
    // The documented contract: a job that lets an exception escape is
    // swallowed (and logged), and the pool keeps serving later jobs — error
    // reporting is the job's responsibility, as in CampaignRunner::run_one.
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
        pool.submit([] { throw std::runtime_error("job failure"); });
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 50);

    // The pool is still healthy after the failures.
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 51);
}

TEST(ThreadPool, NonStandardThrowIsAlsoContained) {
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    pool.submit([] { throw 42; });  // NOLINT: deliberately non-std::exception
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, DestructorDrainsTheQueueUnderContention) {
    // Jobs submitted from several threads while the pool is being torn down
    // elsewhere is a race by construction; here all submitters finish first,
    // then the destructor must run every queued job before joining.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(3);
        std::vector<std::thread> submitters;
        submitters.reserve(4);
        for (int t = 0; t < 4; ++t)
            submitters.emplace_back([&pool, &ran] {
                for (int i = 0; i < 125; ++i)
                    pool.submit([&ran] {
                        ran.fetch_add(1, std::memory_order_relaxed);
                    });
            });
        for (std::thread& s : submitters) s.join();
        // No wait_idle(): destruction itself must drain all 500 jobs.
    }
    EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPool, WaitIdleIsAWholePoolBarrier) {
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    // At the barrier nothing is in flight: the count is final, not racing.
    const int at_barrier = ran.load();
    EXPECT_EQ(at_barrier, 64);
    pool.wait_idle();  // idempotent on an idle pool
    EXPECT_EQ(ran.load(), at_barrier);
}

// ------------------------------------------------------- rng stream isolation

/// SplitMix64-style seed mix, the idiom the fault planner and the fleet use
/// to derive independent per-category streams from one campaign seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

TEST(Rng, DerivedStreamsDoNotCollide) {
    constexpr int kStreams = 4;
    constexpr int kDraws = 1000;
    std::set<std::uint64_t> seen;
    for (int s = 0; s < kStreams; ++s) {
        Rng rng(mix_seed(2008, static_cast<std::uint64_t>(s)));
        for (int i = 0; i < kDraws; ++i) seen.insert(rng.next_u64());
    }
    // 4000 draws from 2^64: any overlap within or across streams would be a
    // seeding bug, not chance.
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kStreams * kDraws));
}

TEST(Rng, DerivedStreamsAreUncorrelated) {
    Rng a(mix_seed(2008, 1));
    Rng b(mix_seed(2008, 2));
    constexpr int kDraws = 4096;
    double sum_a = 0.0, sum_b = 0.0, sum_ab = 0.0, sum_a2 = 0.0, sum_b2 = 0.0;
    for (int i = 0; i < kDraws; ++i) {
        const double x = a.next_double();
        const double y = b.next_double();
        sum_a += x;
        sum_b += y;
        sum_ab += x * y;
        sum_a2 += x * x;
        sum_b2 += y * y;
    }
    const double n = kDraws;
    const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
    const double var_a = sum_a2 / n - (sum_a / n) * (sum_a / n);
    const double var_b = sum_b2 / n - (sum_b / n) * (sum_b / n);
    const double r = cov / std::sqrt(var_a * var_b);
    EXPECT_LT(std::abs(r), 0.05);
}

TEST(Rng, StreamsAreIsolatedFromEachOther) {
    // Drawing from one instance must not perturb another: interleaved draws
    // reproduce the sequential sequences exactly.
    Rng a1(7), b1(8);
    std::vector<std::uint64_t> seq_a, seq_b;
    for (int i = 0; i < 100; ++i) seq_a.push_back(a1.next_u64());
    for (int i = 0; i < 100; ++i) seq_b.push_back(b1.next_u64());

    Rng a2(7), b2(8);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a2.next_u64(), seq_a[static_cast<std::size_t>(i)]);
        EXPECT_EQ(b2.next_u64(), seq_b[static_cast<std::size_t>(i)]);
    }
}

}  // namespace
}  // namespace refpga
