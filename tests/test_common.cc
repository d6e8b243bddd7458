// Tests for the common utilities: seeded RNG draws, sampling, timers, and
// the CSR list arena.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "common/timer.h"

namespace kspin {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_EQ(rng.UniformInt(5, 5), 5u);
  EXPECT_THROW(rng.UniformInt(6, 5), std::invalid_argument);
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndComplete) {
  Rng rng(10);
  // Sparse sample (rejection path).
  auto sparse = rng.SampleWithoutReplacement(10000, 50);
  std::set<std::uint32_t> sparse_set(sparse.begin(), sparse.end());
  EXPECT_EQ(sparse_set.size(), 50u);
  for (auto v : sparse) EXPECT_LT(v, 10000u);
  // Dense sample (shuffle path).
  auto dense = rng.SampleWithoutReplacement(60, 55);
  std::set<std::uint32_t> dense_set(dense.begin(), dense.end());
  EXPECT_EQ(dense_set.size(), 55u);
  // Full population.
  auto all = rng.SampleWithoutReplacement(20, 20);
  EXPECT_EQ(std::set<std::uint32_t>(all.begin(), all.end()).size(), 20u);
  EXPECT_THROW(rng.SampleWithoutReplacement(5, 6), std::invalid_argument);
}

TEST(Timer, MeasuresElapsedTimeMonotonically) {
  Timer timer;
  const double t0 = timer.ElapsedSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  const double t1 = timer.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  EXPECT_GT(t1, t0);
  EXPECT_GE(timer.ElapsedMillis(), 15.0 * 0.5);  // Generous slack.
  timer.Restart();
  EXPECT_LT(timer.ElapsedMillis(), 15.0);
}

TEST(AccumulatingTimer, SumsIntervals) {
  AccumulatingTimer timer;
  EXPECT_EQ(timer.TotalSeconds(), 0.0);
  timer.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  timer.Stop();
  const double first = timer.TotalSeconds();
  EXPECT_GT(first, 0.0);
  timer.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  timer.Stop();
  EXPECT_GT(timer.TotalSeconds(), first);
  timer.Reset();
  EXPECT_EQ(timer.TotalSeconds(), 0.0);
}

TEST(FlatLists, AppendToEachMatchesNestedLists) {
  // Random nested lists (some empty), grown by random AppendToEach calls,
  // must read back exactly like the vector<vector> they model.
  Rng rng(9);
  std::vector<std::vector<std::uint32_t>> nested(12);
  for (auto& list : nested) {
    const auto size = rng.UniformInt(0, 3);
    for (std::uint64_t i = 0; i < size; ++i) {
      list.push_back(static_cast<std::uint32_t>(rng.UniformInt(0, 99)));
    }
  }
  FlatLists<std::uint32_t> flat = FlatLists<std::uint32_t>::FromLists(nested);
  for (std::uint32_t item = 1000; item < 1040; ++item) {
    std::vector<std::uint32_t> lists;
    for (std::uint32_t i = 0; i < nested.size(); ++i) {
      if (rng.Bernoulli(0.3)) lists.push_back(i);
    }
    flat.AppendToEach(lists, item);
    for (std::uint32_t i : lists) nested[i].push_back(item);
    ASSERT_EQ(flat.NumLists(), nested.size());
    for (std::size_t i = 0; i < nested.size(); ++i) {
      const std::span<const std::uint32_t> row = flat[i];
      ASSERT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()),
                nested[i])
          << "list " << i << " after item " << item;
    }
  }
  // Appending to no list leaves everything in place.
  const std::size_t total = flat.TotalItems();
  flat.AppendToEach({}, 7);
  EXPECT_EQ(flat.TotalItems(), total);
}

}  // namespace
}  // namespace kspin
