// Unit tests for the overload-control state machines (server/overload.h):
// the per-connection token bucket, the AIMD concurrency limiter, brownout
// hysteresis, and the OverloadController that ties them to the cumulative
// query-latency histogram. All are clock-free (time and samples passed
// in), so everything here is deterministic.
#include "server/overload.h"

#include <chrono>

#include <gtest/gtest.h>

#include "server/metrics.h"

namespace kspin::server {
namespace {

using Clock = TokenBucket::Clock;
using std::chrono::milliseconds;

// Builds a histogram snapshot where `count` samples all took `micros`.
HistogramSnapshot Uniform(std::uint64_t count, std::uint64_t micros) {
  LatencyHistogram h;
  for (std::uint64_t i = 0; i < count; ++i) h.Record(micros);
  return h.Snapshot();
}

TEST(TokenBucketTest, DisabledWhenRateIsZero) {
  TokenBucket bucket;
  const Clock::time_point now = Clock::now();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(now, 0.0, 0.0));
  }
}

TEST(TokenBucketTest, StartsFullAtBurstThenRejects) {
  TokenBucket bucket;
  const Clock::time_point now = Clock::now();
  // rate 10/s, burst defaults to 2 × rate = 20 tokens up front.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(now, 10.0, 0.0)) << "token " << i;
  }
  EXPECT_FALSE(bucket.TryAcquire(now, 10.0, 0.0));
}

TEST(TokenBucketTest, RefillsAtRate) {
  TokenBucket bucket;
  Clock::time_point now = Clock::now();
  // Explicit burst of 2: drain it.
  EXPECT_TRUE(bucket.TryAcquire(now, 10.0, 2.0));
  EXPECT_TRUE(bucket.TryAcquire(now, 10.0, 2.0));
  EXPECT_FALSE(bucket.TryAcquire(now, 10.0, 2.0));
  // 100 ms at 10/s refills exactly one token.
  now += milliseconds(100);
  EXPECT_TRUE(bucket.TryAcquire(now, 10.0, 2.0));
  EXPECT_FALSE(bucket.TryAcquire(now, 10.0, 2.0));
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  TokenBucket bucket;
  Clock::time_point now = Clock::now();
  EXPECT_TRUE(bucket.TryAcquire(now, 10.0, 2.0));
  EXPECT_TRUE(bucket.TryAcquire(now, 10.0, 2.0));
  // A long idle stretch must not bank more than `burst` tokens.
  now += std::chrono::seconds(60);
  EXPECT_TRUE(bucket.TryAcquire(now, 10.0, 2.0));
  EXPECT_TRUE(bucket.TryAcquire(now, 10.0, 2.0));
  EXPECT_FALSE(bucket.TryAcquire(now, 10.0, 2.0));
}

TEST(AimdLimiterTest, StartsAtMaxAndDecreasesMultiplicatively) {
  AimdLimiter limiter(100, 4, 0.7);
  EXPECT_EQ(limiter.limit(), 100u);
  EXPECT_TRUE(limiter.Observe(/*p99_us=*/50000, /*slo_us=*/10000));
  EXPECT_EQ(limiter.limit(), 70u);
  EXPECT_TRUE(limiter.Observe(50000, 10000));
  EXPECT_EQ(limiter.limit(), 49u);
}

TEST(AimdLimiterTest, FloorsAtMinLimit) {
  AimdLimiter limiter(100, 4, 0.7);
  for (int i = 0; i < 50; ++i) limiter.Observe(50000, 10000);
  EXPECT_EQ(limiter.limit(), 4u);
}

TEST(AimdLimiterTest, RecoversAdditivelyUpToMax) {
  AimdLimiter limiter(10, 1, 0.5);
  limiter.Observe(50000, 10000);
  EXPECT_EQ(limiter.limit(), 5u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(limiter.Observe(/*p99_us=*/1000, /*slo_us=*/10000));
  }
  EXPECT_EQ(limiter.limit(), 10u);  // +1 per healthy tick, capped at max.
}

TEST(AimdLimiterTest, IdleTicksCountAsHealthy) {
  AimdLimiter limiter(10, 1, 0.5);
  limiter.Observe(50000, 10000);
  // p99 of 0 means nothing completed this tick; the limit must climb
  // back or an idle server would stay throttled forever.
  limiter.Observe(0, 10000);
  EXPECT_EQ(limiter.limit(), 6u);
}

TEST(BrownoutControllerTest, RequiresConsecutiveTicksToEnter) {
  BrownoutController brownout(/*enter_ticks=*/3, /*exit_ticks=*/2);
  EXPECT_FALSE(brownout.Update(true));
  EXPECT_FALSE(brownout.Update(true));
  // A healthy tick resets the entry run.
  EXPECT_FALSE(brownout.Update(false));
  EXPECT_FALSE(brownout.Update(true));
  EXPECT_FALSE(brownout.Update(true));
  EXPECT_TRUE(brownout.Update(true));
  EXPECT_EQ(brownout.entries(), 1u);
}

TEST(BrownoutControllerTest, ExitsAfterConsecutiveHealthyTicks) {
  BrownoutController brownout(1, 3);
  EXPECT_TRUE(brownout.Update(true));
  EXPECT_TRUE(brownout.Update(false));
  EXPECT_TRUE(brownout.Update(false));
  // One more violation resets the exit run.
  EXPECT_TRUE(brownout.Update(true));
  EXPECT_TRUE(brownout.Update(false));
  EXPECT_TRUE(brownout.Update(false));
  EXPECT_FALSE(brownout.Update(false));
  // Re-entry counts a second episode.
  EXPECT_TRUE(brownout.Update(true));
  EXPECT_EQ(brownout.entries(), 2u);
}

TEST(OverloadControllerTest, TickDiffsCumulativeHistogram) {
  OverloadOptions options;
  options.latency_slo_ms = 10;  // SLO p99 <= 10 ms.
  OverloadController controller(options, /*queue_capacity=*/64, /*workers=*/2);
  EXPECT_TRUE(controller.enabled());

  LatencyHistogram cumulative;
  LatencyHistogram sojourn;
  // Tick 1: 100 fast queries — healthy; limit stays at capacity.
  for (int i = 0; i < 100; ++i) cumulative.Record(500);
  OverloadDecision d =
      controller.Tick(cumulative.Snapshot(), sojourn.Snapshot(), 0);
  EXPECT_FALSE(d.slo_violated);
  EXPECT_EQ(d.admission_limit, 64u);
  EXPECT_LE(d.p99_us, 1024u);

  // Tick 2: 100 *new* slow queries. Only the delta matters — the p99
  // must reflect this tick's 50 ms samples despite the cumulative
  // histogram still holding the older fast ones.
  for (int i = 0; i < 100; ++i) cumulative.Record(50000);
  d = controller.Tick(cumulative.Snapshot(), sojourn.Snapshot(), 0);
  EXPECT_TRUE(d.slo_violated);
  EXPECT_GT(d.p99_us, 10000u);
  EXPECT_LT(d.admission_limit, 64u);

  // Tick 3: no new samples at all — an idle tick is healthy.
  d = controller.Tick(cumulative.Snapshot(), sojourn.Snapshot(), 0);
  EXPECT_FALSE(d.slo_violated);
  EXPECT_EQ(d.p99_us, 0u);
}

TEST(OverloadControllerTest, RecordInFlightDoesNotViolateTheSlo) {
  // Snapshot loads the buckets before the count, so a tick can see the
  // count of a Record whose bucket it missed. That tick's p99 must come
  // from its filled buckets, not read as the last bound (2^40 us).
  OverloadOptions options;
  options.latency_slo_ms = 10;
  OverloadController controller(options, /*queue_capacity=*/64, /*workers=*/2);
  HistogramSnapshot in_flight = Uniform(20, 500);
  ++in_flight.count;
  const OverloadDecision d = controller.Tick(in_flight, Uniform(0, 0), 0);
  EXPECT_FALSE(d.slo_violated);
  EXPECT_LE(d.p99_us, 1024u);
  EXPECT_EQ(d.admission_limit, 64u);
}

TEST(OverloadControllerTest, BrownoutEngagesAfterSustainedViolation) {
  OverloadOptions options;
  options.latency_slo_ms = 10;
  options.brownout_enter_ticks = 3;
  options.brownout_exit_ticks = 2;
  OverloadController controller(options, 64, 2);

  LatencyHistogram cumulative;
  LatencyHistogram sojourn;
  OverloadDecision d;
  for (int tick = 0; tick < 3; ++tick) {
    for (int i = 0; i < 10; ++i) cumulative.Record(50000);
    d = controller.Tick(cumulative.Snapshot(), sojourn.Snapshot(), 8);
    EXPECT_EQ(d.brownout, tick == 2);
    EXPECT_EQ(d.brownout_entered, tick == 2);
  }
  // Two healthy (idle) ticks exit brownout; entered stays false.
  d = controller.Tick(cumulative.Snapshot(), sojourn.Snapshot(), 0);
  EXPECT_TRUE(d.brownout);
  EXPECT_FALSE(d.brownout_entered);
  d = controller.Tick(cumulative.Snapshot(), sojourn.Snapshot(), 0);
  EXPECT_FALSE(d.brownout);
}

// The CoDel blind spot: a tick where every dequeued request was shed
// records no query latency at all, so a query-only controller would
// read "no completions = healthy" and open the limit back up into a
// standing queue. The sojourn histogram (which shed requests DO enter)
// must drive the violation on its own.
TEST(OverloadControllerTest, SojournViolationsCountWithoutCompletions) {
  OverloadOptions options;
  options.latency_slo_ms = 10;
  options.brownout_enter_ticks = 2;
  OverloadController controller(options, 64, 2);

  LatencyHistogram latency;  // Stays empty: everything was shed.
  LatencyHistogram sojourn;
  OverloadDecision d;
  for (int tick = 0; tick < 2; ++tick) {
    for (int i = 0; i < 50; ++i) sojourn.Record(60000);  // 60 ms queued.
    d = controller.Tick(latency.Snapshot(), sojourn.Snapshot(), 32);
    EXPECT_TRUE(d.slo_violated);
    EXPECT_GT(d.p99_us, 10000u);
  }
  EXPECT_TRUE(d.brownout);
  EXPECT_LT(d.admission_limit, 64u);

  // Once the queue drains (no new sojourn samples), ticks go healthy
  // again and the limit starts climbing back.
  const std::size_t clamped = d.admission_limit;
  d = controller.Tick(latency.Snapshot(), sojourn.Snapshot(), 0);
  EXPECT_FALSE(d.slo_violated);
  EXPECT_EQ(d.admission_limit, clamped + 1);
}

TEST(OverloadControllerTest, RetryAfterUsesConfiguredConstant) {
  OverloadOptions options;
  options.latency_slo_ms = 10;
  options.retry_after_ms = 250;
  OverloadController controller(options, 64, 2);
  EXPECT_EQ(controller.RetryAfterMs(100, 5000.0, false), 250u);
  EXPECT_EQ(controller.RetryAfterMs(0, 0.0, true), 250u);
}

TEST(OverloadControllerTest, RetryAfterEstimatesDrainTime) {
  OverloadOptions options;
  options.latency_slo_ms = 10;
  options.tick_interval_ms = 100;
  OverloadController controller(options, 64, /*workers=*/2);
  // 100 queued × 10 ms mean ÷ 2 workers = 500 ms.
  EXPECT_EQ(controller.RetryAfterMs(100, 10000.0, false), 500u);
  // Brownout doubles the hint.
  EXPECT_EQ(controller.RetryAfterMs(100, 10000.0, true), 1000u);
  // Clamped below by the tick interval and above by 5 s.
  EXPECT_EQ(controller.RetryAfterMs(0, 10000.0, false), 100u);
  EXPECT_EQ(controller.RetryAfterMs(100000, 10000.0, false), 5000u);
}

TEST(UniformHelperSanity, HistogramPercentileIsBucketUpperBound) {
  // Guards the assumption the controller tests lean on: a 50 ms sample
  // lands in the bucket whose upper bound exceeds 10 ms.
  const HistogramSnapshot snap = Uniform(10, 50000);
  EXPECT_EQ(snap.count, 10u);
  EXPECT_GT(snap.PercentileMicros(0.99), 10000u);
}

}  // namespace
}  // namespace kspin::server
