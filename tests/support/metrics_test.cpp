#include "support/metrics.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dionea::metrics {
namespace {

// The registry is process-global and cumulative, so every assertion
// works on snapshot deltas, never absolute values.
std::uint64_t counter_of(const Snapshot& s, Counter c) {
  return s.counters[static_cast<size_t>(c)];
}

const HistogramSnapshot& hist_of(const Snapshot& s, Histogram h) {
  return s.histograms[static_cast<size_t>(h)];
}

TEST(MetricsTest, CountersAccumulate) {
  Registry& reg = Registry::instance();
  reg.set_enabled(true);
  Snapshot before = reg.snapshot();
  add(Counter::kFramesSent);
  add(Counter::kFramesSent, 4);
  add(Counter::kFrameBytesSent, 128);
  Snapshot after = reg.snapshot();
  EXPECT_EQ(counter_of(after, Counter::kFramesSent) -
                counter_of(before, Counter::kFramesSent),
            5u);
  EXPECT_EQ(counter_of(after, Counter::kFrameBytesSent) -
                counter_of(before, Counter::kFrameBytesSent),
            128u);
}

TEST(MetricsTest, DisabledProbesAreNoOps) {
  Registry& reg = Registry::instance();
  reg.set_enabled(true);
  Snapshot before = reg.snapshot();
  reg.set_enabled(false);
  add(Counter::kStops, 100);
  observe(Histogram::kCommandNanos, 5000);
  gauge_set(Gauge::kMpQueueDepth, 42);
  gauge_add(Gauge::kParkedThreads, 7);
  reg.set_enabled(true);
  Snapshot after = reg.snapshot();
  EXPECT_EQ(counter_of(after, Counter::kStops),
            counter_of(before, Counter::kStops));
  EXPECT_EQ(hist_of(after, Histogram::kCommandNanos).count,
            hist_of(before, Histogram::kCommandNanos).count);
  EXPECT_EQ(after.gauges[static_cast<size_t>(Gauge::kMpQueueDepth)],
            before.gauges[static_cast<size_t>(Gauge::kMpQueueDepth)]);
}

TEST(MetricsTest, HistogramObservationsLandInPowerOfTwoBuckets) {
  Registry& reg = Registry::instance();
  reg.set_enabled(true);
  Snapshot before = reg.snapshot();
  observe(Histogram::kGilWaitNanos, 0);     // bucket 0
  observe(Histogram::kGilWaitNanos, 1);     // bucket 0
  observe(Histogram::kGilWaitNanos, 1000);  // bucket 9: [512, 1024)
  observe(Histogram::kGilWaitNanos, ~0ull); // clamps to the last bucket
  Snapshot after = reg.snapshot();
  const auto& b = hist_of(before, Histogram::kGilWaitNanos);
  const auto& a = hist_of(after, Histogram::kGilWaitNanos);
  EXPECT_EQ(a.count - b.count, 4u);
  EXPECT_EQ(a.max_nanos, ~0ull);
  EXPECT_EQ(a.buckets[0] - b.buckets[0], 2u);
  EXPECT_EQ(a.buckets[9] - b.buckets[9], 1u);
  EXPECT_EQ(a.buckets[kHistogramBuckets - 1] -
                b.buckets[kHistogramBuckets - 1],
            1u);
}

TEST(MetricsTest, PercentilesResolveToBucketUpperEdge) {
  HistogramSnapshot h;
  EXPECT_EQ(h.percentile_nanos(0.5), 0u);  // empty histogram
  h.count = 100;
  h.buckets[9] = 90;   // 90 samples in [512, 1024)
  h.buckets[20] = 10;  // 10 slow outliers
  EXPECT_EQ(h.percentile_nanos(0.5), 1u << 10);
  EXPECT_EQ(h.percentile_nanos(0.99), 1u << 21);
  EXPECT_DOUBLE_EQ(h.mean_nanos(), 0.0);  // sum untouched in this toy
}

TEST(MetricsTest, ShardsMergeAcrossThreads) {
  Registry& reg = Registry::instance();
  reg.set_enabled(true);
  Snapshot before = reg.snapshot();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int j = 0; j < kPerThread; ++j) {
        add(Counter::kTraceLineEvents);
      }
      observe(Histogram::kTraceHookNanos, 100);
    });
  }
  for (auto& t : threads) t.join();
  Snapshot after = reg.snapshot();
  EXPECT_EQ(counter_of(after, Counter::kTraceLineEvents) -
                counter_of(before, Counter::kTraceLineEvents),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist_of(after, Histogram::kTraceHookNanos).count -
                hist_of(before, Histogram::kTraceHookNanos).count,
            static_cast<std::uint64_t>(kThreads));
  // Exited threads' shards are pooled, not destroyed: totals survive.
  EXPECT_GE(reg.shard_count(), 1u);
}

TEST(MetricsTest, ShardsAreReusedAfterThreadExit) {
  Registry& reg = Registry::instance();
  reg.set_enabled(true);
  // Warm the pool, then run many short-lived threads: the pool must
  // stay bounded by the peak live-thread count, not grow per thread.
  std::thread([] { add(Counter::kForks, 0); }).join();
  size_t warm = reg.shard_count();
  for (int i = 0; i < 16; ++i) {
    std::thread([] { add(Counter::kForks, 0); }).join();
  }
  EXPECT_LE(reg.shard_count(), warm + 1);
}

TEST(MetricsTest, GaugesSetAndAdd) {
  Registry& reg = Registry::instance();
  reg.set_enabled(true);
  gauge_set(Gauge::kMpQueueDepth, 5);
  gauge_add(Gauge::kMpQueueDepth, -2);
  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.gauges[static_cast<size_t>(Gauge::kMpQueueDepth)], 3);
}

TEST(MetricsTest, ResetZerosEverything) {
  Registry& reg = Registry::instance();
  reg.set_enabled(true);
  add(Counter::kForks, 3);
  observe(Histogram::kStopParkNanos, 777);
  gauge_set(Gauge::kParkedThreads, 9);
  reg.reset();
  Snapshot s = reg.snapshot();
  for (auto v : s.counters) EXPECT_EQ(v, 0u);
  for (auto v : s.gauges) EXPECT_EQ(v, 0);
  for (const auto& h : s.histograms) {
    EXPECT_EQ(h.count, 0u);
    EXPECT_EQ(h.sum_nanos, 0u);
    EXPECT_EQ(h.max_nanos, 0u);
  }
}

// A sibling thread holds the registry mutex most of the time (a
// snapshot loop) while this thread forks. The child's reset(), which
// fork handler C calls, must not find the mutex held by a thread that
// does not exist in the child.
TEST(MetricsTest, ResetInForkedChildWhileSiblingSnapshots) {
  Registry& reg = Registry::instance();
  std::atomic<bool> stop{false};
  std::thread sibling([&] {
    while (!stop.load()) (void)reg.snapshot();
  });
  int hung = 0;
  for (int i = 0; i < 100 && hung == 0; ++i) {
    pid_t pid = ::fork();
    if (pid == 0) {
      reg.reset();
      ::_exit(0);
    }
    if (pid < 0) break;
    bool reaped = false;
    for (int waited = 0; waited < 5000 && !reaped; ++waited) {
      reaped = ::waitpid(pid, nullptr, WNOHANG) == pid;
      if (!reaped) ::usleep(1000);
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      ++hung;
    }
  }
  stop.store(true);
  sibling.join();
  EXPECT_EQ(hung, 0) << "a forked child deadlocked in Registry::reset()";
}

TEST(MetricsTest, ScopedTimerRecordsOneSample) {
  Registry& reg = Registry::instance();
  reg.set_enabled(true);
  Snapshot before = reg.snapshot();
  { ScopedTimer timer(Histogram::kReactorDispatchNanos); }
  {
    ScopedTimer cancelled(Histogram::kReactorDispatchNanos);
    cancelled.cancel();
  }
  Snapshot after = reg.snapshot();
  EXPECT_EQ(hist_of(after, Histogram::kReactorDispatchNanos).count -
                hist_of(before, Histogram::kReactorDispatchNanos).count,
            1u);
}

TEST(MetricsTest, NamesAreStableSnakeCase) {
  EXPECT_STREQ(counter_name(Counter::kTraceLineEvents),
               "trace_line_events");
  EXPECT_STREQ(counter_name(Counter::kGilAcquires), "gil_acquires");
  EXPECT_STREQ(gauge_name(Gauge::kMpQueueDepth), "mp_queue_depth");
  EXPECT_STREQ(histogram_name(Histogram::kGilWaitNanos), "gil_wait_nanos");
  EXPECT_STREQ(histogram_name(Histogram::kCommandNanos), "command_nanos");
}

}  // namespace
}  // namespace dionea::metrics
