#include "ipc/reactor.hpp"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipc/pipe.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {
namespace {

TEST(ReactorTest, PollOnceFiresReadableCallback) {
  Reactor reactor;
  auto pipe = Pipe::create();
  ASSERT_TRUE(pipe.is_ok());
  int fired = 0;
  reactor.add_fd(pipe.value().read_end().get(), [&] {
    char c;
    (void)pipe.value().read_end().read_some(&c, 1);
    ++fired;
  });
  // Nothing readable yet.
  auto idle = reactor.poll_once(10);
  ASSERT_TRUE(idle.is_ok());
  EXPECT_EQ(fired, 0);

  ASSERT_TRUE(pipe.value().write_end().write_all("x", 1).is_ok());
  auto busy = reactor.poll_once(500);
  ASSERT_TRUE(busy.is_ok());
  EXPECT_EQ(fired, 1);
}

TEST(ReactorTest, RemoveFdStopsCallbacks) {
  Reactor reactor;
  auto pipe = Pipe::create();
  ASSERT_TRUE(pipe.is_ok());
  int fired = 0;
  int fd = pipe.value().read_end().get();
  reactor.add_fd(fd, [&] { ++fired; });
  reactor.remove_fd(fd);
  ASSERT_TRUE(pipe.value().write_end().write_all("x", 1).is_ok());
  (void)reactor.poll_once(20);
  EXPECT_EQ(fired, 0);
}

TEST(ReactorTest, HandlerMayRemoveItself) {
  Reactor reactor;
  auto pipe = Pipe::create();
  ASSERT_TRUE(pipe.is_ok());
  int fired = 0;
  int fd = pipe.value().read_end().get();
  reactor.add_fd(fd, [&] {
    char c;
    (void)pipe.value().read_end().read_some(&c, 1);
    ++fired;
    reactor.remove_fd(fd);
  });
  ASSERT_TRUE(pipe.value().write_end().write_all("ab", 2).is_ok());
  (void)reactor.poll_once(100);
  (void)reactor.poll_once(20);
  EXPECT_EQ(fired, 1);  // second byte ignored after self-removal
}

TEST(ReactorTest, PostRunsTaskOnLoop) {
  Reactor reactor;
  bool ran = false;
  reactor.post([&] { ran = true; });
  (void)reactor.poll_once(10);
  EXPECT_TRUE(ran);
}

TEST(ReactorTest, RunStopFromAnotherThread) {
  Reactor reactor;
  std::atomic<bool> started{false};
  std::thread loop([&] {
    started.store(true);
    Status status = reactor.run();
    EXPECT_TRUE(status.is_ok());
  });
  while (!started.load()) sleep_for_millis(1);
  sleep_for_millis(20);
  EXPECT_TRUE(reactor.running());
  reactor.stop();
  loop.join();
  EXPECT_FALSE(reactor.running());
}

TEST(ReactorTest, EventsDispatchWhileRunning) {
  Reactor reactor;
  auto pipe = Pipe::create();
  ASSERT_TRUE(pipe.is_ok());
  std::atomic<int> fired{0};
  reactor.add_fd(pipe.value().read_end().get(), [&] {
    char c;
    (void)pipe.value().read_end().read_some(&c, 1);
    fired.fetch_add(1);
  });
  std::thread loop([&] { (void)reactor.run(); });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pipe.value().write_end().write_all("x", 1).is_ok());
    sleep_for_millis(10);
  }
  Stopwatch watch;
  while (fired.load() < 5 && watch.elapsed_seconds() < 2.0) {
    sleep_for_millis(5);
  }
  reactor.stop();
  loop.join();
  EXPECT_EQ(fired.load(), 5);
}

TEST(ReactorTest, PostFromOtherThreadWakesLoop) {
  Reactor reactor;
  std::thread loop([&] { (void)reactor.run(); });
  std::atomic<bool> ran{false};
  sleep_for_millis(10);
  reactor.post([&] { ran.store(true); });
  Stopwatch watch;
  while (!ran.load() && watch.elapsed_seconds() < 2.0) sleep_for_millis(2);
  // Posting must wake the poll promptly — well under the 250ms tick.
  EXPECT_TRUE(ran.load());
  EXPECT_LT(watch.elapsed_seconds(), 0.2);
  reactor.stop();
  loop.join();
}

// post() writes the wakeup only when it finds the task list empty. Two
// producers racing the loop, plus tasks that post follow-ups from
// inside the loop, must see every task run exactly once; then single
// posts into the idle loop must each wake it. The loop waits with no
// timeout, so a lost wakeup strands its task for good and the
// deadlines below report it.
TEST(ReactorTest, EveryPostedTaskRunsOnceUnderConcurrentPosters) {
  constexpr int kPerThread = 100'000;
  constexpr int kFollowUpEvery = 100;
  constexpr int kPingPongs = 1'000;
  constexpr int kDirect = 2 * kPerThread;
  constexpr int kTotal = kDirect + kDirect / kFollowUpEvery + kPingPongs;
  std::vector<std::atomic<int>> runs(kTotal);
  std::atomic<int> done{0};
  auto task = [&](int slot) {
    return [&, slot] {
      runs[static_cast<size_t>(slot)].fetch_add(1);
      done.fetch_add(1);
    };
  };
  // Spin until `count` tasks have run; false after 5 s.
  auto wait_for = [&](int count) {
    Stopwatch watch;
    while (done.load() < count) {
      if (watch.elapsed_seconds() > 5.0) return false;
      std::this_thread::yield();
    }
    return true;
  };

  Reactor reactor;
  std::atomic<bool> quit{false};
  std::thread loop([&] {
    while (!quit.load()) (void)reactor.poll_once(-1);
  });
  auto producer = [&](int base) {
    for (int i = base; i < base + kPerThread; ++i) {
      reactor.post([&, i] {
        task(i)();
        if (i % kFollowUpEvery == 0) {
          reactor.post(task(kDirect + i / kFollowUpEvery));
        }
      });
    }
  };
  std::thread first(producer, 0);
  std::thread second(producer, kPerThread);
  first.join();
  second.join();
  const bool burst_ran = wait_for(kTotal - kPingPongs);
  int stranded = 0;
  for (int i = 0; burst_ran && i < kPingPongs; ++i) {
    reactor.post(task(kTotal - kPingPongs + i));
    if (!wait_for(kTotal - kPingPongs + i + 1)) {
      stranded = i + 1;
      break;
    }
  }
  // Nothing may run twice, even after the count was reached.
  sleep_for_millis(20);
  quit.store(true);
  reactor.stop();  // always writes the wakeup: unblocks the wait
  loop.join();
  EXPECT_TRUE(burst_ran) << done.load() << " of " << kTotal - kPingPongs
                         << " burst tasks ran";
  EXPECT_EQ(stranded, 0) << "single post " << stranded
                         << " into the idle loop never ran";
  int wrong = 0;
  for (const std::atomic<int>& count : runs) {
    if (count.load() != 1) ++wrong;
  }
  EXPECT_EQ(wrong, 0);
}

}  // namespace
}  // namespace dionea::ipc
