// Hub building blocks in isolation: the bounded outbound queue's
// drop-oldest backpressure and the session registry's id lifecycle
// (monotonic ids, churn, default-session selection).
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hub/outbound_queue.hpp"
#include "hub/session_registry.hpp"

namespace dionea::hub {
namespace {

TEST(OutboundQueueTest, FifoWithinBound) {
  OutboundQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.push("a"));
  EXPECT_TRUE(q.push("b"));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.dropped(), 0u);
}

TEST(OutboundQueueTest, OverflowDropsOldestUnstarted) {
  OutboundQueue q(2);
  EXPECT_TRUE(q.push("first"));
  EXPECT_TRUE(q.push("second"));
  // Full: the next push evicts the oldest frame not yet on the wire.
  EXPECT_FALSE(q.push("third"));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.queued_total(), 3u);

  // Drain over a socketpair: "first" was the victim.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  bool progress = false;
  ASSERT_TRUE(q.flush(fds[0], &progress).is_ok());
  EXPECT_TRUE(progress);
  EXPECT_TRUE(q.empty());
  char buf[64] = {0};
  ssize_t n = ::read(fds[1], buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, static_cast<size_t>(n)), "secondthird");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(OutboundQueueTest, MidWriteFrameIsNeverEvicted) {
  // A tiny socket buffer forces a partial write of a large frame; the
  // partially-sent frame must survive every subsequent overflow (an
  // evicted half-frame would tear the peer's stream framing).
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int small = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  OutboundQueue q(1);
  std::string big(1 << 20, 'x');
  ASSERT_TRUE(q.push(big));
  ASSERT_TRUE(q.flush(fds[0]).is_ok());  // partial: offset > 0 now
  ASSERT_FALSE(q.empty());

  // Overflow pressure: the sole frame is mid-write, so pushes drop the
  // INCOMING frame's predecessor — never the one on the wire.
  for (int i = 0; i < 16; ++i) (void)q.push("y");
  EXPECT_GE(q.dropped(), 15u);

  // Drain reader side while flushing; total 'x' bytes must equal the
  // full frame (nothing torn).
  size_t got_x = 0;
  std::thread reader([&] {
    char buf[8192];
    while (got_x < big.size()) {
      ssize_t n = ::read(fds[1], buf, sizeof(buf));
      if (n <= 0) break;
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] == 'x') ++got_x;
      }
    }
  });
  while (!q.empty()) {
    ASSERT_TRUE(q.flush(fds[0]).is_ok());
  }
  ::close(fds[0]);
  reader.join();
  ::close(fds[1]);
  EXPECT_EQ(got_x, big.size());
}

// Frames tagged with their index and padded, so a torn, repeated or
// reordered byte shows up in a plain string comparison.
std::vector<std::string> numbered_frames(int count, size_t pad) {
  std::vector<std::string> frames;
  for (int i = 0; i < count; ++i) {
    frames.push_back("<" + std::to_string(i) + ":" + std::string(pad, 'p') +
                     ">");
  }
  return frames;
}

// Flush into `fds[0]` while a reader thread drains `fds[1]`; returns
// every byte the reader saw once the queue is empty and the writer
// side is closed.
std::string flush_all_and_collect(OutboundQueue& q, int fds[2]) {
  std::string received;
  std::thread reader([&] {
    char buf[8192];
    while (true) {
      ssize_t n = ::read(fds[1], buf, sizeof(buf));
      if (n <= 0) break;
      received.append(buf, static_cast<size_t>(n));
    }
  });
  while (!q.empty()) {
    EXPECT_TRUE(q.flush(fds[0]).is_ok());
    if (::testing::Test::HasFailure()) break;
  }
  ::close(fds[0]);
  reader.join();
  ::close(fds[1]);
  return received;
}

TEST(OutboundQueueTest, FlushSendsMoreThanOneBatchInOrder) {
  // 200 frames need several sendmsg batches of at most 64.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OutboundQueue q(256);
  std::string expected;
  for (const std::string& frame : numbered_frames(200, 16)) {
    ASSERT_TRUE(q.push(frame));
    expected += frame;
  }
  bool progress = false;
  ASSERT_TRUE(q.flush(fds[0], &progress).is_ok());
  EXPECT_TRUE(progress);
  EXPECT_TRUE(q.empty());  // 200 small frames fit the socket buffer
  EXPECT_EQ(flush_all_and_collect(q, fds), expected);
}

TEST(OutboundQueueTest, FullSocketMidBatchResumesAtTheExactByte) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int small = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  OutboundQueue q(256);
  std::string expected;
  for (const std::string& frame : numbered_frames(150, 700)) {
    ASSERT_TRUE(q.push(frame));
    expected += frame;
  }
  // Nobody reads yet: the first flush stops when the buffer fills, in
  // the middle of a batch and (almost surely) of a frame.
  ASSERT_TRUE(q.flush(fds[0]).is_ok());
  ASSERT_FALSE(q.empty());
  EXPECT_LT(q.size(), 150u);
  EXPECT_EQ(flush_all_and_collect(q, fds), expected);
  EXPECT_EQ(q.dropped(), 0u);
}

TEST(OutboundQueueTest, MidWriteFrameSurvivesOverflowAfterBatchedWrite) {
  // One sendmsg carries "a", "b" and the start of `big`: the batch
  // retires the two small frames and leaves `big` at the front with
  // its offset. Overflow pressure must then evict only frames behind it.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int small = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  OutboundQueue q(3);
  std::string big(1 << 20, 'x');
  ASSERT_TRUE(q.push("a"));
  ASSERT_TRUE(q.push("b"));
  ASSERT_TRUE(q.push(big));
  ASSERT_TRUE(q.flush(fds[0]).is_ok());
  ASSERT_EQ(q.size(), 1u);  // only `big` is left, partly written

  for (int i = 0; i < 16; ++i) (void)q.push("y" + std::to_string(i));
  EXPECT_EQ(q.dropped(), 14u);
  EXPECT_EQ(q.size(), 3u);

  EXPECT_EQ(flush_all_and_collect(q, fds), "ab" + big + "y14y15");
}

TEST(OutboundQueueTest, FlushReportsPeerGone) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  OutboundQueue q(4);
  ASSERT_TRUE(q.push("data"));
  EXPECT_FALSE(q.flush(fds[0]).is_ok());  // EPIPE, not SIGPIPE
  ::close(fds[0]);
}

TEST(SessionRegistryTest, IdsAreMonotonicAndNeverRecycled) {
  SessionRegistry reg;
  SessionRecord a;
  a.pid = 100;
  std::int64_t id1 = reg.add(a);
  SessionRecord b;
  b.pid = 200;
  std::int64_t id2 = reg.add(b);
  EXPECT_GT(id2, id1);
  ASSERT_TRUE(reg.remove(id1));
  SessionRecord c;
  c.pid = 300;
  std::int64_t id3 = reg.add(c);
  EXPECT_GT(id3, id2);  // removal does not free the id
  EXPECT_FALSE(reg.find(id1, nullptr));
}

TEST(SessionRegistryTest, DefaultSessionIsLowestLive) {
  SessionRegistry reg;
  SessionRecord r;
  r.pid = 1;
  std::int64_t first = reg.add(r);
  r.pid = 2;
  std::int64_t second = reg.add(r);
  EXPECT_EQ(reg.default_session(), first);
  ASSERT_TRUE(reg.mark_dead(first));
  EXPECT_EQ(reg.default_session(), second);
  EXPECT_EQ(reg.live_count(), 1u);
  EXPECT_EQ(reg.size(), 2u);  // the corpse stays findable
  SessionRecord got;
  ASSERT_TRUE(reg.find(first, &got));
  EXPECT_FALSE(got.alive);
}

TEST(SessionRegistryTest, FindByPidPrefersNewestRegistration) {
  SessionRegistry reg;
  SessionRecord r;
  r.pid = 777;
  std::int64_t old_id = reg.add(r);
  ASSERT_TRUE(reg.mark_dead(old_id));
  std::int64_t new_id = reg.add(r);  // double fork: same pid, new session
  EXPECT_EQ(reg.find_by_pid(777), new_id);
}

TEST(SessionRegistryTest, ConcurrentChurnKeepsInvariants) {
  SessionRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SessionRecord r;
        r.pid = t * 10'000 + i;
        std::int64_t id = reg.add(r);
        reg.update_stats(id, /*routed=*/1, /*dropped=*/0);
        if (i % 3 == 0) {
          reg.mark_dead(id);
        } else if (i % 3 == 1) {
          reg.remove(id);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every id was unique; survivors = the i%3==2 third plus the dead.
  int dead_per_thread = 0;
  int live_per_thread = 0;
  for (int i = 0; i < kPerThread; ++i) {
    if (i % 3 == 0) ++dead_per_thread;
    if (i % 3 == 2) ++live_per_thread;
  }
  auto all = reg.snapshot();
  std::set<std::int64_t> ids;
  for (const SessionRecord& r : all) ids.insert(r.id);
  EXPECT_EQ(ids.size(), all.size());
  EXPECT_EQ(reg.size(),
            static_cast<size_t>(kThreads * (dead_per_thread + live_per_thread)));
  EXPECT_EQ(reg.live_count(), static_cast<size_t>(kThreads * live_per_thread));
}

}  // namespace
}  // namespace dionea::hub
