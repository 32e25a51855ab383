// Client (discover mode, the MultiClient engine underneath): port-file
// adoption, 1-client-N-sessions (§4.1), debug view multiplexing (§4.2).
#include <gtest/gtest.h>

#include "testutil.hpp"

namespace dionea::client {
namespace {

using test::DebugHarness;
using test::HarnessOptions;

TEST(MultiClientTest, RefreshOnEmptyFileFindsNothing) {
  auto tmp = TempDir::create("mc-test");
  ASSERT_TRUE(tmp.is_ok());
  std::unique_ptr<Client> cc = Client::discover(tmp.value().file("ports"));
  auto added = cc->refresh(200);
  ASSERT_TRUE(added.is_ok());
  EXPECT_EQ(added.value(), 0);
  EXPECT_EQ(cc->session_count(), 0u);
  EXPECT_EQ(cc->session(SessionHandle{1}), nullptr);
  EXPECT_FALSE(cc->handle_for_pid(1).valid());
  EXPECT_FALSE(cc->hub_mode());
}

TEST(MultiClientTest, StaleRecordForDeadProcessSkipped) {
  auto tmp = TempDir::create("mc-test");
  ASSERT_TRUE(tmp.is_ok());
  ipc::PortFile file(tmp.value().file("ports"));
  // A record for a process that is long gone.
  std::uint16_t dead_port;
  {
    auto listener = ipc::TcpListener::bind(0);
    ASSERT_TRUE(listener.is_ok());
    dead_port = listener.value().port();
  }
  ASSERT_TRUE(file.publish(ipc::PortRecord{999'999, 1, dead_port, 0}).is_ok());
  std::unique_ptr<Client> cc = Client::discover(tmp.value().file("ports"));
  auto added = cc->refresh(300);
  ASSERT_TRUE(added.is_ok());
  EXPECT_EQ(added.value(), 0);
}

// A record whose first attach fails (another client holds the server,
// so the attach is refused) stays pending while its process lives, and
// a later refresh adopts it.
TEST(MultiClientTest, FailedAttachRetriedWhileProcessLives) {
  auto tmp = TempDir::create("mc-test");
  ASSERT_TRUE(tmp.is_ok());
  vm::Interp interp;
  dbg::DebugServer server(interp.vm(), dbg::DebugServer::Options{});
  ASSERT_TRUE(server.start().is_ok());
  auto other = Session::attach(server.port(), 5000);
  ASSERT_TRUE(other.is_ok()) << other.error().to_string();
  ipc::PortFile file(tmp.value().file("ports"));
  ASSERT_TRUE(file.publish(ipc::PortRecord{static_cast<int>(::getpid()), 1,
                                           server.port(), 0}).is_ok());
  std::unique_ptr<Client> cc = Client::discover(tmp.value().file("ports"));
  auto before = cc->refresh(100);
  ASSERT_TRUE(before.is_ok());
  EXPECT_EQ(before.value(), 0);

  other.value()->hard_close();
  ASSERT_TRUE(test::poll_until([&] { return !server.client_connected(); }));
  auto after = cc->refresh(5000);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after.value(), 1);
  EXPECT_TRUE(cc->handle_for_pid(static_cast<int>(::getpid())).valid());
  cc.reset();
  server.stop();
}

// reconnect() adopts the pid's re-published record, so the next
// refresh must not attach it a second time.
TEST(MultiClientTest, ReconnectThenRefreshDoesNotReadopt) {
  DebugHarness harness("sleep(30)", HarnessOptions{.stop_at_entry = false});
  Session* first = harness.launch();
  first->hard_close();  // the transport dies
  ASSERT_TRUE(test::poll_until(
      [&] { return !harness.server().client_connected(); }));
  // What a restarted server publishes (here: the same live listener).
  ipc::PortFile file(harness.port_file());
  ASSERT_TRUE(file.publish(ipc::PortRecord{static_cast<int>(::getpid()), 1,
                                           harness.server().port(), 1})
                  .is_ok());
  Client& cc = harness.client();
  auto revived = cc.reconnect(harness.handle(), ReconnectPolicy{.max_attempts = 3});
  // From here on the harness's own session pointer is stale: no ASSERT
  // may skip the join below.
  EXPECT_TRUE(revived.is_ok()) << revived.error().to_string();
  auto added = cc.refresh(200);
  EXPECT_TRUE(added.is_ok());
  EXPECT_EQ(added.value_or(-1), 0);
  if (revived.is_ok()) {
    EXPECT_EQ(cc.session(harness.handle()), revived.value());
    EXPECT_TRUE(revived.value()->connected());
  }
  EXPECT_EQ(cc.session_count(), 1u);
  harness.vm().request_exit(0);
  harness.join();
}

TEST(MultiClientTest, ForkGrowsSessionsToTwo) {
  DebugHarness harness(
      "pid = fork(fn()\n"
      "  sleep(0.3)\n"
      "end)\n"
      "waitpid(pid)",
      HarnessOptions{.stop_at_entry = false,
                     .stop_forked_children = true});
  (void)harness.launch();
  EXPECT_EQ(harness.client().session_count(), 1u);
  auto child_h = harness.client().attach_any(5000);
  ASSERT_TRUE(child_h.is_ok());
  Session* child = harness.client().session(child_h.value());
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(harness.client().session_count(), 2u);
  EXPECT_EQ(harness.client().sessions().size(), 2u);
  // Discover-mode handles are pids.
  EXPECT_EQ(harness.client().pid_of(child_h.value()), child->pid());

  auto stop = child->wait_stopped(5000);
  ASSERT_TRUE(stop.is_ok());
  ASSERT_TRUE(child->cont(stop.value().tid).is_ok());
  harness.join();
}

TEST(MultiClientTest, ActivateValidatesProcessAndThread) {
  // Long-lived debuggee: the activations below must not race the
  // program running off the end (request_exit ends it early).
  DebugHarness harness("sleep(30)",
                       HarnessOptions{.stop_at_entry = false});
  (void)harness.launch();
  Client& cc = harness.client();
  SessionHandle me = harness.handle();

  EXPECT_FALSE(cc.activate(SessionHandle{123456}, 1).is_ok());  // no process
  EXPECT_FALSE(cc.activate(me, 77).is_ok());                    // no thread
  EXPECT_FALSE(cc.active_view().valid());

  // With stop_at_entry=false the main thread may not have hit the
  // trace hook yet; it shows up in `threads` once the VM starts.
  ASSERT_TRUE(test::poll_until([&] { return cc.activate(me, 1).is_ok(); }));
  EXPECT_TRUE(cc.active_view().valid());
  EXPECT_EQ(cc.active_view().session, me);
  EXPECT_EQ(cc.active_view().tid, 1);

  harness.vm().request_exit(0);
  harness.join();
}

TEST(MultiClientTest, ActiveSourceAndFramesFollowView) {
  DebugHarness harness(
      "fn f()\n"
      "  sleep(1)\n"
      "end\n"
      "f()",
      HarnessOptions{.stop_at_entry = false});
  (void)harness.launch();
  Client& cc = harness.client();
  sleep_for_millis(100);  // let it get into f()/sleep

  ASSERT_TRUE(cc.activate(harness.handle(), 1).is_ok());
  auto source = cc.active_source();
  ASSERT_TRUE(source.is_ok());
  EXPECT_NE(source.value().find("fn f()"), std::string::npos);

  auto frames = cc.active_frames();
  ASSERT_TRUE(frames.is_ok());
  ASSERT_EQ(frames.value().size(), 2u);
  EXPECT_EQ(frames.value()[0].function, "f");

  harness.vm().request_exit(0);
  harness.join();
}

TEST(MultiClientTest, PollEventsAcrossSessions) {
  DebugHarness harness(
      "pid = fork(fn()\n"
      "  t = spawn(fn() return 1 end)\n"
      "  join(t)\n"
      "end)\n"
      "waitpid(pid)\n"
      "t2 = spawn(fn() return 2 end)\n"
      "join(t2)",
      HarnessOptions{.stop_at_entry = false,
                     .stop_forked_children = true});
  (void)harness.launch();
  auto child_h = harness.client().attach_any(5000);
  ASSERT_TRUE(child_h.is_ok());
  Session* child = harness.client().session(child_h.value());
  ASSERT_NE(child, nullptr);
  auto stop = child->wait_stopped(5000);
  ASSERT_TRUE(stop.is_ok());
  ASSERT_TRUE(child->cont(stop.value().tid).is_ok());
  harness.join();

  // Both sessions produced thread events; poll_events sees both.
  std::set<std::int64_t> sessions_with_events;
  for (int round = 0; round < 20; ++round) {
    auto events = harness.client().poll_events(50);
    if (!events.is_ok()) break;  // a session may be gone — fine
    for (const Client::SessionEvent& se : events.value()) {
      sessions_with_events.insert(se.session.id);
    }
    if (sessions_with_events.size() >= 2) break;
  }
  EXPECT_GE(sessions_with_events.size(), 1u);
  EXPECT_EQ(sessions_with_events.count(harness.handle().id), 1u);
}

TEST(MultiClientTest, ClaimPreventsHandout) {
  auto tmp = TempDir::create("mc-test");
  ASSERT_TRUE(tmp.is_ok());
  std::unique_ptr<Client> cc = Client::discover(tmp.value().file("ports"));
  // claim of unknown handle is a no-op
  cc->claim(SessionHandle{12345});
  auto none = cc->attach_any(100);
  EXPECT_FALSE(none.is_ok());
  EXPECT_EQ(none.error().code(), ErrorCode::kTimeout);
}

}  // namespace
}  // namespace dionea::client
