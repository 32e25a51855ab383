// Client::discover (direct mode over the port file): port-file
// adoption, 1-client-N-sessions (§4.1), debug view multiplexing (§4.2).
#include <unistd.h>

#include <atomic>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "mp/process.hpp"
#include "testutil.hpp"

namespace dionea::client {
namespace {

namespace proto = dbg::proto;
using test::DebugHarness;
using test::HarnessOptions;

TEST(ClientDiscoverTest, RefreshOnEmptyFileFindsNothing) {
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

TEST(ClientDiscoverTest, StaleRecordForDeadProcessSkipped) {
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
TEST(ClientDiscoverTest, FailedAttachRetriedWhileProcessLives) {
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

// A record whose port now answers for another pid (the record's
// process lives on, but its port belongs to another listener) is not
// adopted. The hello names the record's pid, so the server behind the
// port refuses before it claims its control slot or hands over its
// backlog: its own client still gets the stop-at-entry event.
TEST(ClientDiscoverTest, PortAnsweringForAnotherPidIsNotAdopted) {
  auto child = mp::Process::spawn([] {
    ::sleep(30);
    return 0;
  });
  ASSERT_TRUE(child.is_ok()) << child.error().to_string();
  const int child_pid = static_cast<int>(child.value().pid());
  auto tmp = TempDir::create("mc-test");
  ASSERT_TRUE(tmp.is_ok());
  vm::Interp interp;
  dbg::DebugServer::Options options;
  options.stop_at_entry = true;
  dbg::DebugServer server(interp.vm(), options);
  const std::string program = "x = 1\n";
  server.register_source("test.ml", program);
  ASSERT_TRUE(server.start().is_ok());
  std::thread runner([&] { (void)interp.run_string(program, "test.ml"); });
  // Parked at entry with no client: the `stopped` event is backlogged.
  EXPECT_TRUE(test::poll_until([&] {
    for (const vm::ThreadInfo& info : interp.vm().list_threads()) {
      if (info.state == vm::ThreadState::kDebugParked) return true;
    }
    return false;
  }));
  sleep_for_millis(50);  // the event is sent just after the park

  ipc::PortFile file(tmp.value().file("ports"));
  ASSERT_TRUE(file.publish(ipc::PortRecord{child_pid,
                                           static_cast<int>(::getpid()),
                                           server.port(), 0}).is_ok());
  std::unique_ptr<Client> cc = Client::discover(tmp.value().file("ports"));
  std::atomic<bool> refreshing{true};
  std::atomic<bool> ever_connected{false};
  std::thread watcher([&] {
    while (refreshing.load()) {
      if (server.client_connected()) ever_connected.store(true);
      std::this_thread::yield();
    }
  });
  auto added = cc->refresh(2000);
  refreshing.store(false);
  watcher.join();
  EXPECT_TRUE(added.is_ok()) << added.error().to_string();
  EXPECT_EQ(added.value_or(-1), 0);
  EXPECT_FALSE(cc->handle_for_pid(child_pid).valid());
  EXPECT_EQ(cc->session_count(), 0u);
  EXPECT_FALSE(ever_connected.load());
  EXPECT_FALSE(server.client_connected());

  // The server's real client attaches next and gets the backlog.
  auto real = Session::attach(server.port(), 5000, /*client_token=*/"",
                              static_cast<int>(::getpid()));
  EXPECT_TRUE(real.is_ok()) << real.error().to_string();
  if (real.is_ok()) {
    auto entry = real.value()->wait_stopped(5000);
    EXPECT_TRUE(entry.is_ok()) << entry.error().to_string();
    EXPECT_TRUE(real.value()->cont_all().is_ok());
  }
  server.stop();  // resumes the debuggee if the client could not
  runner.join();
  cc.reset();
}

// reconnect() adopts the pid's re-published record, so the next
// refresh must not attach it a second time.
TEST(ClientDiscoverTest, ReconnectThenRefreshDoesNotReadopt) {
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

TEST(ClientDiscoverTest, ForkGrowsSessionsToTwo) {
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

TEST(ClientDiscoverTest, ActivateValidatesProcessAndThread) {
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

TEST(ClientDiscoverTest, ActiveSourceAndFramesFollowView) {
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

TEST(ClientDiscoverTest, PollEventsAcrossSessions) {
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

// One poll_events call hands out everything a session has buffered, in
// arrival order, and each event exactly once.
TEST(ClientDiscoverTest, PollEventsDrainsEachSessionInOrder) {
  DebugHarness harness(
      "t = spawn(fn() return 1 end)\n"
      "join(t)\n"
      "t = spawn(fn() return 2 end)\n"
      "join(t)",
      HarnessOptions{.stop_at_entry = false});
  Session* session = harness.launch();
  harness.join();
  // Every event was written before the program ended. Read them all
  // off the wire: waiting for one that never comes queues the others.
  auto none = session->wait_event("no-such-event", 200);
  ASSERT_FALSE(none.is_ok());
  EXPECT_EQ(none.error().code(), ErrorCode::kTimeout);
  const size_t queued = session->queued_events();
  ASSERT_GE(queued, 4u);  // start and exit of both spawned threads

  auto events = harness.client().poll_events(0);
  ASSERT_TRUE(events.is_ok()) << events.error().to_string();
  ASSERT_EQ(events.value().size(), queued);
  std::map<std::int64_t, size_t> started;  // tid -> position
  size_t exits = 0;
  for (size_t i = 0; i < events.value().size(); ++i) {
    const Client::SessionEvent& se = events.value()[i];
    EXPECT_EQ(se.session, harness.handle());
    std::int64_t tid = se.event.payload.get_int("tid");
    if (se.event.kind == proto::Event::kThreadStart) {
      EXPECT_TRUE(started.emplace(tid, i).second) << "tid " << tid;
    } else if (se.event.kind == proto::Event::kThreadExit) {
      EXPECT_EQ(started.count(tid), 1u) << "tid " << tid << " exited first";
      ++exits;
    }
  }
  EXPECT_GE(exits, 2u);
  auto again = harness.client().poll_events(0);
  ASSERT_TRUE(again.is_ok()) << again.error().to_string();
  EXPECT_TRUE(again.value().empty());
}

TEST(ClientDiscoverTest, ClaimPreventsHandout) {
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
