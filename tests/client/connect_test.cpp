// Client::connect to a plain DebugServer (one that does not advertise
// `hub`): the endpoint is served as a direct client holding exactly one
// session, whose handle is the debuggee's pid.
#include <unistd.h>

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace dionea::client {
namespace {

namespace proto = dbg::proto;
using test::DebugHarness;

TEST(ClientConnectTest, PlainServerIsOneDirectSession) {
  DebugHarness harness(
      "a = 1\n"
      "b = 2\n"
      "c = a + b\n"  // line 3: breakpoint carried over by reconnect
      "puts(c)");
  harness.start_debuggee();
  auto connected = Client::connect(harness.server().port(), 5000);
  ASSERT_TRUE(connected.is_ok()) << connected.error().to_string();
  Client& cc = *connected.value();
  const int pid = static_cast<int>(::getpid());
  const SessionHandle me{pid};

  EXPECT_FALSE(cc.hub_mode());
  ASSERT_EQ(cc.session_count(), 1u);
  EXPECT_EQ(cc.sessions().front(), me);
  EXPECT_EQ(cc.handle_for_pid(pid), me);
  EXPECT_EQ(cc.pid_of(me), pid);
  EXPECT_EQ(cc.refresh(100).value_or(-1), 0);

  // The one session is handed out once; nothing else can appear.
  auto first = cc.attach_any(200);
  ASSERT_TRUE(first.is_ok()) << first.error().to_string();
  EXPECT_EQ(first.value(), me);
  auto second = cc.attach_any(200);
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kTimeout);
  auto self = cc.attach(pid, 200);
  ASSERT_TRUE(self.is_ok()) << self.error().to_string();
  EXPECT_EQ(self.value(), me);
  auto other = cc.attach(pid + 1, 200);
  ASSERT_FALSE(other.is_ok());
  EXPECT_EQ(other.error().code(), ErrorCode::kNotFound);

  std::int64_t tid = 0;
  for (int round = 0; round < 100 && tid == 0; ++round) {
    auto events = cc.poll_events(50);
    ASSERT_TRUE(events.is_ok()) << events.error().to_string();
    for (const Client::SessionEvent& se : events.value()) {
      EXPECT_EQ(se.session, me);
      if (se.event.kind == proto::Event::kStopped) {
        tid = se.event.payload.get_int("tid");
      }
    }
  }
  ASSERT_NE(tid, 0) << "no stopped event through poll_events";

  Session* session = cc.session(me);
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(session->set_breakpoint("test.ml", 3).is_ok());
  session->hard_close();
  int gone = 0;
  for (int round = 0; round < 5; ++round) {
    auto events = cc.poll_events(10);
    ASSERT_TRUE(events.is_ok()) << events.error().to_string();
    for (const Client::SessionEvent& se : events.value()) {
      if (se.event.kind == proto::Event::kProcessCrashed ||
          se.event.kind == proto::Event::kProcessExited) {
        EXPECT_EQ(se.session, me);
        ++gone;
      }
    }
  }
  EXPECT_EQ(gone, 1);

  ASSERT_TRUE(test::poll_until(
      [&] { return !harness.server().client_connected(); }));
  auto revived = cc.reconnect(me, ReconnectPolicy{.max_attempts = 20,
                                                  .initial_delay_millis = 20,
                                                  .max_delay_millis = 200});
  ASSERT_TRUE(revived.is_ok()) << revived.error().to_string();
  session = revived.value();
  EXPECT_EQ(cc.session(me), session);
  EXPECT_TRUE(session->connected());
  EXPECT_EQ(session->pid(), pid);
  ASSERT_EQ(session->breakpoints_set().size(), 1u);
  EXPECT_EQ(session->breakpoints_set()[0].line, 3);
  ASSERT_TRUE(session->cont(tid).is_ok());
  auto hit = session->wait_stopped(5000);
  ASSERT_TRUE(hit.is_ok()) << hit.error().to_string();
  EXPECT_EQ(hit.value().reason, "breakpoint");
  EXPECT_EQ(hit.value().line, 3);
  ASSERT_TRUE(session->cont(hit.value().tid).is_ok());
  harness.join();
  EXPECT_EQ(harness.output(), "3\n");
}

}  // namespace
}  // namespace dionea::client
