// The hub over the wire with synthetic sessions: shard pinning,
// session discovery through a connected Client, event routing with the
// session_id envelope, and drop-oldest backpressure against a stalled
// subscriber.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "client/client.hpp"
#include "debugger/protocol.hpp"
#include "hub/hub.hpp"
#include "ipc/frame.hpp"
#include "ipc/socket.hpp"
#include "testutil.hpp"

namespace dionea::hub {
namespace {

namespace proto = dbg::proto;
using ipc::wire::Value;

Value output_event(const std::string& text) {
  Value event = proto::make_event(proto::Event::kOutput);
  event.set("text", text);
  return event;
}

TEST(HubTest, StartStopAndShardPinning) {
  Hub hub;
  ASSERT_TRUE(hub.start().is_ok());
  EXPECT_NE(hub.port(), 0);
  EXPECT_GE(hub.shard_count(), 1);

  std::int64_t a = hub.register_synthetic(111);
  std::int64_t b = hub.register_synthetic(222);
  EXPECT_GT(b, a);
  // Pinning is a pure function of the id and recorded in the registry.
  EXPECT_EQ(hub.shard_for_session(a), hub.shard_for_session(a));
  SessionRecord rec;
  ASSERT_TRUE(hub.registry().find(a, &rec));
  EXPECT_EQ(rec.shard, hub.shard_for_session(a));
  EXPECT_TRUE(rec.synthetic);
  EXPECT_EQ(rec.pid, 111);

  hub.stop();
  hub.stop();  // idempotent
}

TEST(HubTest, ClientDiscoversSyntheticSessions) {
  Hub hub;
  ASSERT_TRUE(hub.start().is_ok());
  std::int64_t id = hub.register_synthetic(4242);

  auto connected = client::Client::connect(hub.port(), 5000);
  ASSERT_TRUE(connected.is_ok()) << connected.error().to_string();
  client::Client& cc = *connected.value();
  EXPECT_TRUE(cc.hub_mode());

  auto listing = cc.hub_sessions();
  ASSERT_TRUE(listing.is_ok());
  bool found = false;
  for (const proto::HubSessionEntry& entry : listing.value()) {
    if (entry.session_id != id) continue;
    found = true;
    EXPECT_EQ(entry.pid, 4242);
    EXPECT_TRUE(entry.synthetic);
    EXPECT_EQ(entry.shard, hub.shard_for_session(id));
  }
  EXPECT_TRUE(found);
  hub.stop();
}

TEST(HubTest, InjectedEventsCarrySessionEnvelope) {
  Hub hub;
  ASSERT_TRUE(hub.start().is_ok());
  std::int64_t first = hub.register_synthetic(1001);
  std::int64_t second = hub.register_synthetic(1002);

  auto connected = client::Client::connect(hub.port(), 5000);
  ASSERT_TRUE(connected.is_ok()) << connected.error().to_string();
  client::Client& cc = *connected.value();
  ASSERT_TRUE(cc.hub_mode());

  hub.inject_event(first, output_event("from-first"));
  hub.inject_event(second, output_event("from-second"));

  // Each event arrives exactly once, stamped with its session handle.
  std::set<std::int64_t> sources;
  std::string texts;
  test::poll_until(
      [&] {
        auto events = cc.poll_events(50);
        if (!events.is_ok()) return true;  // link died — fail below
        for (const client::Client::SessionEvent& se : events.value()) {
          if (se.event.kind != proto::Event::kOutput) continue;
          sources.insert(se.session.id);
          texts += se.event.payload.get_string("text");
        }
        return sources.size() >= 2;
      },
      5000);
  EXPECT_EQ(sources.count(first), 1u);
  EXPECT_EQ(sources.count(second), 1u);
  EXPECT_NE(texts.find("from-first"), std::string::npos);
  EXPECT_NE(texts.find("from-second"), std::string::npos);
  EXPECT_GE(hub.events_routed(), 2u);
  hub.stop();
}

TEST(HubTest, BacklogReplaysToLateSubscriber) {
  // The stop-at-entry race, synthetically: the event fires BEFORE any
  // client is attached; the per-session backlog hands it to the first
  // subscriber anyway.
  Hub hub;
  ASSERT_TRUE(hub.start().is_ok());
  std::int64_t id = hub.register_synthetic(77);
  hub.inject_event(id, output_event("early-bird"));
  // inject_event is posted to the session's shard: wait for it to land
  // in the backlog ring before the subscriber shows up.
  ASSERT_TRUE(test::poll_until([&] { return hub.backlog_size(id) >= 1; }));

  auto connected = client::Client::connect(hub.port(), 5000);
  ASSERT_TRUE(connected.is_ok()) << connected.error().to_string();
  client::Client& cc = *connected.value();

  bool replayed = test::poll_until(
      [&] {
        auto events = cc.poll_events(50);
        if (!events.is_ok()) return true;
        for (const client::Client::SessionEvent& se : events.value()) {
          if (se.session.id == id &&
              se.event.payload.get_string("text") == "early-bird") {
            return true;
          }
        }
        return false;
      },
      5000);
  EXPECT_TRUE(replayed);
  hub.stop();
}

// Two frames in one write(2): the hub's reader gets both in one refill,
// and the second is no longer announced by fd readability. The hub
// must still act on it (fork handler C registers exactly this way).
std::string hello_then(const char* channel, const Value& request) {
  proto::Hello hello;
  hello.channel = channel;
  hello.pid = 4321;
  auto first = ipc::encode_frame(hello.to_wire());
  auto second = ipc::encode_frame(request);
  EXPECT_TRUE(first.is_ok() && second.is_ok());
  return first.value_or("") + second.value_or("");
}

TEST(HubTest, AnswersHelloAndRegisterSentInOneWrite) {
  Hub::Options options;
  options.dialback_timeout_millis = 100;  // nobody listens behind port 1
  Hub hub(options);
  ASSERT_TRUE(hub.start().is_ok());
  proto::HubRegisterRequest request;
  request.pid = 4321;
  request.port = 1;
  Value frame = request.to_wire();
  frame.set("cmd", proto::HubRegisterRequest::kName);
  frame.set("seq", 7);
  const std::string bytes = hello_then(proto::kChannelHubRegister, frame);

  auto stream = ipc::TcpStream::connect_retry(hub.port(), 3000);
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE(stream.value().write_all(bytes.data(), bytes.size()).is_ok());
  auto reply = ipc::recv_frame_timeout(stream.value(), 3000);
  ASSERT_TRUE(reply.is_ok()) << reply.error().to_string();
  EXPECT_TRUE(reply.value().get_bool("ok"));
  EXPECT_EQ(reply.value().get_int("re"), 7);
  auto response = proto::HubRegisterResponse::from_wire(reply.value());
  ASSERT_TRUE(response.is_ok());
  SessionRecord record;
  ASSERT_TRUE(hub.registry().find(response.value().session_id, &record));
  EXPECT_EQ(record.pid, 4321);
  hub.stop();
}

TEST(HubTest, AnswersHelloAndPingSentInOneWrite) {
  Hub hub;
  ASSERT_TRUE(hub.start().is_ok());
  Value ping = proto::PingRequest{}.to_wire();
  ping.set("cmd", proto::PingRequest::kName);
  ping.set("seq", 3);
  const std::string bytes = hello_then(proto::kChannelControl, ping);

  auto stream = ipc::TcpStream::connect_retry(hub.port(), 3000);
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE(stream.value().write_all(bytes.data(), bytes.size()).is_ok());
  auto reply = ipc::recv_frame_timeout(stream.value(), 3000);
  ASSERT_TRUE(reply.is_ok()) << reply.error().to_string();
  EXPECT_TRUE(reply.value().get_bool("ok"));
  EXPECT_EQ(reply.value().get_int("re"), 3);
  auto pong = proto::PingResponse::from_wire(reply.value());
  ASSERT_TRUE(pong.is_ok());
  EXPECT_NE(std::find(pong.value().capabilities.begin(),
                      pong.value().capabilities.end(),
                      std::string(proto::kCapHub)),
            pong.value().capabilities.end());
  hub.stop();
}

// A subscriber that stops reading its socket: hello on both channels,
// one hub-attach(0), then silence. The kernel buffers fill, the
// bounded queue evicts oldest-first, the counters say so, and — the
// actual point — nothing else in the hub stalls.
TEST(HubTest, StalledSubscriberDropsOldestNeverBlocksHub) {
  Hub::Options options;
  options.client_queue_frames = 8;
  Hub hub(options);
  ASSERT_TRUE(hub.start().is_ok());
  std::int64_t noisy = hub.register_synthetic(2001);

  auto hello = [](const char* channel, const std::string& token) {
    proto::Hello h;
    h.channel = channel;
    h.proto_major = proto::kProtoMajor;
    h.proto_minor = proto::kProtoMinor;
    h.capabilities = proto::local_capabilities();
    h.client_token = token;
    return h.to_wire();
  };
  const std::string token = "stalled-peer";
  auto control = ipc::TcpStream::connect_retry(hub.port(), 3000);
  ASSERT_TRUE(control.is_ok());
  ASSERT_TRUE(
      ipc::send_frame(control.value(), hello(proto::kChannelControl, token))
          .is_ok());
  auto events = ipc::TcpStream::connect_retry(hub.port(), 3000);
  ASSERT_TRUE(events.is_ok());
  ASSERT_TRUE(
      ipc::send_frame(events.value(), hello(proto::kChannelEvents, token))
          .is_ok());

  // Subscribe to everything, prove the control path works, then stall.
  Value attach = proto::HubAttachRequest{}.to_wire();
  attach.set("cmd", proto::HubAttachRequest::kName);
  attach.set("seq", 1);
  ASSERT_TRUE(ipc::send_frame(control.value(), attach).is_ok());
  auto reply = ipc::recv_frame_timeout(control.value(), 3000);
  ASSERT_TRUE(reply.is_ok()) << reply.error().to_string();
  EXPECT_TRUE(reply.value().get_bool("ok"));

  ASSERT_TRUE(test::poll_until([&] { return hub.peer_count() >= 1; }));

  // ~64 KiB per event, hundreds of events: far beyond socket buffers
  // plus an 8-frame queue.
  const std::string payload(64 * 1024, 'e');
  for (int i = 0; i < 512; ++i) {
    hub.inject_event(noisy, output_event(payload));
  }
  EXPECT_TRUE(
      test::poll_until([&] { return hub.events_dropped() > 0; }, 10'000));
  // inject_event is async; every event must eventually be routed (into
  // the stalled queue, evicting an older one) without the hub blocking.
  EXPECT_TRUE(
      test::poll_until([&] { return hub.events_routed() >= 512u; }, 10'000));

  // The hub is not wedged: a healthy client connects and round-trips
  // while the stalled peer's queue is saturated.
  auto healthy = client::Client::connect(hub.port(), 5000);
  ASSERT_TRUE(healthy.is_ok()) << healthy.error().to_string();
  auto listing = healthy.value()->hub_sessions();
  ASSERT_TRUE(listing.is_ok());
  bool counted = false;
  for (const proto::HubSessionEntry& entry : listing.value()) {
    if (entry.session_id == noisy && entry.events_dropped > 0) counted = true;
  }
  EXPECT_TRUE(counted) << "per-session drop counter not published";
  hub.stop();
}

}  // namespace
}  // namespace dionea::hub
