// Hub end-to-end with real debuggees: a DebugServer announces itself
// (hub-register), the hub dials it back, and clients debug through the
// hub alone — including the proto-1.4 downgrade path (acceptance: a
// token-less 1.4 client completes a full breakpoint session), fork
// trees whose children auto-register from fork handler C, and a
// hostile fork storm landing while shards are mid-batch.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.hpp"
#include "client/session.hpp"
#include "debugger/protocol.hpp"
#include "hub/hub.hpp"
#include "testutil.hpp"

namespace dionea::hub {
namespace {

namespace proto = dbg::proto;

// DebugHarness with a hub in front: the server gets hub_port instead
// of (well, in addition to nothing — no port file at all), so the ONLY
// way to this debuggee is through the hub.
class HubHarness {
 public:
  struct Options {
    bool stop_at_entry = true;
    bool stop_forked_children = false;
  };

  explicit HubHarness(std::string program)
      : HubHarness(std::move(program), Options{}) {}

  HubHarness(std::string program, Options options)
      : program_(std::move(program)) {
    DIONEA_CHECK(hub_.start().is_ok(), "hub start");
    interp_ = std::make_unique<vm::Interp>();
    mp::install_vm_bindings(interp_->vm());
    interp_->vm().set_output([this](std::string_view text) {
      std::scoped_lock lock(output_mutex_);
      output_.append(text);
    });
    dbg::DebugServer::Options server_options;
    server_options.hub_port = hub_.port();
    server_options.stop_at_entry = options.stop_at_entry;
    server_options.stop_forked_children = options.stop_forked_children;
    server_ = std::make_unique<dbg::DebugServer>(interp_->vm(),
                                                 server_options);
    server_->register_source("test.ml", program_);
    DIONEA_CHECK(server_->start().is_ok(), "server start");
    DIONEA_CHECK(server_->hub_session_id() != 0, "hub registration");
  }

  ~HubHarness() {
    if (runner_.joinable()) {
      server_->stop();
      interp_->vm().request_exit(0);
      runner_.join();
    }
    server_->stop();
    hub_.stop();
  }

  void run() {
    runner_ = std::thread([this] {
      vm::RunResult run = interp_->run_string(program_, "test.ml");
      if (interp_->vm().is_forked_child()) {
        std::fflush(nullptr);
        ::_exit(run.exited ? run.exit_code : (run.ok ? 0 : 1));
      }
      result_ = run;
      finished_.store(true);
    });
  }

  // On timeout: a named gtest failure, then tear the run down (stop the
  // server, make the VM exit, kill and reap the forked children) so the
  // binary finishes in seconds instead of hanging until ctest's limit.
  vm::RunResult join(int timeout_millis = 20'000) {
    Stopwatch watch;
    while (!finished_.load()) {
      if (watch.elapsed_seconds() * 1000.0 >= timeout_millis) {
        ADD_FAILURE() << "debuggee did not finish within " << timeout_millis
                      << " ms";
        server_->stop();
        interp_->vm().request_exit(0);
        // Only this process's fork tree: a parent registers before
        // its children, so one pass in id order finds every descendant.
        std::set<int> tree = {static_cast<int>(::getpid())};
        for (const SessionRecord& record : hub_.registry().snapshot()) {
          if (record.synthetic || tree.count(record.parent_pid) == 0) continue;
          tree.insert(record.pid);
          ::kill(record.pid, SIGKILL);
          ::waitpid(record.pid, nullptr, 0);  // ECHILD for grandchildren
        }
        runner_.join();
        return vm::RunResult{};  // ok == false
      }
      sleep_for_millis(5);
    }
    runner_.join();
    return result_;
  }

  Hub& hub() noexcept { return hub_; }
  dbg::DebugServer& server() noexcept { return *server_; }
  std::string output() {
    std::scoped_lock lock(output_mutex_);
    return output_;
  }

 private:
  std::string program_;
  Hub hub_;
  std::unique_ptr<vm::Interp> interp_;
  std::unique_ptr<dbg::DebugServer> server_;
  std::thread runner_;
  std::atomic<bool> finished_{false};
  vm::RunResult result_;
  std::mutex output_mutex_;
  std::string output_;
};

TEST(HubE2eTest, SessionAddressedBreakpointFlow) {
  HubHarness harness(
      "fn add(a, b)\n"    // 1
      "  c = a + b\n"     // 2
      "  return c\n"      // 3
      "end\n"
      "r = add(1, 2)\n"   // 5
      "puts(r)");
  harness.run();

  auto connected = client::Client::connect(harness.hub().port(), 5000);
  ASSERT_TRUE(connected.is_ok()) << connected.error().to_string();
  client::Client& cc = *connected.value();
  ASSERT_TRUE(cc.hub_mode());

  auto handle = cc.attach(static_cast<int>(::getpid()), 5000);
  ASSERT_TRUE(handle.is_ok()) << handle.error().to_string();
  EXPECT_EQ(handle.value().id, harness.server().hub_session_id());
  client::Session* session = cc.session(handle.value());
  ASSERT_NE(session, nullptr);

  auto entry = session->wait_stopped(5000);
  ASSERT_TRUE(entry.is_ok()) << entry.error().to_string();

  auto bp = session->set_breakpoint("test.ml", 3);
  ASSERT_TRUE(bp.is_ok()) << bp.error().to_string();
  ASSERT_TRUE(session->cont(entry.value().tid).is_ok());
  auto hit = session->wait_stopped(5000);
  ASSERT_TRUE(hit.is_ok()) << hit.error().to_string();
  EXPECT_EQ(hit.value().line, 3);

  auto locals = session->locals(hit.value().tid);
  ASSERT_TRUE(locals.is_ok());
  bool saw_c = false;
  for (const auto& [name, value] : locals.value()) {
    if (name == "c" && value == "3") saw_c = true;
  }
  EXPECT_TRUE(saw_c);

  ASSERT_TRUE(session->clear_breakpoint(bp.value()).is_ok());
  ASSERT_TRUE(session->cont(hit.value().tid).is_ok());
  auto result = harness.join();
  ASSERT_TRUE(result.ok) << result.error.to_string();
  EXPECT_EQ(harness.output(), "3\n");
}

// Acceptance criterion: a proto-1.4 client (token-less Session, no hub
// anything) debugs through the hub without knowing it is one.
TEST(HubE2eTest, Proto14ClientDowngradesThroughHub) {
  HubHarness harness(
      "fn mul(a, b)\n"    // 1
      "  p = a * b\n"     // 2
      "  return p\n"      // 3
      "end\n"
      "r = mul(6, 7)\n"   // 5
      "puts(r)");
  harness.run();

  // A 1.4 client: raw Session::attach, empty token.
  auto attached = client::Session::attach(harness.hub().port(), 5000);
  ASSERT_TRUE(attached.is_ok()) << attached.error().to_string();
  client::Session& session = *attached.value();
  // The handshake ping answered with the BOUND session's pid — the
  // debuggee's, not the hub's own identity.
  EXPECT_EQ(session.pid(), static_cast<int>(::getpid()));
  EXPECT_TRUE(session.supports(proto::kCapHub));

  auto entry = session.wait_stopped(5000);
  ASSERT_TRUE(entry.is_ok()) << entry.error().to_string();
  auto bp = session.set_breakpoint("test.ml", 3);
  ASSERT_TRUE(bp.is_ok()) << bp.error().to_string();
  ASSERT_TRUE(session.cont(entry.value().tid).is_ok());
  auto hit = session.wait_stopped(5000);
  ASSERT_TRUE(hit.is_ok()) << hit.error().to_string();
  EXPECT_EQ(hit.value().line, 3);
  EXPECT_EQ(hit.value().reason, proto::kStopBreakpoint);

  auto threads = session.threads();
  ASSERT_TRUE(threads.is_ok());
  ASSERT_FALSE(threads.value().empty());

  ASSERT_TRUE(session.clear_breakpoint(0).is_ok());
  ASSERT_TRUE(session.cont(hit.value().tid).is_ok());
  auto result = harness.join();
  ASSERT_TRUE(result.ok) << result.error.to_string();
  EXPECT_EQ(harness.output(), "42\n");
}

TEST(HubE2eTest, ForkTreeChildrenAutoRegister) {
  HubHarness harness(
      "kids = []\n"
      "for i in 2\n"
      "  p = fork(fn()\n"
      "    sleep(0.1)\n"
      "  end)\n"
      "  push(kids, p)\n"
      "end\n"
      "for k in kids\n"
      "  waitpid(k)\n"
      "end\n"
      "puts(\"done\")",
      HubHarness::Options{.stop_at_entry = false});
  harness.run();

  // Fork handler C re-registers each child with the hub: 1 root + 2
  // children, parent_pid linking the tree.
  ASSERT_TRUE(test::poll_until(
      [&] { return harness.hub().registry().size() >= 3; }, 10'000));
  std::int64_t root_id = harness.server().hub_session_id();
  int children_of_root = 0;
  for (const SessionRecord& rec : harness.hub().registry().snapshot()) {
    if (rec.id == root_id) continue;
    EXPECT_EQ(rec.parent_pid, static_cast<int>(::getpid())) << rec.id;
    EXPECT_NE(rec.pid, static_cast<int>(::getpid()));
    ++children_of_root;
  }
  EXPECT_GE(children_of_root, 2);

  // The same tree through the client API: hub_sessions mirrors it.
  auto connected = client::Client::connect(harness.hub().port(), 5000);
  ASSERT_TRUE(connected.is_ok()) << connected.error().to_string();
  auto listing = connected.value()->hub_sessions();
  ASSERT_TRUE(listing.is_ok());
  EXPECT_GE(listing.value().size(), 3u);

  auto result = harness.join();
  ASSERT_TRUE(result.ok) << result.error.to_string();
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
}

// Hostile: forks keep landing while the shards are busy routing a
// synthetic event storm (mid-batch). The hub must register every
// child, drop no session, and stay responsive.
TEST(HubE2eTest, ForkStormWhileShardsMidBatch) {
  HubHarness harness(
      "for i in 4\n"
      "  p = fork(fn()\n"
      "    t = spawn(fn() return 1 end)\n"
      "    join(t)\n"
      "  end)\n"
      "  waitpid(p)\n"
      "end\n"
      "puts(\"storm ok\")",
      HubHarness::Options{.stop_at_entry = false});

  // Load every shard: synthetic sessions spray events from a side
  // thread for the whole duration of the fork storm.
  std::vector<std::int64_t> noisy;
  for (int i = 0; i < 8; ++i) {
    noisy.push_back(harness.hub().register_synthetic(9000 + i));
  }
  std::atomic<bool> storming{true};
  std::thread storm([&] {
    ipc::wire::Value event = proto::make_event(proto::Event::kOutput);
    event.set("text", std::string(1024, 's'));
    while (storming.load()) {
      for (std::int64_t id : noisy) harness.hub().inject_event(id, event);
      sleep_for_millis(1);
    }
  });

  harness.run();
  auto connected = client::Client::connect(harness.hub().port(), 5000);
  ASSERT_TRUE(connected.is_ok()) << connected.error().to_string();
  client::Client& cc = *connected.value();

  // Every fork re-registers mid-storm; sequential forks mean >= 5
  // registrations total (root + 4 children).
  bool all_registered = test::poll_until(
      [&] { return harness.hub().registry().size() >= 5 + noisy.size(); },
      20'000);
  EXPECT_TRUE(all_registered)
      << "registry size " << harness.hub().registry().size();

  // The hub answers while still routing the storm.
  auto listing = cc.hub_sessions();
  ASSERT_TRUE(listing.is_ok()) << listing.error().to_string();
  EXPECT_GE(harness.hub().events_routed(), 1u);

  auto result = harness.join();
  storming.store(false);
  storm.join();
  ASSERT_TRUE(result.ok) << result.error.to_string();
  EXPECT_EQ(harness.output(), "storm ok\n");
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
}

}  // namespace
}  // namespace dionea::hub
