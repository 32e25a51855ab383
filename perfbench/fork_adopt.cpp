// fork_adopt: the paper's contribution, staying attached across fork.
// The parent program forks waves of 3 children under a server with
// stop_forked_children; the client (Client::discover on the port file)
// adopts each child with attach_any, waits for its at-birth stop and
// continues it; each child runs a short loop and exits, and the parent
// waitpids the wave. One op is one child. Stresses fork handlers A/B/C,
// the listener rebind, the fsync'd port-file publish, client discovery
// and waitpid; the VM and the protocol do almost nothing.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common.hpp"
#include "debugger/server.hpp"
#include "ipc/port_file.hpp"
#include "vm/interp.hpp"

namespace perfbench {
namespace {

namespace client = dionea::client;
namespace vm = dionea::vm;
using dionea::dbg::DebugServer;

constexpr int kTimeoutMillis = 5000;
// A set-up takes ~0.5 ms, and how fast the host is at that moment
// moves it by half: many set-ups, half before the measured phase and
// half after it, for a steady median.
constexpr int kSetups = 200;
constexpr int kNormalWaves = 20;  // the unattached pass of the traced run

std::string program_text(int child_loop) {
  return "while keep_going()\n"
         "  pids = []\n"
         "  k = 0\n"
         "  while k < 3\n"
         "    t0 = clock()\n"
         "    pid = fork()\n"
         "    if pid == 0\n"
         "      s = 0\n"
         "      j = 0\n"
         "      while j < " + std::to_string(child_loop) + "\n"
         "        s = s + j\n"
         "        j = j + 1\n"
         "      end\n"
         "      exit(0)\n"
         "    end\n"
         "    note_fork(pid, t0, clock())\n"
         "    push(pids, pid)\n"
         "    k = k + 1\n"
         "  end\n"
         "  for p in pids\n"
         "    w0 = clock()\n"
         "    code = waitpid(p)\n"
         "    note_wait(p, code, w0, clock())\n"
         "  end\n"
         "end\n";
}

// What the parent program reports through its natives, in clock()
// seconds (the steady clock shared with this process).
struct ForkLog {
  struct Fork {
    double t0 = 0, t1 = 0;         // around fork() in the parent
    double w0 = 0, w1 = 0;         // around waitpid() in the parent
    std::int64_t exit_code = -1000;
  };
  std::mutex mutex;
  std::map<int, Fork> forks;
  std::vector<int> order;
};

// The parent interpreter with the natives the program calls. `waves`
// >= 0 stops after that many waves; otherwise `keep` decides.
class Parent {
 public:
  Parent(std::atomic<bool>& keep, int waves) : keep_(keep), waves_left_(waves) {
    interp_.vm().set_output([](std::string_view) {});
    interp_.vm().define_native(
        "keep_going", 0, 0,
        [this](vm::Vm&, vm::InterpThread&, std::vector<vm::Value>&) -> vm::NativeResult {
          if (waves_left_ >= 0) return vm::Value(waves_left_-- > 0);
          return vm::Value(keep_.load());
        });
    interp_.vm().define_native(
        "note_fork", 3, 3,
        [this](vm::Vm&, vm::InterpThread&, std::vector<vm::Value>& args) -> vm::NativeResult {
          std::scoped_lock lock(log.mutex);
          int pid = static_cast<int>(args[0].number());
          log.forks[pid].t0 = args[1].number();
          log.forks[pid].t1 = args[2].number();
          log.order.push_back(pid);
          return vm::Value();
        });
    interp_.vm().define_native(
        "note_wait", 4, 4,
        [this](vm::Vm&, vm::InterpThread&, std::vector<vm::Value>& args) -> vm::NativeResult {
          std::scoped_lock lock(log.mutex);
          ForkLog::Fork& fork = log.forks[static_cast<int>(args[0].number())];
          fork.exit_code = static_cast<std::int64_t>(args[1].number());
          fork.w0 = args[2].number();
          fork.w1 = args[3].number();
          return vm::Value();
        });
  }
  Parent(const Parent&) = delete;
  Parent& operator=(const Parent&) = delete;
  ~Parent() {
    if (program_.joinable()) program_.join();
  }

  vm::Interp& interp() { return interp_; }

  void run_async(const std::string& source) {
    program_ = std::thread([this, source] {
      vm::RunResult result = interp_.run_string(source, "fork_adopt.ml");
      // A child returns out of run_string here too: it exits here.
      if (interp_.vm().is_forked_child()) interp_.finish(result);
      ok_ = result.ok;
      error_ = result.ok ? "" : result.error.to_string();
      done_.store(true);
    });
  }
  bool done() const { return done_.load(); }
  void join() { program_.join(); }
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  ForkLog log;

 private:
  std::atomic<bool>& keep_;
  int waves_left_;
  vm::Interp interp_;
  std::atomic<bool> done_{false};
  bool ok_ = false;
  std::string error_;
  std::thread program_;  // last: joined before the members it uses go
};

// Parent + server + discovering client attached to the parent's own
// session: everything before the first child is forked.
struct Fixture {
  Fixture(std::atomic<bool>& keep, std::string port_file_path)
      : parent(keep, -1), port_file(std::move(port_file_path)) {}
  ~Fixture() {
    if (server) server->stop();
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  std::string start(Tracer& tracer, std::uint64_t op) {
    ::unlink(port_file.c_str());
    DebugServer::Options options;
    options.port_file = port_file;
    options.stop_forked_children = true;
    server = std::make_unique<DebugServer>(parent.interp().vm(), options);
    {
      Scoped span(tracer, op, "debugger.start");
      dionea::Status started = server->start();
      if (!started.is_ok()) return "server start: " + started.to_string();
    }
    Scoped span(tracer, op, "client.attach");
    client = client::Client::discover(port_file);
    auto self = client->attach(static_cast<int>(::getpid()), kTimeoutMillis);
    if (!self.is_ok()) return "attach parent: " + self.error().to_string();
    parent_handle = self.value();
    return "";
  }

  Parent parent;
  std::string port_file;
  std::unique_ptr<DebugServer> server;
  std::unique_ptr<client::Client> client;
  client::SessionHandle parent_handle;
};

// The traced run's port-file watcher: when each child's record first
// became readable (1 ms polls).
class PortWatcher {
 public:
  explicit PortWatcher(const std::string& path)
      : file_(path), thread_([this] { watch(); }) {}
  ~PortWatcher() {
    stop_.store(true);
    thread_.join();
  }
  PortWatcher(const PortWatcher&) = delete;
  PortWatcher& operator=(const PortWatcher&) = delete;

  // 0 when never seen.
  double seen(int pid) {
    std::scoped_lock lock(mutex_);
    auto it = seen_.find(pid);
    return it == seen_.end() ? 0 : it->second;
  }

 private:
  void watch() {
    while (!stop_.load()) {
      auto records = file_.read_new(read_);
      double now = ns_to_s(now_ns());
      if (records.is_ok()) {
        std::scoped_lock lock(mutex_);
        read_ += records.value().size();
        for (const auto& record : records.value()) seen_.emplace(record.pid, now);
      }
      ::usleep(1000);
    }
  }

  dionea::ipc::PortFile file_;
  std::mutex mutex_;
  std::map<int, double> seen_;
  std::size_t read_ = 0;  // records consumed so far
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last
};

struct Adoption {
  double attached = 0;  // attach_any returned
  double stopped = 0;   // at-birth stopped decoded
  double cont_all_s = 0;
  double record_seen = 0;
  bool traced_phase = false;
};

}  // namespace

bool run_fork_adopt(const Options& opts, Report& report, Deadline& deadline,
                    Tracer& tracer) {
  const std::string source =
      program_text(50 + static_cast<int>(mix_seed(opts.seed, 1) % 200));
  const std::string port_file = opts.work_dir + "/fork_adopt.ports";
  std::atomic<bool> keep{true};

  std::unique_ptr<Fixture> fixture;
  std::string setup_error;
  std::vector<double> setup_times;
  // Leaves the last set-up in `fixture`.
  auto set_up = [&](int reps) {
    deadline.arm("fork_adopt setup", 60);
    for (int i = 0; i < reps && setup_error.empty(); ++i) {
      fixture.reset();  // the previous set-up's tear-down is not set-up time
      std::uint64_t op = tracer.enabled() ? tracer.next_id() : 0;
      std::int64_t t0 = now_ns();
      fixture = std::make_unique<Fixture>(keep, port_file);
      setup_error = fixture->start(tracer, op);
      std::int64_t t1 = now_ns();
      setup_times.push_back(ns_to_s(t1 - t0));
      if (op != 0) tracer.add(op, 0, "op.setup", t0, t1);
    }
    deadline.disarm();
  };
  set_up(kSetups / 2);
  if (!setup_error.empty()) {
    report.op(false, "setup: " + setup_error);
    return false;
  }

  // The traced run spends its first half untraced and its second half
  // traced (with the port-file watcher), so the two halves give the
  // tracing overhead.
  client::Client& cc = *fixture->client;
  client::Session* parent_session = cc.session(fixture->parent_handle);
  std::map<int, Adoption> adopted;
  std::vector<std::string> errors;
  std::unique_ptr<PortWatcher> watcher;
  const std::int64_t start_ns = now_ns();
  const std::int64_t end_ns = start_ns + static_cast<std::int64_t>(opts.seconds * 1e9);
  const std::int64_t flip_ns = opts.trace ? start_ns + (end_ns - start_ns) / 2 : end_ns;
  fixture->parent.run_async(source);
  // The deadline covers one adoption: re-armed after each child, not
  // after each empty discovery poll.
  int index = 0;
  deadline.arm("fork_adopt child 0", 10);
  for (;;) {
    if (now_ns() >= end_ns) keep.store(false);
    if (opts.trace && watcher == nullptr && now_ns() >= flip_ns) {
      watcher = std::make_unique<PortWatcher>(port_file);
    }
    if (fixture->parent.done()) {
      std::scoped_lock lock(fixture->parent.log.mutex);
      if (adopted.size() >= fixture->parent.log.order.size()) break;
    }
    auto handle = cc.attach_any(200);
    if (!handle.is_ok()) continue;  // no child yet: between waves
    Adoption a;
    a.attached = ns_to_s(now_ns());
    a.traced_phase = watcher != nullptr;
    int pid = cc.pid_of(handle.value());
    client::Session* session = cc.session(handle.value());
    std::string error;
    if (session == nullptr) {
      error = "no session for adopted pid " + std::to_string(pid);
    } else {
      auto stop = session->wait_stopped(kTimeoutMillis);
      a.stopped = ns_to_s(now_ns());
      std::int64_t c0 = now_ns();
      dionea::Status resumed = session->cont_all();
      a.cont_all_s = ns_to_s(now_ns() - c0);
      if (!stop.is_ok()) {
        error = "at-birth stop: " + stop.error().to_string();
      } else if (!resumed.is_ok()) {
        error = "cont_all: " + resumed.to_string();
      }
    }
    // The watcher polls every 1 ms, so it can see a record after the
    // client already attached through it; clamp to the attach time.
    if (watcher) a.record_seen = std::min(watcher->seen(pid), a.attached);
    cc.drop(handle.value());
    if (!adopted.emplace(pid, a).second) error = "pid " + std::to_string(pid) + " adopted twice";
    if (!error.empty()) errors.push_back("child " + std::to_string(pid) + ": " + error);
    // The parent's session gets a `forked` event per child; drain it
    // so the parent never blocks on a full events socket.
    while (parent_session != nullptr) {
      auto event = parent_session->poll_event(0);
      if (!event.is_ok() || !event.value().has_value()) break;
    }
    deadline.arm("fork_adopt child " + std::to_string(++index), 10);
  }
  deadline.arm("fork_adopt parent exit", 30);
  fixture->parent.join();
  deadline.disarm();
  const double elapsed_s = ns_to_s(now_ns() - start_ns);
  watcher.reset();

  // Output checks: every forked child adopted exactly once, every
  // waitpid returned 0, the parent program ran clean.
  std::vector<double> adopt_ms, traced_adopt_ms, untraced_adopt_ms;
  std::vector<double> fork_us, publish_ms, discover_ms, first_stop_ms, cont_all_us, waitpid_ms;
  {
    std::scoped_lock lock(fixture->parent.log.mutex);
    for (int pid : fixture->parent.log.order) {
      const ForkLog::Fork& fork = fixture->parent.log.forks[pid];
      auto it = adopted.find(pid);
      std::string error;
      if (it == adopted.end()) {
        error = "child " + std::to_string(pid) + " was never adopted";
      } else if (fork.exit_code != 0) {
        error = "child " + std::to_string(pid) + ": waitpid returned " +
                std::to_string(fork.exit_code);
      }
      report.op(error.empty(), error);
      if (!error.empty() || it == adopted.end()) continue;
      const Adoption& a = it->second;
      double ms = (a.stopped - fork.t0) * 1e3;
      adopt_ms.push_back(ms);
      (a.traced_phase ? traced_adopt_ms : untraced_adopt_ms).push_back(ms);
      if (!a.traced_phase) continue;
      std::uint64_t op = tracer.next_id();
      auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
      tracer.add(op, 0, "op.fork_adopt", ns(fork.t0), ns(a.stopped + a.cont_all_s));
      tracer.child(op, "vm.fork", ns(fork.t0), ns(fork.t1));
      if (a.record_seen > 0) {
        tracer.child(op, "ipc.port_publish", ns(fork.t0), ns(a.record_seen));
        tracer.child(op, "client.discover", ns(a.record_seen), ns(a.attached));
        publish_ms.push_back((a.record_seen - fork.t0) * 1e3);
        discover_ms.push_back((a.attached - a.record_seen) * 1e3);
      }
      tracer.child(op, "client.first_stop", ns(a.attached), ns(a.stopped));
      tracer.child(op, "client.cont_all", ns(a.stopped), ns(a.stopped + a.cont_all_s));
      tracer.child(op, "vm.waitpid", ns(fork.w0), ns(fork.w1));
      fork_us.push_back((fork.t1 - fork.t0) * 1e6);
      first_stop_ms.push_back((a.stopped - a.attached) * 1e3);
      cont_all_us.push_back(a.cont_all_s * 1e6);
      waitpid_ms.push_back((fork.w1 - fork.w0) * 1e3);
    }
    if (adopted.size() > fixture->parent.log.order.size()) {
      report.op(false, "adopted a session that was not a forked child");
    }
  }
  for (const std::string& error : errors) report.ops(0, 1, error);
  if (!fixture->parent.ok()) report.op(false, "parent program: " + fixture->parent.error());
  std::size_t children = adopt_ms.size();
  set_up(kSetups / 2);
  fixture.reset();
  if (!setup_error.empty()) report.op(false, "setup after the measured phase: " + setup_error);
  const double setup_s = median(setup_times);

  const double children_per_s = static_cast<double>(children) / elapsed_s;
  if (!opts.trace) {
    // The op is one child's adoption.
    report.metric("setup_s", setup_s, "s");
    report.metric("op_p50_ms", quantile(adopt_ms, 0.5), "ms");
    report.metric("ops_per_s", children_per_s, "1/s");
    report.detail("adopt_p50_ms", quantile(adopt_ms, 0.5), "ms");
    report.detail("adopt_p99_ms", quantile(adopt_ms, 0.99), "ms");
    report.detail("children_per_s", children_per_s, "1/s");
    return report.failed() == 0;
  }

  // Unattached pass: the same program with no server, for the cost the
  // fork handlers add to fork() itself.
  std::atomic<bool> unused{true};
  std::vector<double> normal_fork_us;
  {
    deadline.arm("fork_adopt unattached pass", 60);
    Parent plain(unused, kNormalWaves);
    plain.run_async(source);
    plain.join();
    deadline.disarm();
    std::scoped_lock lock(plain.log.mutex);
    for (int pid : plain.log.order) {
      const ForkLog::Fork& fork = plain.log.forks[pid];
      report.op(fork.exit_code == 0,
                "unattached child " + std::to_string(pid) + " exited " +
                    std::to_string(fork.exit_code));
      normal_fork_us.push_back((fork.t1 - fork.t0) * 1e6);
    }
    if (!plain.ok()) report.op(false, "unattached parent: " + plain.error());
  }
  report.detail("op_p90_ms", quantile(adopt_ms, 0.90), "ms");
  report.detail("op_p99_ms", quantile(adopt_ms, 0.99), "ms");
  report.metric("server.start_ms", median(tracer.durations("debugger.start", 1e-3)), "ms");
  report.metric("client.attach_ms", median(tracer.durations("client.attach", 1e-3)), "ms");
  report.metric("client.us_per_op",
                tracer.total_seconds({"client.discover", "client.first_stop", "client.cont_all"}) *
                    1e6 /
                    static_cast<double>(std::max<std::size_t>(1, tracer.count("op.fork_adopt"))),
                "us");
  double untraced = median(untraced_adopt_ms);
  report.metric("trace.overhead_pct",
                untraced > 0 ? (median(traced_adopt_ms) / untraced - 1) * 100 : 0, "%");

  double attached_fork = median(fork_us);
  double normal_fork = median(normal_fork_us);
  report.detail("vm.fork_parent_us", attached_fork, "us");
  report.detail("vm.fork_parent_normal_us", normal_fork, "us");
  report.detail("debugger.fork_extra_us", attached_fork - normal_fork, "us");
  report.detail("ipc.port_publish_ms", median(publish_ms), "ms");
  report.detail("client.discover_ms", median(discover_ms), "ms");
  report.detail("client.first_stop_ms", median(first_stop_ms), "ms");
  report.detail("client.cont_all_us", median(cont_all_us), "us");
  // Mean, not median: the first waitpid of a wave waits for the whole
  // wave, and the other two usually return at once.
  double waitpid_total_ms = 0;
  for (double ms : waitpid_ms) waitpid_total_ms += ms;
  report.detail("vm.waitpid_ms",
                waitpid_ms.empty() ? 0 : waitpid_total_ms / static_cast<double>(waitpid_ms.size()),
                "ms");
  report.detail("debugger.start_ms", median(tracer.durations("debugger.start", 1e-3)), "ms");
  report.detail("client.attach_ms", median(tracer.durations("client.attach", 1e-3)), "ms");
  return report.failed() == 0;
}

}  // namespace perfbench
