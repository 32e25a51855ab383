// stepping: the interactive user's latency. A single-process MiniLang
// loop calls a function with a breakpoint inside; one op is cont ->
// stopped, then frames + locals + eval("x"). Stresses the
// request/response path (client::Session, the server's listener,
// the wire codec, park/wake); the VM does almost nothing and no fork
// happens.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/session.hpp"
#include "common.hpp"
#include "debugger/server.hpp"
#include "vm/interp.hpp"

namespace perfbench {
namespace {

namespace client = dionea::client;
using dionea::dbg::DebugServer;

constexpr int kBreakLine = 2;  // "y = x + 1" inside bump()
constexpr int kTimeoutMillis = 5000;
// A run is eight rounds, each on a fresh fixture (the set-up setup_s
// times).
constexpr int kRounds = 8;

std::string program_text(std::int64_t start, std::int64_t step) {
  return "fn bump(x)\n"
         "  y = x + 1\n"
         "  return y\n"
         "end\n"
         "i = " + std::to_string(start) + "\n"
         "acc = 0\n"
         "while keep_going()\n"
         "  acc = acc + bump(i)\n"
         "  i = i + " + std::to_string(step) + "\n"
         "end\n";
}

// An interpreter running the loop on its own thread, a server started
// with stop-at-entry, and an attached session parked at the first
// breakpoint hit. Tear-down lets the loop end and joins the thread.
class Fixture {
 public:
  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    keep_.store(false);
    if (session_ != nullptr) {
      (void)session_->clear_breakpoint(0);
      (void)session_->cont(tid_);
    }
    if (server_ != nullptr) server_->stop();
    if (program_.joinable()) program_.join();
  }

  // Empty on success, else what failed.
  std::string start(const std::string& source, Tracer& tracer, std::uint64_t op) {
    interp_.vm().set_output([](std::string_view) {});
    interp_.vm().define_native(
        "keep_going", 0, 0,
        [this](dionea::vm::Vm&, dionea::vm::InterpThread&,
               std::vector<dionea::vm::Value>&) -> dionea::vm::NativeResult {
          return dionea::vm::Value(keep_.load(std::memory_order_relaxed));
        });
    DebugServer::Options options;
    options.stop_at_entry = true;
    server_ = std::make_unique<DebugServer>(interp_.vm(), options);
    {
      Scoped span(tracer, op, "debugger.start");
      dionea::Status started = server_->start();
      if (!started.is_ok()) return "server start: " + started.to_string();
    }
    program_ = std::thread([this, source] { (void)interp_.run_string(source, "stepping.ml"); });
    {
      Scoped span(tracer, op, "client.attach");
      auto attached = client::Session::attach(server_->port(), kTimeoutMillis);
      if (!attached.is_ok()) return "attach: " + attached.error().to_string();
      session_ = std::move(attached).value();
    }
    auto entry = session_->wait_stopped(kTimeoutMillis);
    if (!entry.is_ok()) return "entry stop: " + entry.error().to_string();
    tid_ = entry.value().tid;
    auto bp = session_->set_breakpoint("stepping.ml", kBreakLine);
    if (!bp.is_ok()) return "break: " + bp.error().to_string();
    dionea::Status resumed = session_->cont(tid_);
    if (!resumed.is_ok()) return "cont: " + resumed.to_string();
    auto first = session_->wait_stopped(kTimeoutMillis);
    if (!first.is_ok()) return "first hit: " + first.error().to_string();
    return "";
  }

  client::Session& session() { return *session_; }
  DebugServer& server() { return *server_; }
  std::int64_t tid() const { return tid_; }

 private:
  std::atomic<bool> keep_{true};
  dionea::vm::Interp interp_;
  std::unique_ptr<DebugServer> server_;
  std::unique_ptr<client::Session> session_;
  std::int64_t tid_ = 0;
  std::thread program_;  // last: joined before the members it uses go
};

}  // namespace

bool run_stepping(const Options& opts, Report& report, Deadline& deadline,
                  Tracer& tracer) {
  const std::int64_t start = static_cast<std::int64_t>(mix_seed(opts.seed, 1) % 1000);
  const std::int64_t step = 1 + static_cast<std::int64_t>(mix_seed(opts.seed, 2) % 7);
  const std::string source = program_text(start, step);

  std::vector<double> setup_s, stop_us, inspect_us, round_stop_p99_us;
  std::vector<double> traced_op_us, untraced_op_us;
  std::vector<double> round_stop_p50_us, round_cycles_per_s;
  std::uint64_t events = 0, stops = 0, index = 0, cycles = 0;
  std::int64_t measured_ns = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Client, listener and debuggee threads of a round share one CPU,
    // and the rounds walk over the CPUs: an op then measures the
    // protocol path's own cost, not how fast the host wakes an idle
    // vCPU (unpinned, p99 moved 3x between back-to-back runs), and no
    // one CPU's neighbours weigh on the whole run.
    pin_to_cpus({round});
    // Set-up: interpreter + server start + attach + breakpoint + the
    // first hit.
    deadline.arm("stepping setup, round " + std::to_string(round), 60);
    std::uint64_t setup_op = tracer.enabled() ? tracer.next_id() : 0;
    std::int64_t t_setup = now_ns();
    auto fixture = std::make_unique<Fixture>();
    std::string setup_error = fixture->start(source, tracer, setup_op);
    setup_s.push_back(ns_to_s(now_ns() - t_setup));
    if (setup_op != 0) tracer.add(setup_op, 0, "op.setup", t_setup, now_ns());
    deadline.disarm();
    if (!setup_error.empty()) {
      report.op(false, "setup: " + setup_error);
      return false;
    }

    client::Session& session = fixture->session();
    const std::int64_t tid = fixture->tid();
    std::int64_t expect_x = start;  // the first hit is parked at x = start
    std::vector<double> round_stop_us;
    std::uint64_t round_cycles = 0;
    std::uint64_t events_before = fixture->server().events_sent();
    const std::int64_t round_start = now_ns();
    std::int64_t end = round_start + static_cast<std::int64_t>(opts.seconds * 1e9 / kRounds);
    std::string error;
    for (; error.empty() && now_ns() < end; ++index) {
      // The traced run traces every other op; the rest give the
      // untraced reference for the tracing overhead.
      std::uint64_t op = tracer.enabled() && index % 2 == 0 ? tracer.next_id() : 0;
      expect_x += step;
      deadline.arm("stepping op " + std::to_string(index), 10);
      std::int64_t t0 = now_ns();
      dionea::Status resumed = [&] {
        Scoped span(tracer, op, "client.cont");
        return session.cont(tid);
      }();
      auto stop = [&] {
        Scoped span(tracer, op, "client.stop_wait");
        return session.wait_stopped(kTimeoutMillis);
      }();
      std::int64_t t1 = now_ns();
      if (!resumed.is_ok()) {
        error = "cont: " + resumed.to_string();
      } else if (!stop.is_ok()) {
        error = "wait_stopped: " + stop.error().to_string();
      } else if (stop.value().line != kBreakLine || stop.value().file != "stepping.ml" ||
                 stop.value().function != "bump") {
        error = "stopped at " + stop.value().file + ":" +
                std::to_string(stop.value().line) + " in " + stop.value().function;
      }
      if (error.empty()) {
        ++stops;
        auto frames = [&] {
          Scoped span(tracer, op, "client.frames");
          return session.frames(tid);
        }();
        auto locals = [&] {
          Scoped span(tracer, op, "client.locals");
          return session.locals(tid);
        }();
        auto value = [&] {
          Scoped span(tracer, op, "client.eval");
          return session.eval(tid, "x");
        }();
        std::int64_t t2 = now_ns();
        if (!frames.is_ok() || frames.value().size() < 2) {
          error = "frames: expected bump above <main>";
        } else if (!locals.is_ok() || locals.value().empty()) {
          error = "locals: expected x";
        } else if (!value.is_ok() || value.value() != std::to_string(expect_x)) {
          error = "eval(x) = " + (value.is_ok() ? value.value() : value.error().to_string()) +
                  ", expected " + std::to_string(expect_x);
        } else {
          ++cycles;
          ++round_cycles;
          double op_us = ns_to_s(t2 - t0) * 1e6;
          (op != 0 ? traced_op_us : untraced_op_us).push_back(op_us);
          if (op == 0) {
            stop_us.push_back(ns_to_s(t1 - t0) * 1e6);
            round_stop_us.push_back(stop_us.back());
            inspect_us.push_back(ns_to_s(t2 - t1) * 1e6);
          }
        }
        if (op != 0) {
          tracer.add(op, 0, "op.stepping", t0, t2);
          // The transport + dispatch floor, outside the op's timing.
          Scoped span(tracer, op, "client.ping");
          (void)session.ping();
        }
      }
      deadline.disarm();
      report.op(error.empty(), "op " + std::to_string(index) + ": " + error);
    }
    const std::int64_t round_ns = now_ns() - round_start;
    measured_ns += round_ns;
    round_stop_p50_us.push_back(quantile(round_stop_us, 0.5));
    round_cycles_per_s.push_back(static_cast<double>(round_cycles) / ns_to_s(round_ns));
    events += fixture->server().events_sent() - events_before;
    // Tails per round, then their median: a burst of interference from
    // outside moves one round's p99, not the run's.
    round_stop_p99_us.push_back(quantile(round_stop_us, 0.99));
    deadline.arm("stepping teardown, round " + std::to_string(round), 30);
    fixture.reset();
    deadline.disarm();
    if (!error.empty()) return false;  // the session state is unknown
  }

  report.note("stop_p50_us_by_round", json_list(round_stop_p50_us));
  report.note("cycles_per_s_by_round", json_list(round_cycles_per_s));
  if (!opts.trace) {
    // The op is cont -> stopped; the throughput counts whole cycles,
    // inspection included.
    report.metric("setup_s", median(setup_s), "s");
    report.metric("op_p50_ms", quantile(stop_us, 0.5) * 1e-3, "ms");
    report.metric("ops_per_s", static_cast<double>(cycles) / ns_to_s(measured_ns), "1/s");
    report.detail("stop_p50_us", quantile(stop_us, 0.5), "us");
    report.detail("stop_p99_us", median(round_stop_p99_us), "us");
    report.detail("inspect_p50_us", quantile(inspect_us, 0.5), "us");
    return report.failed() == 0;
  }
  report.detail("op_p90_ms", quantile(stop_us, 0.90) * 1e-3, "ms");
  report.detail("op_p99_ms", quantile(stop_us, 0.99) * 1e-3, "ms");
  report.metric("server.start_ms", median(tracer.durations("debugger.start", 1e-3)), "ms");
  report.metric("client.attach_ms", median(tracer.durations("client.attach", 1e-3)), "ms");
  // The calls inside an op's timing (the ping after it is left out).
  report.metric("client.us_per_op",
                tracer.total_seconds({"client.cont", "client.stop_wait", "client.frames",
                                      "client.locals", "client.eval"}) *
                    1e6 / static_cast<double>(std::max<std::size_t>(1, tracer.count("op.stepping"))),
                "us");
  double untraced = median(untraced_op_us);
  report.metric("trace.overhead_pct",
                untraced > 0 ? (median(traced_op_us) / untraced - 1) * 100 : 0, "%");

  report.detail("debugger.start_ms", median(tracer.durations("debugger.start", 1e-3)), "ms");
  report.detail("client.attach_ms", median(tracer.durations("client.attach", 1e-3)), "ms");
  report.detail("debugger.events_sent", static_cast<double>(events), "count");
  report.detail("debugger.events_per_stop",
                stops > 0 ? static_cast<double>(events) / static_cast<double>(stops) : 0,
                "ratio");
  report.detail("client.ping_us", median(tracer.durations("client.ping", 1e-6)), "us");
  report.detail("client.cont_ack_us", median(tracer.durations("client.cont", 1e-6)), "us");
  report.detail("client.stop_wait_us", median(tracer.durations("client.stop_wait", 1e-6)), "us");
  report.detail("client.frames_us", median(tracer.durations("client.frames", 1e-6)), "us");
  report.detail("client.locals_us", median(tracer.durations("client.locals", 1e-6)), "us");
  report.detail("client.eval_us", median(tracer.durations("client.eval", 1e-6)), "us");
  return report.failed() == 0;
}

}  // namespace perfbench
