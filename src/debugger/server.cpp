#include "debugger/server.hpp"

#include <unistd.h>

#include <cstdlib>
#include <utility>

#include "analysis/analysis.hpp"
#include "analysis/forkaudit.hpp"
#include "analysis/forklint.hpp"
#include "replay/replay.hpp"
#include "replay/timetravel.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/temp_file.hpp"
#include "support/timing.hpp"
#include "support/trace_export.hpp"

namespace dionea::dbg {

using ipc::wire::Array;
using ipc::wire::Value;

namespace {

// Success envelope + response-struct payload in one frame.
Value ok_with(std::int64_t seq, const Value& payload) {
  Value response = proto::make_ok(seq);
  for (const auto& [key, value] : payload.as_object()) {
    response.set(key, value);
  }
  return response;
}

// "0" disables, anything else (including unset) keeps the default.
bool env_allows(const char* name) {
  const char* v = std::getenv(name);
  return !(v != nullptr && v[0] == '0' && v[1] == '\0');
}

// Set and not "0" enables.
bool env_requests(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && !(v[0] == '0' && v[1] == '\0');
}

// Same little-endian layout ipc::send_frame produces; used to
// pre-encode the crash-notify frame the signal handler blasts raw.
void put_u32le(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

}  // namespace

namespace {

// ForkLint audit contract for the debugger-driven primitives. The
// support-layer entries (metrics shards, trace exporter, crash notify
// fd) are registered here because handler C in fork_handlers.cpp is
// what repairs them — dionea_support itself never links against
// dionea_analysis. Once per process; re-tracking is idempotent.
void register_dbg_fork_contract() {
  static const bool once = [] {
    using analysis::forkaudit::Registry;
    using analysis::forkaudit::Spec;
    Registry& registry = Registry::instance();
    registry.track(Spec{.name = "dbg.server_locks",
                        .subsystem = "debugger",
                        .has_prepare = true,
                        .has_parent = true,
                        .has_child = true,
                        .pinned_before = {"vm.scheduler"}});
    // Child-repair-only contracts: nothing to pin, but the child must
    // rebuild them (Fig. 5/6 invariants and per-process observability).
    registry.track(Spec{.name = "dbg.hub_registration",
                        .subsystem = "debugger",
                        .needs_prepare = false,
                        .needs_parent = false,
                        .has_child = true});
    registry.track(Spec{.name = "support.metrics",
                        .subsystem = "support",
                        .needs_prepare = false,
                        .needs_parent = false,
                        .has_child = true});
    registry.track(Spec{.name = "trace.exporter",
                        .subsystem = "support",
                        .needs_prepare = false,
                        .needs_parent = false,
                        .has_child = true});
    registry.track(Spec{.name = "crash.report",
                        .subsystem = "support",
                        .needs_prepare = false,
                        .needs_parent = false,
                        .has_child = true});
    return true;
  }();
  (void)once;
}

}  // namespace

DebugServer::DebugServer(vm::Vm& vm, Options options)
    : vm_(vm), options_(std::move(options)) {
  disturb_.store(options_.disturb_mode, std::memory_order_relaxed);
  register_dbg_fork_contract();
  register_commands();
}

DebugServer::~DebugServer() { stop(); }

Status DebugServer::start() {
  DIONEA_RETURN_IF_ERROR(bind_and_publish());
  terminated_sent_.store(false);
  start_listener_thread();

  hub_port_ = options_.hub_port;
  if (hub_port_ == 0) {
    if (const char* env = std::getenv("DIONEA_HUB_PORT")) {
      long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0 && parsed <= 65535)
        hub_port_ = static_cast<std::uint16_t>(parsed);
    }
  }
  if (hub_port_ != 0) {
    // Listener first, registration second: the hub dials back the
    // moment it replies, and must find someone accepting.
    Status hub_status = register_with_hub(/*parent_pid=*/0);
    if (!hub_status.is_ok()) {
      DLOG_WARN("dbg") << "hub registration failed (continuing without): "
                       << hub_status.to_string();
    }
  }

  // The debuggee sees the server only through these three hooks — the
  // same coupling Dionea has with the interpreters it debugs.
  vm_.set_trace_fn([this](vm::Vm&, vm::InterpThread& th,
                          const vm::TraceEvent& event) { on_trace(th, event); });
  // add_fork_handlers appends: a restarted server (stop() then
  // start(), e.g. crash-recovery) must not stack a second set — the
  // duplicate handler A would self-deadlock pinning the same locks.
  if (!hooks_installed_) {
    hooks_installed_ = true;
    vm_.add_fork_handlers(vm::ForkHooks{
        [this](vm::Vm&) { fork_prepare(); },
        [this](vm::Vm&, int child_pid) { fork_parent(child_pid); },
        [this](vm::Vm&, int) { fork_child(); },
    });
  }
  vm_.set_deadlock_hook(
      [this](vm::Vm&, const std::vector<vm::DeadlockInfo>& infos) {
        return deadlock_hook(infos);
      });
  vm_.set_at_exit_hook([this](vm::Vm&) { send_terminated_once(); });
  if (options_.capture_output) {
    vm_.set_output([this](std::string_view text) {
      Value event = proto::make_event(proto::Event::kOutput);
      event.set("text", std::string(text));
      send_event(std::move(event));
      // Still mirror to the real stdout so local runs stay readable.
      std::fwrite(text.data(), 1, text.size(), stdout);
      std::fflush(stdout);
    });
  }
  tracing_wanted_.store(true, std::memory_order_relaxed);
  vm_.set_trace_enabled(true);

  postmortem_enabled_ = options_.postmortem && env_allows("DIONEA_POSTMORTEM");
  watchdog_enabled_ = options_.watchdog || env_requests("DIONEA_WATCHDOG");
  if (postmortem_enabled_) install_postmortem();
  if (watchdog_enabled_) start_watchdog();
  // Checkpointing is part of the debug-server lifecycle: a replaying
  // server with DIONEA_CKPT_EVERY set starts forking checkpoints.
  replay::tt::CheckpointManager::init_from_env(vm_);
  return Status::ok();
}

Status DebugServer::register_with_hub(int parent_pid) {
  auto stream = ipc::TcpStream::connect_retry(hub_port_, 2000);
  if (!stream.is_ok()) return stream.error();
  (void)stream.value().set_nodelay(true);
  proto::Hello hello;
  hello.channel = proto::kChannelHubRegister;
  hello.pid = static_cast<int>(::getpid());
  DIONEA_RETURN_IF_ERROR(ipc::send_frame(stream.value(), hello.to_wire()));
  proto::HubRegisterRequest request;
  request.pid = static_cast<int>(::getpid());
  request.parent_pid = parent_pid;
  request.port = port_;
  // A checkpoint (or a resumer forked from one) registers as a
  // `checkpoint` session so hub listings can tell frozen snapshots
  // from the live debuggee.
  request.kind =
      replay::tt::CheckpointManager::instance().role() ==
              replay::tt::Role::kRoot
          ? "debuggee"
          : "checkpoint";
  request.capabilities = proto::local_capabilities();
  Value frame = request.to_wire();
  frame.set("cmd", proto::HubRegisterRequest::kName);
  frame.set("seq", static_cast<std::int64_t>(1));
  DIONEA_RETURN_IF_ERROR(ipc::send_frame(stream.value(), frame));
  auto reply = ipc::recv_frame_timeout(stream.value(), 2000);
  if (!reply.is_ok()) return reply.error();
  if (!reply.value().get_bool("ok")) {
    return Status(ErrorCode::kProtocol, "hub refused registration: " +
                                            reply.value().get_string("error"));
  }
  auto response = proto::HubRegisterResponse::from_wire(reply.value());
  if (!response.is_ok()) return response.error();
  hub_session_id_.store(response.value().session_id,
                        std::memory_order_relaxed);
  DLOG_INFO("dbg") << "registered with hub on port " << hub_port_
                   << " as session " << response.value().session_id;
  return Status::ok();
}

void DebugServer::install_postmortem() {
  crash::Options copts;
  copts.dir = options_.crash_dir;
  Status status = crash::install(copts);
  if (!status.is_ok()) {
    DLOG_WARN("dbg") << "post-mortem capture unavailable: "
                     << status.to_string();
    postmortem_enabled_ = false;
    return;
  }
  if (crash_section_ < 0) {
    crash_section_ = crash::add_section(
        "vm",
        [](crash::Writer& w, void* ctx) {
          static_cast<DebugServer*>(ctx)->vm_.crash_dump(w);
        },
        this);
  }
  if (replay::engine_active()) {
    crash::set_aux_log(replay::Engine::instance().info().log_path.c_str());
  }
}

void DebugServer::start_watchdog() {
  // The GIL timestamps its grants only while someone is watching —
  // keeps the clock read off the default acquire path (§7 gate).
  vm_.gil().set_hold_watch(true);
  if (!watchdog_) {
    watchdog_ = std::make_unique<Watchdog>(
        options_.watchdog_options, [this] { return watchdog_probe(); },
        [this](Watchdog::State from, Watchdog::State to,
               const Watchdog::Stall& stall) {
          watchdog_transition(from, to, stall);
        });
  }
  watchdog_->start();
}

Status DebugServer::bind_and_publish() {
  auto listener = ipc::TcpListener::bind(options_.port);
  if (!listener.is_ok()) return listener.error();
  listener_ = std::make_unique<ipc::TcpListener>(std::move(listener).value());
  port_ = listener_->port();
  if (!options_.port_file.empty()) {
    ipc::PortFile port_file(options_.port_file);
    DIONEA_RETURN_IF_ERROR(port_file.publish(ipc::PortRecord{
        static_cast<int>(::getpid()), static_cast<int>(::getppid()), port_,
        port_seq_++}));
  }
  return Status::ok();
}

void DebugServer::start_listener_thread() {
  reactor_ = std::make_unique<ipc::Reactor>();
  reactor_->add_fd(listener_->raw_fd(), [this] { handle_new_connection(); });
  if (options_.heartbeat_interval_millis > 0) {
    reactor_->add_periodic(options_.heartbeat_interval_millis,
                           [this] { heartbeat_tick(); });
  }
  running_.store(true, std::memory_order_relaxed);
  listener_thread_ = std::make_unique<std::thread>([this] { listener_main(); });
}

void DebugServer::listener_main() {
  Status status = reactor_->run();
  if (!status.is_ok()) {
    DLOG_ERROR("dbg") << "listener loop failed: " << status.to_string();
  }
}

void DebugServer::stop() {
  if (!running_.exchange(false)) return;
  // The watchdog goes first: a transition callback racing the teardown
  // below would touch sockets mid-close.
  if (watchdog_) watchdog_->stop();
  crash::disarm_notify();
  // The signal handlers stay installed (a crash after detach should
  // still leave a report), but our section must not outlive `this`.
  if (crash_section_ >= 0) {
    crash::remove_section(crash_section_);
    crash_section_ = -1;
  }
  tracing_wanted_.store(false, std::memory_order_relaxed);
  vm_.set_trace_enabled(false);
  // Resume every parked thread so the debuggee can finish.
  std::vector<std::shared_ptr<ThreadDebug>> states;
  {
    std::scoped_lock lock(state_mutex_);
    for (auto& [tid, td] : thread_debug_) states.push_back(td);
  }
  for (auto& td : states) {
    std::scoped_lock lock(td->mutex);
    td->mode = ThreadDebug::Mode::kRun;
    td->pause_requested = false;
    td->refresh_attention();
    td->resume = true;
    td->cv.notify_all();
  }
  if (reactor_) reactor_->stop();
  if (listener_thread_ && listener_thread_->joinable()) {
    listener_thread_->join();
  }
  listener_thread_.reset();
  // A program that runs off the end never fires the VM at-exit hook
  // (only exit() and forked children do) — without this the client
  // sees a bare EOF and reports a clean shutdown as a crash.
  send_terminated_once();
  {
    std::scoped_lock lock(state_mutex_);
    control_.close();
  }
  {
    std::scoped_lock lock(events_mutex_);
    events_.close();
  }
  if (listener_) listener_->close();
}

bool DebugServer::client_connected() const {
  std::scoped_lock lock(state_mutex_);
  return control_.valid();
}

void DebugServer::register_source(const std::string& file, std::string text) {
  std::scoped_lock lock(sources_mutex_);
  sources_[file] = std::move(text);
}

// ------------------------------------------------------------ thread state

std::shared_ptr<DebugServer::ThreadDebug> DebugServer::thread_state(
    std::int64_t tid) {
  std::scoped_lock lock(state_mutex_);
  auto it = thread_debug_.find(tid);
  if (it != thread_debug_.end()) return it->second;
  auto td = std::make_shared<ThreadDebug>();
  thread_debug_[tid] = td;
  return td;
}

void DebugServer::drop_thread_state(std::int64_t tid) {
  std::scoped_lock lock(state_mutex_);
  thread_debug_.erase(tid);
}

std::vector<std::shared_ptr<DebugServer::ThreadDebug>>
DebugServer::debug_states_snapshot() {
  std::scoped_lock lock(state_mutex_);
  std::vector<std::shared_ptr<ThreadDebug>> out;
  out.reserve(thread_debug_.size());
  for (auto& [tid, td] : thread_debug_) out.push_back(td);
  return out;
}

// ----------------------------------------------------------------- events

void DebugServer::send_terminated_once() {
  if (terminated_sent_.exchange(true)) return;
  Value event = proto::make_event(proto::Event::kTerminated);
  event.set("pid", static_cast<int>(::getpid()));
  send_event(std::move(event));
}

void DebugServer::send_event(Value event) {
  std::scoped_lock lock(events_mutex_);
  if (!events_.valid()) {
    // No client yet: buffer, so a stop raised before attach (e.g. the
    // stop-at-entry park) is not lost.
    if (event_backlog_.size() >= kMaxEventBacklog) {
      event_backlog_.pop_front();
    }
    event_backlog_.push_back(std::move(event));
    return;
  }
  Status status = ipc::send_frame(events_, event);
  if (!status.is_ok()) {
    DLOG_DEBUG("dbg") << "event channel lost: " << status.to_string();
    crash::disarm_notify();
    events_.close();
    return;
  }
  events_sent_.fetch_add(1, std::memory_order_relaxed);
  metrics::add(metrics::Counter::kEventsSent);
}

void DebugServer::heartbeat_tick() {
  // Runs on the loop thread. A beacon the kernel cannot deliver means
  // the client is gone (crashed, SIGKILLed, unplugged): drop the
  // session instead of carrying dead sockets forever. The debuggee
  // itself keeps running — a lost client never stops the program.
  bool peer_lost = false;
  {
    std::scoped_lock lock(events_mutex_);
    if (!events_.valid()) return;
    Value beacon = proto::make_event(proto::Event::kHeartbeat);
    beacon.set("pid", static_cast<int>(::getpid()));
    Status status = ipc::send_frame(events_, beacon);
    if (status.is_ok()) {
      heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
    } else {
      DLOG_DEBUG("dbg") << "heartbeat undeliverable, client presumed dead: "
                        << status.to_string();
      crash::disarm_notify();
      events_.close();
      peer_lost = true;
    }
  }
  if (peer_lost) {
    std::scoped_lock lock(state_mutex_);
    if (control_.valid()) {
      reactor_->remove_fd(control_.raw_fd());
      control_.close();
    }
  }
}

// --------------------------------------------------------- post-mortem

void DebugServer::arm_crash_notify_locked() {
  if (!events_.valid() || !crash::installed()) return;
  // The handler cannot encode (malloc, locks) — everything is done
  // here, down to the frame header, and the handler does one write().
  Value event = proto::make_event(proto::Event::kProcessCrashed);
  event.set("pid", static_cast<int>(::getpid()));
  event.set("report_path", crash::report_path_string());
  event.set("reason", "signal");
  std::string payload;
  event.encode(&payload);
  std::string frame(8, '\0');
  put_u32le(frame.data(), ipc::kFrameMagic);
  put_u32le(frame.data() + 4, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  crash::arm_notify(events_.raw_fd(), frame.data(), frame.size());
}

// ----------------------------------------------------------- watchdog

Watchdog::Stall DebugServer::watchdog_probe() {
  const std::int64_t now = mono_nanos();
  Watchdog::Stall worst;
  auto consider = [&](std::int64_t since_nanos, const char* what) {
    if (since_nanos <= 0) return;
    const std::int64_t millis = (now - since_nanos) / 1'000'000;
    if (millis > worst.millis) worst = Watchdog::Stall{millis, what};
  };
  // Deadline 1: a control command stuck inside the VM.
  consider(command_started_nanos_.load(std::memory_order_relaxed),
           "command-in-flight");
  // Deadline 2: one thread sitting on the GIL (wedged native call /
  // trace hook). The mirror is only timestamped while hold_watch is on.
  consider(vm_.gil().held_since_nanos(), "gil-held");
  // Deadline 3: trace dispatch stopped making progress while a thread
  // owns the GIL and nothing is parked — running but not reaching line
  // events. Fed by the sharded metrics registry.
  const metrics::Snapshot snap = metrics::Registry::instance().snapshot();
  const std::uint64_t lines =
      snap.counters[static_cast<int>(metrics::Counter::kTraceLineEvents)];
  const bool parked =
      snap.gauges[static_cast<int>(metrics::Gauge::kParkedThreads)] > 0;
  if (lines != wd_last_line_events_ || wd_last_line_change_nanos_ == 0) {
    wd_last_line_events_ = lines;
    wd_last_line_change_nanos_ = now;
  } else if (vm_.trace_enabled() && !parked &&
             vm_.gil().owner_relaxed() != 0) {
    consider(wd_last_line_change_nanos_, "no-trace-progress");
  }
  return worst;
}

void DebugServer::watchdog_transition(Watchdog::State from, Watchdog::State to,
                                      const Watchdog::Stall& stall) {
  DLOG_WARN("dbg") << "watchdog: " << Watchdog::state_name(from) << " -> "
                   << Watchdog::state_name(to) << " (" << stall.what << ", "
                   << stall.millis << "ms)";
  Value event = proto::make_event(proto::Event::kWatchdog);
  event.set("pid", static_cast<int>(::getpid()));
  event.set("state", std::string(Watchdog::state_name(to)));
  event.set("prev", std::string(Watchdog::state_name(from)));
  event.set("stall_millis", stall.millis);
  event.set("what", std::string(stall.what));
  send_event(std::move(event));
  switch (to) {
    case Watchdog::State::kHealthy:
      // Recovered: undo the degraded-mode shedding (if still wanted).
      vm_.set_trace_enabled(
          tracing_wanted_.load(std::memory_order_relaxed));
      break;
    case Watchdog::State::kHung:
      break;  // the event itself is the action: the client is warned
    case Watchdog::State::kDegraded: {
      // Shed debugger load: stop tracing and release every parked
      // thread so the debuggee can drain whatever it is stuck behind.
      vm_.set_trace_enabled(false);
      auto states = debug_states_snapshot();
      for (auto& td : states) {
        std::scoped_lock lock(td->mutex);
        td->mode = ThreadDebug::Mode::kRun;
        td->pause_requested = false;
        td->refresh_attention();
        td->resume = true;
        td->cv.notify_all();
      }
      break;
    }
    case Watchdog::State::kDetached: {
      // Terminal: drop the session, keep the debuggee and the listener
      // alive — a fresh client can attach and start over.
      {
        std::scoped_lock lock(events_mutex_);
        if (events_.valid()) {
          crash::disarm_notify();
          events_.close();
        }
      }
      std::scoped_lock lock(state_mutex_);
      if (control_.valid()) {
        reactor_->remove_fd(control_.raw_fd());
        control_.close();
      }
      break;
    }
  }
}

// ------------------------------------------------------------------ trace

void DebugServer::on_trace(vm::InterpThread& th,
                           const vm::TraceEvent& event) {
  switch (event.kind) {
    case vm::TraceKind::kCall:
    case vm::TraceKind::kReturn:
      return;  // stepping uses frame depth carried by line events

    case vm::TraceKind::kThreadStart: {
      auto td = thread_state(event.thread_id);
      th.debugger_slot = td;
      // §6.4: stop every NEW UE at birth. The process's original main
      // thread is not new (forked children are handled by handler C).
      if (disturb() && event.thread_id != vm_.main_thread_id()) {
        std::scoped_lock lock(td->mutex);
        td->pause_requested = true;
        td->refresh_attention();
      }
      Value ev = proto::make_event(proto::Event::kThreadStart);
      ev.set("tid", event.thread_id);
      ev.set("pid", static_cast<int>(::getpid()));
      send_event(std::move(ev));
      return;
    }
    case vm::TraceKind::kThreadEnd: {
      Value ev = proto::make_event(proto::Event::kThreadExit);
      ev.set("tid", event.thread_id);
      ev.set("pid", static_cast<int>(::getpid()));
      send_event(std::move(ev));
      drop_thread_state(event.thread_id);
      th.debugger_slot.reset();
      return;
    }

    case vm::TraceKind::kLine:
      break;
  }

  // Line event — the hot path. The §7 overhead numbers live and die
  // here: with no breakpoints and no pending stop, this is two relaxed
  // atomic loads and out.
  ThreadDebug* td = static_cast<ThreadDebug*>(th.debugger_slot.get());
  if (td == nullptr) {
    th.debugger_slot = thread_state(event.thread_id);
    td = static_cast<ThreadDebug*>(th.debugger_slot.get());
  }
  if (!options_.thorough_line_handling &&
      !td->attention.load(std::memory_order_relaxed) &&
      breakpoints_.empty() && first_line_seen_) {
    return;
  }

  const char* reason = nullptr;
  {
    std::scoped_lock lock(td->mutex);
    if (td->pause_requested) {
      td->pause_requested = false;
      reason = disturb() ? proto::kStopDisturb : proto::kStopPause;
    } else {
      switch (td->mode) {
        case ThreadDebug::Mode::kRun:
          break;
        case ThreadDebug::Mode::kStepInto:
          reason = proto::kStopStep;
          break;
        case ThreadDebug::Mode::kStepOver:
          if (event.frame_depth <= td->step_base_depth) {
            reason = proto::kStopStep;
          }
          break;
        case ThreadDebug::Mode::kStepOut:
          if (event.frame_depth < td->step_base_depth) {
            reason = proto::kStopStep;
          }
          break;
      }
      if (reason != nullptr) td->mode = ThreadDebug::Mode::kRun;
    }
    td->refresh_attention();
  }

  if (!first_line_seen_) {
    first_line_seen_ = true;
    if (options_.stop_at_entry && reason == nullptr) {
      reason = proto::kStopPause;
    }
  }

  int breakpoint_id = 0;
  if (reason == nullptr) {
    breakpoint_id = breakpoints_.match(event.file, event.line,
                                       event.thread_id);
    if (breakpoint_id != 0) reason = proto::kStopBreakpoint;
  }
  if (reason == nullptr) return;
  park_thread(th, event, reason, breakpoint_id);
}

void DebugServer::park_thread(vm::InterpThread& th,
                              const vm::TraceEvent& event,
                              const std::string& reason, int breakpoint_id) {
  auto td = std::static_pointer_cast<ThreadDebug>(th.debugger_slot);
  {
    std::scoped_lock lock(td->mutex);
    td->parked = true;
    td->resume = false;
  }
  metrics::add(metrics::Counter::kStops);
  metrics::gauge_add(metrics::Gauge::kParkedThreads, 1);
  metrics::ScopedTimer park_timer(metrics::Histogram::kStopParkNanos);
  trace::Span span("stop:" + reason, "debugger");
  // Low-intrusive suspension: this thread releases the GIL and waits;
  // every other UE keeps running at full speed (§1 footnote 1). The
  // stopped event is sent only after the BlockScope has published the
  // kDebugParked state, so a client that reacts to the event with a
  // `threads` command sees a consistent picture.
  {
    vm::Vm::BlockScope scope(vm_, th, vm::ThreadState::kDebugParked,
                             "debugger (" + reason + ")");
    Value ev = proto::make_event(proto::Event::kStopped);
    ev.set("pid", static_cast<int>(::getpid()));
    ev.set("tid", event.thread_id);
    ev.set("file", std::string(event.file));
    ev.set("line", event.line);
    ev.set("function", std::string(event.function));
    ev.set("reason", reason);
    if (breakpoint_id != 0) ev.set("breakpoint", breakpoint_id);
    send_event(std::move(ev));
    (void)vm_.wait_interruptible(th, td->mutex, td->cv,
                                 [&] { return td->resume; });
  }
  park_timer.stop();
  metrics::gauge_add(metrics::Gauge::kParkedThreads, -1);
  {
    std::scoped_lock lock(td->mutex);
    td->parked = false;
    td->resume = false;
    // Anchor step-over / step-out to where the user resumed from.
    td->step_base_depth = event.frame_depth;
    td->refresh_attention();
  }
}

// ----------------------------------------------------------- connections

void DebugServer::handle_new_connection() {
  auto accepted = listener_->accept();
  if (!accepted.is_ok()) {
    DLOG_WARN("dbg") << "accept failed: " << accepted.error().to_string();
    return;
  }
  ipc::TcpStream stream = std::move(accepted).value();
  auto frame = ipc::recv_frame_timeout(stream, 2000);
  if (!frame.is_ok()) {
    DLOG_WARN("dbg") << "bad hello: " << frame.error().to_string();
    return;
  }
  (void)stream.set_nodelay(true);
  auto hello = proto::Hello::from_wire(frame.value());
  if (!hello.is_ok()) {
    Value refusal = proto::make_error(
        0, "bad hello: " + hello.error().message(), proto::kErrBadRequest);
    (void)ipc::send_frame(stream, refusal);
    return;
  }
  const proto::Hello& hi = hello.value();
  if (hi.proto_major != proto::kProtoMajor) {
    // A different major means the wire layouts disagree; answering in
    // OUR dialect and carrying on would wedge both sides. Reject with
    // a typed error (the one shape every version understands) and
    // close. Minor skew is fine: additive commands old peers ignore.
    Value refusal = proto::make_error(
        0,
        "protocol version mismatch: server speaks " +
            std::to_string(proto::kProtoMajor) + "." +
            std::to_string(proto::kProtoMinor) + ", client sent " +
            std::to_string(hi.proto_major) + "." +
            std::to_string(hi.proto_minor),
        proto::kErrVersionMismatch);
    (void)ipc::send_frame(stream, refusal);
    return;
  }
  if (hi.expect_pid != 0 && hi.expect_pid != static_cast<int>(::getpid())) {
    // The client followed a record for another process whose port this
    // listener now owns: refuse before claiming the control slot or
    // flushing the backlog, both of which belong to our real client.
    Value refusal = proto::make_error(
        0,
        "hello expects pid " + std::to_string(hi.expect_pid) +
            ", this server is pid " + std::to_string(::getpid()),
        proto::kErrBadRequest);
    (void)ipc::send_frame(stream, refusal);
    return;
  }
  if (hi.channel == proto::kChannelControl) {
    std::scoped_lock lock(state_mutex_);
    if (control_.valid()) {
      // 1 server : 1 client (§4.1) — two clients driving one debuggee
      // would make it inconsistent.
      Value refusal = proto::make_error(0, "a client is already attached",
                                        proto::kErrBadRequest);
      (void)ipc::send_frame(stream, refusal);
      return;
    }
    control_ = std::move(stream);
    int fd = control_.raw_fd();
    reactor_->add_fd(fd, [this] { handle_control_frame(); });
    return;
  }
  if (hi.channel == proto::kChannelEvents) {
    std::scoped_lock lock(events_mutex_);
    crash::disarm_notify();  // any previous socket is gone
    events_ = std::move(stream);
    // Flush everything that happened before the client attached.
    while (!event_backlog_.empty() && events_.valid()) {
      Status status = ipc::send_frame(events_, event_backlog_.front());
      if (!status.is_ok()) {
        events_.close();
        break;
      }
      event_backlog_.pop_front();
      events_sent_.fetch_add(1, std::memory_order_relaxed);
      metrics::add(metrics::Counter::kEventsSent);
    }
    if (postmortem_enabled_) arm_crash_notify_locked();
    return;
  }
  DLOG_WARN("dbg") << "unknown channel '" << hi.channel << "'";
}

void DebugServer::handle_control_frame() {
  // Lock discipline: state_mutex_ is held only around socket access,
  // never across execute_command — several commands acquire the GIL
  // (vm_.list_threads etc.), and a debuggee thread holding the GIL may
  // be taking state_mutex_ in thread_state() at the same moment.
  Result<Value> request = [&]() -> Result<Value> {
    std::scoped_lock lock(state_mutex_);
    if (!control_.valid()) {
      return Error(ErrorCode::kClosed, "no control channel");
    }
    // Bounded receive: the reactor says bytes are ready, but a client
    // that died after a partial frame must yield kTimeout here, not
    // wedge the listener thread (which holds state_mutex_).
    return ipc::recv_frame_timeout(control_,
                                   options_.control_recv_timeout_millis);
  }();
  if (!request.is_ok()) {
    std::scoped_lock lock(state_mutex_);
    if (control_.valid()) {
      // Client went away (or spoke garbage): drop the session; a new
      // client may attach later.
      reactor_->remove_fd(control_.raw_fd());
      control_.close();
    }
    return;
  }
  std::function<void()> after_send;
  Value response = execute_command(request.value(), &after_send);
  {
    std::scoped_lock lock(state_mutex_);
    if (!control_.valid()) return;
    Status status = ipc::send_frame(control_, response);
    if (!status.is_ok()) {
      reactor_->remove_fd(control_.raw_fd());
      control_.close();
    }
  }
  // Wake resumed threads only now: a resumed debuggee may exit
  // immediately, and the client must have its acknowledgement first.
  if (after_send) after_send();
}

// ----------------------------------------------------------------- commands

ipc::wire::Value DebugServer::execute_command(
    const Value& request, std::function<void()>* after_send) {
  const std::string cmd = request.get_string("cmd");
  const std::int64_t seq = request.get_int("seq");
  metrics::add(metrics::Counter::kCommandsServed);
  metrics::ScopedTimer timer(metrics::Histogram::kCommandNanos);
  trace::Span span("cmd:" + cmd, "debugger");
  auto it = commands_.find(cmd);
  if (it == commands_.end()) {
    // Typed kind: a 1.x client probing for a newer minor's command
    // (e.g. `stats` against a 1.0 server) distinguishes "not
    // supported" from a real failure without parsing prose.
    return proto::make_error(seq, "unknown command '" + cmd + "'",
                             proto::kErrUnknownCommand);
  }
  // Stamp the in-flight window for the watchdog's command deadline: a
  // handler wedged inside the VM is exactly the stall the session
  // cannot otherwise see.
  command_started_nanos_.store(mono_nanos(), std::memory_order_relaxed);
  Value response = it->second(request, seq, after_send);
  command_started_nanos_.store(0, std::memory_order_relaxed);
  return response;
}

template <typename Req, typename Fn>
void DebugServer::register_command(Fn handler) {
  commands_[Req::kName] = [handler](const Value& request, std::int64_t seq,
                                    std::function<void()>* after_send) {
    Result<Req> req = Req::from_wire(request);
    if (!req.is_ok()) {
      return proto::make_error(seq, req.error().message(),
                               proto::kErrBadRequest);
    }
    return handler(std::move(req).value(), seq, after_send);
  };
}

void DebugServer::register_commands() {
  using Wake = std::function<void()>*;

  register_command<proto::PingRequest>(
      [this](const proto::PingRequest&, std::int64_t seq, Wake) {
        proto::PingResponse resp;
        resp.pid = static_cast<int>(::getpid());
        resp.heartbeat_ms = options_.heartbeat_interval_millis;
        resp.proto_major = proto::kProtoMajor;
        resp.proto_minor = proto::kProtoMinor;
        resp.capabilities = proto::local_capabilities();
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::InfoRequest>(
      [this](const proto::InfoRequest&, std::int64_t seq, Wake) {
        proto::InfoResponse resp;
        resp.pid = static_cast<int>(::getpid());
        resp.main_tid = vm_.main_thread_id();
        resp.fork_depth = vm_.fork_depth();
        resp.disturb = disturb();
        resp.heartbeat_ms = options_.heartbeat_interval_millis;
        resp.proto_major = proto::kProtoMajor;
        resp.proto_minor = proto::kProtoMinor;
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::ThreadsRequest>(
      [this](const proto::ThreadsRequest&, std::int64_t seq, Wake) {
        proto::ThreadsResponse resp;
        for (const vm::ThreadInfo& info : vm_.list_threads()) {
          resp.threads.push_back(proto::ThreadEntry{
              info.id, info.name, vm::thread_state_name(info.state),
              info.file, info.line, info.block_note, info.frame_depth});
        }
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::FramesRequest>(
      [this](const proto::FramesRequest& req, std::int64_t seq, Wake) {
        proto::FramesResponse resp;
        for (const vm::FrameInfo& frame : vm_.thread_frames(req.tid)) {
          resp.frames.push_back(
              proto::FrameEntry{frame.function, frame.file, frame.line});
        }
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::LocalsRequest>(
      [this](const proto::LocalsRequest& req, std::int64_t seq, Wake) {
        proto::LocalsResponse resp;
        for (const auto& [name, repr] : vm_.frame_locals(req.tid, req.depth)) {
          resp.locals.push_back(proto::NamedValue{name, repr});
        }
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::GlobalsRequest>(
      [this](const proto::GlobalsRequest&, std::int64_t seq, Wake) {
        proto::GlobalsResponse resp;
        for (const auto& [name, repr] : vm_.globals_snapshot()) {
          resp.globals.push_back(proto::NamedValue{name, repr});
        }
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::SourceRequest>(
      [this](const proto::SourceRequest& req, std::int64_t seq, Wake) {
        {
          std::scoped_lock lock(sources_mutex_);
          auto it = sources_.find(req.file);
          if (it != sources_.end()) {
            return ok_with(seq, proto::SourceResponse{it->second}.to_wire());
          }
        }
        auto text = read_file(req.file);
        if (!text.is_ok()) {
          return proto::make_error(
              seq, "cannot read source: " + text.error().to_string());
        }
        return ok_with(
            seq, proto::SourceResponse{std::move(text).value()}.to_wire());
      });

  register_command<proto::EvalRequest>(
      [this](const proto::EvalRequest& req, std::int64_t seq, Wake) {
        // Fig. 2's command shell `p expr`: evaluate in a suspended frame.
        auto value = vm_.eval_in_frame(req.tid, req.depth, req.expr);
        if (!value.is_ok()) {
          return proto::make_error(seq, value.error().message());
        }
        return ok_with(
            seq, proto::EvalResponse{std::move(value).value()}.to_wire());
      });

  register_command<proto::BreakSetRequest>(
      [this](const proto::BreakSetRequest& req, std::int64_t seq, Wake) {
        int id = breakpoints_.add(req.file, req.line, req.tid,
                                  static_cast<std::uint64_t>(req.ignore));
        return ok_with(seq, proto::BreakSetResponse{id}.to_wire());
      });

  register_command<proto::BreakClearRequest>(
      [this](const proto::BreakClearRequest& req, std::int64_t seq, Wake) {
        if (req.id == 0) {
          breakpoints_.clear();
          return proto::make_ok(seq);
        }
        if (!breakpoints_.remove(req.id)) {
          return proto::make_error(seq, "no such breakpoint");
        }
        return proto::make_ok(seq);
      });

  register_command<proto::BreakListRequest>(
      [this](const proto::BreakListRequest&, std::int64_t seq, Wake) {
        proto::BreakListResponse resp;
        for (const Breakpoint& bp : breakpoints_.snapshot()) {
          resp.breakpoints.push_back(proto::BreakpointEntry{
              bp.id, bp.file, bp.line, bp.enabled,
              static_cast<std::int64_t>(bp.hit_count)});
        }
        return ok_with(seq, resp.to_wire());
      });

  auto resume = [this](std::int64_t tid, ThreadDebug::Mode mode,
                       std::int64_t seq, Wake after_send) {
    Status status = resume_thread(tid, mode, after_send);
    if (!status.is_ok()) return proto::make_error(seq, status.to_string());
    return proto::make_ok(seq);
  };
  register_command<proto::ContinueRequest>(
      [resume](const proto::ContinueRequest& req, std::int64_t seq,
               Wake after_send) {
        return resume(req.tid, ThreadDebug::Mode::kRun, seq, after_send);
      });
  register_command<proto::StepRequest>(
      [resume](const proto::StepRequest& req, std::int64_t seq,
               Wake after_send) {
        return resume(req.tid, ThreadDebug::Mode::kStepInto, seq, after_send);
      });
  register_command<proto::NextRequest>(
      [resume](const proto::NextRequest& req, std::int64_t seq,
               Wake after_send) {
        return resume(req.tid, ThreadDebug::Mode::kStepOver, seq, after_send);
      });
  register_command<proto::FinishRequest>(
      [resume](const proto::FinishRequest& req, std::int64_t seq,
               Wake after_send) {
        return resume(req.tid, ThreadDebug::Mode::kStepOut, seq, after_send);
      });

  register_command<proto::ContinueAllRequest>(
      [this](const proto::ContinueAllRequest&, std::int64_t seq,
             Wake after_send) {
        auto states = debug_states_snapshot();
        for (auto& td : states) {
          std::scoped_lock lock(td->mutex);
          td->mode = ThreadDebug::Mode::kRun;
          td->pause_requested = false;
        }
        *after_send = [states] {
          for (auto& td : states) {
            std::scoped_lock lock(td->mutex);
            if (td->parked) {
              td->resume = true;
              td->cv.notify_all();
            }
          }
        };
        return proto::make_ok(seq);
      });

  register_command<proto::PauseRequest>(
      [this](const proto::PauseRequest& req, std::int64_t seq, Wake) {
        auto td = thread_state(req.tid);
        std::scoped_lock lock(td->mutex);
        td->pause_requested = true;
        td->refresh_attention();
        return proto::make_ok(seq);
      });

  register_command<proto::PauseAllRequest>(
      [this](const proto::PauseAllRequest&, std::int64_t seq, Wake) {
        // Pause every live thread at its next traced line ("Dionea can
        // also operate over the whole program", §4).
        for (const vm::ThreadInfo& info : vm_.list_threads()) {
          auto td = thread_state(info.id);
          std::scoped_lock lock(td->mutex);
          td->pause_requested = true;
          td->refresh_attention();
        }
        return proto::make_ok(seq);
      });

  register_command<proto::DisturbRequest>(
      [this](const proto::DisturbRequest& req, std::int64_t seq, Wake) {
        set_disturb(req.on);
        return proto::make_ok(seq);
      });

  register_command<proto::DetachRequest>(
      [this](const proto::DetachRequest&, std::int64_t seq, Wake after_send) {
        tracing_wanted_.store(false, std::memory_order_relaxed);
        vm_.set_trace_enabled(false);
        auto states = debug_states_snapshot();
        *after_send = [states] {
          for (auto& td : states) {
            std::scoped_lock lock(td->mutex);
            td->mode = ThreadDebug::Mode::kRun;
            td->pause_requested = false;
            td->refresh_attention();
            td->resume = true;
            td->cv.notify_all();
          }
        };
        return proto::make_ok(seq);
      });

  register_command<proto::StatsRequest>(
      [](const proto::StatsRequest&, std::int64_t seq, Wake) {
        proto::StatsResponse resp = proto::StatsResponse::from_snapshot(
            metrics::Registry::instance().snapshot(),
            static_cast<int>(::getpid()));
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::ReplayInfoRequest>(
      [](const proto::ReplayInfoRequest&, std::int64_t seq, Wake) {
        replay::Info info = replay::Engine::instance().info();
        proto::ReplayInfoResponse resp;
        resp.pid = static_cast<int>(::getpid());
        resp.mode = replay::mode_name(info.mode);
        resp.step = static_cast<std::int64_t>(info.step);
        resp.total_steps = static_cast<std::int64_t>(info.total_steps);
        resp.log_path = info.log_path;
        resp.divergence_step = info.divergence_step;
        resp.divergence_reason = info.divergence_reason;
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::AnalysisReportRequest>(
      [this](const proto::AnalysisReportRequest& req, std::int64_t seq,
             Wake) {
        analysis::Engine& engine = analysis::Engine::instance();
        proto::AnalysisReportResponse resp;
        resp.pid = static_cast<int>(::getpid());
        resp.enabled = analysis::engine_enabled();
        resp.accesses = static_cast<std::int64_t>(engine.accesses());
        resp.sync_events = static_cast<std::int64_t>(engine.sync_events());
        auto to_wire = [](const analysis::Finding& finding) {
          proto::AnalysisFindingWire wire;
          wire.kind = analysis::finding_kind_name(finding.kind);
          wire.message = finding.message;
          wire.file = finding.file;
          wire.line = finding.line;
          wire.file2 = finding.file2;
          wire.line2 = finding.line2;
          wire.step = static_cast<std::int64_t>(finding.step);
          wire.object = finding.object;
          return wire;
        };
        for (const analysis::Finding& finding : engine.report().findings) {
          resp.findings.push_back(to_wire(finding));
        }
        analysis::Report lint;
        if (req.run_lint) {
          // Re-lint the running program on demand (console `lint`).
          // Pure bytecode walk over immutable protos: no GIL needed.
          if (auto program = vm_.current_program()) {
            lint = analysis::lint_program(*program);
            analysis::Engine::instance().set_lint_report(lint);
          }
        } else {
          lint = engine.lint_report();  // whatever DIONEA_LINT produced
        }
        for (const analysis::Finding& finding : lint.findings) {
          resp.lint_findings.push_back(to_wire(finding));
        }
        analysis::Report forklint;
        if (req.run_forklint) {
          // 1.7 (kCapForksafety): run the fork-safety dataflow over
          // the running program plus the native atfork coverage audit
          // on demand (console `forklint`). Like lint, a pure walk
          // over immutable protos; the audit reads atomics only.
          if (auto program = vm_.current_program()) {
            forklint = analysis::forklint_program(*program);
          }
          analysis::Report audit = analysis::forkaudit::audit(false);
          for (analysis::Finding& finding : audit.findings) {
            forklint.findings.push_back(std::move(finding));
          }
          forklint.dedupe();
          analysis::Engine::instance().set_forklint_report(forklint);
        } else {
          forklint = engine.forklint_report();  // DIONEA_FORKLINT's
        }
        for (const analysis::Finding& finding : forklint.findings) {
          resp.forklint_findings.push_back(to_wire(finding));
        }
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::PostmortemRequest>(
      [this](const proto::PostmortemRequest& req, std::int64_t seq, Wake) {
        proto::PostmortemResponse resp;
        resp.pid = static_cast<int>(::getpid());
        resp.installed = crash::installed();
        if (req.capture) {
          // Console `postmortem now`: snapshot the live process as if
          // it had crashed (threads, frames, held locks).
          const char* path = crash::capture_now("client-request");
          if (path == nullptr) {
            return proto::make_error(seq, "post-mortem capture not installed");
          }
          resp.report_path = path;
        } else {
          resp.report_path = crash::report_path_string();
        }
        if (auto text = read_file(resp.report_path); text.is_ok()) {
          std::string report = std::move(text).value();
          // Wire cap: ship at most the last 64 KiB of the report.
          constexpr size_t kMaxReportWireBytes = 64u << 10;
          if (report.size() > kMaxReportWireBytes) {
            report.erase(0, report.size() - kMaxReportWireBytes);
          }
          resp.has_report = true;
          resp.report = std::move(report);
        }
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::TimetravelInfoRequest>(
      [](const proto::TimetravelInfoRequest&, std::int64_t seq, Wake) {
        replay::tt::Snapshot snap =
            replay::tt::CheckpointManager::instance().snapshot();
        replay::Info info = replay::Engine::instance().info();
        proto::TimetravelInfoResponse resp;
        resp.active = snap.active;
        resp.role = replay::tt::role_name(snap.role);
        resp.every = static_cast<std::int64_t>(snap.every);
        resp.max_live = snap.max_live;
        resp.next_at = static_cast<std::int64_t>(snap.next_at);
        resp.taken = static_cast<std::int64_t>(snap.taken);
        resp.evicted = static_cast<std::int64_t>(snap.evicted);
        resp.dead = static_cast<std::int64_t>(snap.dead);
        resp.step = static_cast<std::int64_t>(info.step);
        resp.total_steps = static_cast<std::int64_t>(info.total_steps);
        resp.stop_at = static_cast<std::int64_t>(
            replay::Engine::instance().stop_at_step());
        for (const replay::tt::CheckpointInfo& ckpt : snap.ring) {
          proto::TimetravelCheckpoint wire;
          wire.step = static_cast<std::int64_t>(ckpt.step);
          wire.pid = ckpt.pid;
          wire.alive = ckpt.alive;
          resp.checkpoints.push_back(wire);
        }
        return ok_with(seq, resp.to_wire());
      });

  register_command<proto::TimetravelResumeRequest>(
      [](const proto::TimetravelResumeRequest& req, std::int64_t seq, Wake) {
        proto::TimetravelResumeResponse resp;
        if (req.target_step == 0) {
          // target 0 = release this process's run-to-step gate: a
          // paused resumer thaws and replays on to the end.
          replay::Engine::instance().set_stop_at_step(0);
          resp.pid = static_cast<int>(::getpid());
          return ok_with(seq, resp.to_wire());
        }
        auto ticket = replay::tt::CheckpointManager::instance().resume_to(
            static_cast<std::uint64_t>(req.target_step));
        if (!ticket.is_ok()) {
          return proto::make_error(seq, ticket.error().to_string());
        }
        resp.pid = ticket.value().pid;
        resp.checkpoint_step =
            static_cast<std::int64_t>(ticket.value().checkpoint_step);
        resp.target_step =
            static_cast<std::int64_t>(ticket.value().target_step);
        return ok_with(seq, resp.to_wire());
      });
}

Status DebugServer::resume_thread(std::int64_t tid, ThreadDebug::Mode mode,
                                  std::function<void()>* wake) {
  std::shared_ptr<ThreadDebug> td;
  {
    std::scoped_lock lock(state_mutex_);
    auto it = thread_debug_.find(tid);
    if (it == thread_debug_.end()) {
      return Status(ErrorCode::kNotFound,
                    "no such thread: " + std::to_string(tid));
    }
    td = it->second;
  }
  {
    std::scoped_lock lock(td->mutex);
    if (!td->parked) {
      return Status(ErrorCode::kInvalidArgument,
                    "thread " + std::to_string(tid) + " is not suspended");
    }
    td->mode = mode;
    td->refresh_attention();
  }
  auto do_wake = [td] {
    std::scoped_lock lock(td->mutex);
    td->resume = true;
    td->cv.notify_all();
  };
  if (wake != nullptr) {
    *wake = std::move(do_wake);
  } else {
    do_wake();
  }
  return Status::ok();
}

// ---------------------------------------------------------------- deadlock

bool DebugServer::deadlock_hook(const std::vector<vm::DeadlockInfo>& infos) {
  if (!client_connected()) {
    // Stock-Ruby behaviour (Listing 6): the VM applies its fatal
    // policy. Leave a corpse first — with no client attached the
    // report is the only record of who blocked on what.
    if (postmortem_enabled_) crash::capture_now("fatal-deadlock");
    return false;
  }
  Value event = proto::make_event(proto::Event::kDeadlock);
  event.set("pid", static_cast<int>(::getpid()));
  Array list;
  for (const vm::DeadlockInfo& info : infos) {
    Value entry;
    entry.set("tid", info.thread_id);
    entry.set("name", info.thread_name);
    entry.set("file", info.file);
    entry.set("line", info.line);  // Fig. 7: the exact blocked line
    entry.set("note", info.note);
    list.push_back(std::move(entry));
  }
  event.set("threads", std::move(list));
  send_event(std::move(event));
  // Owning the deadlock keeps the debuggee alive (threads stay
  // blocked) so the user can inspect it — the §6.2 scenario.
  return true;
}

}  // namespace dionea::dbg
