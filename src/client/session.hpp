// One debug session: client side of the control + events channels to
// a single debuggee process (§4.1: "a debug session is a sequence of
// interactions between debugger and debuggee"; 1 server : 1 client).
//
// The session is poll-driven: events are read from the events channel
// when the caller asks (poll_event / wait_event*), never by a hidden
// background thread — embedders (tests, the console, the GUI-less
// examples) stay in control of interleaving.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "debugger/protocol.hpp"
#include "ipc/frame.hpp"
#include "ipc/socket.hpp"
#include "support/result.hpp"

namespace dionea::client {

struct DebugEvent {
  // The enum is authoritative (kUnknown for names from a newer peer);
  // `name` keeps the wire spelling for display/logging.
  dbg::proto::Event kind = dbg::proto::Event::kUnknown;
  std::string name;
  ipc::wire::Value payload;
};

// The wire structs double as the client-facing types.
using RemoteThread = dbg::proto::ThreadEntry;
using RemoteFrame = dbg::proto::FrameEntry;

struct StopInfo {
  std::int64_t tid = 0;
  std::string file;
  int line = 0;
  std::string function;
  std::string reason;
  int breakpoint_id = 0;
};

// A breakpoint as the user asked for it. Sessions record every
// breakpoint they set so a reconnect (after the debuggee restarted or
// the transport died) can re-apply them — breakpoints are the user's,
// not the connection's.
struct BreakpointSpec {
  std::string file;
  int line = 0;
  std::int64_t tid = 0;
  std::int64_t ignore = 0;
  int id = 0;  // server-assigned; changes across reconnect
};

class Session {
 public:
  // Connect both channels to a server's listener port. Retries until
  // `timeout_millis` (the server may still be starting). The first
  // ping doubles as the handshake; the server advertises its heartbeat
  // interval there and the session derives its dead-peer timeout
  // (5 × interval) from it.
  // `client_token` (1.5) is sent in both hellos so a hub can pair the
  // control connection with its events sibling; "" (the default, and
  // what pre-1.5 callers pass implicitly) makes a hub fall back to
  // default-session binding. Direct servers ignore it.
  // `expect_pid` (nonzero) is the pid the caller means to reach; a
  // server with another pid refuses both hellos (older servers ignore
  // it, so callers still compare pid() with what they expected).
  static Result<std::unique_ptr<Session>> attach(
      std::uint16_t port, int timeout_millis,
      const std::string& client_token = "", int expect_pid = 0);

  int pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }
  const std::string& client_token() const noexcept { return client_token_; }

  // ---- session routing (1.5, hub) ----
  // When nonzero, every request is stamped with the session_id
  // envelope field so a hub routes it to that session. Requests whose
  // args already carry session_id (the hub-* commands) are left alone.
  // No effect against a direct server — it ignores the field.
  void set_route(std::int64_t session_id) noexcept {
    route_session_id_ = session_id;
  }
  std::int64_t route() const noexcept { return route_session_id_; }

  // ---- negotiated protocol surface ----
  // What the server advertised in its ping response. A pre-1.1 server
  // advertises nothing: version reads 1.0, capability checks all fail,
  // and the client degrades instead of erroring (stats() reports
  // kUnavailable, heartbeat silence detection stays off).
  int server_proto_major() const noexcept { return server_proto_major_; }
  int server_proto_minor() const noexcept { return server_proto_minor_; }
  const std::vector<std::string>& server_capabilities() const noexcept {
    return server_capabilities_;
  }
  bool supports(std::string_view capability) const noexcept;

  // ---- liveness ----
  // False once the transport failed (closed/reset/stalled peer or
  // heartbeat silence). A disconnected session fails every request
  // with kClosed immediately instead of blocking.
  bool connected() const noexcept { return connected_; }
  // Did the debuggee announce a clean exit (`terminated` event) before
  // the transport went down? Distinguishes process-exited from
  // process-crashed.
  bool terminated_seen() const noexcept { return terminated_seen_; }
  // Drop both channels without the detach handshake — how a crashing
  // client looks to the server. Used by tests and by reconnect.
  void hard_close();

  void set_request_timeout_millis(int millis) noexcept {
    request_timeout_millis_ = millis;
  }
  // 0 disables heartbeat-silence detection (for servers that do not
  // beacon). attach() sets this automatically from the handshake.
  void set_heartbeat_timeout_millis(int millis) noexcept {
    heartbeat_timeout_millis_ = millis;
  }
  int heartbeat_timeout_millis() const noexcept {
    return heartbeat_timeout_millis_;
  }

  // Breakpoints this session has set (for re-apply on reconnect).
  const std::vector<BreakpointSpec>& breakpoints_set() const noexcept {
    return breakpoints_set_;
  }

  // ---- raw request/response ----
  // Escape hatch for commands this build has no struct for (tests
  // probing unknown commands, forward-compat experiments). Everything
  // in-tree goes through the typed methods below.
  Result<ipc::wire::Value> request(const std::string& cmd,
                                   ipc::wire::Value args = {});

  // ---- typed commands ----
  Result<dbg::proto::PingResponse> ping();
  Result<dbg::proto::InfoResponse> info();
  // Requires the kCapStats capability; kUnavailable when the server
  // does not advertise it (graceful downgrade, no wire traffic).
  Result<dbg::proto::StatsResponse> stats();
  // Same contract, gated on kCapReplay.
  Result<dbg::proto::ReplayInfoResponse> replay_info();
  // Same contract, gated on kCapAnalysis. run_lint additionally asks
  // the server to run the static lint pass over the loaded program.
  // run_forklint (1.7) asks for the ForkLint fork-safety pass + the
  // native atfork audit; against a pre-1.7 server the flag is dropped
  // silently and forklint_findings comes back empty (kCapForksafety).
  Result<dbg::proto::AnalysisReportResponse> analysis_report(
      bool run_lint = false, bool run_forklint = false);
  // Same contract, gated on kCapPostmortem (1.4). capture=true asks
  // the server to snapshot the live process as if it had crashed;
  // capture=false fetches whatever report already exists (the corpse
  // of a crashed predecessor).
  Result<dbg::proto::PostmortemResponse> postmortem(bool capture = false);
  // Same contract, gated on kCapTimetravel (1.6): the checkpoint ring
  // and a reverse-execution resume. A 1.5 server never sees these on
  // the wire — the gate downgrades silently to kUnavailable.
  Result<dbg::proto::TimetravelInfoResponse> timetravel_info();
  Result<dbg::proto::TimetravelResumeResponse> timetravel_resume(
      std::int64_t target_step);
  Result<int> set_breakpoint(const std::string& file, int line,
                             std::int64_t tid = 0, std::int64_t ignore = 0);
  Result<std::vector<dbg::proto::BreakpointEntry>> breakpoints();
  Status clear_breakpoint(int id);       // id 0 = clear all
  Status cont(std::int64_t tid);
  Status cont_all();
  Status step(std::int64_t tid);
  Status next(std::int64_t tid);
  Status finish(std::int64_t tid);
  Status pause(std::int64_t tid);
  Status pause_all();
  Status set_disturb(bool on);
  Status detach();
  Result<std::vector<RemoteThread>> threads();
  Result<std::vector<RemoteFrame>> frames(std::int64_t tid);
  Result<std::vector<std::pair<std::string, std::string>>> locals(
      std::int64_t tid, int depth = 0);
  Result<std::vector<std::pair<std::string, std::string>>> globals();
  Result<std::string> source(const std::string& file);
  // Evaluate an expression in frame `depth` of a suspended/blocked
  // thread; returns repr() of the result.
  Result<std::string> eval(std::int64_t tid, const std::string& expression,
                           int depth = 0);

  // ---- events ----
  // Next event within the timeout; nullopt when none arrived.
  Result<std::optional<DebugEvent>> poll_event(int timeout_millis);
  // Block until an event of the given kind arrives; other events are
  // queued for later consumption, not lost.
  Result<DebugEvent> wait_event(dbg::proto::Event kind, int timeout_millis);
  Result<DebugEvent> wait_event(const std::string& name, int timeout_millis);
  // Convenience: wait for "stopped" and decode it.
  Result<StopInfo> wait_stopped(int timeout_millis);
  // Events already received but not yet consumed by wait_event.
  size_t queued_events() const noexcept { return replay_.size(); }

 private:
  Session() = default;

  // Send a typed request; returns the full response envelope for the
  // matching response struct's from_wire. A request that declares a
  // kCapability fails with kUnavailable, without wire traffic, when
  // the server does not advertise it.
  template <typename Req>
  Result<ipc::wire::Value> send(const Req& req) {
    if constexpr (requires { Req::kCapability; }) {
      DIONEA_RETURN_IF_ERROR(require(Req::kCapability));
    }
    return request(Req::kName, req.to_wire());
  }
  Status require(const char* capability) const;

  // Receive one user-visible event from the events channel. Heartbeat
  // frames are consumed here (they only refresh `last_activity_`);
  // kTimeout from the wire is promoted to kClosed when the peer has
  // been heartbeat-silent longer than `heartbeat_timeout_millis_`.
  Result<std::optional<DebugEvent>> recv_event(int timeout_millis);
  // Mark the transport dead and wrap `err` with session context.
  Error transport_lost(const Error& err);

  ipc::TcpStream control_;
  ipc::TcpStream events_;
  // Events are polled with short timeouts; the reader keeps a frame
  // that spans polls buffered instead of losing stream sync.
  ipc::FrameReader event_reader_;
  std::uint16_t port_ = 0;
  int pid_ = 0;
  std::string client_token_;
  std::int64_t route_session_id_ = 0;
  std::int64_t next_seq_ = 1;
  std::deque<DebugEvent> replay_;  // events skipped by wait_event(name)

  bool connected_ = true;
  bool terminated_seen_ = false;
  int server_proto_major_ = 1;
  int server_proto_minor_ = 0;
  std::vector<std::string> server_capabilities_;
  int request_timeout_millis_ = 10'000;
  int heartbeat_timeout_millis_ = 0;  // 0 = detection off
  double last_activity_ = 0;          // mono_seconds of last events-channel
                                      // traffic (incl. heartbeats)
  std::vector<BreakpointSpec> breakpoints_set_;
};

}  // namespace dionea::client
