// The multi-process client (Fig. 1): one client holding a session per
// debuggee — "1 client : N servers; 1 server : 1 client" (§4.1) — plus
// the debug-view multiplexing of §4.2 (exactly one active view
// (process, thread) at a time). Sessions are addressed by handle, and
// the client runs in one of two modes:
//
//  - direct: one Session per debuggee, handles are pids (stable across
//    reconnects). discover(port_file) tails the port file that fork
//    handler C appends to and adopts every new record — the client half
//    of §5.3 problem 3. connect(port) to a plain server (no `hub`
//    capability) holds that one session and has no port file.
//  - hub: connect(port) to a peer that advertises `hub`. The client
//    holds ONE connection, handles are hub session ids (pids are
//    advisory), and every request rides the shared connection with a
//    session_id envelope stamp.
//
// Handles survive reconnect() in both modes: they name the session,
// not the socket.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "client/session.hpp"
#include "debugger/protocol.hpp"
#include "ipc/port_file.hpp"
#include "support/result.hpp"

namespace dionea::client {

// Opaque, stable address of one debuggee session. In direct mode the
// id happens to equal the pid; against a hub it is the hub's session
// id. Code should not rely on either beyond display.
struct SessionHandle {
  std::int64_t id = 0;
  bool valid() const noexcept { return id != 0; }
  bool operator==(const SessionHandle&) const = default;
  bool operator<(const SessionHandle& other) const noexcept {
    return id < other.id;
  }
};

// Capped exponential backoff with jitter for reconnect(): the first
// attempt is immediate; attempt n sleeps
//   delay_n * uniform(1 - jitter, 1 + jitter),
// delay_{n+1} = min(delay_n * multiplier, max_delay_millis).
// `seed` (xor'd with the handle id) makes the jitter deterministic in
// tests.
struct ReconnectPolicy {
  int max_attempts = 8;
  int initial_delay_millis = 20;
  int max_delay_millis = 1000;
  double multiplier = 2.0;
  double jitter = 0.25;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

class Client {
 public:
  // Direct mode over the port file: one session per debuggee.
  static std::unique_ptr<Client> discover(std::string port_file_path);

  // Single endpoint: hub mode when the peer advertises kCapHub, else a
  // direct client holding the peer's one session.
  static Result<std::unique_ptr<Client>> connect(std::uint16_t port,
                                                 int timeout_millis);

  bool hub_mode() const noexcept { return mode_ == Mode::kHub; }

  // Adopt sessions that appeared since the last call (new port-file
  // records / new hub registrations). Returns how many are new. A
  // record whose attach fails stays pending and is retried while its
  // process lives; a record whose port answers for another pid is
  // dropped.
  Result<int> refresh(int timeout_millis);

  // Known live sessions, in handle order.
  std::vector<SessionHandle> sessions() const;
  size_t session_count() const;
  SessionHandle handle_for_pid(int pid) const;
  int pid_of(SessionHandle handle) const;

  // Attach to the session debugging `pid`, waiting for it to appear
  // (a fork handler may still be publishing it). Claims the session.
  Result<SessionHandle> attach(int pid, int timeout_millis);
  // Attach to the next session nobody has claimed yet (fork-storm
  // adoption: each call hands out a different child).
  Result<SessionHandle> attach_any(int timeout_millis);
  void claim(SessionHandle handle);

  // The Session to speak through for `handle`. In hub mode this is the
  // shared hub connection with its route set to the handle — use it
  // and re-fetch rather than caching across handles. Null when the
  // handle is unknown.
  Session* session(SessionHandle handle);

  void drop(SessionHandle handle);

  // Re-establish transport for `handle` with capped exponential
  // backoff. The handle keeps working afterwards — in hub mode the ids
  // live in the hub; in direct mode the pid re-binds to its newest
  // port record (or to the connect() port when there is no port file).
  // Breakpoints the old session had set are re-applied (server ids
  // change; paused-thread state is NOT recovered).
  Result<Session*> reconnect(SessionHandle handle,
                             const ReconnectPolicy& policy = {});

  // Out-of-band child-exit observation (mp::ChildReaper), direct mode
  // only; the hub synthesizes these itself. `term_signal` != 0 means
  // the child was killed by that signal (a crash).
  void note_child_exit(int pid, int exit_code, int term_signal);
  // Post-mortem report path from the server's last-gasp
  // process-crashed frame; empty when no crash has been seen.
  std::string crash_report_path(SessionHandle handle) const;

  // ---- debug views (§4.2) ----
  struct View {
    SessionHandle session;
    std::int64_t tid = 0;
    bool valid() const noexcept { return session.valid(); }
  };
  // Clicking a thread in the GUI: that (process, thread) becomes the
  // active view; the previous one is hidden.
  Status activate(SessionHandle handle, std::int64_t tid);
  View active_view() const;
  // Source text + current frame stack of the active view — what the
  // GUI's Source code view would render.
  Result<std::string> active_source();
  Result<std::vector<RemoteFrame>> active_frames();

  // ---- events ----
  struct SessionEvent {
    SessionHandle session;
    DebugEvent event;
  };
  // Drain every event already buffered on each transport, waiting up
  // to `timeout_millis` for the first one (per direct session; once
  // for the hub connection). Events of one session keep their order. A
  // dead session yields one synthesized process-exited (after a clean
  // `terminated`) or process-crashed and is then muted until
  // reconnect() revives it.
  Result<std::vector<SessionEvent>> poll_events(int timeout_millis);

  // ---- hub-specific (kUnavailable in direct mode) ----
  Result<std::vector<dbg::proto::HubSessionEntry>> hub_sessions();
  // Subscribe the events channel to every session, present and future.
  // connect() does this automatically in hub mode.
  Status hub_attach_all();

 private:
  enum class Mode { kDirect, kHub };

  Client() = default;
  Status handshake(std::uint16_t port, int timeout_millis);
  Result<int> hub_refresh(int timeout_millis);
  // True when no session can appear after construction: connect() to a
  // plain server.
  bool fixed() const noexcept { return !hub_mode() && !port_file_; }
  // One reconnect attempt: a fresh transport for `handle`.
  Result<Session*> redial(SessionHandle handle);
  Session* adopt(std::unique_ptr<Session> session);
  // Read the events `link` has buffered into `out`, waiting up to
  // `timeout_millis` for the first. False once its transport is gone.
  Result<bool> drain(Session& link, SessionHandle owner, int timeout_millis,
                     std::vector<SessionEvent>& out);
  void report_gone(SessionHandle handle, bool clean_exit,
                   std::vector<SessionEvent>& out);

  Mode mode_ = Mode::kDirect;
  // connect(): the endpoint reconnect() re-dials, and the token that
  // lets a hub pair our control and events connections.
  std::uint16_t endpoint_port_ = 0;
  std::string token_;

  // Direct: pid -> session. The port file is set by discover() only.
  std::map<int, std::unique_ptr<Session>> sessions_;
  std::optional<ipc::PortFile> port_file_;
  std::uint64_t tail_offset_ = 0;  // port-file bytes already read
  // Records read but not attached yet: the attach failed while the
  // process was still alive, so refresh() tries again.
  std::vector<ipc::PortRecord> pending_;

  // Hub: the one connection, and the hub's session table.
  std::unique_ptr<Session> link_;
  std::map<std::int64_t, dbg::proto::HubSessionEntry> known_;

  std::deque<std::int64_t> unclaimed_;  // adopted, not yet handed out
  // Handles whose death was already reported; direct sessions stay in
  // `sessions_` (breakpoints_set survives for reconnect).
  std::set<std::int64_t> reported_dead_;
  std::map<std::int64_t, std::string> crash_reports_;
  // Synthesized events (note_child_exit) waiting for poll_events.
  std::deque<SessionEvent> pending_events_;
  View active_{};
};

}  // namespace dionea::client
