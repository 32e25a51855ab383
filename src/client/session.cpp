#include "client/session.hpp"

#include "support/strings.hpp"
#include "support/timing.hpp"

namespace dionea::client {

namespace proto = dbg::proto;
using ipc::wire::Value;

namespace {

proto::Hello local_hello(const char* channel, const std::string& token,
                         int expect_pid) {
  proto::Hello hello;
  hello.channel = channel;
  hello.pid = 0;  // the client's pid is of no interest to the server
  hello.proto_major = proto::kProtoMajor;
  hello.proto_minor = proto::kProtoMinor;
  hello.capabilities = proto::local_capabilities();
  hello.client_token = token;
  hello.expect_pid = expect_pid;
  return hello;
}

}  // namespace

Result<std::unique_ptr<Session>> Session::attach(
    std::uint16_t port, int timeout_millis, const std::string& client_token,
    int expect_pid) {
  auto session = std::unique_ptr<Session>(new Session());
  session->port_ = port;
  session->client_token_ = client_token;

  DIONEA_ASSIGN_OR_RETURN(session->control_,
                          ipc::TcpStream::connect_retry(port, timeout_millis));
  (void)session->control_.set_nodelay(true);
  DIONEA_RETURN_IF_ERROR(ipc::send_frame(
      session->control_,
      local_hello(proto::kChannelControl, client_token, expect_pid).to_wire()));

  DIONEA_ASSIGN_OR_RETURN(session->events_,
                          ipc::TcpStream::connect_retry(port, timeout_millis));
  (void)session->events_.set_nodelay(true);
  DIONEA_RETURN_IF_ERROR(ipc::send_frame(
      session->events_,
      local_hello(proto::kChannelEvents, client_token, expect_pid).to_wire()));

  // First ping doubles as the session handshake: pid discovery plus
  // the server's protocol version, capability list and beacon period
  // (5 missed beats = dead peer). A version-mismatch refusal surfaces
  // here as a typed error, not a hang.
  DIONEA_ASSIGN_OR_RETURN(proto::PingResponse pong, session->ping());
  session->pid_ = pong.pid;
  session->server_proto_major_ = pong.proto_major;
  session->server_proto_minor_ = pong.proto_minor;
  session->server_capabilities_ = pong.capabilities;
  // Negotiate down: arm silence detection only against a server that
  // says it will beacon. heartbeat_ms > 0 IS that promise — pre-1.1
  // servers beacon without knowing about capability lists, so the
  // kCapHeartbeat string is advisory, never a gate.
  if (pong.heartbeat_ms > 0) {
    session->heartbeat_timeout_millis_ = 5 * pong.heartbeat_ms;
  }
  session->last_activity_ = mono_seconds();
  return session;
}

bool Session::supports(std::string_view capability) const noexcept {
  for (const std::string& cap : server_capabilities_) {
    if (cap == capability) return true;
  }
  return false;
}

Status Session::require(const char* capability) const {
  if (supports(capability)) return Status::ok();
  return Status(ErrorCode::kUnavailable,
                strings::format("server (proto %d.%d) does not advertise '%s'",
                                server_proto_major_, server_proto_minor_,
                                capability));
}

void Session::hard_close() {
  control_ = ipc::TcpStream();
  events_ = ipc::TcpStream();
  event_reader_.reset();
  connected_ = false;
}

Error Session::transport_lost(const Error& err) {
  connected_ = false;
  return Error(err.code(),
               strings::format("session to pid %d lost: %s", pid_,
                               err.message().c_str()));
}

Result<Value> Session::request(const std::string& cmd, Value args) {
  if (!connected_) {
    return Error(ErrorCode::kClosed,
                 strings::format("session to pid %d is disconnected", pid_));
  }
  std::int64_t seq = next_seq_++;
  Value frame = std::move(args);
  frame.set("cmd", cmd);
  frame.set("seq", seq);
  // Route by session id (1.5, hub): args that already carry the field
  // (the hub-* commands, where it is a payload) win over the route.
  if (route_session_id_ != 0 && !frame.has(proto::kSessionIdKey)) {
    frame.set(proto::kSessionIdKey, route_session_id_);
  }
  if (Status sent = ipc::send_frame(control_, frame); !sent.is_ok()) {
    return transport_lost(sent.error());
  }
  auto received = ipc::recv_frame_timeout(control_, request_timeout_millis_);
  if (!received.is_ok()) return transport_lost(received.error());
  // A round trip on the control channel is proof of life too — it
  // keeps an interactive client (long gaps between event polls) from
  // mistaking its own inattention for peer silence.
  last_activity_ = mono_seconds();
  Value response = std::move(received).value();
  if (response.get_int("re") != seq) {
    // seq 0 carries connection-level refusals (version mismatch, bad
    // hello, second client): the server rejected the session before it
    // ever saw this request. Surface the typed reason; the channel is
    // dead either way.
    if (response.get_int("re") == 0 && !response.get_bool("ok", true)) {
      connected_ = false;
      std::string kind = response.get_string("error_kind");
      ErrorCode code = kind == proto::kErrVersionMismatch
                           ? ErrorCode::kUnavailable
                           : ErrorCode::kProtocol;
      return Error(code, "server refused session: " +
                             response.get_string("error"));
    }
    // Otherwise the framing itself is out of step; no later exchange
    // on this channel can be trusted.
    connected_ = false;
    return Error(ErrorCode::kProtocol,
                 strings::format("response out of order (want seq %lld)",
                                 static_cast<long long>(seq)));
  }
  if (!response.get_bool("ok")) {
    // Map the typed kind onto an ErrorCode so callers can branch
    // without parsing prose (kNotFound = the server does not know the
    // command at all — how a 1.1 feature probe fails against 1.0).
    std::string kind = response.get_string("error_kind");
    ErrorCode code = ErrorCode::kInvalidArgument;
    if (kind == proto::kErrUnknownCommand) code = ErrorCode::kNotFound;
    if (kind == proto::kErrVersionMismatch) code = ErrorCode::kUnavailable;
    return Error(code, cmd + " failed: " + response.get_string("error"));
  }
  return response;
}

Result<proto::PingResponse> Session::ping() {
  DIONEA_ASSIGN_OR_RETURN(Value response, send(proto::PingRequest{}));
  return proto::PingResponse::from_wire(response);
}

Result<proto::InfoResponse> Session::info() {
  DIONEA_ASSIGN_OR_RETURN(Value response, send(proto::InfoRequest{}));
  return proto::InfoResponse::from_wire(response);
}

Result<proto::StatsResponse> Session::stats() {
  DIONEA_ASSIGN_OR_RETURN(Value response, send(proto::StatsRequest{}));
  return proto::StatsResponse::from_wire(response);
}

Result<proto::ReplayInfoResponse> Session::replay_info() {
  DIONEA_ASSIGN_OR_RETURN(Value response, send(proto::ReplayInfoRequest{}));
  return proto::ReplayInfoResponse::from_wire(response);
}

Result<proto::AnalysisReportResponse> Session::analysis_report(
    bool run_lint, bool run_forklint) {
  // 1.6 servers would skip the unknown run_forklint key anyway; not
  // sending it keeps the silent downgrade explicit on our side.
  if (run_forklint && !supports(proto::kCapForksafety)) {
    run_forklint = false;
  }
  proto::AnalysisReportRequest req;
  req.run_lint = run_lint;
  req.run_forklint = run_forklint;
  DIONEA_ASSIGN_OR_RETURN(Value response, send(req));
  return proto::AnalysisReportResponse::from_wire(response);
}

Result<proto::PostmortemResponse> Session::postmortem(bool capture) {
  proto::PostmortemRequest req;
  req.capture = capture;
  DIONEA_ASSIGN_OR_RETURN(Value response, send(req));
  return proto::PostmortemResponse::from_wire(response);
}

Result<proto::TimetravelInfoResponse> Session::timetravel_info() {
  DIONEA_ASSIGN_OR_RETURN(Value response,
                          send(proto::TimetravelInfoRequest{}));
  return proto::TimetravelInfoResponse::from_wire(response);
}

Result<proto::TimetravelResumeResponse> Session::timetravel_resume(
    std::int64_t target_step) {
  proto::TimetravelResumeRequest req;
  req.target_step = target_step;
  DIONEA_ASSIGN_OR_RETURN(Value response, send(req));
  return proto::TimetravelResumeResponse::from_wire(response);
}

Result<int> Session::set_breakpoint(const std::string& file, int line,
                                    std::int64_t tid, std::int64_t ignore) {
  DIONEA_ASSIGN_OR_RETURN(
      Value response, send(proto::BreakSetRequest{file, line, tid, ignore}));
  DIONEA_ASSIGN_OR_RETURN(proto::BreakSetResponse decoded,
                          proto::BreakSetResponse::from_wire(response));
  breakpoints_set_.push_back(
      BreakpointSpec{file, line, tid, ignore, decoded.id});
  return decoded.id;
}

Result<std::vector<proto::BreakpointEntry>> Session::breakpoints() {
  DIONEA_ASSIGN_OR_RETURN(Value response, send(proto::BreakListRequest{}));
  DIONEA_ASSIGN_OR_RETURN(proto::BreakListResponse decoded,
                          proto::BreakListResponse::from_wire(response));
  return std::move(decoded.breakpoints);
}

Status Session::clear_breakpoint(int id) {
  DIONEA_RETURN_IF_ERROR(send(proto::BreakClearRequest{id}).status());
  if (id == 0) {
    breakpoints_set_.clear();
  } else {
    std::erase_if(breakpoints_set_,
                  [id](const BreakpointSpec& bp) { return bp.id == id; });
  }
  return Status::ok();
}

Status Session::cont(std::int64_t tid) {
  return send(proto::ContinueRequest{tid}).status();
}
Status Session::cont_all() {
  return send(proto::ContinueAllRequest{}).status();
}
Status Session::step(std::int64_t tid) {
  return send(proto::StepRequest{tid}).status();
}
Status Session::next(std::int64_t tid) {
  return send(proto::NextRequest{tid}).status();
}
Status Session::finish(std::int64_t tid) {
  return send(proto::FinishRequest{tid}).status();
}
Status Session::pause(std::int64_t tid) {
  return send(proto::PauseRequest{tid}).status();
}
Status Session::pause_all() { return send(proto::PauseAllRequest{}).status(); }

Status Session::set_disturb(bool on) {
  return send(proto::DisturbRequest{on}).status();
}

Status Session::detach() { return send(proto::DetachRequest{}).status(); }

Result<std::vector<RemoteThread>> Session::threads() {
  DIONEA_ASSIGN_OR_RETURN(Value response, send(proto::ThreadsRequest{}));
  DIONEA_ASSIGN_OR_RETURN(proto::ThreadsResponse decoded,
                          proto::ThreadsResponse::from_wire(response));
  return std::move(decoded.threads);
}

Result<std::vector<RemoteFrame>> Session::frames(std::int64_t tid) {
  DIONEA_ASSIGN_OR_RETURN(Value response, send(proto::FramesRequest{tid}));
  DIONEA_ASSIGN_OR_RETURN(proto::FramesResponse decoded,
                          proto::FramesResponse::from_wire(response));
  return std::move(decoded.frames);
}

Result<std::vector<std::pair<std::string, std::string>>> Session::locals(
    std::int64_t tid, int depth) {
  DIONEA_ASSIGN_OR_RETURN(Value response,
                          send(proto::LocalsRequest{tid, depth}));
  DIONEA_ASSIGN_OR_RETURN(proto::LocalsResponse decoded,
                          proto::LocalsResponse::from_wire(response));
  std::vector<std::pair<std::string, std::string>> out;
  for (proto::NamedValue& nv : decoded.locals) {
    out.emplace_back(std::move(nv.name), std::move(nv.value));
  }
  return out;
}

Result<std::vector<std::pair<std::string, std::string>>> Session::globals() {
  DIONEA_ASSIGN_OR_RETURN(Value response, send(proto::GlobalsRequest{}));
  DIONEA_ASSIGN_OR_RETURN(proto::GlobalsResponse decoded,
                          proto::GlobalsResponse::from_wire(response));
  std::vector<std::pair<std::string, std::string>> out;
  for (proto::NamedValue& nv : decoded.globals) {
    out.emplace_back(std::move(nv.name), std::move(nv.value));
  }
  return out;
}

Result<std::string> Session::source(const std::string& file) {
  DIONEA_ASSIGN_OR_RETURN(Value response, send(proto::SourceRequest{file}));
  DIONEA_ASSIGN_OR_RETURN(proto::SourceResponse decoded,
                          proto::SourceResponse::from_wire(response));
  return std::move(decoded.text);
}

Result<std::string> Session::eval(std::int64_t tid,
                                  const std::string& expression, int depth) {
  DIONEA_ASSIGN_OR_RETURN(
      Value response, send(proto::EvalRequest{tid, depth, expression}));
  DIONEA_ASSIGN_OR_RETURN(proto::EvalResponse decoded,
                          proto::EvalResponse::from_wire(response));
  return std::move(decoded.value);
}

Result<std::optional<DebugEvent>> Session::recv_event(int timeout_millis) {
  if (!connected_) {
    return Error(ErrorCode::kClosed,
                 strings::format("session to pid %d is disconnected", pid_));
  }
  Stopwatch watch;
  while (true) {
    int remaining =
        timeout_millis - static_cast<int>(watch.elapsed_seconds() * 1000.0);
    if (remaining < 0) remaining = 0;
    // A quiet wire is only "no event yet" while the peer is still
    // beaconing — heartbeat silence past the budget means the peer is
    // gone even though the TCP connection looks healthy (SIGKILL'd
    // process, dead listener thread, pulled cable). Cap each wait at
    // the silence budget so the loss is declared when the budget runs
    // out, not when the caller's (possibly much longer) poll does.
    // An exhausted budget is judged only after a read attempt comes
    // back empty: a client that hasn't polled in a while must first
    // drain the beacons queued in the socket buffer, or it would
    // declare a healthy peer dead out of its own inattention. The
    // grace must be > 0 — a zero deadline times out before it ever
    // looks at the wire — and wide enough to ride out a slow frame.
    constexpr int kDrainGraceMillis = 50;
    int wire_wait = remaining;
    bool silence_exhausted = false;
    if (heartbeat_timeout_millis_ > 0) {
      int silence_left =
          heartbeat_timeout_millis_ -
          static_cast<int>((mono_seconds() - last_activity_) * 1000.0);
      if (silence_left <= 0) {
        silence_exhausted = true;
        wire_wait = kDrainGraceMillis;
      } else if (silence_left < wire_wait) {
        wire_wait = silence_left;
      }
    }
    auto frame = event_reader_.recv_timeout(events_, wire_wait);
    if (!frame.is_ok()) {
      if (frame.error().code() != ErrorCode::kTimeout) {
        return transport_lost(frame.error());
      }
      if (silence_exhausted) {
        return transport_lost(Error(
            ErrorCode::kClosed,
            strings::format("no heartbeat for %d ms",
                            heartbeat_timeout_millis_)));
      }
      if (remaining == 0) return std::optional<DebugEvent>();
      continue;
    }
    last_activity_ = mono_seconds();
    DebugEvent event;
    event.name = frame.value().get_string("event");
    event.kind = proto::event_from_name(event.name);
    // Transport-internal events never surface to users. The enum is
    // the authority for kinds this build knows; the wire's "internal"
    // flag covers internal events newer than this client (they decode
    // as kUnknown but must still be consumed here).
    if (proto::event_internal(event.kind) ||
        frame.value().get_bool("internal")) {
      continue;
    }
    if (event.kind == proto::Event::kTerminated) terminated_seen_ = true;
    event.payload = std::move(frame).value();
    return std::optional<DebugEvent>(std::move(event));
  }
}

Result<std::optional<DebugEvent>> Session::poll_event(int timeout_millis) {
  if (!replay_.empty()) {
    DebugEvent event = std::move(replay_.front());
    replay_.pop_front();
    return std::optional<DebugEvent>(std::move(event));
  }
  return recv_event(timeout_millis);
}

Result<DebugEvent> Session::wait_event(proto::Event kind,
                                       int timeout_millis) {
  return wait_event(proto::event_name(kind), timeout_millis);
}

Result<DebugEvent> Session::wait_event(const std::string& name,
                                       int timeout_millis) {
  // Scan the replay queue first.
  for (auto it = replay_.begin(); it != replay_.end(); ++it) {
    if (it->name == name) {
      DebugEvent event = std::move(*it);
      replay_.erase(it);
      return event;
    }
  }
  Stopwatch watch;
  while (true) {
    int remaining =
        timeout_millis - static_cast<int>(watch.elapsed_seconds() * 1000.0);
    if (remaining <= 0) {
      return Error(ErrorCode::kTimeout, "no '" + name + "' event");
    }
    DIONEA_ASSIGN_OR_RETURN(std::optional<DebugEvent> next,
                            recv_event(remaining));
    if (!next) {
      return Error(ErrorCode::kTimeout, "no '" + name + "' event");
    }
    if (next->name == name) return std::move(*next);
    replay_.push_back(std::move(*next));
  }
}

Result<StopInfo> Session::wait_stopped(int timeout_millis) {
  DIONEA_ASSIGN_OR_RETURN(DebugEvent event,
                          wait_event(proto::Event::kStopped, timeout_millis));
  StopInfo info;
  info.tid = event.payload.get_int("tid");
  info.file = event.payload.get_string("file");
  info.line = static_cast<int>(event.payload.get_int("line"));
  info.function = event.payload.get_string("function");
  info.reason = event.payload.get_string("reason");
  info.breakpoint_id = static_cast<int>(event.payload.get_int("breakpoint"));
  return info;
}

}  // namespace dionea::client
