// The Dionea debug protocol (§4: "Server and client interact through a
// predefined protocol using TCP/IP").
//
// Transport: framed wire::Values (ipc/frame.hpp) over two TCP
// connections per session, both made by the client to the server's
// listener port:
//   control — request/response. Request:  {cmd, seq, ...args}
//             Response: {re: seq, ok, error?, ...payload}
//   events  — server -> client pushes:    {event, ...payload}
// The first frame on each connection is a typed Hello carrying the
// protocol version and a capability list; peers with a different MAJOR
// are rejected with a typed error (never a hang), and a client
// negotiates DOWN gracefully when the server lacks a capability (e.g.
// an old peer simply never advertises "stats").
//
// Every command and response is a typed struct with to_wire/from_wire
// — the wire keys are the protocol's compatibility surface and live
// only inside those two functions. The server dispatches through a
// registry keyed by T::kName (server.cpp); the client sends through
// Session::send<T>() (session.cpp). Adding a command = adding a struct
// + one registry entry, with no stringly plumbing in between.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ipc/wire.hpp"
#include "support/metrics.hpp"
#include "support/result.hpp"

namespace dionea::dbg::proto {

// ---- protocol version / capabilities ----
// Major bumps break wire compatibility (rejected at hello); minor
// bumps add commands/fields old peers ignore.
inline constexpr int kProtoMajor = 1;
inline constexpr int kProtoMinor = 7;

// A request type that needs a capability names it as `kCapability`;
// the client refuses it locally (kUnavailable, no wire traffic) when
// the server did not advertise it.
inline constexpr const char* kCapStats = "stats";      // `stats` command
inline constexpr const char* kCapHeartbeat = "heartbeat";
inline constexpr const char* kCapReplay = "replay";    // `replay-info` command
inline constexpr const char* kCapAnalysis = "analysis";  // `analysis-report`
inline constexpr const char* kCapPostmortem = "postmortem";  // 1.4
// 1.5: the peer is a multi-session hub: it understands hub-attach /
// hub-sessions / hub-detach, routes requests by the session_id
// envelope key, and stamps session_id onto forwarded events. A plain
// DebugServer never advertises this — only the hub itself does.
inline constexpr const char* kCapHub = "hub";  // 1.5
// 1.6: the server replays a recording with fork-based checkpoints and
// understands timetravel-info / timetravel-resume. Clients finding no
// kCapTimetravel downgrade silently: every 1.5 verb keeps working.
inline constexpr const char* kCapTimetravel = "timetravel";  // 1.6
// 1.7: the server runs ForkLint (fork-safety bytecode dataflow +
// native atfork coverage audit) on demand: analysis-report grows a
// run_forklint request key and a forklint_findings response key. Both
// sides skip unknown wire keys, so a 1.6 peer downgrades silently —
// the forklint half is simply absent.
inline constexpr const char* kCapForksafety = "forksafety";  // 1.7

// What this build speaks (advertised in Hello and the ping response).
std::vector<std::string> local_capabilities();

inline constexpr const char* kChannelControl = "control";
inline constexpr const char* kChannelEvents = "events";
// 1.5: a debuggee server announcing itself to a hub. One-shot channel:
// hello, one hub-register request, one response, close.
inline constexpr const char* kChannelHubRegister = "hub-register";

// 1.5: envelope key. On requests to a hub it addresses the target
// session; on events from a hub it names the originating session.
// Direct (non-hub) peers ignore it — unknown envelope keys have always
// been skipped by the decoders.
inline constexpr const char* kSessionIdKey = "session_id";

// ---- typed error kinds ----
// Machine-readable discriminator carried next to the human message in
// error responses ("error_kind"), so clients can react without string
// matching on prose.
inline constexpr const char* kErrVersionMismatch = "version_mismatch";
inline constexpr const char* kErrUnknownCommand = "unknown_command";
inline constexpr const char* kErrBadRequest = "bad_request";

// ---- events (server -> client) ----
// The enum is the authority on which events are transport-internal:
// internal events are consumed by the client transport and NEVER
// surface to users. On the wire they additionally carry
// {"internal": true}, so even a client that does not know a (newer)
// internal event by name will not leak it.
enum class Event : int {
  kStopped,       // tid,file,line,function,reason[,breakpoint]
  kThreadStart,   // tid,pid
  kThreadExit,    // tid,pid
  kForked,        // pid,child_pid
  kTerminated,    // pid
  kDeadlock,      // pid,threads[]
  kOutput,        // text
  // Liveness beacon pushed on the events channel every heartbeat_ms
  // (advertised in the ping/info response). Transport-internal.
  kHeartbeat,     // pid
  // Synthesized CLIENT-side (client::Client) when a debuggee goes away:
  // process-exited after a clean `terminated`, process-crashed when
  // the connection died without one (SIGKILL, abort, lost peer).
  // Since 1.4 a crashing server also pushes process-crashed itself
  // (from the fatal-signal handler, carrying the report path) — the
  // client dedupes against its own synthesis.
  kProcessExited,   // pid
  kProcessCrashed,  // pid[,report_path]
  // Watchdog state change (1.4): state,prev,stall_ms,what.
  kWatchdog,
  kUnknown,       // an event name this build does not know (newer peer)
};

const char* event_name(Event event) noexcept;
Event event_from_name(std::string_view name) noexcept;
// True for events the client transport must consume (heartbeats, any
// future internal beacon).
bool event_internal(Event event) noexcept;

// ---- stop reasons ----
inline constexpr const char* kStopBreakpoint = "breakpoint";
inline constexpr const char* kStopStep = "step";
inline constexpr const char* kStopPause = "pause";
inline constexpr const char* kStopDisturb = "disturb";

// ---- frame builders ----
ipc::wire::Value make_ok(std::int64_t seq);
ipc::wire::Value make_error(std::int64_t seq, const std::string& message,
                            const char* error_kind = nullptr);
ipc::wire::Value make_event(Event event);

// ---- hello ----
struct Hello {
  std::string channel;  // kChannelControl | kChannelEvents | hub-register
  int pid = 0;
  int proto_major = kProtoMajor;
  int proto_minor = kProtoMinor;
  std::vector<std::string> capabilities;  // what the sender speaks
  // 1.5: opaque client-chosen token sent on both channels so a hub can
  // pair a control connection with its events connection. "" from
  // older clients — the hub then falls back to default-session
  // binding (the capability-downgrade path).
  std::string client_token;
  // The pid the sender means to reach (a port-file record's pid); 0 =
  // any. A server whose pid differs refuses the hello before it claims
  // anything, so a port reused by another process's listener hands a
  // stale record's client neither its control slot nor its backlog.
  // Absent from older peers' hellos, which decode as 0.
  int expect_pid = 0;

  ipc::wire::Value to_wire() const;
  // Lenient by design: a hello without version fields is a pre-1.1
  // peer and decodes as {major 1, minor 0, no capabilities}.
  static Result<Hello> from_wire(const ipc::wire::Value& value);
};

// =================== typed requests / responses ===================
// Requests carry only their arguments; Session/server add or strip the
// {cmd, seq} envelope. Responses likewise exclude {re, ok}.

struct PingRequest {
  static constexpr const char* kName = "ping";
  ipc::wire::Value to_wire() const;
  static Result<PingRequest> from_wire(const ipc::wire::Value& value);
};

struct PingResponse {
  int pid = 0;
  int heartbeat_ms = 0;
  int proto_major = 1;  // pre-1.1 servers send no version: treat as 1.0
  int proto_minor = 0;
  std::vector<std::string> capabilities;
  ipc::wire::Value to_wire() const;
  static Result<PingResponse> from_wire(const ipc::wire::Value& value);
};

struct InfoRequest {
  static constexpr const char* kName = "info";
  ipc::wire::Value to_wire() const;
  static Result<InfoRequest> from_wire(const ipc::wire::Value& value);
};

struct InfoResponse {
  int pid = 0;
  std::int64_t main_tid = 0;
  int fork_depth = 0;
  bool disturb = false;
  int heartbeat_ms = 0;
  int proto_major = 1;
  int proto_minor = 0;
  ipc::wire::Value to_wire() const;
  static Result<InfoResponse> from_wire(const ipc::wire::Value& value);
};

struct ThreadsRequest {
  static constexpr const char* kName = "threads";
  ipc::wire::Value to_wire() const;
  static Result<ThreadsRequest> from_wire(const ipc::wire::Value& value);
};

struct ThreadEntry {
  std::int64_t tid = 0;
  std::string name;
  std::string state;
  std::string file;
  int line = 0;
  std::string note;
  int depth = 0;
};

struct ThreadsResponse {
  std::vector<ThreadEntry> threads;
  ipc::wire::Value to_wire() const;
  static Result<ThreadsResponse> from_wire(const ipc::wire::Value& value);
};

struct FramesRequest {
  static constexpr const char* kName = "frames";
  std::int64_t tid = 0;
  ipc::wire::Value to_wire() const;
  static Result<FramesRequest> from_wire(const ipc::wire::Value& value);
};

struct FrameEntry {
  std::string function;
  std::string file;
  int line = 0;
};

struct FramesResponse {
  std::vector<FrameEntry> frames;
  ipc::wire::Value to_wire() const;
  static Result<FramesResponse> from_wire(const ipc::wire::Value& value);
};

struct LocalsRequest {
  static constexpr const char* kName = "locals";
  std::int64_t tid = 0;
  int depth = 0;
  ipc::wire::Value to_wire() const;
  static Result<LocalsRequest> from_wire(const ipc::wire::Value& value);
};

struct NamedValue {
  std::string name;
  std::string value;  // repr()
};

struct LocalsResponse {
  std::vector<NamedValue> locals;
  ipc::wire::Value to_wire() const;
  static Result<LocalsResponse> from_wire(const ipc::wire::Value& value);
};

struct GlobalsRequest {
  static constexpr const char* kName = "globals";
  ipc::wire::Value to_wire() const;
  static Result<GlobalsRequest> from_wire(const ipc::wire::Value& value);
};

struct GlobalsResponse {
  std::vector<NamedValue> globals;
  ipc::wire::Value to_wire() const;
  static Result<GlobalsResponse> from_wire(const ipc::wire::Value& value);
};

struct SourceRequest {
  static constexpr const char* kName = "source";
  std::string file;
  ipc::wire::Value to_wire() const;
  static Result<SourceRequest> from_wire(const ipc::wire::Value& value);
};

struct SourceResponse {
  std::string text;
  ipc::wire::Value to_wire() const;
  static Result<SourceResponse> from_wire(const ipc::wire::Value& value);
};

struct EvalRequest {
  static constexpr const char* kName = "eval";
  std::int64_t tid = 0;
  int depth = 0;
  std::string expr;
  ipc::wire::Value to_wire() const;
  static Result<EvalRequest> from_wire(const ipc::wire::Value& value);
};

struct EvalResponse {
  std::string value;  // repr()
  ipc::wire::Value to_wire() const;
  static Result<EvalResponse> from_wire(const ipc::wire::Value& value);
};

struct BreakSetRequest {
  static constexpr const char* kName = "break_set";
  std::string file;
  int line = 0;
  std::int64_t tid = 0;     // 0 = any thread
  std::int64_t ignore = 0;  // skip the first N hits
  ipc::wire::Value to_wire() const;
  static Result<BreakSetRequest> from_wire(const ipc::wire::Value& value);
};

struct BreakSetResponse {
  int id = 0;
  ipc::wire::Value to_wire() const;
  static Result<BreakSetResponse> from_wire(const ipc::wire::Value& value);
};

struct BreakClearRequest {
  static constexpr const char* kName = "break_clear";
  int id = 0;  // 0 = clear all
  ipc::wire::Value to_wire() const;
  static Result<BreakClearRequest> from_wire(const ipc::wire::Value& value);
};

struct BreakListRequest {
  static constexpr const char* kName = "break_list";
  ipc::wire::Value to_wire() const;
  static Result<BreakListRequest> from_wire(const ipc::wire::Value& value);
};

struct BreakpointEntry {
  int id = 0;
  std::string file;
  int line = 0;
  bool enabled = true;
  std::int64_t hits = 0;
};

struct BreakListResponse {
  std::vector<BreakpointEntry> breakpoints;
  ipc::wire::Value to_wire() const;
  static Result<BreakListResponse> from_wire(const ipc::wire::Value& value);
};

// Resume-family commands all carry one tid; distinct types keep the
// registry typed end to end.
struct ContinueRequest {
  static constexpr const char* kName = "continue";
  std::int64_t tid = 0;
  ipc::wire::Value to_wire() const;
  static Result<ContinueRequest> from_wire(const ipc::wire::Value& value);
};

struct StepRequest {
  static constexpr const char* kName = "step";
  std::int64_t tid = 0;
  ipc::wire::Value to_wire() const;
  static Result<StepRequest> from_wire(const ipc::wire::Value& value);
};

struct NextRequest {
  static constexpr const char* kName = "next";
  std::int64_t tid = 0;
  ipc::wire::Value to_wire() const;
  static Result<NextRequest> from_wire(const ipc::wire::Value& value);
};

struct FinishRequest {
  static constexpr const char* kName = "finish";
  std::int64_t tid = 0;
  ipc::wire::Value to_wire() const;
  static Result<FinishRequest> from_wire(const ipc::wire::Value& value);
};

struct PauseRequest {
  static constexpr const char* kName = "pause";
  std::int64_t tid = 0;
  ipc::wire::Value to_wire() const;
  static Result<PauseRequest> from_wire(const ipc::wire::Value& value);
};

struct ContinueAllRequest {
  static constexpr const char* kName = "continue_all";
  ipc::wire::Value to_wire() const;
  static Result<ContinueAllRequest> from_wire(const ipc::wire::Value& value);
};

struct PauseAllRequest {
  static constexpr const char* kName = "pause_all";
  ipc::wire::Value to_wire() const;
  static Result<PauseAllRequest> from_wire(const ipc::wire::Value& value);
};

struct DisturbRequest {
  static constexpr const char* kName = "disturb";
  bool on = false;
  ipc::wire::Value to_wire() const;
  static Result<DisturbRequest> from_wire(const ipc::wire::Value& value);
};

struct DetachRequest {
  static constexpr const char* kName = "detach";
  ipc::wire::Value to_wire() const;
  static Result<DetachRequest> from_wire(const ipc::wire::Value& value);
};

// ---- stats (1.1, capability kCapStats) ----

struct StatsRequest {
  static constexpr const char* kName = "stats";
  static constexpr const char* kCapability = kCapStats;
  ipc::wire::Value to_wire() const;
  static Result<StatsRequest> from_wire(const ipc::wire::Value& value);
};

struct StatsHistogram {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum_nanos = 0;
  std::uint64_t max_nanos = 0;
  std::uint64_t p50_nanos = 0;  // bucket-resolution percentiles
  std::uint64_t p99_nanos = 0;
  std::vector<std::uint64_t> buckets;  // power-of-two ns buckets

  double mean_nanos() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum_nanos) /
                                  static_cast<double>(count);
  }
};

struct StatsResponse {
  int pid = 0;
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<StatsHistogram> histograms;

  // nullptr when absent.
  const StatsHistogram* histogram(std::string_view name) const noexcept;
  std::int64_t counter(std::string_view name) const noexcept;

  ipc::wire::Value to_wire() const;
  static Result<StatsResponse> from_wire(const ipc::wire::Value& value);
  static StatsResponse from_snapshot(const metrics::Snapshot& snapshot,
                                     int pid);
};

// ---- replay-info (1.2, capability kCapReplay) ----
// Record/replay engine status: which mode this debuggee runs in, how
// far through the log it is, and — when a replay gave up forcing the
// recorded schedule — the step and reason of the divergence.

struct ReplayInfoRequest {
  static constexpr const char* kName = "replay-info";
  static constexpr const char* kCapability = kCapReplay;
  ipc::wire::Value to_wire() const;
  static Result<ReplayInfoRequest> from_wire(const ipc::wire::Value& value);
};

struct ReplayInfoResponse {
  int pid = 0;
  std::string mode;               // off | record | replay | diverged
  std::int64_t step = 0;          // records written / consumed
  std::int64_t total_steps = 0;   // log length (replay/diverged)
  std::string log_path;           // this process's log file ("" when off)
  std::int64_t divergence_step = -1;  // -1 = none
  std::string divergence_reason;

  ipc::wire::Value to_wire() const;
  static Result<ReplayInfoResponse> from_wire(const ipc::wire::Value& value);
};

// ---- analysis-report (1.3, capability kCapAnalysis) ----
// MiniSan results: dynamic race/misuse findings accumulated so far,
// plus — when run_lint is set — a fresh static lint of the program the
// VM is executing. Old servers answer kErrUnknownCommand, which the
// client maps to kNotFound; old clients simply never send this.

struct AnalysisReportRequest {
  static constexpr const char* kName = "analysis-report";
  static constexpr const char* kCapability = kCapAnalysis;
  bool run_lint = false;  // re-lint the current program on the server
  // 1.7 (kCapForksafety): run the ForkLint fork-safety dataflow plus
  // the native atfork audit on the server. Old servers skip the key.
  bool run_forklint = false;

  ipc::wire::Value to_wire() const;
  static Result<AnalysisReportRequest> from_wire(const ipc::wire::Value& value);
};

struct AnalysisFindingWire {
  std::string kind;     // finding_kind_name() slug
  std::string message;
  std::string file;
  std::int64_t line = 0;
  std::string file2;    // other half of a pair ("" when n/a)
  std::int64_t line2 = 0;
  std::int64_t step = 0;  // DRLG step at detection (1.6; 0 = none/pre-1.6)
  // Offending object ("mtx", "queue#3", an atfork registry entry name;
  // "" when n/a). 1.7 — older peers simply never see the key.
  std::string object;
};

struct AnalysisReportResponse {
  int pid = 0;
  bool enabled = false;             // dynamic detector active?
  std::int64_t accesses = 0;        // variable accesses observed
  std::int64_t sync_events = 0;     // HB edges observed
  std::vector<AnalysisFindingWire> findings;       // dynamic
  std::vector<AnalysisFindingWire> lint_findings;  // static
  // ForkLint findings (1.7, kCapForksafety; absent from 1.6 peers).
  std::vector<AnalysisFindingWire> forklint_findings;

  ipc::wire::Value to_wire() const;
  static Result<AnalysisReportResponse> from_wire(
      const ipc::wire::Value& value);
};

// ---- postmortem (1.4, capability kCapPostmortem) ----
// Post-mortem capture status: whether the fatal-signal handlers are
// armed, where the next crash report will land, and — when a report
// exists already (a previous crash, a fatal deadlock, a failed fork
// self-check) — its text, tail-capped. Old servers answer
// kErrUnknownCommand (client maps to kNotFound); the client method
// downgrades to kUnavailable without a round trip when the capability
// is not advertised.

struct PostmortemRequest {
  static constexpr const char* kName = "postmortem";
  static constexpr const char* kCapability = kCapPostmortem;
  // Write a fresh report right now (live snapshot, no crash needed) —
  // what the console's `postmortem` verb uses against a healthy
  // debuggee, and what tests use to exercise the capture path.
  bool capture = false;

  ipc::wire::Value to_wire() const;
  static Result<PostmortemRequest> from_wire(const ipc::wire::Value& value);
};

struct PostmortemResponse {
  int pid = 0;
  bool installed = false;     // handlers armed in this debuggee
  std::string report_path;    // where the (next) report lives
  bool has_report = false;    // a report file exists at report_path
  std::string report;         // its text ("" when none), tail-capped

  ipc::wire::Value to_wire() const;
  static Result<PostmortemResponse> from_wire(const ipc::wire::Value& value);
};

// ---- hub (1.5, capability kCapHub) ----
// The debug hub multiplexes many debuggee sessions behind one port.
// Debuggees announce themselves with hub-register (on the one-shot
// kChannelHubRegister channel); clients discover sessions with
// hub-sessions, subscribe their events channel with hub-attach, and
// address every other command by the kSessionIdKey envelope field.
// Clients finding no kCapHub in the ping response downgrade to plain
// 1.4 single-session behavior; servers finding none of these commands
// registered answer kErrUnknownCommand, which clients map to
// kNotFound — the same negotiation shape as stats/replay/analysis/
// postmortem before it.

// Debuggee -> hub: "I exist; dial me back." parent_pid links fork
// trees: a forked child re-registers itself (fork handler C) and gets
// a fresh session id, with parent_pid pointing at the session it was
// forked from.
struct HubRegisterRequest {
  static constexpr const char* kName = "hub-register";
  int pid = 0;
  int parent_pid = 0;
  int port = 0;  // the debuggee's own listener, for the dial-back
  int proto_major = kProtoMajor;
  int proto_minor = kProtoMinor;
  // 1.6: "debuggee" (default) or "checkpoint" — a time-travel
  // checkpoint process parked at a replay step. 1.5 peers omit it and
  // are treated as debuggees.
  std::string kind = "debuggee";
  std::vector<std::string> capabilities;

  ipc::wire::Value to_wire() const;
  static Result<HubRegisterRequest> from_wire(const ipc::wire::Value& value);
};

struct HubRegisterResponse {
  std::int64_t session_id = 0;
  ipc::wire::Value to_wire() const;
  static Result<HubRegisterResponse> from_wire(const ipc::wire::Value& value);
};

struct HubSessionsRequest {
  static constexpr const char* kName = "hub-sessions";
  ipc::wire::Value to_wire() const;
  static Result<HubSessionsRequest> from_wire(const ipc::wire::Value& value);
};

struct HubSessionEntry {
  std::int64_t session_id = 0;
  int pid = 0;
  int parent_pid = 0;
  int port = 0;
  bool alive = true;
  bool synthetic = false;  // bench/test session with no upstream socket
  int shard = 0;           // reactor shard the session is pinned to
  std::string kind = "debuggee";  // 1.6: "debuggee" | "checkpoint"
  std::int64_t events_routed = 0;
  std::int64_t events_dropped = 0;  // backpressure drops, cumulative
};

struct HubSessionsResponse {
  std::vector<HubSessionEntry> sessions;
  ipc::wire::Value to_wire() const;
  static Result<HubSessionsResponse> from_wire(const ipc::wire::Value& value);
};

// Subscribe the requesting client's events channel to a session's
// events (session_id 0 = every session, present and future).
struct HubAttachRequest {
  static constexpr const char* kName = "hub-attach";
  std::int64_t session_id = 0;
  ipc::wire::Value to_wire() const;
  static Result<HubAttachRequest> from_wire(const ipc::wire::Value& value);
};

struct HubAttachResponse {
  int attached = 0;  // sessions now covered by the subscription
  ipc::wire::Value to_wire() const;
  static Result<HubAttachResponse> from_wire(const ipc::wire::Value& value);
};

struct HubDetachRequest {
  static constexpr const char* kName = "hub-detach";
  std::int64_t session_id = 0;  // 0 = drop every subscription
  ipc::wire::Value to_wire() const;
  static Result<HubDetachRequest> from_wire(const ipc::wire::Value& value);
};

struct HubDetachResponse {
  int detached = 0;
  ipc::wire::Value to_wire() const;
  static Result<HubDetachResponse> from_wire(const ipc::wire::Value& value);
};

// ---- time travel (1.6, capability kCapTimetravel) ----
// A replaying server periodically forks checkpoint processes — copies
// of the VM frozen at a recorded step. timetravel-info describes the
// checkpoint ring; timetravel-resume forks a fresh process from the
// nearest checkpoint at or before a target step and replays it forward
// until the run-to-step gate parks every thread there. The console's
// rcontinue / rstep / rbreak verbs are sugar over these two commands
// plus a client-side set of break steps. Servers without the
// capability answer kErrUnknownCommand; clients map that to kNotFound
// and carry on — the silent-downgrade shape of every minor before it.

struct TimetravelCheckpoint {
  std::int64_t step = 0;
  int pid = 0;
  bool alive = true;
};

struct TimetravelInfoRequest {
  static constexpr const char* kName = "timetravel-info";
  static constexpr const char* kCapability = kCapTimetravel;
  ipc::wire::Value to_wire() const;
  static Result<TimetravelInfoRequest> from_wire(const ipc::wire::Value& value);
};

struct TimetravelInfoResponse {
  bool active = false;
  std::string role;  // "root" | "checkpoint" | "resumed"
  std::int64_t every = 0;      // current checkpoint spacing (steps)
  int max_live = 0;            // ring bound
  std::int64_t next_at = 0;    // next checkpoint step
  std::int64_t taken = 0;      // checkpoints forked, cumulative
  std::int64_t evicted = 0;    // ring evictions, cumulative
  std::int64_t dead = 0;       // checkpoints that died under us
  std::int64_t step = 0;       // this process's replay cursor
  std::int64_t total_steps = 0;
  std::int64_t stop_at = 0;    // armed run-to-step gate (0 = none)
  std::vector<TimetravelCheckpoint> checkpoints;

  ipc::wire::Value to_wire() const;
  static Result<TimetravelInfoResponse> from_wire(
      const ipc::wire::Value& value);
};

struct TimetravelResumeRequest {
  static constexpr const char* kName = "timetravel-resume";
  static constexpr const char* kCapability = kCapTimetravel;
  std::int64_t target_step = 0;
  ipc::wire::Value to_wire() const;
  static Result<TimetravelResumeRequest> from_wire(
      const ipc::wire::Value& value);
};

struct TimetravelResumeResponse {
  int pid = 0;  // the resumer: replays toward target, then freezes
  std::int64_t checkpoint_step = 0;
  std::int64_t target_step = 0;
  ipc::wire::Value to_wire() const;
  static Result<TimetravelResumeResponse> from_wire(
      const ipc::wire::Value& value);
};

}  // namespace dionea::dbg::proto
