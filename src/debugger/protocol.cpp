#include "debugger/protocol.hpp"

namespace dionea::dbg::proto {

using ipc::wire::Array;
using ipc::wire::Value;

namespace {

// Shared decode guard: every from_wire on a frame that is not an
// object is a typed protocol error, never a default-constructed lie.
Status require_object(const Value& value, const char* what) {
  if (!value.is_object()) {
    return Status(ErrorCode::kProtocol,
                  std::string(what) + ": frame is not an object");
  }
  return Status::ok();
}

Value caps_to_wire(const std::vector<std::string>& caps) {
  Array list;
  for (const std::string& cap : caps) list.push_back(Value(cap));
  return Value(std::move(list));
}

std::vector<std::string> caps_from_wire(const Value& value,
                                        const std::string& key) {
  std::vector<std::string> out;
  const Value& list = value.at(key);
  if (!list.is_array()) return out;
  for (const Value& entry : list.as_array()) {
    if (entry.is_string()) out.push_back(entry.as_string());
  }
  return out;
}

}  // namespace

std::vector<std::string> local_capabilities() {
  return {kCapStats, kCapHeartbeat, kCapReplay, kCapAnalysis,
          kCapPostmortem, kCapTimetravel, kCapForksafety};
}

// -------------------------------------------------------------- events

const char* event_name(Event event) noexcept {
  switch (event) {
    case Event::kStopped: return "stopped";
    case Event::kThreadStart: return "thread_started";
    case Event::kThreadExit: return "thread_exited";
    case Event::kForked: return "forked";
    case Event::kTerminated: return "terminated";
    case Event::kDeadlock: return "deadlock";
    case Event::kOutput: return "output";
    case Event::kHeartbeat: return "heartbeat";
    case Event::kProcessExited: return "process-exited";
    case Event::kProcessCrashed: return "process-crashed";
    case Event::kWatchdog: return "watchdog";
    case Event::kUnknown: break;
  }
  return "unknown";
}

Event event_from_name(std::string_view name) noexcept {
  for (int i = 0; i < static_cast<int>(Event::kUnknown); ++i) {
    Event event = static_cast<Event>(i);
    if (name == event_name(event)) return event;
  }
  return Event::kUnknown;
}

bool event_internal(Event event) noexcept {
  switch (event) {
    case Event::kHeartbeat:
      return true;
    default:
      return false;
  }
}

// ------------------------------------------------------- frame builders

Value make_ok(std::int64_t seq) {
  Value v;
  v.set("re", seq);
  v.set("ok", true);
  return v;
}

Value make_error(std::int64_t seq, const std::string& message,
                 const char* error_kind) {
  Value v;
  v.set("re", seq);
  v.set("ok", false);
  v.set("error", message);
  if (error_kind != nullptr) v.set("error_kind", error_kind);
  return v;
}

Value make_event(Event event) {
  Value v;
  v.set("event", event_name(event));
  // Belt and braces with the enum: even a peer that does not know this
  // event's name can see it is not for users.
  if (event_internal(event)) v.set("internal", true);
  return v;
}

// --------------------------------------------------------------- hello

Value Hello::to_wire() const {
  Value v;
  v.set("channel", channel);
  v.set("pid", pid);
  v.set("proto_major", proto_major);
  v.set("proto_minor", proto_minor);
  v.set("caps", caps_to_wire(capabilities));
  if (!client_token.empty()) v.set("client_token", client_token);
  if (expect_pid != 0) v.set("expect_pid", expect_pid);
  return v;
}

Result<Hello> Hello::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "hello"));
  Hello hello;
  hello.channel = value.get_string("channel");
  if (hello.channel.empty()) {
    return Error(ErrorCode::kProtocol, "hello: missing channel");
  }
  hello.pid = static_cast<int>(value.get_int("pid"));
  // A 1.0 peer sends no version fields.
  hello.proto_major = static_cast<int>(value.get_int("proto_major", 1));
  hello.proto_minor = static_cast<int>(value.get_int("proto_minor", 0));
  hello.capabilities = caps_from_wire(value, "caps");
  hello.client_token = value.get_string("client_token");
  hello.expect_pid = static_cast<int>(value.get_int("expect_pid", 0));
  return hello;
}

// ------------------------------------------------- argless req structs

#define DIONEA_ARGLESS_REQUEST(TYPE)                        \
  Value TYPE::to_wire() const { return Value(ipc::wire::Object{}); } \
  Result<TYPE> TYPE::from_wire(const Value& value) {        \
    DIONEA_RETURN_IF_ERROR(require_object(value, kName));   \
    return TYPE{};                                          \
  }

DIONEA_ARGLESS_REQUEST(PingRequest)
DIONEA_ARGLESS_REQUEST(InfoRequest)
DIONEA_ARGLESS_REQUEST(ThreadsRequest)
DIONEA_ARGLESS_REQUEST(GlobalsRequest)
DIONEA_ARGLESS_REQUEST(BreakListRequest)
DIONEA_ARGLESS_REQUEST(ContinueAllRequest)
DIONEA_ARGLESS_REQUEST(PauseAllRequest)
DIONEA_ARGLESS_REQUEST(DetachRequest)
DIONEA_ARGLESS_REQUEST(StatsRequest)
DIONEA_ARGLESS_REQUEST(ReplayInfoRequest)

#undef DIONEA_ARGLESS_REQUEST

// -------------------------------------------------- tid-only requests

#define DIONEA_TID_REQUEST(TYPE)                          \
  Value TYPE::to_wire() const {                           \
    Value v;                                              \
    v.set("tid", tid);                                    \
    return v;                                             \
  }                                                       \
  Result<TYPE> TYPE::from_wire(const Value& value) {      \
    DIONEA_RETURN_IF_ERROR(require_object(value, kName)); \
    TYPE req;                                             \
    req.tid = value.get_int("tid");                       \
    return req;                                           \
  }

DIONEA_TID_REQUEST(FramesRequest)
DIONEA_TID_REQUEST(ContinueRequest)
DIONEA_TID_REQUEST(StepRequest)
DIONEA_TID_REQUEST(NextRequest)
DIONEA_TID_REQUEST(FinishRequest)
DIONEA_TID_REQUEST(PauseRequest)

#undef DIONEA_TID_REQUEST

// ------------------------------------------------------ ping/info

Value PingResponse::to_wire() const {
  Value v;
  v.set("pid", pid);
  v.set("heartbeat_ms", heartbeat_ms);
  v.set("proto_major", proto_major);
  v.set("proto_minor", proto_minor);
  v.set("caps", caps_to_wire(capabilities));
  return v;
}

Result<PingResponse> PingResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "ping response"));
  PingResponse resp;
  resp.pid = static_cast<int>(value.get_int("pid"));
  resp.heartbeat_ms = static_cast<int>(value.get_int("heartbeat_ms"));
  resp.proto_major = static_cast<int>(value.get_int("proto_major", 1));
  resp.proto_minor = static_cast<int>(value.get_int("proto_minor", 0));
  resp.capabilities = caps_from_wire(value, "caps");
  return resp;
}

Value InfoResponse::to_wire() const {
  Value v;
  v.set("pid", pid);
  v.set("main_tid", main_tid);
  v.set("fork_depth", fork_depth);
  v.set("disturb", disturb);
  v.set("heartbeat_ms", heartbeat_ms);
  v.set("proto_major", proto_major);
  v.set("proto_minor", proto_minor);
  return v;
}

Result<InfoResponse> InfoResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "info response"));
  InfoResponse resp;
  resp.pid = static_cast<int>(value.get_int("pid"));
  resp.main_tid = value.get_int("main_tid");
  resp.fork_depth = static_cast<int>(value.get_int("fork_depth"));
  resp.disturb = value.get_bool("disturb");
  resp.heartbeat_ms = static_cast<int>(value.get_int("heartbeat_ms"));
  resp.proto_major = static_cast<int>(value.get_int("proto_major", 1));
  resp.proto_minor = static_cast<int>(value.get_int("proto_minor", 0));
  return resp;
}

// ------------------------------------------------------ threads/frames

Value ThreadsResponse::to_wire() const {
  Value v;
  Array list;
  for (const ThreadEntry& t : threads) {
    Value entry;
    entry.set("tid", t.tid);
    entry.set("name", t.name);
    entry.set("state", t.state);
    entry.set("file", t.file);
    entry.set("line", t.line);
    entry.set("note", t.note);
    entry.set("depth", t.depth);
    list.push_back(std::move(entry));
  }
  v.set("threads", std::move(list));
  return v;
}

Result<ThreadsResponse> ThreadsResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "threads response"));
  ThreadsResponse resp;
  for (const Value& entry : value.at("threads").as_array()) {
    ThreadEntry t;
    t.tid = entry.get_int("tid");
    t.name = entry.get_string("name");
    t.state = entry.get_string("state");
    t.file = entry.get_string("file");
    t.line = static_cast<int>(entry.get_int("line"));
    t.note = entry.get_string("note");
    t.depth = static_cast<int>(entry.get_int("depth"));
    resp.threads.push_back(std::move(t));
  }
  return resp;
}

Value FramesResponse::to_wire() const {
  Value v;
  Array list;
  for (const FrameEntry& f : frames) {
    Value entry;
    entry.set("function", f.function);
    entry.set("file", f.file);
    entry.set("line", f.line);
    list.push_back(std::move(entry));
  }
  v.set("frames", std::move(list));
  return v;
}

Result<FramesResponse> FramesResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "frames response"));
  FramesResponse resp;
  for (const Value& entry : value.at("frames").as_array()) {
    resp.frames.push_back(FrameEntry{entry.get_string("function"),
                                     entry.get_string("file"),
                                     static_cast<int>(entry.get_int("line"))});
  }
  return resp;
}

// ------------------------------------------------------ locals/globals

namespace {

Value named_values_to_wire(const std::vector<NamedValue>& values,
                           const char* key) {
  Value v;
  Array list;
  for (const NamedValue& nv : values) {
    Value entry;
    entry.set("name", nv.name);
    entry.set("value", nv.value);
    list.push_back(std::move(entry));
  }
  v.set(key, std::move(list));
  return v;
}

std::vector<NamedValue> named_values_from_wire(const Value& value,
                                               const char* key) {
  std::vector<NamedValue> out;
  for (const Value& entry : value.at(key).as_array()) {
    out.push_back(NamedValue{entry.get_string("name"),
                             entry.get_string("value")});
  }
  return out;
}

}  // namespace

Value LocalsRequest::to_wire() const {
  Value v;
  v.set("tid", tid);
  v.set("depth", depth);
  return v;
}

Result<LocalsRequest> LocalsRequest::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, kName));
  LocalsRequest req;
  req.tid = value.get_int("tid");
  req.depth = static_cast<int>(value.get_int("depth"));
  return req;
}

Value LocalsResponse::to_wire() const {
  return named_values_to_wire(locals, "locals");
}

Result<LocalsResponse> LocalsResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "locals response"));
  return LocalsResponse{named_values_from_wire(value, "locals")};
}

Value GlobalsResponse::to_wire() const {
  return named_values_to_wire(globals, "globals");
}

Result<GlobalsResponse> GlobalsResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "globals response"));
  return GlobalsResponse{named_values_from_wire(value, "globals")};
}

// ------------------------------------------------------ source/eval

Value SourceRequest::to_wire() const {
  Value v;
  v.set("file", file);
  return v;
}

Result<SourceRequest> SourceRequest::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, kName));
  SourceRequest req;
  req.file = value.get_string("file");
  if (req.file.empty()) {
    return Error(ErrorCode::kProtocol, "source: missing file");
  }
  return req;
}

Value SourceResponse::to_wire() const {
  Value v;
  v.set("text", text);
  return v;
}

Result<SourceResponse> SourceResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "source response"));
  return SourceResponse{value.get_string("text")};
}

Value EvalRequest::to_wire() const {
  Value v;
  v.set("tid", tid);
  v.set("depth", depth);
  v.set("expr", expr);
  return v;
}

Result<EvalRequest> EvalRequest::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, kName));
  EvalRequest req;
  req.tid = value.get_int("tid");
  req.depth = static_cast<int>(value.get_int("depth"));
  req.expr = value.get_string("expr");
  if (req.expr.empty()) {
    return Error(ErrorCode::kProtocol, "eval: missing expr");
  }
  return req;
}

Value EvalResponse::to_wire() const {
  Value v;
  v.set("value", value);
  return v;
}

Result<EvalResponse> EvalResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "eval response"));
  return EvalResponse{value.get_string("value")};
}

// ------------------------------------------------------ breakpoints

Value BreakSetRequest::to_wire() const {
  Value v;
  v.set("file", file);
  v.set("line", line);
  if (tid != 0) v.set("tid", tid);
  if (ignore != 0) v.set("ignore", ignore);
  return v;
}

Result<BreakSetRequest> BreakSetRequest::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, kName));
  BreakSetRequest req;
  req.file = value.get_string("file");
  req.line = static_cast<int>(value.get_int("line"));
  req.tid = value.get_int("tid");
  req.ignore = value.get_int("ignore");
  if (req.file.empty() || req.line <= 0) {
    return Error(ErrorCode::kProtocol, "break_set: need file and line");
  }
  return req;
}

Value BreakSetResponse::to_wire() const {
  Value v;
  v.set("id", id);
  return v;
}

Result<BreakSetResponse> BreakSetResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "break_set response"));
  return BreakSetResponse{static_cast<int>(value.get_int("id"))};
}

Value BreakClearRequest::to_wire() const {
  Value v;
  v.set("id", id);
  return v;
}

Result<BreakClearRequest> BreakClearRequest::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, kName));
  return BreakClearRequest{static_cast<int>(value.get_int("id"))};
}

Value BreakListResponse::to_wire() const {
  Value v;
  Array list;
  for (const BreakpointEntry& bp : breakpoints) {
    Value entry;
    entry.set("id", bp.id);
    entry.set("file", bp.file);
    entry.set("line", bp.line);
    entry.set("enabled", bp.enabled);
    entry.set("hits", bp.hits);
    list.push_back(std::move(entry));
  }
  v.set("breakpoints", std::move(list));
  return v;
}

Result<BreakListResponse> BreakListResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "break_list response"));
  BreakListResponse resp;
  for (const Value& entry : value.at("breakpoints").as_array()) {
    BreakpointEntry bp;
    bp.id = static_cast<int>(entry.get_int("id"));
    bp.file = entry.get_string("file");
    bp.line = static_cast<int>(entry.get_int("line"));
    bp.enabled = entry.get_bool("enabled");
    bp.hits = entry.get_int("hits");
    resp.breakpoints.push_back(std::move(bp));
  }
  return resp;
}

// ------------------------------------------------------ disturb

Value DisturbRequest::to_wire() const {
  Value v;
  v.set("on", on);
  return v;
}

Result<DisturbRequest> DisturbRequest::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, kName));
  return DisturbRequest{value.get_bool("on")};
}

// --------------------------------------------------------------- stats

const StatsHistogram* StatsResponse::histogram(
    std::string_view name) const noexcept {
  for (const StatsHistogram& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::int64_t StatsResponse::counter(std::string_view name) const noexcept {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

Value StatsResponse::to_wire() const {
  Value v;
  v.set("pid", pid);
  Value counters_obj;
  for (const auto& [name, value] : counters) counters_obj.set(name, value);
  v.set("counters", std::move(counters_obj));
  Value gauges_obj;
  for (const auto& [name, value] : gauges) gauges_obj.set(name, value);
  v.set("gauges", std::move(gauges_obj));
  Array histo_list;
  for (const StatsHistogram& h : histograms) {
    Value entry;
    entry.set("name", h.name);
    entry.set("count", static_cast<std::int64_t>(h.count));
    entry.set("sum_nanos", static_cast<std::int64_t>(h.sum_nanos));
    entry.set("max_nanos", static_cast<std::int64_t>(h.max_nanos));
    entry.set("p50_nanos", static_cast<std::int64_t>(h.p50_nanos));
    entry.set("p99_nanos", static_cast<std::int64_t>(h.p99_nanos));
    Array buckets;
    for (std::uint64_t b : h.buckets) {
      buckets.push_back(Value(static_cast<std::int64_t>(b)));
    }
    entry.set("buckets", std::move(buckets));
    histo_list.push_back(std::move(entry));
  }
  v.set("histograms", std::move(histo_list));
  return v;
}

Result<StatsResponse> StatsResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "stats response"));
  StatsResponse resp;
  resp.pid = static_cast<int>(value.get_int("pid"));
  const Value& counters = value.at("counters");
  if (counters.is_object()) {
    for (const auto& [name, v] : counters.as_object()) {
      resp.counters.emplace_back(name, v.as_int());
    }
  }
  const Value& gauges = value.at("gauges");
  if (gauges.is_object()) {
    for (const auto& [name, v] : gauges.as_object()) {
      resp.gauges.emplace_back(name, v.as_int());
    }
  }
  const Value& histograms = value.at("histograms");
  if (histograms.is_array()) {
    for (const Value& entry : histograms.as_array()) {
      StatsHistogram h;
      h.name = entry.get_string("name");
      h.count = static_cast<std::uint64_t>(entry.get_int("count"));
      h.sum_nanos = static_cast<std::uint64_t>(entry.get_int("sum_nanos"));
      h.max_nanos = static_cast<std::uint64_t>(entry.get_int("max_nanos"));
      h.p50_nanos = static_cast<std::uint64_t>(entry.get_int("p50_nanos"));
      h.p99_nanos = static_cast<std::uint64_t>(entry.get_int("p99_nanos"));
      const Value& buckets = entry.at("buckets");
      if (buckets.is_array()) {
        for (const Value& b : buckets.as_array()) {
          h.buckets.push_back(static_cast<std::uint64_t>(b.as_int()));
        }
      }
      resp.histograms.push_back(std::move(h));
    }
  }
  return resp;
}

StatsResponse StatsResponse::from_snapshot(const metrics::Snapshot& snapshot,
                                           int pid) {
  StatsResponse resp;
  resp.pid = pid;
  for (int c = 0; c < metrics::kCounterCount; ++c) {
    resp.counters.emplace_back(
        metrics::counter_name(static_cast<metrics::Counter>(c)),
        static_cast<std::int64_t>(snapshot.counters[static_cast<size_t>(c)]));
  }
  for (int g = 0; g < metrics::kGaugeCount; ++g) {
    resp.gauges.emplace_back(
        metrics::gauge_name(static_cast<metrics::Gauge>(g)),
        snapshot.gauges[static_cast<size_t>(g)]);
  }
  for (int h = 0; h < metrics::kHistogramCount; ++h) {
    const metrics::HistogramSnapshot& src =
        snapshot.histograms[static_cast<size_t>(h)];
    StatsHistogram out;
    out.name = metrics::histogram_name(static_cast<metrics::Histogram>(h));
    out.count = src.count;
    out.sum_nanos = src.sum_nanos;
    out.max_nanos = src.max_nanos;
    out.p50_nanos = src.percentile_nanos(0.50);
    out.p99_nanos = src.percentile_nanos(0.99);
    out.buckets.assign(src.buckets.begin(), src.buckets.end());
    resp.histograms.push_back(std::move(out));
  }
  return resp;
}

// --------------------------------------------------------- replay-info

Value ReplayInfoResponse::to_wire() const {
  Value v;
  v.set("pid", pid);
  v.set("mode", mode);
  v.set("step", step);
  v.set("total_steps", total_steps);
  v.set("log_path", log_path);
  v.set("divergence_step", divergence_step);
  v.set("divergence_reason", divergence_reason);
  return v;
}

Result<ReplayInfoResponse> ReplayInfoResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "replay-info response"));
  ReplayInfoResponse resp;
  resp.pid = static_cast<int>(value.get_int("pid"));
  resp.mode = value.get_string("mode");
  if (resp.mode.empty()) {
    return Error(ErrorCode::kProtocol, "replay-info: missing mode");
  }
  resp.step = value.get_int("step");
  resp.total_steps = value.get_int("total_steps");
  resp.log_path = value.get_string("log_path");
  resp.divergence_step = value.get_int("divergence_step", -1);
  resp.divergence_reason = value.get_string("divergence_reason");
  return resp;
}

// ------------------------------------------------------ analysis-report

Value AnalysisReportRequest::to_wire() const {
  Value v;
  v.set("run_lint", run_lint);
  v.set("run_forklint", run_forklint);
  return v;
}

Result<AnalysisReportRequest> AnalysisReportRequest::from_wire(
    const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "analysis-report request"));
  AnalysisReportRequest req;
  req.run_lint = value.get_bool("run_lint");
  req.run_forklint = value.get_bool("run_forklint");  // absent pre-1.7
  return req;
}

namespace {

Value finding_to_wire(const AnalysisFindingWire& finding) {
  Value entry;
  entry.set("kind", finding.kind);
  entry.set("message", finding.message);
  entry.set("file", finding.file);
  entry.set("line", finding.line);
  entry.set("file2", finding.file2);
  entry.set("line2", finding.line2);
  entry.set("step", finding.step);
  entry.set("object", finding.object);
  return entry;
}

std::vector<AnalysisFindingWire> findings_from_wire(const Value& value,
                                                    const std::string& key) {
  std::vector<AnalysisFindingWire> out;
  const Value& list = value.at(key);
  if (!list.is_array()) return out;
  for (const Value& entry : list.as_array()) {
    if (!entry.is_object()) continue;
    AnalysisFindingWire finding;
    finding.kind = entry.get_string("kind");
    finding.message = entry.get_string("message");
    finding.file = entry.get_string("file");
    finding.line = entry.get_int("line");
    finding.file2 = entry.get_string("file2");
    finding.line2 = entry.get_int("line2");
    finding.step = entry.get_int("step");  // absent pre-1.6: stays 0
    finding.object = entry.get_string("object");  // absent pre-1.7: ""
    out.push_back(std::move(finding));
  }
  return out;
}

}  // namespace

Value AnalysisReportResponse::to_wire() const {
  Value v;
  v.set("pid", pid);
  v.set("enabled", enabled);
  v.set("accesses", accesses);
  v.set("sync_events", sync_events);
  Array dynamic;
  for (const AnalysisFindingWire& finding : findings) {
    dynamic.push_back(finding_to_wire(finding));
  }
  v.set("findings", std::move(dynamic));
  Array lint;
  for (const AnalysisFindingWire& finding : lint_findings) {
    lint.push_back(finding_to_wire(finding));
  }
  v.set("lint_findings", std::move(lint));
  Array forklint;
  for (const AnalysisFindingWire& finding : forklint_findings) {
    forklint.push_back(finding_to_wire(finding));
  }
  v.set("forklint_findings", std::move(forklint));
  return v;
}

Result<AnalysisReportResponse> AnalysisReportResponse::from_wire(
    const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "analysis-report response"));
  AnalysisReportResponse resp;
  resp.pid = static_cast<int>(value.get_int("pid"));
  resp.enabled = value.get_bool("enabled");
  resp.accesses = value.get_int("accesses");
  resp.sync_events = value.get_int("sync_events");
  resp.findings = findings_from_wire(value, "findings");
  resp.lint_findings = findings_from_wire(value, "lint_findings");
  // Absent from 1.6 servers: stays empty (silent downgrade).
  resp.forklint_findings = findings_from_wire(value, "forklint_findings");
  return resp;
}

// ----------------------------------------------------------- postmortem

Value PostmortemRequest::to_wire() const {
  Value v;
  v.set("capture", capture);
  return v;
}

Result<PostmortemRequest> PostmortemRequest::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "postmortem request"));
  PostmortemRequest req;
  req.capture = value.get_bool("capture");
  return req;
}

Value PostmortemResponse::to_wire() const {
  Value v;
  v.set("pid", pid);
  v.set("installed", installed);
  v.set("report_path", report_path);
  v.set("has_report", has_report);
  v.set("report", report);
  return v;
}

Result<PostmortemResponse> PostmortemResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "postmortem response"));
  PostmortemResponse resp;
  resp.pid = static_cast<int>(value.get_int("pid"));
  resp.installed = value.get_bool("installed");
  resp.report_path = value.get_string("report_path");
  resp.has_report = value.get_bool("has_report");
  resp.report = value.get_string("report");
  return resp;
}

// ------------------------------------------------------------------ hub

Value HubRegisterRequest::to_wire() const {
  Value v;
  v.set("pid", pid);
  v.set("parent_pid", parent_pid);
  v.set("port", port);
  v.set("proto_major", proto_major);
  v.set("proto_minor", proto_minor);
  v.set("kind", kind);
  v.set("caps", caps_to_wire(capabilities));
  return v;
}

Result<HubRegisterRequest> HubRegisterRequest::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "hub-register request"));
  HubRegisterRequest req;
  req.pid = static_cast<int>(value.get_int("pid"));
  req.parent_pid = static_cast<int>(value.get_int("parent_pid"));
  req.port = static_cast<int>(value.get_int("port"));
  if (req.pid <= 0 || req.port <= 0) {
    return Error(ErrorCode::kProtocol,
                 "hub-register: pid and port are required");
  }
  req.proto_major = static_cast<int>(value.get_int("proto_major", 1));
  req.proto_minor = static_cast<int>(value.get_int("proto_minor", 0));
  req.kind = value.get_string("kind", "debuggee");
  req.capabilities = caps_from_wire(value, "caps");
  return req;
}

Value HubRegisterResponse::to_wire() const {
  Value v;
  v.set("session_id", session_id);
  return v;
}

Result<HubRegisterResponse> HubRegisterResponse::from_wire(
    const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "hub-register response"));
  HubRegisterResponse resp;
  resp.session_id = value.get_int("session_id");
  if (resp.session_id <= 0) {
    return Error(ErrorCode::kProtocol, "hub-register: bad session_id");
  }
  return resp;
}

Value HubSessionsRequest::to_wire() const { return Value(ipc::wire::Object{}); }

Result<HubSessionsRequest> HubSessionsRequest::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, kName));
  return HubSessionsRequest{};
}

Value HubSessionsResponse::to_wire() const {
  Value v;
  Array list;
  for (const HubSessionEntry& session : sessions) {
    Value entry;
    entry.set("session_id", session.session_id);
    entry.set("pid", session.pid);
    entry.set("parent_pid", session.parent_pid);
    entry.set("port", session.port);
    entry.set("alive", session.alive);
    entry.set("synthetic", session.synthetic);
    entry.set("shard", session.shard);
    entry.set("kind", session.kind);
    entry.set("events_routed", session.events_routed);
    entry.set("events_dropped", session.events_dropped);
    list.push_back(std::move(entry));
  }
  v.set("sessions", std::move(list));
  return v;
}

Result<HubSessionsResponse> HubSessionsResponse::from_wire(
    const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "hub-sessions response"));
  HubSessionsResponse resp;
  const Value& list = value.at("sessions");
  if (!list.is_array()) return resp;
  for (const Value& entry : list.as_array()) {
    if (!entry.is_object()) continue;
    HubSessionEntry session;
    session.session_id = entry.get_int("session_id");
    session.pid = static_cast<int>(entry.get_int("pid"));
    session.parent_pid = static_cast<int>(entry.get_int("parent_pid"));
    session.port = static_cast<int>(entry.get_int("port"));
    session.alive = entry.get_bool("alive", true);
    session.synthetic = entry.get_bool("synthetic");
    session.shard = static_cast<int>(entry.get_int("shard"));
    session.kind = entry.get_string("kind", "debuggee");
    session.events_routed = entry.get_int("events_routed");
    session.events_dropped = entry.get_int("events_dropped");
    resp.sessions.push_back(std::move(session));
  }
  return resp;
}

#define DIONEA_SESSION_ID_REQUEST(TYPE, WHAT)             \
  Value TYPE::to_wire() const {                           \
    Value v;                                              \
    v.set("session_id", session_id);                      \
    return v;                                             \
  }                                                       \
  Result<TYPE> TYPE::from_wire(const Value& value) {      \
    DIONEA_RETURN_IF_ERROR(require_object(value, WHAT));  \
    TYPE req;                                             \
    req.session_id = value.get_int("session_id");         \
    return req;                                           \
  }

DIONEA_SESSION_ID_REQUEST(HubAttachRequest, "hub-attach request")
DIONEA_SESSION_ID_REQUEST(HubDetachRequest, "hub-detach request")

#undef DIONEA_SESSION_ID_REQUEST

Value HubAttachResponse::to_wire() const {
  Value v;
  v.set("attached", attached);
  return v;
}

Result<HubAttachResponse> HubAttachResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "hub-attach response"));
  HubAttachResponse resp;
  resp.attached = static_cast<int>(value.get_int("attached"));
  return resp;
}

Value HubDetachResponse::to_wire() const {
  Value v;
  v.set("detached", detached);
  return v;
}

Result<HubDetachResponse> HubDetachResponse::from_wire(const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "hub-detach response"));
  HubDetachResponse resp;
  resp.detached = static_cast<int>(value.get_int("detached"));
  return resp;
}

// ---------------------------------------------------------- time travel

Value TimetravelInfoRequest::to_wire() const {
  return Value(ipc::wire::Object{});
}

Result<TimetravelInfoRequest> TimetravelInfoRequest::from_wire(
    const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, kName));
  return TimetravelInfoRequest{};
}

Value TimetravelInfoResponse::to_wire() const {
  Value v;
  v.set("active", active);
  v.set("role", role);
  v.set("every", every);
  v.set("max_live", max_live);
  v.set("next_at", next_at);
  v.set("taken", taken);
  v.set("evicted", evicted);
  v.set("dead", dead);
  v.set("step", step);
  v.set("total_steps", total_steps);
  v.set("stop_at", stop_at);
  Array ring;
  for (const TimetravelCheckpoint& ckpt : checkpoints) {
    Value entry;
    entry.set("step", ckpt.step);
    entry.set("pid", ckpt.pid);
    entry.set("alive", ckpt.alive);
    ring.push_back(std::move(entry));
  }
  v.set("checkpoints", std::move(ring));
  return v;
}

Result<TimetravelInfoResponse> TimetravelInfoResponse::from_wire(
    const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "timetravel-info response"));
  TimetravelInfoResponse resp;
  resp.active = value.get_bool("active");
  resp.role = value.get_string("role", "root");
  resp.every = value.get_int("every");
  resp.max_live = static_cast<int>(value.get_int("max_live"));
  resp.next_at = value.get_int("next_at");
  resp.taken = value.get_int("taken");
  resp.evicted = value.get_int("evicted");
  resp.dead = value.get_int("dead");
  resp.step = value.get_int("step");
  resp.total_steps = value.get_int("total_steps");
  resp.stop_at = value.get_int("stop_at");
  const Value& ring = value.at("checkpoints");
  if (ring.is_array()) {
    for (const Value& entry : ring.as_array()) {
      if (!entry.is_object()) continue;
      TimetravelCheckpoint ckpt;
      ckpt.step = entry.get_int("step");
      ckpt.pid = static_cast<int>(entry.get_int("pid"));
      ckpt.alive = entry.get_bool("alive", true);
      resp.checkpoints.push_back(ckpt);
    }
  }
  return resp;
}

Value TimetravelResumeRequest::to_wire() const {
  Value v;
  v.set("target_step", target_step);
  return v;
}

Result<TimetravelResumeRequest> TimetravelResumeRequest::from_wire(
    const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "timetravel-resume request"));
  TimetravelResumeRequest req;
  req.target_step = value.get_int("target_step");
  if (req.target_step < 0) {
    return Error(ErrorCode::kProtocol, "timetravel-resume: bad target_step");
  }
  return req;
}

Value TimetravelResumeResponse::to_wire() const {
  Value v;
  v.set("pid", pid);
  v.set("checkpoint_step", checkpoint_step);
  v.set("target_step", target_step);
  return v;
}

Result<TimetravelResumeResponse> TimetravelResumeResponse::from_wire(
    const Value& value) {
  DIONEA_RETURN_IF_ERROR(require_object(value, "timetravel-resume response"));
  TimetravelResumeResponse resp;
  resp.pid = static_cast<int>(value.get_int("pid"));
  resp.checkpoint_step = value.get_int("checkpoint_step");
  resp.target_step = value.get_int("target_step");
  return resp;
}

}  // namespace dionea::dbg::proto
