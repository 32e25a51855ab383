#include "hub/hub.hpp"

#include <unistd.h>

#include <deque>
#include <set>
#include <utility>

#include "debugger/protocol.hpp"
#include "hub/outbound_queue.hpp"
#include "ipc/frame.hpp"
#include "ipc/port_file.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"

namespace dionea::hub {

namespace proto = dbg::proto;
using ipc::wire::Value;

namespace {

// Merge a typed response payload into an ok envelope (same shape the
// debug server produces, so clients cannot tell hub-local answers from
// forwarded ones).
Value ok_with(std::int64_t seq, const Value& payload) {
  Value v = proto::make_ok(seq);
  if (payload.is_object()) {
    for (const auto& [key, field] : payload.as_object()) v.set(key, field);
  }
  return v;
}

}  // namespace

// A connection whose role is not yet known: every accepted socket
// starts here (on shard 0) until its hello says what it is.
struct Hub::PendingConn {
  ipc::TcpStream stream;
  ipc::FrameReader reader;
  // 0 = awaiting hello; 1 = hub-register channel awaiting its request;
  // 2 = client events channel waiting for its control sibling.
  int stage = 0;
  proto::Hello hello;
};

// One registered debuggee session. The hub dials the debuggee back and
// becomes its single attached client; both sockets live on the
// session's shard. Synthetic sessions (bench/test) have no sockets.
struct Hub::Upstream {
  std::int64_t session_id = 0;
  int shard = 0;
  int pid = 0;
  bool synthetic = false;
  std::atomic<bool> dead{false};
  bool saw_terminated = false;  // session shard only

  ipc::TcpStream control;
  ipc::FrameReader control_reader;
  ipc::TcpStream events;
  ipc::FrameReader events_reader;
  std::mutex write_mutex;  // serializes control-channel writes

  // In-flight forwarded requests: upstream seq -> who asked.
  struct PendingRequest {
    std::weak_ptr<ClientPeer> peer;
    std::int64_t client_seq = 0;
  };
  std::mutex pending_mutex;
  std::int64_t next_seq = 1;
  std::map<std::int64_t, PendingRequest> pending;

  // Recent event frames (encoded, session_id stamped), replayed to a
  // peer the first time it covers this session — the stop-at-entry
  // event must reach clients that attach after the debuggee registers.
  std::mutex backlog_mutex;
  std::deque<std::string> backlog;

  std::atomic<std::uint64_t> routed{0};
  std::atomic<std::uint64_t> dropped{0};
};

// One client connection pair (control + events), pinned to a shard by
// peer id. Event frames are queued by whatever session shard routes
// them; flushes run on the peer's own shard.
struct Hub::ClientPeer {
  explicit ClientPeer(size_t queue_frames) : queue(queue_frames) {}

  std::uint64_t peer_id = 0;
  int shard = 0;
  std::string token;
  bool legacy = false;  // token-less (pre-1.5) client
  std::atomic<bool> gone{false};

  ipc::TcpStream control;
  ipc::FrameReader control_reader;
  std::mutex control_write_mutex;

  ipc::TcpStream events;  // invalid until paired
  std::atomic<int> events_fd{-1};

  std::mutex state_mutex;
  bool subscribed_all = false;
  std::set<std::int64_t> subscriptions;
  std::set<std::int64_t> replayed;  // sessions whose backlog was replayed
  std::int64_t bound_session = 0;   // lazy default binding (legacy path)

  std::mutex queue_mutex;
  OutboundQueue queue;
  std::atomic<bool> flush_scheduled{false};
};

Hub::Hub() : Hub(Options()) {}

Hub::Hub(Options options)
    : opts_(std::move(options)), pool_(opts_.shards) {}

Hub::~Hub() { stop(); }

Status Hub::start() {
  if (started_) return Status::ok();
  auto bound = ipc::TcpListener::bind(opts_.port);
  if (!bound.is_ok()) return bound.error();
  listener_.emplace(std::move(bound.value()));
  port_ = listener_->port();
  DIONEA_RETURN_IF_ERROR(pool_.start());
  pool_.shard(0).add_fd(listener_->raw_fd(), [this] { on_listener_readable(); });
  for (int s = 0; s < pool_.shard_count(); ++s) {
    pool_.shard(s).add_periodic(opts_.heartbeat_interval_millis,
                                [this, s] { beacon_heartbeats(s); });
    pool_.shard(s).add_periodic(opts_.flush_sweep_millis,
                                [this, s] { sweep_flush(s); });
  }
  if (!opts_.port_file.empty()) {
    ipc::PortRecord record;
    record.pid = static_cast<int>(::getpid());
    record.port = port_;
    (void)ipc::PortFile(opts_.port_file).publish(record);
  }
  started_ = true;
  DLOG_INFO("hub") << "hub listening on port " << port_ << " with "
                   << pool_.shard_count() << " shard(s), backend "
                   << pool_.shard(0).backend_name();
  return Status::ok();
}

void Hub::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Join every shard first: after this no callback can run, so the
  // teardown below races with nothing.
  pool_.stop();
  if (listener_) listener_->close();
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    for (auto& conn : pending_conns_) conn->stream.close();
    pending_conns_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(peers_mutex_);
    for (auto& [id, peer] : peers_) {
      peer->control.close();
      peer->events.close();
    }
    peers_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(upstreams_mutex_);
    for (auto& [id, up] : upstreams_) {
      up->control.close();
      up->events.close();
    }
    upstreams_.clear();
  }
  started_ = false;
}

size_t Hub::peer_count() const {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  return peers_.size();
}

std::shared_ptr<Hub::Upstream> Hub::upstream_for(
    std::int64_t session_id) const {
  std::lock_guard<std::mutex> lock(upstreams_mutex_);
  auto it = upstreams_.find(session_id);
  return it == upstreams_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Hub::ClientPeer>> Hub::peers_snapshot() const {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  std::vector<std::shared_ptr<ClientPeer>> out;
  out.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) out.push_back(peer);
  return out;
}

std::uint64_t Hub::events_routed() const {
  std::lock_guard<std::mutex> lock(upstreams_mutex_);
  std::uint64_t total = 0;
  for (const auto& [id, up] : upstreams_)
    total += up->routed.load(std::memory_order_relaxed);
  return total;
}

size_t Hub::backlog_size(std::int64_t session_id) const {
  auto up = upstream_for(session_id);
  if (!up) return 0;
  std::lock_guard<std::mutex> lock(up->backlog_mutex);
  return up->backlog.size();
}

std::uint64_t Hub::events_dropped() const {
  std::lock_guard<std::mutex> lock(upstreams_mutex_);
  std::uint64_t total = 0;
  for (const auto& [id, up] : upstreams_)
    total += up->dropped.load(std::memory_order_relaxed);
  return total;
}

// ------------------------------------------------ accept + hello (shard 0)

void Hub::on_listener_readable() {
  while (true) {
    auto accepted = listener_->accept_timeout(0);
    if (!accepted.is_ok()) return;  // kTimeout = drained the backlog
    auto conn = std::make_shared<PendingConn>();
    conn->stream = std::move(accepted.value());
    (void)conn->stream.set_nodelay(true);
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_conns_.push_back(conn);
    }
    pool_.shard(0).add_fd(conn->stream.raw_fd(),
                          [this, conn] { on_pending_readable(conn); });
  }
}

void Hub::drop_pending(const std::shared_ptr<PendingConn>& conn) {
  if (conn->stream.valid()) {
    pool_.shard(0).remove_fd(conn->stream.raw_fd());
    conn->stream.close();
  }
  std::lock_guard<std::mutex> lock(pending_mutex_);
  std::erase(pending_conns_, conn);
}

void Hub::on_pending_readable(const std::shared_ptr<PendingConn>& conn) {
  if (conn->stage == 2) {
    // A waiting client events channel: the client writes nothing here,
    // so any readability is EOF or an error — reap it.
    char scratch[64];
    auto n = conn->stream.fd().read_some(scratch, sizeof(scratch));
    if (!n.is_ok() || n.value() == 0) drop_pending(conn);
    return;
  }
  // Drain until kTimeout: fork handler C writes hello + hub-register
  // back to back, and the reader may hold the request after the fd has
  // stopped being readable. Each step below either keeps the
  // connection pending (stage 1) or hands it off, parks it (stage 2)
  // or closes it, which ends the loop.
  while (conn->stage < 2 && conn->stream.valid()) {
    auto frame = conn->reader.recv_timeout(conn->stream, 0);
    if (!frame.is_ok()) {
      if (frame.error().code() == ErrorCode::kTimeout) return;  // partial
      drop_pending(conn);
      return;
    }
    if (conn->stage == 0) {
      conn->hello = [&] {
        auto hello = proto::Hello::from_wire(frame.value());
        return hello.is_ok() ? hello.value() : proto::Hello{};
      }();
      handle_hello(conn);
    } else {
      finish_register(conn, frame.value());
    }
  }
}

void Hub::handle_hello(const std::shared_ptr<PendingConn>& conn) {
  const proto::Hello& hello = conn->hello;
  if (hello.proto_major != proto::kProtoMajor) {
    (void)ipc::send_frame(
        conn->stream,
        proto::make_error(0, "protocol major version mismatch",
                          proto::kErrVersionMismatch));
    drop_pending(conn);
    return;
  }
  if (hello.channel == proto::kChannelHubRegister) {
    conn->stage = 1;  // the one-shot register request follows
    return;
  }
  if (hello.channel == proto::kChannelControl) {
    adopt_control(conn);
    return;
  }
  if (hello.channel == proto::kChannelEvents) {
    adopt_events(conn);
    return;
  }
  (void)ipc::send_frame(conn->stream,
                        proto::make_error(0, "unknown channel",
                                          proto::kErrBadRequest));
  drop_pending(conn);
}

void Hub::finish_register(const std::shared_ptr<PendingConn>& conn,
                          const Value& frame) {
  std::int64_t seq = frame.get_int("seq");
  if (frame.get_string("cmd") != proto::HubRegisterRequest::kName) {
    (void)ipc::send_frame(
        conn->stream, proto::make_error(seq, "expected hub-register",
                                        proto::kErrBadRequest));
    drop_pending(conn);
    return;
  }
  auto request = proto::HubRegisterRequest::from_wire(frame);
  if (!request.is_ok()) {
    (void)ipc::send_frame(
        conn->stream, proto::make_error(seq, request.error().to_string(),
                                        proto::kErrBadRequest));
    drop_pending(conn);
    return;
  }
  const auto& req = request.value();
  SessionRecord record;
  record.pid = req.pid;
  record.parent_pid = req.parent_pid;
  record.port = static_cast<std::uint16_t>(req.port);
  record.proto_major = req.proto_major;
  record.proto_minor = req.proto_minor;
  record.kind = req.kind.empty() ? "debuggee" : req.kind;
  record.capabilities = req.capabilities;
  std::int64_t id = registry_.add(std::move(record));
  int shard = shard_for_session(id);
  registry_.set_shard(id, shard);
  metrics::add(metrics::Counter::kHubRegistrations);
  metrics::gauge_set(metrics::Gauge::kHubSessions,
                     static_cast<std::int64_t>(registry_.live_count()));
  proto::HubRegisterResponse response;
  response.session_id = id;
  (void)ipc::send_frame(conn->stream, ok_with(seq, response.to_wire()));
  drop_pending(conn);  // one-shot channel: reply, then close
  DLOG_INFO("hub") << "session " << id << " registered (pid " << req.pid
                   << ", port " << req.port << ", shard " << shard << ", "
                   << (req.kind.empty() ? "debuggee" : req.kind) << ")";
  pool_.shard(shard).post([this, id] { dial_back(id); });
}

void Hub::adopt_control(const std::shared_ptr<PendingConn>& conn) {
  auto peer = std::make_shared<ClientPeer>(opts_.client_queue_frames);
  peer->token = conn->hello.client_token;
  peer->legacy = peer->token.empty();
  peer->control = std::move(conn->stream);
  peer->control_reader = std::move(conn->reader);
  std::shared_ptr<PendingConn> waiting;
  {
    std::lock_guard<std::mutex> lock(peers_mutex_);
    peer->peer_id = next_peer_id_++;
    peer->shard = pool_.shard_for(peer->peer_id);
    peers_[peer->peer_id] = peer;
  }
  {
    // An events hello with our token may have arrived first.
    std::lock_guard<std::mutex> lock(pending_mutex_);
    for (auto& candidate : pending_conns_) {
      if (candidate->stage != 2) continue;
      if (candidate->hello.client_token != peer->token) continue;
      waiting = candidate;
      break;
    }
  }
  metrics::gauge_set(metrics::Gauge::kHubPeers,
                     static_cast<std::int64_t>(peer_count()));
  pool_.shard(0).remove_fd(peer->control.raw_fd());
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    std::erase(pending_conns_, conn);
  }
  ipc::Reactor& shard = pool_.shard(peer->shard);
  shard.add_fd(peer->control.raw_fd(), [this, peer] { on_peer_control(peer); });
  // The reader came along with whatever followed the hello in the same
  // read (a ping, say); no readiness will report it, so look once.
  shard.post([this, peer] { on_peer_control(peer); });
  if (waiting) pair_events(peer, waiting);
}

void Hub::adopt_events(const std::shared_ptr<PendingConn>& conn) {
  std::shared_ptr<ClientPeer> target;
  {
    std::lock_guard<std::mutex> lock(peers_mutex_);
    // Token match first; a token-less events channel pairs with the
    // oldest token-less peer that still lacks one (pre-1.5 clients
    // connect control then events back to back, so "oldest unpaired"
    // is the sibling).
    std::uint64_t best = 0;
    for (const auto& [id, peer] : peers_) {
      if (peer->events_fd.load(std::memory_order_relaxed) >= 0) continue;
      if (peer->token != conn->hello.client_token) continue;
      if (best == 0 || id < best) {
        best = id;
        target = peer;
      }
    }
  }
  if (!target) {
    conn->stage = 2;  // wait for the control sibling
    return;
  }
  pair_events(target, conn);
}

void Hub::pair_events(const std::shared_ptr<ClientPeer>& peer,
                      std::shared_ptr<PendingConn> conn) {
  // conn->reader is dropped with conn: a client writes nothing on its
  // events channel after the hello, so the reader holds no frame.
  pool_.shard(0).remove_fd(conn->stream.raw_fd());
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    std::erase(pending_conns_, conn);
  }
  int fd = conn->stream.raw_fd();
  {
    std::lock_guard<std::mutex> lock(peer->queue_mutex);
    peer->events = std::move(conn->stream);
    peer->events_fd.store(fd, std::memory_order_relaxed);
  }
  auto self = peer;
  pool_.shard(peer->shard).add_fd(fd, [this, self] {
    // The client never writes on its events channel: readability is
    // EOF or reset.
    char scratch[64];
    auto n = self->events.fd().read_some(scratch, sizeof(scratch));
    if (!n.is_ok() || n.value() == 0) drop_peer(self, "events channel closed");
  });
  // Anything queued while the channel was missing (backlog replays,
  // early events) goes out now; also start the liveness clock.
  Value beat = proto::make_event(proto::Event::kHeartbeat);
  beat.set("pid", static_cast<std::int64_t>(::getpid()));
  if (auto encoded = ipc::encode_frame(beat); encoded.is_ok()) {
    std::lock_guard<std::mutex> lock(peer->queue_mutex);
    (void)peer->queue.push(std::move(encoded.value()));
  }
  schedule_flush(peer);
}

// ------------------------------------------------ session shard

void Hub::dial_back(std::int64_t session_id) {
  SessionRecord record;
  if (!registry_.find(session_id, &record)) return;
  auto up = std::make_shared<Upstream>();
  up->session_id = session_id;
  up->shard = shard_for_session(session_id);
  up->pid = record.pid;
  {
    std::lock_guard<std::mutex> lock(upstreams_mutex_);
    upstreams_[session_id] = up;
  }
  auto connect_channel = [&](const char* channel) -> Result<ipc::TcpStream> {
    auto stream =
        ipc::TcpStream::connect_retry(record.port, opts_.dialback_timeout_millis);
    if (!stream.is_ok()) return stream;
    (void)stream.value().set_nodelay(true);
    proto::Hello hello;
    hello.channel = channel;
    hello.pid = static_cast<int>(::getpid());
    hello.capabilities = {proto::kCapHub};
    hello.expect_pid = record.pid;
    DIONEA_RETURN_IF_ERROR(ipc::send_frame(stream.value(), hello.to_wire()));
    return stream;
  };
  auto control = connect_channel(proto::kChannelControl);
  if (!control.is_ok()) {
    upstream_dead(up, "dial-back (control) failed: " +
                          control.error().to_string());
    return;
  }
  auto events = connect_channel(proto::kChannelEvents);
  if (!events.is_ok()) {
    upstream_dead(up,
                  "dial-back (events) failed: " + events.error().to_string());
    return;
  }
  up->control = std::move(control.value());
  up->events = std::move(events.value());
  ipc::Reactor& reactor = pool_.shard(up->shard);
  reactor.add_fd(up->control.raw_fd(),
                 [this, up] { on_upstream_control(up); });
  reactor.add_fd(up->events.raw_fd(), [this, up] { on_upstream_events(up); });
}

void Hub::on_upstream_events(const std::shared_ptr<Upstream>& up) {
  while (!up->dead.load(std::memory_order_relaxed)) {
    auto frame = up->events_reader.recv_timeout(up->events, 0);
    if (!frame.is_ok()) {
      if (frame.error().code() == ErrorCode::kTimeout) return;
      upstream_dead(up, "events channel: " + frame.error().to_string());
      return;
    }
    route_event(up, std::move(frame.value()));
  }
}

void Hub::on_upstream_control(const std::shared_ptr<Upstream>& up) {
  while (!up->dead.load(std::memory_order_relaxed)) {
    auto frame = up->control_reader.recv_timeout(up->control, 0);
    if (!frame.is_ok()) {
      if (frame.error().code() == ErrorCode::kTimeout) return;
      upstream_dead(up, "control channel: " + frame.error().to_string());
      return;
    }
    Value response = std::move(frame.value());
    std::int64_t upstream_seq = response.get_int("re");
    Upstream::PendingRequest pending;
    {
      std::lock_guard<std::mutex> lock(up->pending_mutex);
      auto it = up->pending.find(upstream_seq);
      if (it == up->pending.end()) continue;  // late reply for a dead peer
      pending = it->second;
      up->pending.erase(it);
    }
    auto peer = pending.peer.lock();
    if (!peer) continue;
    response.set("re", pending.client_seq);
    response.set(proto::kSessionIdKey, up->session_id);
    reply_to_peer(peer, response);
  }
}

void Hub::route_event(const std::shared_ptr<Upstream>& up, Value event) {
  metrics::ScopedTimer timer(metrics::Histogram::kHubRouteNanos);
  proto::Event kind = proto::event_from_name(event.get_string("event"));
  if (kind == proto::Event::kHeartbeat) {
    // Debuggee liveness beacon: the hub is the consumer. Peers get the
    // hub's own heartbeats instead.
    return;
  }
  if (kind == proto::Event::kTerminated) up->saw_terminated = true;
  event.set(proto::kSessionIdKey, up->session_id);
  auto encoded = ipc::encode_frame(event);
  if (!encoded.is_ok()) return;
  const std::string& frame = encoded.value();
  auto peers = peers_snapshot();
  std::lock_guard<std::mutex> backlog_lock(up->backlog_mutex);
  up->backlog.push_back(frame);
  while (up->backlog.size() > opts_.session_backlog_events)
    up->backlog.pop_front();
  for (const auto& peer : peers) {
    deliver_frame(peer, frame, up);
  }
}

// Caller holds up->backlog_mutex (so a first-coverage replay and new
// events cannot interleave out of order).
void Hub::deliver_frame(const std::shared_ptr<ClientPeer>& peer,
                        const std::string& frame,
                        const std::shared_ptr<Upstream>& up) {
  if (peer->gone.load(std::memory_order_relaxed)) return;
  bool covered = false;
  bool first_coverage = false;
  {
    std::lock_guard<std::mutex> lock(peer->state_mutex);
    covered = peer->subscribed_all ||
              peer->subscriptions.count(up->session_id) > 0 ||
              peer->bound_session == up->session_id;
    if (covered)
      first_coverage = peer->replayed.insert(up->session_id).second;
  }
  if (!covered) return;
  std::uint64_t dropped_before;
  std::uint64_t delivered = 0;
  {
    std::lock_guard<std::mutex> lock(peer->queue_mutex);
    dropped_before = peer->queue.dropped();
    if (first_coverage) {
      // The backlog already ends with the current frame.
      for (const auto& buffered : up->backlog) {
        (void)peer->queue.push(buffered);
        ++delivered;
      }
    } else {
      (void)peer->queue.push(frame);
      delivered = 1;
    }
    std::uint64_t evicted = peer->queue.dropped() - dropped_before;
    if (evicted > 0) {
      up->dropped.fetch_add(evicted, std::memory_order_relaxed);
      metrics::add(metrics::Counter::kHubEventsDropped, evicted);
    }
  }
  up->routed.fetch_add(delivered, std::memory_order_relaxed);
  metrics::add(metrics::Counter::kHubEventsRouted, delivered);
  schedule_flush(peer);
}

void Hub::upstream_dead(const std::shared_ptr<Upstream>& up,
                        const std::string& why) {
  if (up->dead.exchange(true)) return;
  DLOG_INFO("hub") << "session " << up->session_id << " down: " << why;
  registry_.mark_dead(up->session_id);
  metrics::gauge_set(metrics::Gauge::kHubSessions,
                     static_cast<std::int64_t>(registry_.live_count()));
  // Fail every in-flight request: its client deserves an error, not a
  // timeout.
  std::map<std::int64_t, Upstream::PendingRequest> orphaned;
  {
    std::lock_guard<std::mutex> lock(up->pending_mutex);
    orphaned.swap(up->pending);
  }
  for (const auto& [seq, pending] : orphaned) {
    auto peer = pending.peer.lock();
    if (!peer) continue;
    Value error = proto::make_error(pending.client_seq, "session died: " + why,
                                    proto::kErrBadRequest);
    error.set(proto::kSessionIdKey, up->session_id);
    reply_to_peer(peer, error);
  }
  // A connection that vanished without a clean `terminated` is a
  // crash as far as subscribers are concerned (same synthesis the
  // direct client does for itself).
  if (!up->saw_terminated && !up->synthetic) {
    Value crashed = proto::make_event(proto::Event::kProcessCrashed);
    crashed.set("pid", static_cast<std::int64_t>(up->pid));
    route_event(up, std::move(crashed));
  }
  ipc::Reactor& reactor = pool_.shard(up->shard);
  if (up->control.valid()) reactor.remove_fd(up->control.raw_fd());
  if (up->events.valid()) reactor.remove_fd(up->events.raw_fd());
  std::lock_guard<std::mutex> lock(up->write_mutex);
  up->control.close();
  up->events.close();
  // The Upstream object stays in upstreams_: its backlog keeps serving
  // late subscribers the session's last moments.
}

// ------------------------------------------------ peer shard

void Hub::on_peer_control(const std::shared_ptr<ClientPeer>& peer) {
  while (!peer->gone.load(std::memory_order_relaxed)) {
    auto frame = peer->control_reader.recv_timeout(peer->control, 0);
    if (!frame.is_ok()) {
      if (frame.error().code() == ErrorCode::kTimeout) return;
      drop_peer(peer, frame.error().to_string());
      return;
    }
    handle_peer_request(peer, std::move(frame.value()));
  }
}

void Hub::reply_to_peer(const std::shared_ptr<ClientPeer>& peer,
                        const Value& response) {
  Status st = Status::ok();
  {
    std::lock_guard<std::mutex> lock(peer->control_write_mutex);
    if (peer->gone.load(std::memory_order_relaxed)) return;
    if (!peer->control.valid()) return;
    st = ipc::send_frame(peer->control, response);
  }
  if (!st.is_ok()) drop_peer(peer, "control write: " + st.to_string());
}

std::int64_t Hub::resolve_binding(const std::shared_ptr<ClientPeer>& peer,
                                  std::int64_t requested) {
  if (requested != 0) return requested;
  {
    std::lock_guard<std::mutex> lock(peer->state_mutex);
    if (peer->bound_session != 0) return peer->bound_session;
  }
  // Lazy default binding: the first un-addressed command from a
  // (typically pre-1.5) client binds it to the default session, which
  // also subscribes its events channel — the capability-downgrade path.
  std::int64_t def = registry_.default_session();
  if (def == 0) return 0;
  {
    std::lock_guard<std::mutex> lock(peer->state_mutex);
    if (peer->bound_session == 0) peer->bound_session = def;
    def = peer->bound_session;
  }
  cover_session(peer, def);
  return def;
}

void Hub::cover_session(const std::shared_ptr<ClientPeer>& peer,
                        std::int64_t session_id) {
  auto up = upstream_for(session_id);
  if (!up) return;
  std::lock_guard<std::mutex> backlog_lock(up->backlog_mutex);
  {
    std::lock_guard<std::mutex> lock(peer->state_mutex);
    if (!peer->replayed.insert(session_id).second) return;
  }
  std::uint64_t delivered = 0;
  {
    std::lock_guard<std::mutex> lock(peer->queue_mutex);
    for (const auto& buffered : up->backlog) {
      (void)peer->queue.push(buffered);
      ++delivered;
    }
  }
  if (delivered > 0) {
    up->routed.fetch_add(delivered, std::memory_order_relaxed);
    metrics::add(metrics::Counter::kHubEventsRouted, delivered);
    schedule_flush(peer);
  }
}

void Hub::handle_peer_request(const std::shared_ptr<ClientPeer>& peer,
                              Value request) {
  std::string cmd = request.get_string("cmd");
  std::int64_t seq = request.get_int("seq");
  std::int64_t addressed = request.get_int(proto::kSessionIdKey, 0);

  if (cmd == proto::PingRequest::kName) {
    proto::PingResponse response;
    response.heartbeat_ms = opts_.heartbeat_interval_millis;
    response.proto_major = proto::kProtoMajor;
    response.proto_minor = proto::kProtoMinor;
    std::set<std::string> caps = {proto::kCapHub, proto::kCapHeartbeat};
    std::int64_t sid = resolve_binding(peer, addressed);
    SessionRecord record;
    if (sid != 0 && registry_.find(sid, &record)) {
      response.pid = record.pid;
      caps.insert(record.capabilities.begin(), record.capabilities.end());
    }
    response.capabilities.assign(caps.begin(), caps.end());
    reply_to_peer(peer, ok_with(seq, response.to_wire()));
    return;
  }
  if (cmd == proto::HubSessionsRequest::kName) {
    proto::HubSessionsResponse response;
    for (const SessionRecord& record : registry_.snapshot()) {
      proto::HubSessionEntry entry;
      entry.session_id = record.id;
      entry.pid = record.pid;
      entry.parent_pid = record.parent_pid;
      entry.port = record.port;
      entry.alive = record.alive;
      entry.synthetic = record.synthetic;
      entry.shard = record.shard;
      entry.kind = record.kind;
      if (auto up = upstream_for(record.id)) {
        entry.events_routed =
            static_cast<std::int64_t>(up->routed.load(std::memory_order_relaxed));
        entry.events_dropped = static_cast<std::int64_t>(
            up->dropped.load(std::memory_order_relaxed));
      }
      response.sessions.push_back(std::move(entry));
    }
    reply_to_peer(peer, ok_with(seq, response.to_wire()));
    return;
  }
  if (cmd == proto::HubAttachRequest::kName) {
    auto parsed = proto::HubAttachRequest::from_wire(request);
    std::int64_t target = parsed.is_ok() ? parsed.value().session_id : 0;
    int attached = 0;
    if (target == 0) {
      {
        std::lock_guard<std::mutex> lock(peer->state_mutex);
        peer->subscribed_all = true;
      }
      for (const SessionRecord& record : registry_.snapshot()) {
        cover_session(peer, record.id);
        ++attached;
      }
    } else {
      if (!registry_.find(target, nullptr)) {
        reply_to_peer(peer, proto::make_error(seq, "unknown session",
                                              proto::kErrBadRequest));
        return;
      }
      {
        std::lock_guard<std::mutex> lock(peer->state_mutex);
        peer->subscriptions.insert(target);
      }
      cover_session(peer, target);
      attached = 1;
    }
    proto::HubAttachResponse response;
    response.attached = attached;
    reply_to_peer(peer, ok_with(seq, response.to_wire()));
    return;
  }
  if (cmd == proto::HubDetachRequest::kName) {
    auto parsed = proto::HubDetachRequest::from_wire(request);
    std::int64_t target = parsed.is_ok() ? parsed.value().session_id : 0;
    int detached = 0;
    {
      std::lock_guard<std::mutex> lock(peer->state_mutex);
      if (target == 0) {
        detached = static_cast<int>(peer->subscriptions.size()) +
                   (peer->subscribed_all ? 1 : 0);
        peer->subscribed_all = false;
        peer->subscriptions.clear();
        peer->bound_session = 0;
      } else {
        detached = static_cast<int>(peer->subscriptions.erase(target));
        if (peer->bound_session == target) {
          peer->bound_session = 0;
          detached = detached == 0 ? 1 : detached;
        }
        peer->replayed.erase(target);  // a re-attach replays again
      }
    }
    proto::HubDetachResponse response;
    response.detached = detached;
    reply_to_peer(peer, ok_with(seq, response.to_wire()));
    return;
  }
  if (cmd == "detach") {
    // Detaching from the hub must not detach the hub from the
    // debuggee: answer locally, keep the upstream attached for other
    // (and future) clients.
    reply_to_peer(peer, proto::make_ok(seq));
    return;
  }

  // Everything else is a session command: forward it.
  std::int64_t sid = resolve_binding(peer, addressed);
  if (sid == 0) {
    reply_to_peer(peer, proto::make_error(seq, "no attached session",
                                          proto::kErrBadRequest));
    return;
  }
  auto up = upstream_for(sid);
  if (!up || up->synthetic || up->dead.load(std::memory_order_relaxed)) {
    const char* what = up == nullptr ? "unknown session"
                       : up->synthetic ? "synthetic session has no debuggee"
                                       : "session is dead";
    Value error = proto::make_error(seq, what, proto::kErrBadRequest);
    error.set(proto::kSessionIdKey, sid);
    reply_to_peer(peer, error);
    return;
  }
  Value forwarded = std::move(request);
  forwarded.mutable_object().erase(proto::kSessionIdKey);
  std::int64_t upstream_seq;
  {
    std::lock_guard<std::mutex> lock(up->pending_mutex);
    upstream_seq = up->next_seq++;
    up->pending[upstream_seq] = {peer, seq};
  }
  forwarded.set("seq", upstream_seq);
  Status st;
  {
    std::lock_guard<std::mutex> lock(up->write_mutex);
    st = up->control.valid()
             ? ipc::send_frame(up->control, forwarded)
             : Status(ErrorCode::kClosed, "upstream closed");
  }
  if (!st.is_ok()) {
    {
      std::lock_guard<std::mutex> lock(up->pending_mutex);
      up->pending.erase(upstream_seq);
    }
    Value error = proto::make_error(
        seq, "session unreachable: " + st.to_string(), proto::kErrBadRequest);
    error.set(proto::kSessionIdKey, sid);
    reply_to_peer(peer, error);
    pool_.shard(up->shard).post(
        [this, up, st] { upstream_dead(up, st.to_string()); });
  }
}

void Hub::drop_peer(const std::shared_ptr<ClientPeer>& peer,
                    const std::string& why) {
  if (peer->gone.exchange(true)) return;
  DLOG_DEBUG("hub") << "peer " << peer->peer_id << " dropped: " << why;
  {
    std::lock_guard<std::mutex> lock(peers_mutex_);
    peers_.erase(peer->peer_id);
  }
  metrics::gauge_set(metrics::Gauge::kHubPeers,
                     static_cast<std::int64_t>(peer_count()));
  ipc::Reactor& reactor = pool_.shard(peer->shard);
  if (peer->control.valid()) reactor.remove_fd(peer->control.raw_fd());
  int efd = peer->events_fd.exchange(-1, std::memory_order_relaxed);
  if (efd >= 0) reactor.remove_fd(efd);
  {
    std::lock_guard<std::mutex> lock(peer->control_write_mutex);
    peer->control.close();
  }
  {
    std::lock_guard<std::mutex> lock(peer->queue_mutex);
    peer->events.close();
    peer->queue.clear();
  }
}

void Hub::schedule_flush(const std::shared_ptr<ClientPeer>& peer) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  if (peer->flush_scheduled.exchange(true)) return;
  pool_.shard(peer->shard).post([this, peer] {
    peer->flush_scheduled.store(false, std::memory_order_relaxed);
    flush_peer(peer);
  });
}

void Hub::flush_peer(const std::shared_ptr<ClientPeer>& peer) {
  Status st = Status::ok();
  {
    std::lock_guard<std::mutex> lock(peer->queue_mutex);
    if (peer->gone.load(std::memory_order_relaxed)) return;
    int fd = peer->events_fd.load(std::memory_order_relaxed);
    if (fd < 0 || peer->queue.empty()) return;
    st = peer->queue.flush(fd);
  }
  if (!st.is_ok()) drop_peer(peer, "events flush: " + st.to_string());
}

void Hub::beacon_heartbeats(int shard) {
  Value beat = proto::make_event(proto::Event::kHeartbeat);
  beat.set("pid", static_cast<std::int64_t>(::getpid()));
  auto encoded = ipc::encode_frame(beat);
  if (!encoded.is_ok()) return;
  for (const auto& peer : peers_snapshot()) {
    if (peer->shard != shard) continue;
    if (peer->events_fd.load(std::memory_order_relaxed) < 0) continue;
    {
      std::lock_guard<std::mutex> lock(peer->queue_mutex);
      (void)peer->queue.push(encoded.value());
    }
    flush_peer(peer);
  }
}

void Hub::sweep_flush(int shard) {
  // Second chance for EAGAIN leftovers: schedule_flush() only fires on
  // new frames, so a queue stuck behind a full socket buffer drains
  // here once the client catches up.
  for (const auto& peer : peers_snapshot()) {
    if (peer->shard != shard) continue;
    bool needs_flush;
    {
      std::lock_guard<std::mutex> lock(peer->queue_mutex);
      needs_flush = !peer->queue.empty() &&
                    peer->events_fd.load(std::memory_order_relaxed) >= 0;
    }
    if (needs_flush) flush_peer(peer);
  }
}

// ------------------------------------------------ bench/test surface

std::int64_t Hub::register_synthetic(int pid, int parent_pid) {
  SessionRecord record;
  record.pid = pid;
  record.parent_pid = parent_pid;
  record.synthetic = true;
  record.proto_major = proto::kProtoMajor;
  record.proto_minor = proto::kProtoMinor;
  std::int64_t id = registry_.add(std::move(record));
  int shard = shard_for_session(id);
  registry_.set_shard(id, shard);
  auto up = std::make_shared<Upstream>();
  up->session_id = id;
  up->shard = shard;
  up->pid = pid;
  up->synthetic = true;
  {
    std::lock_guard<std::mutex> lock(upstreams_mutex_);
    upstreams_[id] = up;
  }
  metrics::add(metrics::Counter::kHubRegistrations);
  metrics::gauge_set(metrics::Gauge::kHubSessions,
                     static_cast<std::int64_t>(registry_.live_count()));
  return id;
}

void Hub::inject_event(std::int64_t session_id, Value event) {
  pool_.reactor_for(static_cast<std::uint64_t>(session_id))
      .post([this, session_id, event = std::move(event)]() mutable {
        auto up = upstream_for(session_id);
        if (up && !up->dead.load(std::memory_order_relaxed))
          route_event(up, std::move(event));
      });
}

}  // namespace dionea::hub
