#include "ipc/reactor.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {

Reactor::Reactor() : Reactor(make_reactor_backend()) {}

Reactor::Reactor(std::unique_ptr<ReactorBackend> backend)
    : backend_(std::move(backend)) {
  DIONEA_CHECK(backend_ != nullptr, "reactor backend");
  auto wakeup = Wakeup::create();
  DIONEA_CHECK(wakeup.is_ok(), "reactor wakeup");
  wakeup_ = std::move(wakeup).value();
  Status watched = backend_->add(wakeup_.fd());
  DIONEA_CHECK(watched.is_ok(), "reactor wakeup watch");
}

Reactor::~Reactor() = default;

void Reactor::add_fd(int fd, Callback on_readable) {
  {
    std::scoped_lock lock(mutex_);
    pending_fd_ops_.push_back(FdOp{/*add=*/true, fd, std::move(on_readable)});
  }
  wakeup_.notify();
}

void Reactor::remove_fd(int fd) {
  {
    std::scoped_lock lock(mutex_);
    pending_fd_ops_.push_back(FdOp{/*add=*/false, fd, nullptr});
  }
  wakeup_.notify();
}

int Reactor::add_periodic(int interval_millis, Callback fn) {
  int id;
  {
    std::scoped_lock lock(mutex_);
    id = next_timer_id_++;
    Timer timer;
    timer.interval_millis = interval_millis < 1 ? 1 : interval_millis;
    timer.fn = std::move(fn);
    // next_deadline is stamped on the loop thread when applied.
    pending_timer_add_.emplace_back(id, std::move(timer));
  }
  wakeup_.notify();
  return id;
}

void Reactor::remove_periodic(int timer_id) {
  {
    std::scoped_lock lock(mutex_);
    pending_timer_remove_.push_back(timer_id);
  }
  wakeup_.notify();
}

void Reactor::post(Callback fn) {
  bool first;
  {
    std::scoped_lock lock(mutex_);
    first = pending_tasks_.empty();
    pending_tasks_.push_back(std::move(fn));
  }
  // One wakeup per batch: a non-empty list already has one in flight,
  // and poll_once takes the whole list under mutex_ before it waits, so
  // the next post after that swap notifies again.
  if (first) wakeup_.notify();
}

void Reactor::stop() {
  {
    std::scoped_lock lock(mutex_);
    stop_requested_ = true;
  }
  wakeup_.notify();
}

void Reactor::apply_pending_locked() {
  // Caller holds mutex_. Runs on the loop thread. Ops apply in call
  // order; removals feed the current batch's suppression set so a
  // reused fd number cannot inherit a stale readiness report.
  for (FdOp& op : pending_fd_ops_) {
    if (op.add) {
      Status watched = backend_->add(op.fd);
      if (!watched.is_ok()) {
        // The fd died between add_fd() and here (or is not pollable).
        // Keeping the handler would register a callback that can never
        // fire; drop it and say so.
        DLOG_WARN("ipc") << "reactor: cannot watch fd " << op.fd << ": "
                         << watched.to_string();
        continue;
      }
      handlers_[op.fd] = std::move(op.cb);
    } else {
      handlers_.erase(op.fd);
      backend_->remove(op.fd);
      dead_this_round_.insert(op.fd);
    }
  }
  pending_fd_ops_.clear();
  for (auto& [id, timer] : pending_timer_add_) {
    timer.next_deadline =
        mono_seconds() + static_cast<double>(timer.interval_millis) / 1000.0;
    timers_[id] = std::move(timer);
  }
  pending_timer_add_.clear();
  for (int id : pending_timer_remove_) timers_.erase(id);
  pending_timer_remove_.clear();
}

int Reactor::fire_due_timers() {
  // Loop thread only; timers_ is not guarded. Collect ids first — a
  // timer callback may add/remove timers (applied next round).
  double now = mono_seconds();
  std::vector<int> due;
  for (auto& [id, timer] : timers_) {
    if (timer.next_deadline <= now) due.push_back(id);
  }
  int fired = 0;
  for (int id : due) {
    auto it = timers_.find(id);
    if (it == timers_.end()) continue;
    // Rearm relative to now: a stalled loop fires once, not N times.
    it->second.next_deadline =
        now + static_cast<double>(it->second.interval_millis) / 1000.0;
    Callback cb = it->second.fn;  // copy: cb may remove_periodic itself
    cb();
    ++fired;
  }
  return fired;
}

Result<int> Reactor::poll_once(int timeout_millis) {
  std::vector<Callback> tasks;
  {
    std::scoped_lock lock(mutex_);
    apply_pending_locked();
    tasks.swap(pending_tasks_);
  }
  int fired = 0;
  for (auto& task : tasks) {
    task();
    ++fired;
  }

  // Cap the wait so the nearest timer deadline is honoured.
  int effective_timeout = fired > 0 ? 0 : timeout_millis;
  if (!timers_.empty()) {
    double now = mono_seconds();
    double nearest = timers_.begin()->second.next_deadline;
    for (const auto& [id, timer] : timers_) {
      nearest = std::min(nearest, timer.next_deadline);
    }
    int until = static_cast<int>(std::ceil(std::max(0.0, nearest - now) *
                                           1000.0));
    if (effective_timeout < 0 || until < effective_timeout) {
      effective_timeout = until;
    }
  }

  ready_.clear();
  auto waited = backend_->wait(effective_timeout, ready_);
  if (!waited.is_ok()) return waited.error();

  // Dispatch latency = callback work after the wait wakes, NOT the
  // sleep itself — how long a second client request queues behind the
  // first.
  const bool record = metrics::Registry::instance().enabled();
  const std::int64_t dispatch_start = record ? mono_nanos() : 0;
  const int fired_before_dispatch = fired;
  fired += fire_due_timers();
  dead_this_round_.clear();
  for (const ReactorBackend::Ready& ready : ready_) {
    if (ready.fd == wakeup_.fd()) {
      wakeup_.drain();
      continue;
    }
    if (ready.invalid) {
      // The fd was closed behind our back (a repair path, a handler
      // that closed without remove_fd). poll() reports POLLNVAL for it
      // on every call with no way to consume it, so leaving it
      // registered turns this loop into a busy-wait. Evict it.
      DLOG_WARN("ipc") << "reactor: evicting closed fd " << ready.fd;
      std::scoped_lock lock(mutex_);
      handlers_.erase(ready.fd);
      backend_->remove(ready.fd);
      dead_this_round_.insert(ready.fd);
      continue;
    }
    // An earlier callback in this batch removed the fd (and may have
    // closed it; accept(2) may even have reused the number for a brand
    // new connection). This readiness report predates all of that —
    // drop it.
    if (dead_this_round_.count(ready.fd) != 0) continue;
    // The handler may remove itself (or others); look it up fresh and
    // run it outside the lock (CP.22: never call unknown code while
    // holding a lock).
    Callback cb;
    {
      std::scoped_lock lock(mutex_);
      apply_pending_locked();
      if (dead_this_round_.count(ready.fd) != 0) continue;
      auto it = handlers_.find(ready.fd);
      if (it == handlers_.end()) continue;
      cb = it->second;  // copy: handler may remove_fd itself
    }
    cb();
    ++fired;
  }
  if (record && fired > fired_before_dispatch) {
    metrics::add(metrics::Counter::kReactorRounds);
    metrics::observe(
        metrics::Histogram::kReactorDispatchNanos,
        static_cast<std::uint64_t>(mono_nanos() - dispatch_start));
  }
  return fired;
}

Status Reactor::run() {
  running_ = true;
  while (true) {
    {
      std::scoped_lock lock(mutex_);
      if (stop_requested_) {
        stop_requested_ = false;
        break;
      }
    }
    auto fired = poll_once(250);
    if (!fired.is_ok()) {
      running_ = false;
      return fired.error();
    }
  }
  running_ = false;
  return Status::ok();
}

}  // namespace dionea::ipc
