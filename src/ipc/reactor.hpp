// Reactor-pattern event loop over a pluggable readiness backend.
//
// §4: "this dedicated thread handles the requests asynchronously,
// treating each request as an event dispatched by a loop. The
// implementation of this listener thread is inspired by the Reactor
// pattern [Schmidt'95]." The debug server's listener thread runs one
// of these; handlers for the connection socket and per-channel command
// sockets are registered as readable-callbacks. The hub's shards run
// one per core (see ReactorPool), so readiness detection is delegated
// to a ReactorBackend: epoll(7) on Linux, poll(2) as the portable
// fallback (DIONEA_REACTOR_BACKEND forces one).
//
// Threading model: run() executes on exactly one thread (the listener
// thread / the shard thread). add_fd/remove_fd/post/stop may be called
// from any thread; mutations are queued and applied on the loop
// thread, with a Wakeup (eventfd, pipe fallback) interrupting the
// backend's wait.
//
// Reentrancy: a callback may close its own fd and remove_fd it — even
// if a fresh accept(2) immediately reuses the fd number, the stale
// readiness report from the current round is suppressed (removals are
// tracked per dispatch batch; the reused fd's first real readiness is
// seen next round).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ipc/reactor_backend.hpp"
#include "ipc/wakeup.hpp"
#include "support/result.hpp"

namespace dionea::ipc {

class Reactor {
 public:
  using Callback = std::function<void()>;

  // Default backend: make_reactor_backend() (epoll on Linux).
  Reactor();
  explicit Reactor(std::unique_ptr<ReactorBackend> backend);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Invoke callback on the loop thread whenever fd is readable (or the
  // peer hung up; the callback is expected to detect EOF itself).
  void add_fd(int fd, Callback on_readable);
  void remove_fd(int fd);

  // Invoke callback on the loop thread every interval_millis (first
  // firing one interval from registration). Returns an id for
  // remove_periodic. Used for heartbeats and liveness sweeps.
  int add_periodic(int interval_millis, Callback fn);
  void remove_periodic(int timer_id);

  // Run fn once on the loop thread as soon as possible. Only the post
  // that finds the task list empty writes the wakeup.
  void post(Callback fn);

  // Block dispatching events until stop(). Returns the status that
  // terminated the loop (OK after stop()).
  Status run();

  // One dispatch round with timeout; used by tests. Returns number of
  // callbacks fired.
  Result<int> poll_once(int timeout_millis);

  void stop();

  bool running() const noexcept { return running_.load(); }
  const char* backend_name() const noexcept { return backend_->name(); }

 private:
  struct Timer {
    int interval_millis = 0;
    double next_deadline = 0.0;  // mono_seconds()
    Callback fn;
  };

  // add_fd/remove_fd are applied strictly in call order: with fd-number
  // reuse, "remove old 7, add new 7" must not collapse to "no 7" or
  // "old 7".
  struct FdOp {
    bool add = false;
    int fd = -1;
    Callback cb;  // add only
  };

  void apply_pending_locked();
  int fire_due_timers();

  std::unique_ptr<ReactorBackend> backend_;
  Wakeup wakeup_;
  mutable std::mutex mutex_;
  std::unordered_map<int, Callback> handlers_;  // guarded by mutex_
  std::unordered_map<int, Timer> timers_;       // loop thread only
  std::vector<FdOp> pending_fd_ops_;            // guarded by mutex_
  std::vector<Callback> pending_tasks_;         // guarded by mutex_
  std::vector<std::pair<int, Timer>> pending_timer_add_;  // guarded by mutex_
  std::vector<int> pending_timer_remove_;                 // guarded by mutex_
  int next_timer_id_ = 1;                                 // guarded by mutex_
  bool stop_requested_ = false;  // guarded by mutex_
  std::atomic<bool> running_{false};  // written by run(), read anywhere

  // Loop thread only: scratch for the current dispatch batch.
  std::vector<ReactorBackend::Ready> ready_;
  std::unordered_set<int> dead_this_round_;
};

}  // namespace dionea::ipc
