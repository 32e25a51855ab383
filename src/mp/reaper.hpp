// mp::ChildReaper — SIGCHLD-safe collection of dead children.
//
// A debugger that forks debuggees (and whose debuggees fork again)
// must never leak zombies and must notice child deaths promptly even
// when the child dies of SIGKILL and thus cannot say goodbye over the
// debug channel. The reaper owns a watched-pid set and reaps with
// per-pid waitpid(WNOHANG) — never wait(-1), which would steal exit
// statuses from unrelated Process handles — and turns SIGCHLD into a
// poll(2)-able wakeup through a self-pipe so wait_any() sleeps instead
// of spinning.
//
// Exit observations are meant to be fed to client::Client::
// note_child_exit (direct mode) so a SIGKILL'd debuggee surfaces as a first-class
// process-crashed event.
#pragma once

#include <sys/types.h>

#include <deque>
#include <map>
#include <vector>

#include "mp/process.hpp"
#include "support/result.hpp"

namespace dionea::mp {

class ChildReaper {
 public:
  struct Exit {
    pid_t pid = -1;
    int exit_code = 0;  // valid when signal == 0
    int signal = 0;     // terminating signal, 0 for clean _exit
    bool crashed() const noexcept { return signal != 0; }
  };

  ChildReaper() = default;
  ~ChildReaper() = default;  // watched children are NOT killed; use
                             // terminate_all() for that
  ChildReaper(const ChildReaper&) = delete;
  ChildReaper& operator=(const ChildReaper&) = delete;

  // Start watching a pid this process is the parent of.
  void watch(pid_t pid);
  // Take ownership of a Process handle's child (the handle's
  // destructor would otherwise SIGTERM it).
  void adopt(Process&& process);
  void unwatch(pid_t pid);
  std::vector<pid_t> watched() const;

  // Reap every watched child that has already exited (non-blocking).
  std::vector<Exit> poll();

  // Block until at least one watched child exits; kTimeout when none
  // does within the budget. SIGCHLD wakes the wait early; the fallback
  // poll cadence bounds the latency even if the signal is lost.
  Result<Exit> wait_any(int timeout_millis);

  // Collect exits until the watched set is empty or the deadline
  // passes. Returns what was reaped (kTimeout only if NOTHING exited).
  Result<std::vector<Exit>> drain(int timeout_millis);

  // SIGTERM every watched child, wait up to `grace_millis`, SIGKILL
  // the stragglers, and reap everything. The watched set is empty on
  // return. grace_millis < 0 resolves the default through
  // kill_grace_millis (DIONEA_KILL_GRACE_MS, else 1000ms); an explicit
  // non-negative value always wins over the environment.
  Result<std::vector<Exit>> terminate_all(int grace_millis = -1);

 private:
  // Reap one watched pid if it is dead; true if an exit was recorded.
  bool try_reap(pid_t pid, Exit* out);
  // poll() plus the backlog of exits wait_any reaped but did not
  // return (one waitpid sweep can find several dead children).
  std::vector<Exit> collect();

  std::map<pid_t, bool> watched_;  // value: SIGTERM already sent
  std::deque<Exit> backlog_;       // reaped but not yet reported
};

}  // namespace dionea::mp
