// Bounded per-client outbound frame queue with drop-oldest
// backpressure.
//
// The hub's prime directive is the paper's: the debuggee must never
// block on the debugger. One slow or stalled client must therefore
// never be allowed to exert backpressure up the chain to a debuggee's
// event stream. Each client connection owns one OutboundQueue of
// fully-encoded frames; writers enqueue and move on, a nonblocking
// flush drains whatever the socket accepts right now, and when the
// queue is full the OLDEST unstarted frame is evicted (debugging wants
// the most recent state; a client that fell 256 events behind is
// better served by fresh stops than a faithful replay of stale ones).
// Evictions are counted — silence about loss would be worse than loss.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "support/result.hpp"

namespace dionea::hub {

class OutboundQueue {
 public:
  // max_frames: frames retained before drop-oldest kicks in (>= 1).
  explicit OutboundQueue(size_t max_frames = 256)
      : max_frames_(max_frames < 1 ? 1 : max_frames) {}

  // Enqueue one encoded frame (header + payload bytes). Returns false
  // if an older frame was evicted to make room. Never blocks.
  bool push(std::string frame);

  // Write as much as the socket accepts without blocking, up to 64
  // frames per sendmsg(2). Returns the error on a dead socket; ok on
  // success or EAGAIN. `*made_progress` (optional) reports whether any
  // byte left the queue.
  Status flush(int fd, bool* made_progress = nullptr);

  bool empty() const noexcept { return frames_.empty(); }
  size_t size() const noexcept { return frames_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t queued_total() const noexcept { return queued_total_; }

  void clear() noexcept {
    frames_.clear();
    offset_ = 0;
  }

 private:
  size_t max_frames_;
  std::deque<std::string> frames_;
  // Bytes of frames_.front() already written. A frame mid-write is
  // never evicted — dropping it would tear the stream's framing.
  size_t offset_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t queued_total_ = 0;
};

}  // namespace dionea::hub
