#include "hub/outbound_queue.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <cerrno>

namespace dionea::hub {
namespace {

// Frames handed to one sendmsg(2); well under IOV_MAX.
constexpr size_t kFlushBatch = 64;

}  // namespace

bool OutboundQueue::push(std::string frame) {
  ++queued_total_;
  bool evicted = false;
  while (frames_.size() >= max_frames_) {
    // Never evict a frame that has bytes on the wire: the stream's
    // framing would tear. Evict the oldest *unstarted* frame instead.
    size_t victim = (offset_ > 0 && frames_.size() > 1) ? 1 : 0;
    if (offset_ > 0 && frames_.size() == 1) break;  // sole frame is mid-write
    frames_.erase(frames_.begin() + static_cast<std::ptrdiff_t>(victim));
    ++dropped_;
    evicted = true;
  }
  frames_.push_back(std::move(frame));
  return !evicted;
}

Status OutboundQueue::flush(int fd, bool* made_progress) {
  if (made_progress != nullptr) *made_progress = false;
  while (!frames_.empty()) {
    // One sendmsg per batch: the first iovec resumes the front frame
    // at offset_, the rest are whole frames.
    iovec iov[kFlushBatch];
    size_t count = 0;
    for (const std::string& frame : frames_) {
      if (count == kFlushBatch) break;
      size_t skip = count == 0 ? offset_ : 0;
      iov[count].iov_base = const_cast<char*>(frame.data()) + skip;
      iov[count].iov_len = frame.size() - skip;
      ++count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    // MSG_NOSIGNAL: a vanished client must surface as EPIPE, not a
    // process-killing SIGPIPE on the hub's shard thread.
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::ok();
      if (errno == EINTR) continue;
      return errno_error("hub outbound flush", errno);
    }
    if (made_progress != nullptr && n > 0) *made_progress = true;
    // Retire every frame the write covered; a partial one stays at the
    // front with its offset.
    size_t sent = static_cast<size_t>(n);
    while (sent > 0) {
      size_t rest = frames_.front().size() - offset_;
      if (sent < rest) {
        offset_ += sent;
        break;
      }
      sent -= rest;
      frames_.pop_front();
      offset_ = 0;
    }
  }
  return Status::ok();
}

}  // namespace dionea::hub
