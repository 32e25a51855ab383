#include "ipc/frame.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {
namespace {

// FrameReader's refill size: one read(2) takes up to this much.
constexpr size_t kReadChunk = 64u << 10;

void put_u32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t get_u32(const char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

// Shared body of recv_frame / recv_frame_timeout. deadline_millis < 0
// means "block forever"; otherwise every read is bounded so a peer
// that dies after sending a partial frame yields kTimeout, not a hang.
Result<wire::Value> recv_frame_impl(TcpStream& stream, int deadline_millis) {
  Stopwatch watch;
  auto read_part = [&](void* data, size_t len) -> Status {
    if (deadline_millis < 0) return stream.read_exact(data, len);
    int remaining =
        deadline_millis - static_cast<int>(watch.elapsed_seconds() * 1000.0);
    if (remaining <= 0) {
      return Status(ErrorCode::kTimeout, "frame stalled mid-read");
    }
    return stream.read_exact_timeout(data, len, remaining);
  };

  char header[8];
  DIONEA_RETURN_IF_ERROR(read_part(header, sizeof(header)));
  std::uint32_t magic = get_u32(header);
  if (magic != kFrameMagic) {
    return Error(ErrorCode::kProtocol,
                 strings::format("bad frame magic 0x%08x (socket crossed a "
                                 "fork without re-establishment?)",
                                 magic));
  }
  std::uint32_t len = get_u32(header + 4);
  if (len > max_recv_frame_bytes()) {
    return Error(ErrorCode::kProtocol,
                 strings::format("frame length %u exceeds receive limit %u",
                                 len, max_recv_frame_bytes()));
  }
  std::string payload(len, '\0');
  if (len > 0) {
    DIONEA_RETURN_IF_ERROR(read_part(payload.data(), len));
  }
  metrics::add(metrics::Counter::kFramesReceived);
  metrics::add(metrics::Counter::kFrameBytesReceived, 8 + len);
  return wire::Value::decode(payload);
}

}  // namespace

std::uint32_t max_recv_frame_bytes() noexcept {
  // Constant-initialized atomic, not a guarded static: recv runs on
  // every thread including freshly forked children, and a guarded
  // static whose init was in flight on a sibling at fork time would
  // wedge the child. Racing first calls compute the same value.
  static std::atomic<std::uint32_t> cached{0};
  std::uint32_t cap = cached.load(std::memory_order_relaxed);
  if (cap != 0) return cap;
  cap = [] {
    const char* v = std::getenv("DIONEA_MAX_FRAME_BYTES");
    if (v == nullptr || *v == '\0') return kMaxFrameBytes;
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0') return kMaxFrameBytes;
    if (parsed < 4096ull) return 4096u;
    if (parsed > kMaxFrameBytes) return kMaxFrameBytes;
    return static_cast<std::uint32_t>(parsed);
  }();
  cached.store(cap, std::memory_order_relaxed);
  return cap;
}

Result<std::string> encode_frame(const wire::Value& value) {
  std::string payload;
  value.encode(&payload);
  if (payload.size() > kMaxFrameBytes) {
    return Error(ErrorCode::kInvalidArgument,
                 strings::format("frame too large: %zu bytes", payload.size()));
  }
  char header[8];
  put_u32(header, kFrameMagic);
  put_u32(header + 4, static_cast<std::uint32_t>(payload.size()));
  std::string buffer;
  buffer.reserve(sizeof(header) + payload.size());
  buffer.append(header, sizeof(header));
  buffer.append(payload);
  return buffer;
}

Status send_frame(TcpStream& stream, const wire::Value& value) {
  // Frame-boundary fault: a reset *before* any bytes go out keeps the
  // stream's framing intact — the failure is clean and typed.
  if (fault::Decision f = fault::probe("frame.send");
      f.kind == fault::Kind::kConnReset) {
    return errno_error("send_frame (injected)", ECONNRESET);
  }
  std::string payload;
  value.encode(&payload);
  if (payload.size() > kMaxFrameBytes) {
    return Status(ErrorCode::kInvalidArgument,
                  strings::format("frame too large: %zu bytes", payload.size()));
  }
  char header[8];
  put_u32(header, kFrameMagic);
  put_u32(header + 4, static_cast<std::uint32_t>(payload.size()));
  // Single buffered write: a frame must hit the socket atomically with
  // respect to this process's other writers (the server serializes
  // writers, but keeping the invariant local makes it fork-robust).
  std::string buffer;
  buffer.reserve(sizeof(header) + payload.size());
  buffer.append(header, sizeof(header));
  buffer.append(payload);
  Status st = stream.write_all(buffer.data(), buffer.size());
  if (st.is_ok()) {
    metrics::add(metrics::Counter::kFramesSent);
    metrics::add(metrics::Counter::kFrameBytesSent, buffer.size());
  }
  return st;
}

Result<wire::Value> recv_frame(TcpStream& stream) {
  if (fault::Decision f = fault::probe("frame.recv");
      f.kind == fault::Kind::kConnReset) {
    return errno_error("recv_frame (injected)", ECONNRESET);
  }
  return recv_frame_impl(stream, -1);
}

Result<wire::Value> recv_frame_timeout(TcpStream& stream, int timeout_millis) {
  if (fault::Decision f = fault::probe("frame.recv");
      f.kind == fault::Kind::kConnReset) {
    return errno_error("recv_frame (injected)", ECONNRESET);
  }
  DIONEA_ASSIGN_OR_RETURN(bool ready, stream.readable(timeout_millis));
  if (!ready) {
    return Error(ErrorCode::kTimeout, "no frame within timeout");
  }
  return recv_frame_impl(stream, timeout_millis);
}

FrameReader::FrameReader(FrameReader&& other) noexcept
    : buf_(std::move(other.buf_)),
      capacity_(std::exchange(other.capacity_, 0)),
      begin_(std::exchange(other.begin_, 0)),
      end_(std::exchange(other.end_, 0)) {}

FrameReader& FrameReader::operator=(FrameReader&& other) noexcept {
  if (this != &other) {
    buf_ = std::move(other.buf_);
    capacity_ = std::exchange(other.capacity_, 0);
    begin_ = std::exchange(other.begin_, 0);
    end_ = std::exchange(other.end_, 0);
  }
  return *this;
}

void FrameReader::reset() noexcept {
  buf_.reset();
  capacity_ = 0;
  begin_ = 0;
  end_ = 0;
}

void FrameReader::reserve_refill(size_t need) {
  const size_t held = end_ - begin_;
  const size_t want = std::max(need, kReadChunk);
  if (capacity_ >= want) {
    // Slide the partial frame to the front; at most one frame's bytes.
    if (begin_ > 0) std::memmove(buf_.get(), buf_.get() + begin_, held);
  } else {
    // First refill, or a frame larger than a chunk whose length has
    // already passed the receive cap.
    auto bigger = std::make_unique_for_overwrite<char[]>(want);
    if (held > 0) std::memcpy(bigger.get(), buf_.get() + begin_, held);
    buf_ = std::move(bigger);
    capacity_ = want;
  }
  begin_ = 0;
  end_ = held;
}

Result<wire::Value> FrameReader::recv_timeout(TcpStream& stream,
                                              int timeout_millis) {
  if (fault::Decision f = fault::probe("frame.recv");
      f.kind == fault::Kind::kConnReset) {
    return errno_error("recv_frame (injected)", ECONNRESET);
  }
  Stopwatch watch;
  while (true) {
    const size_t held = end_ - begin_;
    size_t need = 8;  // header first, then the length it announces
    if (held >= 8) {
      const char* frame = buf_.get() + begin_;
      std::uint32_t magic = get_u32(frame);
      if (magic != kFrameMagic) {
        reset();
        return Error(ErrorCode::kProtocol,
                     strings::format("bad frame magic 0x%08x (socket crossed "
                                     "a fork without re-establishment?)",
                                     magic));
      }
      std::uint32_t len = get_u32(frame + 4);
      if (len > max_recv_frame_bytes()) {
        reset();
        return Error(ErrorCode::kProtocol,
                     strings::format("frame length %u exceeds receive limit %u",
                                     len, max_recv_frame_bytes()));
      }
      need = 8 + static_cast<size_t>(len);
      if (held >= need) {
        std::string payload(frame + 8, len);
        begin_ += need;
        metrics::add(metrics::Counter::kFramesReceived);
        metrics::add(metrics::Counter::kFrameBytesReceived, 8 + len);
        return wire::Value::decode(payload);
      }
    }
    int remaining =
        timeout_millis - static_cast<int>(watch.elapsed_seconds() * 1000.0);
    if (remaining < 0) remaining = 0;
    DIONEA_ASSIGN_OR_RETURN(bool ready, stream.readable(remaining));
    if (!ready) {
      // A partial frame stays buffered; the next call resumes it.
      if (held == 0) {
        reset();
        return Error(ErrorCode::kTimeout, "no frame within timeout");
      }
      return Error(ErrorCode::kTimeout, "frame incomplete within timeout");
    }
    reserve_refill(need);
    DIONEA_ASSIGN_OR_RETURN(
        size_t n, stream.fd().read_some(buf_.get() + end_, capacity_ - end_));
    if (n == 0) {
      reset();
      return Error(ErrorCode::kClosed, "EOF on events channel");
    }
    end_ += n;
  }
}

}  // namespace dionea::ipc
