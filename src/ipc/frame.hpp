// Length-prefixed framing of wire::Value over a byte stream.
//
// Frame layout: 4-byte magic 'D','N','E','A' + 4-byte little-endian
// payload length + payload. The magic catches the §5.3 failure mode
// this library exists to prevent: a forked child talking on its
// parent's socket would interleave bytes mid-frame ("mixed requests
// and responses") — with the magic check that corruption surfaces as a
// kProtocol error instead of silently misparsed commands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "ipc/socket.hpp"
#include "ipc/wire.hpp"
#include "support/result.hpp"

namespace dionea::ipc {

inline constexpr std::uint32_t kFrameMagic = 0x41454E44u;  // "DNEA" LE
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB

// Receive-side frame cap, checked against the length prefix BEFORE any
// payload allocation: 8 hostile bytes must never commit the receiver
// to a multi-MiB buffer. DIONEA_MAX_FRAME_BYTES lowers it (clamped to
// [4096, kMaxFrameBytes]); unset or malformed values leave the
// compile-time limit. Read once per process.
std::uint32_t max_recv_frame_bytes() noexcept;

Status send_frame(TcpStream& stream, const wire::Value& value);

// Serialize one frame (header + payload) into a byte string without
// writing it anywhere. The hub's per-client outbound queues buffer
// frames in this form so a slow client costs memory, not encode time,
// and a partial write can resume from a byte offset.
Result<std::string> encode_frame(const wire::Value& value);

// Blocking receive of one frame.
Result<wire::Value> recv_frame(TcpStream& stream);

// Receive with timeout; kTimeout when no frame starts in time, and
// also when a frame starts but stalls mid-read (half-open peer) — the
// caller is never wedged by a partial frame.
Result<wire::Value> recv_frame_timeout(TcpStream& stream, int timeout_millis);

// Incremental receiver for a channel that is polled with short
// timeouts (the events channel, the hub's reactor callbacks).
// recv_frame_timeout discards whatever it read when it times out, so a
// frame that arrives slower than one poll interval would desynchronize
// the stream for good — every later read starts mid-frame and fails
// the magic check. FrameReader keeps received bytes buffered across
// calls instead: a timeout means "not complete yet", never "bytes
// lost".
//
// It reads in bulk: one read(2) of up to 64 KiB refills the buffer,
// and complete frames already buffered are returned without touching
// the socket. Readiness contract: a caller driven by fd readability
// must keep calling until kTimeout, because whole frames can sit in
// the buffer after the fd stops being readable.
class FrameReader {
 public:
  FrameReader() = default;
  FrameReader(FrameReader&& other) noexcept;
  FrameReader& operator=(FrameReader&& other) noexcept;
  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  Result<wire::Value> recv_timeout(TcpStream& stream, int timeout_millis);

  // Drop everything buffered (call when the stream is replaced).
  void reset() noexcept;

 private:
  // Move the unconsumed bytes to the front of a buffer that holds at
  // least `need` bytes (the current frame) and one 64 KiB refill.
  void reserve_refill(size_t need);

  // buf_[begin_, end_) holds received bytes not yet returned, header
  // first. An idle reader (drained, then timed out) holds no buffer,
  // so thousands of quiet channels pin no memory.
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
};

}  // namespace dionea::ipc
