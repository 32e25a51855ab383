#include "ipc/frame.hpp"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/fault.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {
namespace {

struct SocketPair {
  TcpStream client;
  TcpStream server;
};

SocketPair make_pair() {
  auto listener = TcpListener::bind(0);
  EXPECT_TRUE(listener.is_ok());
  auto client = TcpStream::connect_retry(listener.value().port(), 2000);
  EXPECT_TRUE(client.is_ok());
  auto server = listener.value().accept_timeout(2000);
  EXPECT_TRUE(server.is_ok());
  return SocketPair{std::move(client).value(), std::move(server).value()};
}

TEST(FrameTest, SendRecvRoundTrip) {
  SocketPair pair = make_pair();
  wire::Value message;
  message.set("cmd", "continue");
  message.set("tid", 7);
  ASSERT_TRUE(send_frame(pair.client, message).is_ok());
  auto received = recv_frame(pair.server);
  ASSERT_TRUE(received.is_ok());
  EXPECT_EQ(received.value(), message);
}

TEST(FrameTest, ManyFramesStayOrdered) {
  SocketPair pair = make_pair();
  for (int i = 0; i < 100; ++i) {
    wire::Value message;
    message.set("seq", i);
    ASSERT_TRUE(send_frame(pair.client, message).is_ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto received = recv_frame(pair.server);
    ASSERT_TRUE(received.is_ok());
    EXPECT_EQ(received.value().get_int("seq"), i);
  }
}

TEST(FrameTest, LargePayload) {
  SocketPair pair = make_pair();
  wire::Value message;
  message.set("blob", std::string(1 << 20, 'x'));
  std::thread sender([&] {
    EXPECT_TRUE(send_frame(pair.client, message).is_ok());
  });
  auto received = recv_frame(pair.server);
  sender.join();
  ASSERT_TRUE(received.is_ok());
  EXPECT_EQ(received.value().get_string("blob").size(), 1u << 20);
}

TEST(FrameTest, BadMagicDetected) {
  SocketPair pair = make_pair();
  // Raw garbage instead of a frame header — the exact §5.3 "child
  // talking on its parent's socket" corruption signature.
  ASSERT_TRUE(pair.client.write_all("XXXXYYYY", 8).is_ok());
  auto received = recv_frame(pair.server);
  ASSERT_FALSE(received.is_ok());
  EXPECT_EQ(received.error().code(), ErrorCode::kProtocol);
  EXPECT_NE(received.error().message().find("magic"), std::string::npos);
}

TEST(FrameTest, EofMidFrameIsClosed) {
  SocketPair pair = make_pair();
  // Valid magic, length 100, then hang up.
  char header[8] = {'D', 'N', 'E', 'A', 100, 0, 0, 0};
  ASSERT_TRUE(pair.client.write_all(header, 8).is_ok());
  ASSERT_TRUE(pair.client.write_all("partial", 7).is_ok());
  pair.client.close();
  auto received = recv_frame(pair.server);
  ASSERT_FALSE(received.is_ok());
  EXPECT_EQ(received.error().code(), ErrorCode::kClosed);
}

TEST(FrameTest, RecvTimeoutExpires) {
  SocketPair pair = make_pair();
  auto received = recv_frame_timeout(pair.server, 50);
  ASSERT_FALSE(received.is_ok());
  EXPECT_EQ(received.error().code(), ErrorCode::kTimeout);
}

TEST(FrameTest, RecvTimeoutDeliversWhenDataArrives) {
  SocketPair pair = make_pair();
  std::thread sender([&] {
    sleep_for_millis(30);
    wire::Value message;
    message.set("late", true);
    EXPECT_TRUE(send_frame(pair.client, message).is_ok());
  });
  auto received = recv_frame_timeout(pair.server, 2000);
  sender.join();
  ASSERT_TRUE(received.is_ok());
  EXPECT_TRUE(received.value().get_bool("late"));
}

// ---- FrameReader reassembly properties ----
// The reader's contract: however the byte stream is chopped — by the
// kernel, a slow peer, or injected short reads — the frames come out
// byte-identical and in order, and a timeout never loses buffered
// bytes. The tests below check that property exhaustively (every
// split point of a multi-frame stream) and stochastically (seeded
// short-read/EINTR injection on the fd.read path).

std::vector<wire::Value> property_frames() {
  std::vector<wire::Value> frames;
  wire::Value small;
  small.set("cmd", "step");
  small.set("tid", 3);
  frames.push_back(small);
  wire::Value binary;
  binary.set("blob", std::string("\x00\xff\x44\x4e\x45\x41\x01", 7));
  frames.push_back(binary);  // payload contains the magic bytes
  wire::Value nested;
  wire::Array entries;
  for (int i = 0; i < 5; ++i) {
    wire::Value entry;
    entry.set("line", i);
    entry.set("file", "test.ml");
    entries.push_back(entry);
  }
  nested.set("threads", wire::Value(entries));
  frames.push_back(nested);
  wire::Value flag;
  flag.set("ok", true);
  frames.push_back(flag);
  return frames;
}

// Capture the exact bytes send_frame puts on the wire for `frames`.
std::string canonical_stream(const std::vector<wire::Value>& frames) {
  SocketPair pair = make_pair();
  std::string stream;
  for (const wire::Value& frame : frames) {
    EXPECT_TRUE(send_frame(pair.client, frame).is_ok());
    char header[8];
    EXPECT_TRUE(pair.server.read_exact(header, 8).is_ok());
    std::uint32_t len = 0;
    std::memcpy(&len, header + 4, 4);
    std::string payload(len, '\0');
    EXPECT_TRUE(pair.server.read_exact(payload.data(), len).is_ok());
    stream.append(header, 8);
    stream.append(payload);
  }
  return stream;
}

// Drain whatever complete frames the reader can produce right now.
void drain(FrameReader& reader, TcpStream& stream,
           std::vector<wire::Value>* out, size_t want) {
  while (out->size() < want) {
    auto frame = reader.recv_timeout(stream, 20);
    if (!frame.is_ok()) {
      ASSERT_EQ(frame.error().code(), ErrorCode::kTimeout)
          << frame.error().to_string();
      return;  // incomplete — more bytes needed
    }
    out->push_back(std::move(frame).value());
  }
}

TEST(FrameTest, ReaderReassemblesAtEverySplitPoint) {
  const std::vector<wire::Value> frames = property_frames();
  const std::string stream = canonical_stream(frames);
  ASSERT_GT(stream.size(), 16u);

  for (size_t split = 1; split < stream.size(); ++split) {
    SocketPair pair = make_pair();
    FrameReader reader;
    std::vector<wire::Value> got;
    // First fragment: everything before the cut. The reader must hand
    // out exactly the frames completed so far and buffer the rest.
    ASSERT_TRUE(pair.client.write_all(stream.data(), split).is_ok());
    drain(reader, pair.server, &got, frames.size());
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "split " << split;
    }
    // Second fragment completes the stream.
    ASSERT_TRUE(pair.client
                    .write_all(stream.data() + split, stream.size() - split)
                    .is_ok());
    drain(reader, pair.server, &got, frames.size());
    ASSERT_EQ(got.size(), frames.size()) << "split " << split;
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i], frames[i]) << "split " << split << " frame " << i;
    }
  }
}

TEST(FrameTest, ReaderSurvivesSeededShortReads) {
  const std::vector<wire::Value> frames = property_frames();
  // Short reads + EINTR on the read path only: recoverable by
  // contract, so every frame must still arrive intact and in order.
  for (std::uint64_t seed : {11ull, 4242ull, 987654321ull}) {
    fault::Config config;
    config.seed = seed;
    config.probability = 0.6;
    config.kinds = fault::kBitShortIo | fault::kBitEintr;
    config.site_filter = "fd.read";
    fault::Scope injection{config};

    SocketPair pair = make_pair();
    FrameReader reader;
    std::vector<wire::Value> got;
    for (int round = 0; round < 25; ++round) {
      for (const wire::Value& frame : frames) {
        ASSERT_TRUE(send_frame(pair.client, frame).is_ok());
      }
    }
    const size_t want = frames.size() * 25;
    Stopwatch watch;
    while (got.size() < want && watch.elapsed_seconds() < 10.0) {
      drain(reader, pair.server, &got, want);
    }
    ASSERT_EQ(got.size(), want) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], frames[i % frames.size()])
          << "seed " << seed << " frame " << i;
    }
  }
}

TEST(FrameTest, OversizeLengthRejected) {
  SocketPair pair = make_pair();
  char header[8] = {'D', 'N', 'E', 'A',
                    '\xff', '\xff', '\xff', '\x7f'};  // ~2GiB claim
  ASSERT_TRUE(pair.client.write_all(header, 8).is_ok());
  auto received = recv_frame(pair.server);
  ASSERT_FALSE(received.is_ok());
  EXPECT_EQ(received.error().code(), ErrorCode::kProtocol);
  EXPECT_NE(received.error().message().find("receive limit"),
            std::string::npos)
      << received.error().to_string();
}

// The incremental events-channel reader has its own header parse; a
// hostile length prefix must be rejected there too, before any payload
// buffer is sized, and the reader must stay usable for a later frame.
TEST(FrameTest, ReaderRejectsOversizeLengthAndRecovers) {
  SocketPair pair = make_pair();
  FrameReader reader;
  char header[8] = {'D', 'N', 'E', 'A',
                    '\xff', '\xff', '\xff', '\xff'};  // 4GiB-1 claim
  ASSERT_TRUE(pair.client.write_all(header, 8).is_ok());
  auto received = reader.recv_timeout(pair.server, 1000);
  ASSERT_FALSE(received.is_ok());
  EXPECT_EQ(received.error().code(), ErrorCode::kProtocol);
  EXPECT_NE(received.error().message().find("receive limit"),
            std::string::npos);
  // The poisoned prefix was dropped; a well-formed frame goes through.
  wire::Value message;
  message.set("after", "storm");
  ASSERT_TRUE(send_frame(pair.client, message).is_ok());
  auto next = reader.recv_timeout(pair.server, 2000);
  ASSERT_TRUE(next.is_ok()) << next.error().to_string();
  EXPECT_EQ(next.value().get_string("after"), "storm");
}

// ---- FrameReader bulk refills ----
// One read(2) of up to 64 KiB can carry many frames; the reader must
// hand them out one per call, in order, without losing or repeating
// any, and a frame cut by a refill must come out whole.

std::string encoded(const wire::Value& value) {
  auto frame = encode_frame(value);
  EXPECT_TRUE(frame.is_ok());
  return frame.is_ok() ? frame.value() : std::string();
}

TEST(FrameTest, ReaderReturnsEveryFrameOfOneWriteInOrder) {
  SocketPair pair = make_pair();
  std::string bytes;
  for (int i = 0; i < 1000; ++i) {
    wire::Value message;
    message.set("seq", i);
    bytes += encoded(message);
  }
  std::thread sender([&] {
    EXPECT_TRUE(pair.client.write_all(bytes.data(), bytes.size()).is_ok());
  });
  FrameReader reader;
  for (int i = 0; i < 1000; ++i) {
    auto frame = reader.recv_timeout(pair.server, 2000);
    ASSERT_TRUE(frame.is_ok()) << "frame " << i << ": "
                               << frame.error().to_string();
    ASSERT_EQ(frame.value().get_int("seq", -1), i);
  }
  sender.join();
  auto extra = reader.recv_timeout(pair.server, 20);
  ASSERT_FALSE(extra.is_ok());
  EXPECT_EQ(extra.error().code(), ErrorCode::kTimeout);
}

TEST(FrameTest, ReaderReassemblesFrameAcrossRefillBoundary) {
  constexpr size_t kChunk = 64u << 10;  // one refill
  // The first frame ends 50 bytes short of the first refill's end, so
  // the second frame's header straddles it; the third frame is larger
  // than a refill.
  wire::Value first;
  first.set("pad", std::string());
  const size_t overhead = encoded(first).size();
  first.set("pad", std::string(kChunk - 50 - overhead, 'a'));
  ASSERT_EQ(encoded(first).size(), kChunk - 50);
  wire::Value second;
  second.set("pad", std::string(500, 'b'));
  wire::Value third;
  third.set("pad", std::string(3 * kChunk, 'c'));
  const std::string bytes = encoded(first) + encoded(second) + encoded(third);

  SocketPair pair = make_pair();
  std::atomic<bool> send_rest{false};
  std::thread sender([&] {
    // Exactly one refill's worth first: the second frame is cut.
    EXPECT_TRUE(pair.client.write_all(bytes.data(), kChunk).is_ok());
    while (!send_rest.load()) sleep_for_millis(1);
    EXPECT_TRUE(
        pair.client.write_all(bytes.data() + kChunk, bytes.size() - kChunk)
            .is_ok());
  });
  FrameReader reader;
  auto got_first = reader.recv_timeout(pair.server, 2000);
  Result<wire::Value> cut = reader.recv_timeout(pair.server, 50);
  send_rest.store(true);
  auto got_second = reader.recv_timeout(pair.server, 2000);
  auto got_third = reader.recv_timeout(pair.server, 2000);
  sender.join();
  ASSERT_TRUE(got_first.is_ok()) << got_first.error().to_string();
  EXPECT_EQ(got_first.value(), first);
  ASSERT_FALSE(cut.is_ok());
  EXPECT_EQ(cut.error().code(), ErrorCode::kTimeout);
  ASSERT_TRUE(got_second.is_ok()) << got_second.error().to_string();
  EXPECT_EQ(got_second.value(), second);
  ASSERT_TRUE(got_third.is_ok()) << got_third.error().to_string();
  EXPECT_EQ(got_third.value(), third);
}

TEST(FrameTest, ReaderReturnsBufferedFramesBeforeEof) {
  SocketPair pair = make_pair();
  std::string bytes;
  for (int i = 0; i < 3; ++i) {
    wire::Value message;
    message.set("seq", i);
    bytes += encoded(message);
  }
  ASSERT_TRUE(pair.client.write_all(bytes.data(), bytes.size()).is_ok());
  pair.client.close();
  FrameReader reader;
  for (int i = 0; i < 3; ++i) {
    auto frame = reader.recv_timeout(pair.server, 2000);
    ASSERT_TRUE(frame.is_ok()) << "frame " << i << ": "
                               << frame.error().to_string();
    EXPECT_EQ(frame.value().get_int("seq", -1), i);
  }
  auto closed = reader.recv_timeout(pair.server, 2000);
  ASSERT_FALSE(closed.is_ok());
  EXPECT_EQ(closed.error().code(), ErrorCode::kClosed);
}

// A hostile length prefix that arrives in the same read as good frames
// is still judged on its header alone: kProtocol at once, without
// waiting for (or making room for) the 4 GiB it claims.
TEST(FrameTest, ReaderRejectsOversizeLengthBehindBufferedFrames) {
  SocketPair pair = make_pair();
  std::string bytes;
  for (int i = 0; i < 2; ++i) {
    wire::Value message;
    message.set("seq", i);
    bytes += encoded(message);
  }
  bytes += std::string("DNEA\xff\xff\xff\xff", 8);
  ASSERT_TRUE(pair.client.write_all(bytes.data(), bytes.size()).is_ok());
  FrameReader reader;
  for (int i = 0; i < 2; ++i) {
    auto frame = reader.recv_timeout(pair.server, 2000);
    ASSERT_TRUE(frame.is_ok()) << frame.error().to_string();
    EXPECT_EQ(frame.value().get_int("seq", -1), i);
  }
  Stopwatch watch;
  auto rejected = reader.recv_timeout(pair.server, 2000);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kProtocol);
  EXPECT_NE(rejected.error().message().find("receive limit"),
            std::string::npos)
      << rejected.error().to_string();
  EXPECT_LT(watch.elapsed_seconds(), 1.0);
}

// Default receive cap: exactly kMaxFrameBytes passes the check (it is
// a <= limit), one past it does not. No env override in this binary.
TEST(FrameTest, DefaultRecvCapIsCompileTimeLimit) {
  EXPECT_EQ(max_recv_frame_bytes(), kMaxFrameBytes);
}

}  // namespace
}  // namespace dionea::ipc
