// hub_fanout: the event path. A hub::Hub (two shards) with 1,000
// synthetic sessions and one Client::connect subscriber. Open loop: one
// generator thread offers events at 20k/s, then 80k/s, sleeping until
// each due time; every event carries its due time and sequence number,
// and latency is receipt minus due. Each round ends with a fixed-count
// burst drain. Stresses route, queue, flush and client decode; no
// debuggee, VM or fork is involved.
//
// A run is a warm-up round and twenty measured rounds, each on a freshly
// started hub (the set-up setup_s times). Every end-to-end number is
// the median over the measured rounds: at 80k/s a round now and then
// tips past saturation and its backlog grows, and that moves one
// sample of twenty, not the run.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common.hpp"
#include "debugger/protocol.hpp"
#include "hub/hub.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

namespace client = dionea::client;
namespace wire = dionea::ipc::wire;

constexpr int kSessions = 1000;
// Two reactor shards: with the generator and the receiver that makes
// four busy threads on the four cores this runs on. The default,
// min(cores, 8) = 4 shards, put six threads on four cores, and the
// 80k/s p50 then spread 0.28 of its median over five seeds (0.15 with
// two shards).
constexpr int kShards = 2;
constexpr int kRounds = 20;  // measured, after one warm-up round
// Set-up-only hubs started before the rounds: a set-up swings between
// ~10 and ~20 ms within one run, so setup_s is the median over these
// and the rounds' set-ups.
constexpr int kExtraSetups = 40;
constexpr std::int64_t kBurstEvents = 30'000;  // per round
// A window is flagged when its generator's p99 lag exceeds this: its
// events were not offered at the nominal rate.
constexpr double kBehindMillis = 1.0;

struct Window {
  const char* name;
  double rate;  // events/s; 0 = burst (as fast as possible)
};
const Window kWindows[] = {{"20k", 20'000}, {"80k", 80'000}, {"burst", 0}};
constexpr int kWindowCount = 3;

// A contiguous range of sequence numbers offered in one window.
struct Range {
  int window = 0;
  std::int64_t first = 0, count = 0;
};

// A started hub with its 1,000 sessions and one subscribed client.
struct Hubbed {
  Hubbed() = default;
  Hubbed(const Hubbed&) = delete;
  Hubbed& operator=(const Hubbed&) = delete;
  ~Hubbed() {
    client.reset();
    if (hub) hub->stop();
  }

  std::string start() {
    dionea::hub::Hub::Options options;
    // One subscriber sees every event: size its queue for the burst so
    // the drain measures throughput, not the drop policy.
    options.client_queue_frames = static_cast<std::size_t>(kBurstEvents) + 4096;
    options.shards = kShards;
    hub = std::make_unique<dionea::hub::Hub>(options);
    std::int64_t t0 = now_ns();
    dionea::Status started = hub->start();
    start_s = ns_to_s(now_ns() - t0);
    if (!started.is_ok()) return "hub start: " + started.to_string();
    for (int i = 0; i < kSessions; ++i) ids.push_back(hub->register_synthetic(100'000 + i));
    std::int64_t t1 = now_ns();
    auto connected = client::Client::connect(hub->port(), 10'000);
    connect_s = ns_to_s(now_ns() - t1);
    if (!connected.is_ok()) return "connect: " + connected.error().to_string();
    client = std::move(connected).value();
    if (!client->hub_mode()) return "peer did not advertise hub";
    return "";
  }

  std::unique_ptr<dionea::hub::Hub> hub;
  std::unique_ptr<client::Client> client;
  std::vector<std::int64_t> ids;
  double start_s = 0;    // Hub::start
  double connect_s = 0;  // Client::connect
};

void sleep_until_ns(std::int64_t due) {
  std::int64_t wait = due - now_ns();
  if (wait <= 0) return;
  timespec ts{static_cast<time_t>(wait / 1'000'000'000),
              static_cast<long>(wait % 1'000'000'000)};
  ::nanosleep(&ts, nullptr);
}

// What the receivers saw, by sequence number. Each round's receiver
// thread writes it and is joined before anyone else reads it.
struct Received {
  std::vector<std::uint8_t> seen;
  std::vector<double> latency_ms;  // -1 = never received
  std::atomic<std::int64_t> count{0};
  std::int64_t duplicates = 0;
  std::int64_t last_receipt_ns = 0;
  std::vector<double> poll_events;  // events per non-empty traced poll
};

void receive(client::Client& cc, Received& got, Tracer& tracer,
             const std::atomic<bool>& receiving) {
  const auto total = static_cast<std::int64_t>(got.seen.size());
  while (receiving.load(std::memory_order_relaxed)) {
    std::int64_t p0 = now_ns();
    auto events = cc.poll_events(20);
    std::int64_t now = now_ns();
    if (!events.is_ok()) break;
    std::int64_t ours = 0;
    bool traced_batch = false;
    for (const client::Client::SessionEvent& se : events.value()) {
      const wire::Value& payload = se.event.payload;
      if (!payload.has("n")) continue;  // hub lifecycle, heartbeats
      std::int64_t n = payload.get_int("n", -1);
      if (n < 0 || n >= total) continue;
      ++ours;
      auto index = static_cast<std::size_t>(n);
      if (got.seen[index] != 0) {
        ++got.duplicates;
        continue;
      }
      got.seen[index] = 1;
      double due_s = payload.at("t").as_double();
      got.latency_ms[index] = (ns_to_s(now) - due_s) * 1e3;
      auto op = static_cast<std::uint64_t>(payload.get_int("op", 0));
      if (op != 0) {
        traced_batch = true;
        tracer.add(op, 0, "op.hub_event", static_cast<std::int64_t>(due_s * 1e9), now);
      }
    }
    if (ours > 0) {
      got.last_receipt_ns = now;
      got.count.fetch_add(ours);
    }
    if (traced_batch) {
      tracer.add(tracer.next_id(), 0, "client.poll_events", p0, now);
      got.poll_events.push_back(static_cast<double>(ours));
    }
  }
}

}  // namespace

bool run_hub_fanout(const Options& opts, Report& report, Deadline& deadline,
                    Tracer& tracer) {
  // 40% of the time at each rate, split over the rounds.
  const double window_s = opts.seconds * 0.4 / kRounds;
  std::vector<Range> ranges;
  std::int64_t total = 0;
  for (int round = 0; round <= kRounds; ++round) {
    for (int w = 0; w < kWindowCount; ++w) {
      std::int64_t count = kWindows[w].rate > 0
                               ? static_cast<std::int64_t>(kWindows[w].rate * window_s)
                               : kBurstEvents;
      ranges.push_back({w, total, count});
      total += count;
    }
  }
  Received got;
  got.seen.assign(static_cast<std::size_t>(total), 0);
  got.latency_ms.assign(static_cast<std::size_t>(total), -1);

  // The generator is this thread. Sub-tick sleeps need a 1 ns timer
  // slack, or 80k/s (12.5 us apart) rounds every sleep up to 50 us.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  dionea::Rng rng(mix_seed(opts.seed, 1));
  std::vector<double> setup_s, start_ms, connect_ms, drain_per_s, backlog[kWindowCount];
  std::vector<double> lag_ms[2];
  std::int64_t routed = 0, dropped = 0;
  auto set_up = [&](Hubbed& hubbed, const std::string& label) {
    deadline.arm("hub_fanout setup, " + label, 60);
    std::int64_t t0 = now_ns();
    std::string error = hubbed.start();
    setup_s.push_back(ns_to_s(now_ns() - t0));
    start_ms.push_back(hubbed.start_s * 1e3);
    connect_ms.push_back(hubbed.connect_s * 1e3);
    deadline.disarm();
    if (!error.empty()) report.op(false, "setup: " + error);
    return error.empty();
  };
  for (int i = 0; i < kExtraSetups; ++i) {
    Hubbed hubbed;
    if (!set_up(hubbed, "set-up only " + std::to_string(i))) return false;
  }
  for (int round = 0; round <= kRounds; ++round) {
    const bool warm_up = round == 0;
    // The traced run traces every event of the even rounds; the odd
    // rounds give the untraced reference for the tracing overhead.
    const bool traced_round = tracer.enabled() && round % 2 == 0;
    Hubbed hubbed;
    if (!set_up(hubbed, "round " + std::to_string(round))) return false;
    dionea::hub::Hub& hub = *hubbed.hub;
    // Events go round-robin over a seeded permutation of the sessions.
    std::vector<std::int64_t> order = hubbed.ids;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }

    std::atomic<bool> receiving{true};
    std::thread receiver([&] { receive(*hubbed.client, got, tracer, receiving); });
    const std::int64_t round_base = got.count.load();
    std::int64_t offered = 0;
    std::int64_t burst_start_ns = 0;
    for (int w = 0; w < kWindowCount; ++w) {
      const Range& range = ranges[static_cast<std::size_t>(round * kWindowCount + w)];
      const double rate = kWindows[w].rate;
      const std::int64_t start = now_ns() + 1'000'000;
      if (rate == 0) burst_start_ns = start;
      sleep_until_ns(start);
      for (std::int64_t i = 0; i < range.count; ++i) {
        std::int64_t n = range.first + i;
        std::int64_t due =
            rate > 0 ? start + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate)
                     : now_ns();
        sleep_until_ns(due);
        std::uint64_t op = traced_round ? tracer.next_id() : 0;
        wire::Value event = dionea::dbg::proto::make_event(dionea::dbg::proto::Event::kOutput);
        event.set("t", ns_to_s(due));
        event.set("n", n);
        if (op != 0) event.set("op", static_cast<std::int64_t>(op));
        std::int64_t s0 = now_ns();
        hub.inject_event(order[static_cast<std::size_t>(n) % order.size()], std::move(event));
        if (op != 0) tracer.child(op, "hub.inject", s0, now_ns());
        if (rate > 0 && !warm_up) lag_ms[w].push_back(ns_to_s(s0 - due) * 1e3);
      }
      offered += range.count;
      if (!warm_up) {
        backlog[w].push_back(static_cast<double>(
            static_cast<std::int64_t>(hub.events_routed()) - (got.count.load() - round_base)));
      }
      // Settle: everything offered so far is received or dropped.
      deadline.arm(std::string("hub_fanout settle after the ") + kWindows[w].name +
                       " window, round " + std::to_string(round),
                   30);
      while (got.count.load() - round_base + static_cast<std::int64_t>(hub.events_dropped()) <
             offered) {
        ::usleep(1000);
      }
      deadline.disarm();
    }
    // Late duplicates would arrive within a poll or two.
    ::usleep(50'000);
    receiving.store(false);
    receiver.join();
    const Range& burst = ranges[static_cast<std::size_t>(round * kWindowCount + 2)];
    std::int64_t round_burst = 0;
    for (std::int64_t n = burst.first; n < burst.first + burst.count; ++n) {
      round_burst += got.seen[static_cast<std::size_t>(n)];
    }
    if (!warm_up) {
      drain_per_s.push_back(static_cast<double>(round_burst) /
                            ns_to_s(got.last_receipt_ns - burst_start_ns));
    }
    routed += static_cast<std::int64_t>(hub.events_routed());
    dropped += static_cast<std::int64_t>(hub.events_dropped());
    deadline.arm("hub_fanout teardown, round " + std::to_string(round), 30);
  }
  deadline.disarm();

  // Output check: each event received exactly once or counted dropped.
  const std::int64_t missing = total - got.count.load() - dropped;
  report.ops(static_cast<std::uint64_t>(total), 0, "");
  if (missing > 0) {
    report.ops(0, static_cast<std::uint64_t>(missing),
               std::to_string(missing) + " events neither received nor dropped");
  }
  if (got.duplicates > 0) {
    report.ops(0, static_cast<std::uint64_t>(got.duplicates),
               std::to_string(got.duplicates) + " events received twice");
  }

  // Latencies of window `w` in one round, or in every measured round
  // (round -1).
  auto latencies = [&](int w, int round = -1) {
    std::vector<double> out;
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      const Range& range = ranges[r];
      if (range.window != w) continue;
      const int range_round = static_cast<int>(r) / kWindowCount;
      if (round >= 0 ? range_round != round : range_round == 0) continue;
      for (std::int64_t n = range.first; n < range.first + range.count; ++n) {
        double ms = got.latency_ms[static_cast<std::size_t>(n)];
        if (ms >= 0) out.push_back(ms);
      }
    }
    return out;
  };
  std::string lag_note = "[";
  double lag_p99[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    lag_p99[w] = quantile(lag_ms[w], 0.99);
    double lag_max = *std::max_element(lag_ms[w].begin(), lag_ms[w].end());
    bool behind = lag_p99[w] > kBehindMillis;
    if (behind) {
      std::printf("WARNING hub_fanout: the generator fell behind in the %s window "
                  "(p99 lag %.3f ms): its events were not offered at the nominal rate\n",
                  kWindows[w].name, lag_p99[w]);
    }
    lag_note += std::string(w ? ", " : "") + "{\"window\": \"" + kWindows[w].name +
                "\", \"lag_p99_ms\": " + std::to_string(lag_p99[w]) +
                ", \"lag_max_ms\": " + std::to_string(lag_max) +
                ", \"behind\": " + (behind ? "true" : "false") + "}";
  }
  report.note("generator", lag_note + "]");
  report.note("drain_events_per_s_by_round", json_list(drain_per_s));
  // Each measured round's p50 in window `w`; parity 0/1 keeps only the
  // even or odd rounds.
  auto p50_by_round = [&](int w, int parity = -1) {
    std::vector<double> p50s;
    for (int round = 1; round <= kRounds; ++round) {
      if (parity < 0 || round % 2 == parity) p50s.push_back(quantile(latencies(w, round), 0.5));
    }
    return p50s;
  };
  auto median_over_rounds = [&](int w) {
    std::vector<double> p50s = p50_by_round(w);
    report.note(std::string("event_p50_ms_by_round_") + kWindows[w].name, json_list(p50s));
    return median(p50s);
  };

  const double p50_20k = median_over_rounds(0);
  const double p50_80k = median_over_rounds(1);
  if (!opts.trace) {
    // The op is one event at 20k/s, taken as the p50 of the least
    // disturbed round. When the host's neighbours get busy, a run's
    // rounds at 20k/s read 0.1-0.4 ms instead of ~0.045 ms, sometimes
    // more than half of them: over five such seeds the median over
    // rounds spread 0.65 of its median and the quietest round 0.11. A
    // slower event path slows every round, the quietest too. The 80k/s
    // rounds tip past saturation now and then and spread more. The
    // throughput is the burst drain (the rated windows' throughput is
    // the generator's rate).
    std::vector<double> p50s_20k = p50_by_round(0);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("op_p50_ms", *std::min_element(p50s_20k.begin(), p50s_20k.end()), "ms");
    report.metric("ops_per_s", median(drain_per_s), "1/s");
    report.detail("event_p50_ms_20k", p50_20k, "ms");
    report.detail("event_p50_ms_80k", p50_80k, "ms");
    report.detail("drain_events_per_s", median(drain_per_s), "1/s");
    return report.failed() == 0;
  }
  std::vector<double> all_20k = latencies(0);
  report.detail("op_p90_ms", quantile(all_20k, 0.90), "ms");
  report.detail("op_p99_ms", quantile(all_20k, 0.99), "ms");
  report.metric("server.start_ms", median(start_ms), "ms");
  report.metric("client.attach_ms", median(connect_ms), "ms");
  report.metric("client.us_per_op",
                tracer.total_seconds({"client.poll_events"}) * 1e6 /
                    static_cast<double>(std::max<std::size_t>(1, tracer.count("op.hub_event"))),
                "us");
  // Even rounds were traced, odd ones not: the 80k window's p50s.
  double untraced = median(p50_by_round(1, 1));
  report.metric("trace.overhead_pct",
                untraced > 0 ? (median(p50_by_round(1, 0)) / untraced - 1) * 100 : 0, "%");

  report.detail("hub.inject_us", median(tracer.durations("hub.inject", 1e-6)), "us");
  report.detail("hub.routed", static_cast<double>(routed), "count");
  report.detail("hub.dropped", static_cast<double>(dropped), "count");
  // Routed but not yet received when a window's last event was offered
  // (median over rounds); one that grows with the rate means
  // saturation. hub.backlog_end is the worst window.
  double backlog_worst = 0;
  for (int w = 0; w < kWindowCount; ++w) {
    double end = median(backlog[w]);
    report.detail(std::string("hub.backlog_end_") + kWindows[w].name, end, "count");
    backlog_worst = std::max(backlog_worst, end);
  }
  report.detail("hub.backlog_end", backlog_worst, "count");
  report.detail("client.poll_events_us", median(tracer.durations("client.poll_events", 1e-6)),
                "us");
  report.detail("client.events_per_poll", median(got.poll_events), "count");
  for (int w = 0; w < 2; ++w) {
    std::string suffix = std::string("_") + kWindows[w].name;
    std::vector<double> all = latencies(w);
    report.detail("hub.event_p90_ms" + suffix, quantile(all, 0.90), "ms");
    report.detail("hub.event_p99_ms" + suffix, quantile(all, 0.99), "ms");
    report.detail("hub.generator_lag_ms" + suffix, lag_p99[w], "ms");
  }
  report.detail("hub.generator_lag_ms", std::max(lag_p99[0], lag_p99[1]), "ms");
  return report.failed() == 0;
}

}  // namespace perfbench
