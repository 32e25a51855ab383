// Shared pieces of the repository benchmark: options, statistics, the
// result record, the per-op deadline and the span tracer.
//
// The benchmark times the library only from outside: every span below
// brackets one public call (Session::cont, Hub::inject_event, ...).
// Nothing here reaches into src/.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // the run's work directory (cwd)
};

// Nanoseconds on the steady clock; the same clock MiniLang's clock()
// and dionea::mono_seconds() read, so stamps compare across processes.
std::int64_t now_ns();
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// SplitMix64: the workload inputs derive from --seed through this.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// What one run reports. Metrics keep insertion-independent name order.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  // A metric of the result line: the end-to-end metrics (untraced
  // run) or the per-layer metrics (traced run) every workload reports.
  void metric(const std::string& name, double value, const std::string& unit);
  // A workload's own named number, printed on the `detail:` line before
  // the result, not in it.
  void detail(const std::string& name, double value, const std::string& unit);
  // One op attempted; `ok` false counts it failed and keeps `why`.
  void op(bool ok, const std::string& why = "");
  void ops(std::uint64_t attempted, std::uint64_t failed, const std::string& why);
  void note(const std::string& key, const std::string& json_value);

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

  // Prints the human summary, the config/notes record and, last, the
  // single JSON result line.
  void print(bool correct) const;

 private:
  std::string workload_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::pair<double, std::string>> details_;
  std::vector<std::string> failures_;  // first few, for the log
  std::map<std::string, std::string> notes_;
};

// A hang must fail fast: each op arms a deadline; if it passes, the
// watchdog prints a failed result naming the workload and op, and
// ends the process (run.py then kills every process it left behind).
class Deadline {
 public:
  explicit Deadline(Report& report);
  ~Deadline();
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

  void arm(const std::string& op, double seconds);
  void disarm();

 private:
  void watch();

  Report& report_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string op_;
  std::int64_t due_ns_ = 0;  // 0 = disarmed
  bool stop_ = false;
  std::thread thread_;
};

// Spans of the traced run. Each op gets an id; every timed call inside
// it is a child span naming its layer ("client.cont" -> layer
// "client"). Spans stay in memory and are written once, at the end.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = a root (op) span
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  // Record a finished span. `name` must be a string literal.
  void add(std::uint64_t id, std::uint64_t parent, const char* name,
           std::int64_t start_ns, std::int64_t end_ns);
  // Record a child of `parent`; nothing when parent is 0 (untraced op).
  void child(std::uint64_t parent, const char* name, std::int64_t start_ns,
             std::int64_t end_ns) {
    if (parent != 0) add(next_id(), parent, name, start_ns, end_ns);
  }

  // Durations of every span called `name`, in the given unit scale
  // (1e-6 for microseconds, ...).
  std::vector<double> durations(const char* name, double unit_seconds) const;
  // Number of spans called `name`, and the summed seconds of the spans
  // called any of `names`.
  std::size_t count(const char* name) const;
  double total_seconds(std::initializer_list<const char*> names) const;

  // Writes <prefix>.trace.json (Chrome trace_event, the first
  // kMaxWritten spans) and <prefix>.summary.txt (self time per layer
  // and per span name over all spans). Returns false on I/O error.
  bool write(const std::string& prefix) const;

 private:
  static constexpr std::size_t kMaxWritten = 200'000;
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  // A deque: growing it never copies the spans under the lock, which
  // would stall the hub generator for milliseconds at a time.
  std::deque<Span> spans_;
};

// RAII child span; no-op when `parent` is 0 (the op is untraced).
class Scoped {
 public:
  Scoped(Tracer& tracer, std::uint64_t parent, const char* name)
      : tracer_(tracer), parent_(parent), name_(name),
        start_(parent != 0 ? now_ns() : 0) {}
  ~Scoped() {
    if (parent_ != 0) tracer_.child(parent_, name_, start_, now_ns());
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::uint64_t parent_;
  const char* name_;
  std::int64_t start_;
};

// Pins the calling thread, and every thread it creates from now on, to
// the CPUs at these positions in the set the process started with
// (modulo its size); an empty list restores the whole set.
void pin_to_cpus(std::initializer_list<int> positions);

// `values` as a JSON list (for Report::note).
std::string json_list(const std::vector<double>& values);

// Host, build and DIONEA_* configuration as a JSON object.
std::string config_json();

// One workload: set up, measure for opts.seconds, fill `report`.
// Returns whether every output check passed.
using WorkloadFn = bool (*)(const Options&, Report&, Deadline&, Tracer&);
bool run_wordcount(const Options&, Report&, Deadline&, Tracer&);
bool run_stepping(const Options&, Report&, Deadline&, Tracer&);
bool run_fork_adopt(const Options&, Report&, Deadline&, Tracer&);
bool run_hub_fanout(const Options&, Report&, Deadline&, Tracer&);

// Median of `f` over `reps` set-ups, in seconds (setup_s).
template <typename Fn>
double median_setup_seconds(int reps, Fn&& f) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    std::int64_t t0 = now_ns();
    f(i);
    times.push_back(ns_to_s(now_ns() - t0));
  }
  return median(times);
}

}  // namespace perfbench
