#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "support/host_spec.hpp"
#include "vm/vm.hpp"

extern char** environ;

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// {"name": {"value": v, "unit": u}, ...}
std::string metrics_json(
    const std::map<std::string, std::pair<double, std::string>>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out += (first ? "" : ", ") + json_string(name) +
           ": {\"value\": " + json_number(value.first) +
           ", \"unit\": " + json_string(value.second) + "}";
    first = false;
  }
  return out + "}";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::scoped_lock lock(mutex_);
  metrics_[name] = {value, unit};
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  std::scoped_lock lock(mutex_);
  details_[name] = {value, unit};
}

void Report::op(bool ok, const std::string& why) {
  ops(1, ok ? 0 : 1, why);
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed,
                 const std::string& why) {
  attempted_ += attempted;
  if (failed == 0) return;
  failed_ += failed;
  std::scoped_lock lock(mutex_);
  if (failures_.size() < 20) failures_.push_back(workload_ + ": " + why);
}

void Report::note(const std::string& key, const std::string& json_value) {
  std::scoped_lock lock(mutex_);
  notes_[key] = json_value;
}

void Report::print(bool correct) const {
  std::scoped_lock lock(mutex_);
  std::printf("workload %s: attempted %llu, failed %llu\n", workload_.c_str(),
              static_cast<unsigned long long>(attempted_.load()),
              static_cast<unsigned long long>(failed_.load()));
  for (const std::string& failure : failures_) {
    std::printf("FAILED %s\n", failure.c_str());
  }
  for (const auto* group : {&metrics_, &details_}) {
    for (const auto& [name, value] : *group) {
      std::printf("  %-32s %14.6g %s\n", name.c_str(), value.first,
                  value.second.c_str());
    }
  }
  std::printf("detail: %s\n", metrics_json(details_).c_str());
  std::string record = "{\"workload\": " + json_string(workload_) +
                       ", \"config\": " + config_json() + ", \"notes\": {";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    record += (first ? "" : ", ") + json_string(key) + ": " + value;
    first = false;
  }
  record += "}, \"failures\": [";
  first = true;
  for (const std::string& failure : failures_) {
    record += (first ? "" : ", ") + json_string(failure);
    first = false;
  }
  std::printf("record: %s]}\n", record.c_str());

  std::string line = "{\"correct\": ";
  line += correct && failed_.load() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_.load());
  line += ", \"failed\": " + std::to_string(failed_.load());
  line += ", \"metrics\": " + metrics_json(metrics_);
  std::printf("%s}\n", line.c_str());
  std::fflush(stdout);
}

Deadline::Deadline(Report& report)
    : report_(report), thread_([this] { watch(); }) {}

Deadline::~Deadline() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Deadline::arm(const std::string& op, double seconds) {
  std::scoped_lock lock(mutex_);
  op_ = op;
  due_ns_ = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

void Deadline::disarm() {
  std::scoped_lock lock(mutex_);
  due_ns_ = 0;
}

// Polls rather than waking per arm: ops arm and disarm up to ~10k
// times a second, and the check must not cost them a wake-up.
void Deadline::watch() {
  std::unique_lock lock(mutex_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(50));
    if (due_ns_ == 0 || now_ns() < due_ns_) continue;
    std::string op = op_;
    lock.unlock();
    report_.op(false, "deadline missed: " + op);
    report_.print(false);
    // The stuck op holds locks and children we cannot unwind from
    // here; run.py kills the whole process group after we exit.
    std::_Exit(3);
  }
}

void Tracer::add(std::uint64_t id, std::uint64_t parent, const char* name,
                 std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  std::scoped_lock lock(mutex_);
  spans_.push_back(Span{id, parent, name, start_ns, end_ns});
}

std::vector<double> Tracer::durations(const char* name,
                                      double unit_seconds) const {
  std::scoped_lock lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::string_view(span.name) == name) {
      out.push_back(ns_to_s(span.end_ns - span.start_ns) / unit_seconds);
    }
  }
  return out;
}

std::size_t Tracer::count(const char* name) const {
  std::scoped_lock lock(mutex_);
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [name](const Span& span) { return std::string_view(span.name) == name; }));
}

double Tracer::total_seconds(std::initializer_list<const char*> names) const {
  std::scoped_lock lock(mutex_);
  double total = 0;
  for (const Span& span : spans_) {
    for (const char* name : names) {
      if (std::string_view(span.name) == name) total += ns_to_s(span.end_ns - span.start_ns);
    }
  }
  return total;
}

bool Tracer::write(const std::string& prefix) const {
  std::scoped_lock lock(mutex_);
  // Self time: a span's duration minus the part of its interval that
  // its children cover (children clipped to the parent, overlaps
  // merged: fork_adopt's child spans run in different processes).
  std::map<std::uint64_t, const Span*> by_id;
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (const Span& span : spans_) {
    by_id[span.id] = &span;
    if (span.parent != 0) kids[span.parent].emplace_back(span.start_ns, span.end_ns);
  }
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (auto& [parent_id, intervals] : kids) {
    auto parent = by_id.find(parent_id);
    if (parent == by_id.end()) continue;
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = parent->second->start_ns;
    for (auto [start, end] : intervals) {
      start = std::max(start, reach);
      end = std::min(end, parent->second->end_ns);
      if (end <= start) continue;
      covered += end - start;
      reach = end;
    }
    child_ns[parent_id] = covered;
  }
  struct Agg {
    std::uint64_t count = 0;
    double self_s = 0;
    double total_s = 0;
  };
  std::map<std::string, Agg> by_layer;
  std::map<std::string, Agg> by_name;
  for (const Span& span : spans_) {
    std::int64_t total = span.end_ns - span.start_ns;
    auto it = child_ns.find(span.id);
    std::int64_t self =
        std::max<std::int64_t>(0, total - (it == child_ns.end() ? 0 : it->second));
    std::string name = span.name;
    std::string layer = name.substr(0, name.find('.'));
    for (Agg* agg : {&by_layer[layer], &by_name[name]}) {
      agg->count += 1;
      agg->self_s += ns_to_s(self);
      agg->total_s += ns_to_s(total);
    }
  }
  std::ofstream summary(prefix + ".summary.txt");
  summary << "# self time = span time not covered by child spans\n"
          << "# spans " << spans_.size() << "\n"
          << "# layer            spans      self_s     total_s\n";
  char line[160];
  for (const auto& [layer, agg] : by_layer) {
    std::snprintf(line, sizeof line, "%-16s %8llu %11.6f %11.6f\n",
                  layer.c_str(), static_cast<unsigned long long>(agg.count),
                  agg.self_s, agg.total_s);
    summary << line;
  }
  summary << "# span             spans      self_s     total_s\n";
  for (const auto& [name, agg] : by_name) {
    std::snprintf(line, sizeof line, "%-24s %8llu %11.6f %11.6f\n",
                  name.c_str(), static_cast<unsigned long long>(agg.count),
                  agg.self_s, agg.total_s);
    summary << line;
  }

  std::ofstream trace(prefix + ".trace.json");
  trace << "{\"traceEvents\": [\n";
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::size_t written = std::min(spans_.size(), kMaxWritten);
  for (std::size_t i = 0; i < written; ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu}}%s\n",
                  span.name,
                  static_cast<unsigned long long>(span.parent != 0 ? span.parent
                                                                   : span.id),
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  i + 1 < written ? "," : "");
    trace << line;
  }
  trace << "], \"otherData\": {\"spans\": " << spans_.size()
        << ", \"written\": " << written << "}}\n";
  return summary.good() && trace.good();
}

void pin_to_cpus(std::initializer_list<int> positions) {
  // The CPUs the process started with; later calls narrow only threads.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int position : positions) {
    CPU_SET(cpus[static_cast<std::size_t>(position) % cpus.size()], &chosen);
  }
  if (positions.size() == 0) {
    for (int cpu : cpus) CPU_SET(cpu, &chosen);
  }
  (void)::sched_setaffinity(0, sizeof chosen, &chosen);
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

std::string config_json() {
  dionea::HostSpec host = dionea::HostSpec::detect();
  std::string out = "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": " + json_string(host.cpu_model);
  out += ", \"logical_cores\": " + std::to_string(host.logical_cores);
  out += ", \"memory_mb\": " + std::to_string(host.memory_mb);
  out += ", \"os\": " + json_string(host.os_release);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"dispatch_default\": " + json_string(PERFBENCH_DISPATCH);
  // What a fresh Vm actually runs, after any DIONEA_DISPATCH override.
  bool go_to = dionea::vm::Vm().dispatch_mode() == dionea::vm::Vm::DispatchMode::kGoto;
  out += ", \"dispatch\": " + json_string(go_to ? "goto" : "switch");
  out += ", \"git_sha\": " + json_string(PERFBENCH_GIT_SHA);
  out += ", \"dionea_env\": {";
  bool first = true;
  for (char** env = environ; *env != nullptr; ++env) {
    std::string entry = *env;
    if (entry.rfind("DIONEA_", 0) != 0) continue;
    std::size_t eq = entry.find('=');
    out += (first ? "" : ", ") + json_string(entry.substr(0, eq)) + ": " +
           json_string(eq == std::string::npos ? "" : entry.substr(eq + 1));
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
