// wordcount: the paper's Fig. 9/10 measurement. The MiniLang word-count
// MapReduce (3 forked workers) over a generated ~20 MB corpus, run in
// alternating arms: normal (no server) and attached (DebugServer +
// Session::attach, no breakpoints). Stresses VM dispatch, the armed
// trace fast path and the mp queues; does 3 forks per run and sends
// almost no protocol traffic.
//
// The corpus is few, large files (600 x 32 KiB) under a short relative
// root: wordcount_program queues every path before it forks a worker,
// and past ~64 KiB of queued paths the parent blocks in ipc_push
// forever (an open defect, probed below as mapreduce.feed_deadlock).
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/session.hpp"
#include "common.hpp"
#include "debugger/server.hpp"
#include "mapreduce/corpus.hpp"
#include "mapreduce/wordcount.hpp"
#include "mp/vm_bindings.hpp"
#include "vm/interp.hpp"

namespace perfbench {
namespace {

namespace mr = dionea::mapreduce;

constexpr int kWorkers = 3;
constexpr int kFiles = 600;
constexpr int kParts = 12;
constexpr int kBytesPerFile = 32 * 1024;
constexpr double kOpDeadlineSeconds = 30;
// Over-limit corpus for the feed-deadlock probe: absolute paths, so
// 6,000 of them are several times the ~64 KiB the queue holds.
constexpr int kProbeFiles = 6000;
constexpr double kProbeDeadlineSeconds = 5;

// Flush stdio before forking: forked workers flush theirs on the way
// out, and must not print what the parent had buffered.
void flush_before_fork() { std::fflush(nullptr); }

enum class Arm { kNormal, kAttached, kSerial, kSerialAttached };

const char* arm_name(Arm arm) {
  switch (arm) {
    case Arm::kNormal: return "normal";
    case Arm::kAttached: return "attached";
    case Arm::kSerial: return "serial";
    case Arm::kSerialAttached: return "serial-attached";
  }
  return "?";
}

struct Outcome {
  bool ok = false;
  std::string error;
  double run_s = 0;
  std::uint64_t events_sent = 0;
  std::uint64_t statements = 0;
};

std::string expected_line(const mr::CountsDigest& digest) {
  return "unique=" + std::to_string(digest.unique) +
         " total=" + std::to_string(digest.total) + "\n";
}

// One program run in a fresh interpreter. A forked worker returns out
// of run_string too; Interp::finish _exits it there.
Outcome run_program(const std::string& program, bool attached,
                    const std::string& port_file, const std::string& expected,
                    Tracer& tracer, std::uint64_t op) {
  Outcome out;
  dionea::vm::Interp interp;
  dionea::mp::install_vm_bindings(interp.vm());
  std::string output;
  interp.vm().set_output([&output](std::string_view text) { output += text; });

  std::unique_ptr<dionea::dbg::DebugServer> server;
  std::unique_ptr<dionea::client::Session> session;
  if (attached) {
    ::unlink(port_file.c_str());
    dionea::dbg::DebugServer::Options options;
    options.port_file = port_file;
    server = std::make_unique<dionea::dbg::DebugServer>(interp.vm(), options);
    {
      Scoped span(tracer, op, "debugger.start");
      dionea::Status started = server->start();
      if (!started.is_ok()) {
        out.error = "server start: " + started.to_string();
        return out;
      }
    }
    Scoped span(tracer, op, "client.attach");
    auto session_or = dionea::client::Session::attach(server->port(), 5000);
    if (!session_or.is_ok()) {
      out.error = "attach: " + session_or.error().to_string();
      return out;
    }
    session = std::move(session_or).value();
  }

  flush_before_fork();
  std::int64_t t0 = now_ns();
  dionea::vm::RunResult result = interp.run_string(program, "wordcount.ml");
  std::int64_t t1 = now_ns();
  if (interp.vm().is_forked_child()) interp.finish(result);
  tracer.child(op, "vm.run", t0, t1);
  out.run_s = ns_to_s(t1 - t0);
  out.statements = interp.vm().statements_executed();
  if (server) {
    out.events_sent = server->events_sent();
    Scoped span(tracer, op, "debugger.stop");
    server->stop();
  }
  if (!result.ok) {
    out.error = "program failed: " + result.error.to_string();
  } else if (output != expected) {
    out.error = "printed '" + output + "', expected '" + expected + "'";
  } else {
    out.ok = true;
  }
  return out;
}

// Runs the unmodified program on an over-limit corpus in a child
// process; 1 when it is still blocked at the deadline (the defect
// stands), 0 when it finished with the right answer, -1 otherwise.
int feed_deadlock_probe(const Options& opts) {
  mr::CorpusSpec spec;
  spec.name = "feed-probe";
  spec.file_count = kProbeFiles;
  spec.target_bytes_per_file = 64;
  spec.seed = mix_seed(opts.seed, 7);
  auto corpus = mr::Corpus::generate(spec, opts.work_dir + "/feedprobe");
  if (!corpus.is_ok()) return -1;
  auto counts = mr::count_corpus(corpus.value());
  if (!counts.is_ok()) return -1;
  std::string expected = expected_line(mr::digest(counts.value()));
  std::string program = mr::wordcount_program(corpus.value().root(), kWorkers);

  flush_before_fork();
  pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    dionea::vm::Interp interp;
    dionea::mp::install_vm_bindings(interp.vm());
    std::string output;
    interp.vm().set_output([&output](std::string_view t) { output += t; });
    dionea::vm::RunResult result = interp.run_string(program, "feedprobe.ml");
    if (interp.vm().is_forked_child()) interp.finish(result);
    ::_exit(result.ok && output == expected ? 0 : 2);
  }
  std::int64_t due = now_ns() + static_cast<std::int64_t>(kProbeDeadlineSeconds * 1e9);
  int status = 0;
  while (now_ns() < due) {
    pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid) {
      return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? 0 : -1;
    }
    ::usleep(10'000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return 1;
}

}  // namespace

bool run_wordcount(const Options& opts, Report& report, Deadline& deadline,
                   Tracer& tracer) {
  // Set-up: corpus generation + the native reference count, three
  // times; setup_s is the median. The corpus is kParts sub-corpora with
  // their own seeds (and so their own vocabularies), which keeps the
  // amount of work nearly the same from one --seed to the next. A short
  // relative root keeps the queued paths far below the feed-deadlock
  // limit.
  std::string expected;
  std::int64_t files = 0, bytes = 0;
  std::vector<double> gen_s, count_s;
  deadline.arm("wordcount setup", 120);
  ::mkdir("wc", 0755);
  double setup_s = median_setup_seconds(3, [&](int) {
    mr::WordCounts total;
    files = bytes = 0;
    double gen = 0, count = 0;
    for (int part = 0; part < kParts; ++part) {
      mr::CorpusSpec spec = mr::dionea_trunk_spec();
      spec.name = "perfbench-wordcount";
      spec.file_count = kFiles / kParts;
      spec.target_bytes_per_file = kBytesPerFile;
      spec.seed = mix_seed(opts.seed, 100 + static_cast<std::uint64_t>(part));
      std::int64_t t0 = now_ns();
      auto corpus = mr::Corpus::generate(spec, "wc/p" + std::to_string(part));
      std::int64_t t1 = now_ns();
      if (!corpus.is_ok()) return;
      auto counts = mr::count_corpus(corpus.value());
      std::int64_t t2 = now_ns();
      if (!counts.is_ok()) return;
      mr::merge_counts(&total, counts.value());
      files += static_cast<std::int64_t>(corpus.value().files().size());
      bytes += corpus.value().bytes_written();
      gen += ns_to_s(t1 - t0);
      count += ns_to_s(t2 - t1);
    }
    expected = expected_line(mr::digest(total));
    gen_s.push_back(gen);
    count_s.push_back(count);
  });
  deadline.disarm();
  if (expected.empty() || gen_s.size() != 3) {
    report.op(false, "corpus generation or native count failed");
    return false;
  }
  report.note("corpus", "{\"files\": " + std::to_string(files) +
                            ", \"bytes\": " + std::to_string(bytes) +
                            ", \"parts\": " + std::to_string(kParts) +
                            ", \"workers\": " + std::to_string(kWorkers) + "}");

  const std::string parallel = mr::wordcount_program("wc", kWorkers);
  const std::string serial = mr::wordcount_program_serial("wc");
  const std::string port_file = opts.work_dir + "/wordcount.ports";

  // Warm-up: the first run in a process is ~1.7x slower (allocator
  // and page-cache warm-up); one run per arm, not reported.
  for (bool attached : {false, true}) {
    deadline.arm("wordcount warm-up", kOpDeadlineSeconds);
    Outcome warm = run_program(parallel, attached, port_file, expected, tracer, 0);
    deadline.disarm();
    if (!warm.ok) {
      report.op(false, std::string("warm-up: ") + warm.error);
      return false;
    }
  }

  // The untraced run alternates normal/attached. The traced run cycles
  // through all four arms and traces every other cycle, so the same
  // arms measured untraced give the tracing overhead.
  std::vector<Arm> cycle = {Arm::kNormal, Arm::kAttached};
  if (opts.trace) {
    cycle = {Arm::kNormal, Arm::kAttached, Arm::kSerial, Arm::kSerialAttached};
  }
  std::map<std::pair<Arm, bool>, std::vector<double>> run_s;
  std::vector<double> events_sent, stmts_serial;
  const std::int64_t start_ns = now_ns();
  const std::int64_t end = start_ns + static_cast<std::int64_t>(opts.seconds * 1e9);
  int op_index = 0;
  std::uint64_t runs_ok = 0;
  for (int round = 0; now_ns() < end || (opts.trace && round < 2); ++round) {
    bool traced = opts.trace && round % 2 == 0;
    for (Arm arm : cycle) {
      std::uint64_t op = traced ? tracer.next_id() : 0;
      bool attached = arm == Arm::kAttached || arm == Arm::kSerialAttached;
      bool is_serial = arm == Arm::kSerial || arm == Arm::kSerialAttached;
      std::string label = "wordcount op " + std::to_string(op_index++) + " (" +
                          arm_name(arm) + " run)";
      deadline.arm(label, kOpDeadlineSeconds * (is_serial ? 3 : 1));
      std::int64_t t0 = now_ns();
      Outcome out = run_program(is_serial ? serial : parallel, attached,
                                port_file, expected, tracer, op);
      std::int64_t t1 = now_ns();
      deadline.disarm();
      if (op != 0) tracer.add(op, 0, "op.wordcount", t0, t1);
      report.op(out.ok, label + ": " + out.error);
      if (!out.ok) continue;
      ++runs_ok;
      run_s[{arm, traced}].push_back(out.run_s);
      if (arm == Arm::kAttached) events_sent.push_back(static_cast<double>(out.events_sent));
      if (arm == Arm::kSerial) stmts_serial.push_back(static_cast<double>(out.statements));
    }
  }

  const double elapsed_s = ns_to_s(now_ns() - start_ns);

  double normal = median(run_s[{Arm::kNormal, false}]);
  double attached = median(run_s[{Arm::kAttached, false}]);
  report.note("normal_run_s_by_op", json_list(run_s[{Arm::kNormal, false}]));
  report.note("attached_run_s_by_op", json_list(run_s[{Arm::kAttached, false}]));
  if (!opts.trace) {
    // The op is one attached run; the throughput counts both arms'
    // runs, server start and attach included.
    report.metric("setup_s", setup_s, "s");
    report.metric("op_p50_ms", attached * 1e3, "ms");
    report.metric("ops_per_s", static_cast<double>(runs_ok) / elapsed_s, "1/s");
    report.detail("normal_run_s", normal, "s");
    report.detail("attached_run_s", attached, "s");
    return report.failed() == 0;
  }
  // Per-layer numbers come from the untraced cycles (the arms are whole
  // program runs; the traced cycles only add the span breakdown). The
  // tails take every attached run: a cycle of four arms leaves few
  // untraced ones, and the spans sit outside the timed run.
  std::vector<double> attached_ms;
  for (bool traced : {false, true}) {
    for (double s : run_s[{Arm::kAttached, traced}]) attached_ms.push_back(s * 1e3);
  }
  report.detail("op_p90_ms", quantile(attached_ms, 0.90), "ms");
  report.detail("op_p99_ms", quantile(attached_ms, 0.99), "ms");
  report.metric("server.start_ms", median(tracer.durations("debugger.start", 1e-3)), "ms");
  report.metric("client.attach_ms", median(tracer.durations("client.attach", 1e-3)), "ms");
  report.metric("client.us_per_op",
                tracer.total_seconds({"client.attach"}) * 1e6 /
                    static_cast<double>(std::max<std::size_t>(1, tracer.count("op.wordcount"))),
                "us");
  double traced_normal = median(run_s[{Arm::kNormal, true}]);
  report.metric("trace.overhead_pct",
                normal > 0 ? (traced_normal / normal - 1) * 100 : 0, "%");

  double serial_s = median(run_s[{Arm::kSerial, false}]);
  report.detail("mapreduce.corpus_gen_s", median(gen_s), "s");
  report.detail("mapreduce.native_count_s", median(count_s), "s");
  report.detail("vm.serial_run_s", serial_s, "s");
  report.detail("vm.stmts_serial", median(stmts_serial), "count");
  report.detail("vm.serial_attached_run_s",
                median(run_s[{Arm::kSerialAttached, false}]), "s");
  // Base: the serial run's time spread over 3 workers; 1.0 = perfect.
  report.detail("mp.fanout_efficiency",
                normal > 0 ? serial_s / (kWorkers * normal) : 0, "ratio");
  report.detail("debugger.attached_extra_s", attached - normal, "s");
  // The paper's §7 ratio, beside its +12.11% (Fig. 9) / +20.7% (Fig. 10).
  report.detail("debugger.overhead_pct",
                normal > 0 ? (attached / normal - 1) * 100 : 0, "%");
  report.detail("debugger.start_ms", median(tracer.durations("debugger.start", 1e-3)), "ms");
  report.detail("client.attach_ms", median(tracer.durations("client.attach", 1e-3)), "ms");
  report.detail("debugger.events_sent", median(events_sent), "count");

  deadline.arm("wordcount feed-deadlock probe", kProbeDeadlineSeconds + 60);
  int stuck = feed_deadlock_probe(opts);
  deadline.disarm();
  report.detail("mapreduce.feed_deadlock", stuck, "flag");
  if (stuck < 0) report.note("feed_deadlock_probe", "\"probe could not run\"");
  return report.failed() == 0;
}

}  // namespace perfbench
