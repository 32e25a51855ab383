// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics when --trace 0, per-layer metrics when --trace 1. The
// current directory is the work directory (run.py points it inside the
// checkout); the traced run leaves <workload>.trace.json and
// <workload>.summary.txt there.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (key == "--trace") {
      opts.trace = std::strcmp(value, "1") == 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 64;
    }
  }
  const std::map<std::string, WorkloadFn> workloads = {
      {"wordcount", run_wordcount},
      {"stepping", run_stepping},
      {"fork_adopt", run_fork_adopt},
      {"hub_fanout", run_hub_fanout},
  };
  auto it = workloads.find(opts.workload);
  if (it == workloads.end() || opts.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload wordcount|stepping|fork_adopt|"
                 "hub_fanout --seed N --seconds S --trace 0|1\n");
    return 64;
  }
  char cwd[4096];
  opts.work_dir = getcwd(cwd, sizeof cwd) != nullptr ? cwd : ".";

  Report report(opts.workload);
  Tracer tracer(opts.trace);
  bool correct = false;
  {
    Deadline deadline(report);
    correct = it->second(opts, report, deadline, tracer);
  }
  if (opts.trace) {
    if (!tracer.write(opts.work_dir + "/" + opts.workload)) {
      report.op(false, "could not write the span files");
    }
  }
  if (report.attempted() == 0) report.op(false, "no op completed");
  report.print(correct);
  return correct && report.failed() == 0 ? 0 : 1;
}
