#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles ../src) into .bench_build/ at the
checkout root, then runs the workload in its own process group with
.bench_work/<workload>/ as its current directory and TMPDIR. The last
line of stdout is the result object: {"correct", "attempted", "failed",
"metrics"}. Every process the run starts is killed and reaped before
this script exits.
"""

import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wordcount", "stepping", "fork_adopt", "hub_fanout")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        cache = os.path.join(build_dir, "CMakeCache.txt")
        if os.path.isfile(cache):
            with open(cache) as f:
                if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                    os.remove(cache)  # configured for another checkout
        if not os.path.isfile(cache):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4", "--target", "perfbench"])
        # Compiler temporaries stay inside the checkout too.
        tmp = os.path.join(build_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                log.flush()
                with open(log_path) as done:
                    sys.stderr.write("".join(done.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".inc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def filesystem_of(path):
    """(mount point, fs type) holding `path`: the port-file publish
    fsyncs once per fork, so fork_adopt depends on it."""
    path = os.path.realpath(path)
    best = ("?", "?")
    with open("/proc/self/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            if len(fields) < 3:
                continue
            mount = fields[1].replace("\\040", " ")
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and (best[0] == "?" or len(mount) >= len(best[0])):
                best = (mount, fields[2])
    return best


def manifest_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json asks a run to report:
    the end-to-end ones untraced, the per-layer ones traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def reap(pgid, deadline_s=10.0):
    """Kill the run's process group and reap everything it left: this
    process is a child subreaper, so orphans come back to it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            time.sleep(0.01)
    return False


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # stdout goes to a file, not a pipe: forked children inherit it, and
    # a child stuck after a missed deadline must not hold the result
    # back until the timeout.
    out_path = os.path.join(work, "stdout.txt")
    with open(out_path, "w") as out_file:
        proc = subprocess.Popen(command, cwd=work, env=env, stdout=out_file,
                                start_new_session=True)
        try:
            proc.wait(timeout=RUN_TIMEOUT_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            timed_out = True
    reaped = reap(proc.pid)
    with open(out_path) as out_file:
        lines = out_file.read().splitlines()
    for line in lines[:-1]:
        print(line)
    mount, fstype = filesystem_of(env["TMPDIR"])
    print("host: " + json.dumps({"tmpdir_mount": mount, "tmpdir_fs": fstype,
                                 "source_digest": source_digest()}))
    if timed_out:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if not reaped:
        fail(f"workload {args.workload} left processes that could not be reaped")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"workload {args.workload} exited {proc.returncode} without a result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"workload {args.workload} printed a malformed result")
    expected = manifest_metrics(args.trace)
    got = {name: metric.get("unit") for name, metric in result["metrics"].items()}
    if got != expected:
        fail(f"workload {args.workload} reported metrics {got}, the manifest lists {expected}")
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
