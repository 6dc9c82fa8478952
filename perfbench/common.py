"""Shared helpers: building the program, running timed processes, statistics."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CLI = os.path.join(BUILD, "tools", "byterobust")
PROBE = os.path.join(BUILD, "perfbench_probe")


class BenchError(Exception):
    """A failure of the benchmark itself (build, missing sources, hung tool)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sources_present():
    return all(os.path.exists(os.path.join(ROOT, p))
               for p in ("CMakeLists.txt", "src", "tools/byterobust_cli.cc"))


def build():
    """Configures once, then builds the CLI and the probe (a no-op when fresh)."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench", "probe"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "byterobust_cli",
                  "perfbench_probe"])
    for argv in steps:
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=850, check=False)
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            raise BenchError("build failed: " + " ".join(argv))


class Timed:
    """One finished process: wall time, exit code, stdout and peak RSS."""

    def __init__(self, wall_s, code, out, rss_kb):
        self.wall_s = wall_s
        self.code = code
        self.out = out
        self.rss_mb = rss_kb / 1024.0


def run_timed(argv, cwd, timeout=150.0):
    """Runs argv to completion through `perfbench_probe spawn`, which times
    it from fork to reap and reports its own peak RSS."""
    proc = subprocess.Popen([PROBE, "spawn"] + argv, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s timed out" % " ".join(argv[:2]))
    fields = err.split()
    if proc.returncode != 0 or len(fields) != 3:
        raise BenchError("could not run %s" % " ".join(argv[:2]))
    return Timed(float(fields[0]), int(fields[2]), out, int(fields[1]))


def run_json(argv, cwd, timeout=150.0):
    """Runs a helper that prints one JSON object; raises on any failure."""
    done = run_timed(argv, cwd, timeout)
    if done.code != 0:
        raise BenchError("%s exited %d" % (os.path.basename(argv[0]) + " " + argv[1],
                                           done.code))
    return json.loads(done.out)


class Daemon:
    """A `byterobust serve` process; stop() drains it and records peak RSS."""

    def __init__(self, cwd, socket_name, trace_path=None):
        argv = [CLI, "serve", "--socket", socket_name, "--workers", "2", "--jobs", "1"]
        if trace_path:
            argv += ["--trace", trace_path]
        self.cwd = cwd
        self.socket = socket_name
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.code = None
        self.rss_mb = 0.0

    def wait_ready(self, timeout=10.0):
        """Seconds from launch until the first successful status response."""
        path = os.path.join(self.cwd, self.socket)
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("serve daemon exited during start-up")
            reply = status_roundtrip(path)
            if reply is not None and reply.get("status") == "ok":
                return time.perf_counter() - self.started
            time.sleep(0.0005)
        raise BenchError("serve daemon never answered status")

    def cpu_s(self):
        """User + system CPU seconds the daemon has used so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """SIGTERM (graceful drain, exit 30); returns the exit code."""
        if self.code is not None:
            return self.code
        # Peak RSS of the daemon's own image: VmHWM restarts at exec, while a
        # child's ru_maxrss would include this Python process's size at fork.
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        self.rss_mb = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(20.0, self.proc.kill)
        timer.start()
        try:
            _, status = os.waitpid(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        return self.code


def status_roundtrip(path):
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(2.0)
            s.connect(path)
            s.sendall(b'{"op":"status"}\n')
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    return None
                data += chunk
            return json.loads(data)
    except (OSError, ValueError):
        return None


class Gate:
    """The correctness gate's ledger. `failures` are operations that did not
    complete (a quarantined seed, a shed request): they count in `failed`.
    `problems` are wrong outputs (bytes that differ from the reference): any
    one makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []
        self.digests = {}  # serve: campaign base_seed -> set of body digests

    def record(self, attempted, failed=0, why=None, wrong=False):
        self.attempted += attempted
        self.failed += failed
        if why:
            (self.problems if wrong else self.failures).append(why)

    def check_daemon_exit(self, daemon):
        code = daemon.stop()
        if code != 30:
            self.record(0, 1, "daemon exited %s, not 30 (graceful drain)" % code, wrong=True)


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def quantile(xs, q):
    """Linear-interpolation quantile (q in [0, 1]); 0.0 for no samples."""
    if not xs:
        return 0.0
    ys = sorted(xs)
    pos = q * (len(ys) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ys) - 1)
    return ys[lo] + (pos - lo) * (ys[hi] - ys[lo])


def median(xs):
    return quantile(xs, 0.5)


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0
