#!/usr/bin/env python3
"""Repository benchmark: builds the driver, runs one workload, and prints the
named metrics as the last line of stdout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build goes to $CARGO_TARGET_DIR, or
.bench_build when unset (a CMake tree, whatever the variable's name says).
With --trace 0 the result carries the end-to-end metrics; with --trace 1 the
per-layer metrics of a separate traced run.  A host/build fingerprint and the
raw details go to the line before the result.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_mix", "serve_mix")
SOURCE_DIRS = ("src", "tools", "perfbench")
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

# name -> (unit, reduction).  A scalar the driver computed under the name is
# taken as is; otherwise the reduction is the "median" or the "tail" (see
# tail()) of the sample array of that name, or "derived" below.  A layer
# the workload's path never calls reads 0.
PER_LAYER = {
    "path.flat_ms": ("ms", "median"),
    "path.vcycle_ms": ("ms", "median"),
    "path.eco_step_ms": ("ms", "median"),
    "graph.ig_build_ms": ("ms", "median"),
    "graph.ig_nnz": ("count", "median"),
    "graph.laplacian_ms": ("ms", "median"),
    "linalg.fiedler_ms": ("ms", "median"),
    "linalg.lanczos_iters": ("count", "median"),
    "linalg.unconverged": ("count", "median"),
    "linalg.spmv_ms": ("ms", "median"),
    "linalg.spmv_share": ("ratio", "derived"),
    "linalg.basis_mb": ("MB", "median"),
    "spectral.sort_ms": ("ms", "median"),
    "igmatch.sweep_ms": ("ms", "median"),
    "cluster.coarsen_ms": ("ms", "median"),
    "cluster.levels": ("count", "median"),
    "cluster.coarsest_modules": ("count", "median"),
    "cluster.ml_total_ms": ("ms", "median"),
    "cluster.vcycles_run": ("count", "median"),
    "fm.vcycle_refine_ms": ("ms", "median"),
    "repart.edit_ms": ("ms", "median"),
    "repart.repartition_ms": ("ms", "median"),
    "repart.lanczos_iters": ("count", "median"),
    "repart.warm_frac": ("ratio", "median"),
    "repart.ig_reuse_frac": ("ratio", "median"),
    "repart.sweep_frac": ("ratio", "median"),
    "repart.prev_kept_frac": ("ratio", "median"),
    "repart.ratio_vs_cold": ("ratio", "median"),
    "server.parse_us": ("us", "median"),
    "server.admission_us": ("us", "median"),
    "server.serialize_us": ("us", "median"),
    "server.queue_us.hit": ("us", "tail"),
    "server.queue_us.cache": ("us", "tail"),
    "server.queue_us.warm": ("us", "tail"),
    "server.queue_us.cold": ("us", "tail"),
    "server.execute_us.hit": ("us", "median"),
    "server.execute_us.cache": ("us", "median"),
    "server.execute_us.warm": ("us", "median"),
    "server.execute_us.cold": ("us", "median"),
    "server.cache_hit_frac": ("ratio", "median"),
    "server.shed.hit": ("count", "median"),
    "server.shed.cache": ("count", "median"),
    "server.shed.warm": ("count", "median"),
    "server.shed.cold": ("count", "median"),
    "client.hit_p50_ms": ("ms", "derived"),
    "client.hit_tail_ms": ("ms", "derived"),
    "client.cache_p50_ms": ("ms", "derived"),
    "client.cache_tail_ms": ("ms", "derived"),
    "client.warm_p50_ms": ("ms", "derived"),
    "client.warm_tail_ms": ("ms", "derived"),
    "client.cold_p50_ms": ("ms", "derived"),
    "client.cold_tail_ms": ("ms", "derived"),
    "client.late_ms": ("ms", "tail"),
    "client.backlog_max": ("count", "median"),
    "bench.trace_overhead": ("ratio", "derived"),
    "bench.layer_coverage": ("ratio", "derived"),
}


def rank(p, n):
    """1-based nearest rank of percentile p among n samples: ceil(p*n/100),
    in exact arithmetic (p has at most one decimal)."""
    return max(1, -(-round(p * 10) * n // 1000))


def tail_percentile(n):
    """Highest percentile of the ladder with at least 10 of n samples
    strictly above its nearest rank, or None when n < 20."""
    for p in TAIL_LADDER:
        if n - rank(p, n) >= 10:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    return sorted(values)[rank(p, len(values)) - 1]


def tail(values):
    """(percentile, value) at the highest percentile the sample supports;
    the median when there are fewer than 20 samples."""
    p = tail_percentile(len(values))
    if p is None:
        return 50.0, statistics.median(values)
    return p, percentile(values, p)


def source_digest(root):
    h = hashlib.sha256()
    files = [os.path.join(root, "CMakeLists.txt")]
    for d in SOURCE_DIRS:
        for base, dirs, names in os.walk(os.path.join(root, d)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            files += [os.path.join(base, n) for n in sorted(names)
                      if n.endswith((".cpp", ".hpp", ".txt"))]
    for path in files:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build(build_dir, digest):
    """Configure and build unless the last build was of these sources."""
    stamp = os.path.join(build_dir, "perfbench.stamp")
    driver = os.path.join(build_dir, "perfbench_driver")
    if os.path.exists(driver) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", build_dir, "-j4", "--target",
                     "perfbench_driver", "netpartd_bin"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    with open(stamp, "w") as f:
        f.write(digest)


def read_file(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def cmake_cache(build_dir, key):
    for line in read_file(os.path.join(build_dir, "CMakeCache.txt")).splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def fingerprint(build_dir, digest, build_info):
    cpu = next((l.split(":", 1)[1].strip()
                for l in read_file("/proc/cpuinfo").splitlines()
                if l.startswith("model name")), platform.machine())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if not idx.startswith("index"):
            continue
        d = os.path.join(base, idx)
        name = "L%s%s" % (read_file(d + "/level"),
                          {"Data": "d", "Instruction": "i"}.get(
                              read_file(d + "/type"), ""))
        caches[name] = read_file(d + "/size")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None  # not a git checkout, or no git
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("type"),
        "netpart_native": cmake_cache(build_dir, "NETPART_NATIVE"),
        "git_commit": commit,
        "source_digest": digest,
    }


def vm_hwm_mb(pid):
    for line in read_file("/proc/%d/status" % pid).splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def ask_daemon(name, line):
    """One request to netpartd over its abstract unix socket; the reply."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(5)
        s.connect("\0" + name)
        s.sendall((line + "\n").encode())
        return s.makefile().readline()


class Daemon:
    """netpartd on a private abstract socket, stopped and reaped on exit.
    The driver names the flags its session-to-lane pinning relies on."""

    def __init__(self, build_dir, extra=()):
        self.name = "perfbench-%d-%d" % (os.getpid(), time.monotonic_ns())
        binary = os.path.join(build_dir, "netpart", "tools", "netpartd")
        flags = json.loads(subprocess.run(
            [os.path.join(build_dir, "perfbench_driver"), "daemon_flags"],
            capture_output=True, text=True, check=True, timeout=10).stdout)
        self.proc = subprocess.Popen(
            [binary, "--socket", "@" + self.name, *flags, *extra],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 10
        while True:
            try:
                if '"ok":true' in ask_daemon(self.name, '{"id":0,"op":"ping"}'):
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise SystemExit("perfbench: netpartd did not start")
            time.sleep(0.02)

    def stop(self):
        if self.proc.poll() is None:
            try:
                ask_daemon(self.name, '{"id":0,"op":"shutdown"}')
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def run_driver(build_dir, args):
    proc = subprocess.run([os.path.join(build_dir, "perfbench_driver"), *args],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("perfbench: driver failed (%d)" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    s, v = raw["samples"], raw["values"]
    return {
        "setup_s": metric(statistics.median(s["setup_s"]), "s"),
        "p50_ms": metric(statistics.median(s["op_ms"]), "ms"),
        "ok_frac": metric(1.0 - raw["failed"] / raw["attempted"], "ratio"),
        "ratio_geomean": metric(v["ratio_geomean"], "ratio"),
        "peak_rss_mb": metric(v["peak_rss_mb"], "MB"),
    }


def per_layer(raw):
    s, v = raw["samples"], raw["values"]

    def med(name):
        return statistics.median(s[name]) if s.get(name) else 0.0

    derived = {"bench.trace_overhead":
               med("traced_op_ms") / med("op_ms") - 1.0
               if s.get("traced_op_ms") else 0.0,
               "bench.layer_coverage":
               med("layer_sum_ms") / med("path.flat_ms")
               if s.get("layer_sum_ms")
               else 0.0,
               "linalg.spmv_share":
               v.get("linalg.lanczos_iters_gen", 0.0) * med("linalg.spmv_ms")
               / med("linalg.fiedler_ms_gen") if s.get("linalg.fiedler_ms_gen")
               else 0.0}
    for cls in ("hit", "cache", "warm", "cold"):
        lat = s.get("client.%s_ms" % cls)
        derived["client.%s_p50_ms" % cls] = statistics.median(lat) if lat else 0.0
        derived["client.%s_tail_ms" % cls] = tail(lat)[1] if lat else 0.0
    out = {}
    for name, (unit, how) in PER_LAYER.items():
        if how == "derived":
            value = derived[name]
        elif name in v:
            value = v[name]
        elif how == "tail":
            value = tail(s[name])[1] if s.get(name) else 0.0
        else:
            value = med(name)
        out[name] = metric(value, unit)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no source tree at " + ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    digest = source_digest(ROOT)
    build(build_dir, digest)

    driver_args = [args.workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "serve_mix":
        with Daemon(build_dir) as daemon:
            raw = run_driver(build_dir, driver_args + ["--socket",
                                                       "@" + daemon.name])
            raw["values"]["peak_rss_mb"] = vm_hwm_mb(daemon.proc.pid)
    else:
        raw = run_driver(build_dir, driver_args)

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    tails = {k: tail_percentile(len(x)) for k, x in raw["samples"].items()}
    details = {
        "host": fingerprint(build_dir, digest, raw["build"]),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs": raw["inputs"], "failures": raw["failures"],
        "sample_counts": {k: len(x) for k, x in raw["samples"].items()},
        "tail_percentiles": tails,
        "serve_rate_per_s": raw["values"].get("serve.rate_per_s"),
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
