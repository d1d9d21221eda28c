#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the perfbench worker from source, runs a workload in a fresh
process per repeat at GOMAXPROCS=1 and prints one JSON result as the
last line of standard output:

    python3 perfbench/run.py --workload repro-detect --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, interleaved
    python3 perfbench/run.py --selftest                # reduced-scale self-test
    python3 perfbench/run.py --update-pins             # re-pin the expected outputs

Run it from the repository root. Build products, scratch directories,
spans and result sets go under .bench_build/ there.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["repro-dcref", "repro-detect", "fleet-soak"]
# Seeds with pinned outputs: the default seed and one held-out seed.
PINNED_SEEDS = {"full": [1, 2], "small": [1]}
MIN_REPEATS = 3
# A run ends as near --seconds as its rounds of repeats allow (once it
# has MIN_REPEATS), and starts no round after MAX_RUN_S, so that it
# ends well within its time limit.
MAX_RUN_S = 120
# How a run reduces the samples pooled over its processes to one value
# per metric. Other tenants of the host only ever slow a sample down,
# in phases that last from seconds to minutes, so the median of a run
# moves with the host's load; the fastest sample of the run is the
# program's own speed, and stays put from run to run. Set-up time is
# gated on its median only; the peak resident set does not drift.
REDUCE = {
    "wall_s": min,
    "query_s": min,
    "setup_s": statistics.median,
    "peak_rss_mb": statistics.median,
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def catalogue():
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        return json.load(f)


def go_env(root):
    """The environment the build and the workers run in: every Go cache
    and config directory inside the checkout, no network, no toolchain
    switch, one processor."""
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", ".cache"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
        "GOMAXPROCS": "1",
    })
    env.pop("GOGC", None)
    env.pop("GODEBUG", None)
    for d in ("HOME", "GOTMPDIR", "TMPDIR"):
        os.makedirs(env[d], exist_ok=True)
    return env


def build(root, env):
    """Builds the worker; a failed build ends the run without a result."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "go.mod")):
        fail("the repository's go.mod is missing: run from a full checkout")
    out = os.path.join(root, ".bench_build", "perfbench")
    try:
        p = subprocess.run(["go", "build", "-o", out, "."], cwd=BENCH_DIR, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if p.returncode != 0:
        fail("build failed:\n" + p.stdout)
    return out


def go_version(env):
    try:
        return subprocess.run(["go", "version"], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def host_info(env):
    with open("/proc/loadavg") as f:
        load = f.read().split()[:3]
    return {"nproc": os.cpu_count(), "loadavg": [float(x) for x in load],
            "go": go_version(env), "gomaxprocs": 1}


class Runner:
    def __init__(self, root, binary, env, seed, scale="full"):
        self.root, self.binary, self.env, self.seed, self.scale = root, binary, env, seed, scale
        self.tmp = os.path.join(root, ".bench_build", "tmp")
        self.n = 0

    def worker(self, workload, traced=False, spans=None, pinned=True):
        """One fresh worker process; returns its result."""
        self.n += 1
        tmp = os.path.join(self.tmp, "%d-%d" % (os.getpid(), self.n))
        os.makedirs(tmp)
        args = [self.binary, "-workload", workload, "-seed", str(self.seed),
                "-scale", self.scale, "-tmp", tmp]
        if traced:
            args.append("-trace")
        if spans:
            args += ["-spans", spans]
        if not pinned:
            args.append("-unpinned")
        try:
            p = subprocess.run(args, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, timeout=170)
        except subprocess.TimeoutExpired:
            fail("%s: worker timed out" % workload)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if p.returncode != 0:
            fail("%s: worker failed (exit %d):\n%s" % (workload, p.returncode, p.stderr))
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if res.get("gomaxprocs") != 1:
            fail("%s: worker ran at GOMAXPROCS=%s" % (workload, res.get("gomaxprocs")))
        return res


class Tally:
    """Output checks counted as operations."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures = []

    def add_worker(self, res):
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.failures += ["%s: %s" % (res["workload"], f) for f in res.get("failures") or []]

    def expect(self, ok, msg):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(msg)


def same_outputs(tally, a, b, what):
    diff = sorted(k for k in set(a["outputs"]) | set(b["outputs"])
                  if a["outputs"].get(k) != b["outputs"].get(k))
    tally.expect(not diff, "%s: %s outputs differ, e.g. %s" % (a["workload"], what, diff[:3]))


def timed_runs(runner, workloads, seconds, tally):
    """Fresh-process repeats, workloads interleaved round-robin, until
    every workload has MIN_REPEATS and another round, as long as the
    rounds so far, would end more than half a round past the time."""
    results = {w: [] for w in workloads}
    t0 = time.monotonic()
    rounds = 0
    while True:
        elapsed = time.monotonic() - t0
        done = all(len(r) >= MIN_REPEATS for r in results.values())
        if done and (elapsed + elapsed / rounds / 2 > seconds or elapsed >= MAX_RUN_S):
            break
        for w in workloads:
            res = runner.worker(w)
            tally.add_worker(res)
            if results[w]:
                same_outputs(tally, results[w][0], res, "repeat")
            results[w].append(res)
        rounds += 1
    return results


def pooled(results, name):
    """Every sample of a metric over a run's processes."""
    out = []
    for r in results:
        out += r["samples"][name] if name in r.get("samples", {}) else [r["metrics"][name]]
    return out


def reduce_run(results, names):
    return {n: REDUCE[n](pooled(results, n)) for n in names}


def traced_runs(runner, workloads, tally):
    """One untraced and one traced process per workload; the traced
    run's layer metrics plus its tracing overhead."""
    trace_dir = os.path.join(runner.root, ".bench_build", "trace")
    os.makedirs(trace_dir, exist_ok=True)
    untraced = {w: runner.worker(w) for w in workloads}
    metrics = {}
    for w in workloads:
        tally.add_worker(untraced[w])
        spans = os.path.join(trace_dir, "%s-seed%d.json" % (w, runner.seed))
        res = runner.worker(w, traced=True, spans=spans)
        tally.add_worker(res)
        same_outputs(tally, untraced[w], res, "traced vs untraced")
        m = dict(res["metrics"])
        metrics["trace.overhead_s." + w] = m.pop("wall_s") - untraced[w]["metrics"]["wall_s"]
        metrics.update(m)
    return metrics, untraced


def headline(results, cat):
    """The simulated headline figures beside the paper's published values."""
    info = {}
    for res in results:
        for k, v in (res.get("info") or {}).items():
            info[k] = {"simulated": v, "paper": cat["paper"].get(k)}
    return info


def report(metrics, units, info, env_info, tally, samples, extra):
    print("host: nproc=%s loadavg=%s %s GOMAXPROCS=1" % (
        env_info["nproc"], " ".join(str(x) for x in env_info["loadavg"]), env_info["go"]))
    for name in sorted(metrics):
        line = "  %-40s %16.9g %s" % (name, metrics[name], units[name])
        base = name.split("/")[-1]
        own = samples.get(name) or samples.get("%s/%s" % (extra["workloads"][0], name))
        if own and len(own) >= 2:
            q = statistics.quantiles(own, n=4)
            how = "fastest" if REDUCE[base] is min else "median"
            line += "  (%s of %d samples; quartiles %.6g .. %.6g)" % (how, len(own), q[0], q[2])
        print(line)
    for k, v in sorted(info.items()):
        paper = "not published" if v["paper"] is None else "%.1f%%, error %+.1f points" % (
            v["paper"], v["simulated"] - v["paper"])
        print("  info %-35s %8.2f%% (paper: %s; information only, not gated)" % (k, v["simulated"], paper))
    print("  the model is validated only against the paper's published figures")
    if tally.failures:
        print("failed checks:")
        for f in tally.failures[:20]:
            print("  " + f)
    line = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in sorted(metrics)}}
    save = dict(line, host=env_info, info=info, samples=samples, **extra)
    results_dir = os.path.join(os.getcwd(), ".bench_build", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%d-%d.json" % (time.time_ns(), os.getpid())), "w") as f:
        json.dump(save, f, indent=1)
    print(json.dumps(line))


def bench(args, cat, root):
    if args.workload not in WORKLOADS + ["all"]:
        fail("unknown workload %r" % args.workload)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    env = go_env(root)
    binary = build(root, env)
    env_info = host_info(env)
    runner = Runner(root, binary, env, args.seed)
    tally = Tally()
    units = {m["name"]: m["unit"] for m in cat["end_to_end"] + cat["per_layer"]}
    samples = {}
    if args.trace:
        # Every per-layer metric: the named workload's layers first, then
        # the other workloads' layers.
        order = workloads + [w for w in WORKLOADS if w not in workloads]
        metrics, untraced = traced_runs(runner, order, tally)
        info = headline(untraced.values(), cat)
        want = [m["name"] for m in cat["per_layer"]]
    else:
        results = timed_runs(runner, workloads, args.seconds, tally)
        want = [m["name"] for m in cat["end_to_end"]]
        samples = {"%s/%s" % (w, n): pooled(rs, n)
                   for w, rs in results.items() for n in want}
        if len(workloads) == 1:
            metrics = reduce_run(results[workloads[0]], want)
        else:
            metrics, units = {}, dict(units)
            for w in workloads:
                for n, v in reduce_run(results[w], want).items():
                    metrics["%s/%s" % (w, n)] = v
                    units["%s/%s" % (w, n)] = units[n]
            want = list(metrics)
        info = headline([r[0] for r in results.values()], cat)
    missing = [n for n in want if n not in metrics]
    if missing:
        fail("metrics not emitted: %s" % missing)
    metrics = {n: metrics[n] for n in want}
    report(metrics, units, info, env_info, tally, samples,
           {"workloads": workloads, "seed": args.seed, "trace": args.trace})


def update_pins(root):
    env = go_env(root)
    binary = build(root, env)
    pins = {}
    for scale, seeds in PINNED_SEEDS.items():
        for seed in seeds:
            runner = Runner(root, binary, env, seed, scale)
            for w in WORKLOADS:
                res = runner.worker(w, pinned=False)
                if res["failed"]:
                    fail("%s/%d/%s: checks fail, not pinning: %s" % (scale, seed, w, res["failures"]))
                pins["%s/%d/%s" % (scale, seed, w)] = res["outputs"]
                print("pinned %s/%d/%s: %d outputs" % (scale, seed, w, len(res["outputs"])))
    with open(os.path.join(BENCH_DIR, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def selftest(root):
    env = go_env(root)
    p = subprocess.run(["go", "test", "-count=1", "."], cwd=BENCH_DIR, env=env, timeout=600)
    sys.exit(p.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="%s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--update-pins", action="store_true")
    args = ap.parse_args()
    # On SIGTERM, unwind like on SIGINT: subprocess.run then kills the
    # running worker and waits for it before the runner exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    cat = catalogue()
    if args.selftest:
        selftest(root)
    elif args.update_pins:
        update_pins(root)
    else:
        bench(args, cat, root)


if __name__ == "__main__":
    main()
