#!/usr/bin/env python3
"""shieldsim benchmark: one command, two workloads, fastest-round timing.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload stress-long|registry-sweep
                           --seed N --seconds S --trace 0|1

Builds the simulator, shieldctl and perfbench_measure from source into
.bench_build/ (first run only; later runs are an up-to-date check), runs the
measuring program for S seconds of identical rounds, checks the simulated
outputs, and prints a human-readable report followed by one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the benchmark's spans to .bench_work/trace-<workload>-<seed>.json
(trace-event-v1, checked with tools/trace_validate.py). The exit status is
0 only when every correctness check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("stress-long", "registry-sweep")

END_TO_END = [
    ("scen_per_min", "1/min"),
    ("sim_s_per_wall_s", "s/s"),
    ("setup_s", "s"),
    ("rerun_scen_per_min", "1/min"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("paper_err_pct", "%"),
]

PER_LAYER = [
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_sim_s", "1/s"),
    ("sim.capture_us", "us"),
    ("sim.restore_us", "us"),
    ("sim.snapshot_kb", "KB"),
    ("config.build_ms", "ms"),
    ("config.boot_ms", "ms"),
    ("config.prefix_hit_pct", "%"),
    ("config.scenario_us.p50", "us"),
    ("config.scenario_us.p99", "us"),
    ("config.wire_kb", "KB"),
    ("config.serialize_us", "us"),
    ("config.parse_us", "us"),
    ("config.journal_append_us", "us"),
    ("config.journal_replay_ms", "ms"),
    ("config.merge_ms", "ms"),
    ("config.supervisor_overhead_pct", "%"),
    ("config.failed", "count"),
    ("config.retried", "count"),
    ("config.respawns", "count"),
    ("kernel.switches_per_sim_s", "1/s"),
    ("kernel.irqs_per_sim_s", "1/s"),
    ("kernel.softirqs_per_sim_s", "1/s"),
    ("kernel.syscalls_per_sim_s", "1/s"),
    ("kernel.lock_acq_per_sim_s", "1/s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.reference_us", "us"),
]

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
# The benchmark builds the program from these; without them it cannot run.
REQUIRED_SOURCES = ("CMakeLists.txt", "src/CMakeLists.txt",
                    "tools/CMakeLists.txt", "tools/shieldctl.cpp",
                    "tools/trace_validate.py")
# A run may take 180 s, or 900 s when it builds first; the measuring
# program gets what is left after the build step.
RUN_LIMIT_S = 175.0
FIRST_RUN_LIMIT_S = 880.0

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_metric(name, unit):
    """Raise ValueError unless `name` and `unit` follow the metric rules:
    names of letters, digits, '_', '.', '-' (starting with a letter or
    digit, at most 64), and a unit that is present."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"metric {name!r} has no valid unit ({unit!r})")


# An item needs this many timed rounds before its fastest one says
# anything about the program rather than about the host.
MIN_ROUNDS = 4

# The end-to-end host times are given for a host that runs the reference
# kernel (measure.cpp) in exactly this long at its fastest; about what a
# 4-vCPU Sapphire Rapids KVM guest does. Changing it rescales every
# end-to-end host-time metric.
REFERENCE_S = 0.010


def fastest_round_total(items, key="rounds_s"):
    """The fastest-round estimator: the sum, over items, of each item's
    fastest round. Every round of an item repeats identical simulated work,
    and the host runs it at a fast and a contended speed that alternate
    within a second, so an item's fastest round is its run at the fast
    speed. Each item needs at least MIN_ROUNDS rounds."""
    if not items:
        raise ValueError("no items to time")
    total = 0.0
    for it in items:
        rounds = it[key]
        if len(rounds) < MIN_ROUNDS:
            raise ValueError(f"item {it['name']!r} has {len(rounds)} "
                             f"round(s); the estimator needs {MIN_ROUNDS}")
        total += min(rounds)
    return total


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-len(s) * p // 100) - 1))
    return s[int(k)]


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def host_scale(data):
    """How much longer this run's host times would have been on the
    reference host: REFERENCE_S over the reference kernel's fastest run.
    The kernel runs between rounds and shares no code with the program, so
    the factor follows the host's speed and never a program change."""
    return REFERENCE_S / min(data["reference_s"])


def end_to_end(data, scale):
    """The end-to-end metrics, host times multiplied by `scale`:
    host_scale(data) for the reported values, 1 for the unscaled ones."""
    items = data["items"]
    work = [it for it in items if it["kind"] == "scenario"]
    reruns = [it for it in items if it["kind"] == "rerun"]
    host_s = fastest_round_total(work) * scale
    scenarios = sum(it["scenarios"] for it in work)
    sim_s = sum(it["sim_ns"] for it in work) / 1e9
    paper = data["paper"]
    attempted = data["attempted"]
    return {
        "scen_per_min": 60.0 * scenarios / host_s,
        "sim_s_per_wall_s": sim_s / host_s,
        # Median sample of every set-up component, summed.
        "setup_s": scale * sum(statistics.median(v)
                               for v in data["setup"].values()),
        "rerun_scen_per_min": 60.0 * sum(it["scenarios"] for it in reruns) /
                              (fastest_round_total(reruns) * scale),
        "peak_rss_mb": max(data["peak_rss"].values()) / 1024.0,
        "ok_pct": 100.0 * (attempted - data["not_ok"]) / attempted,
        "paper_err_pct": statistics.mean(
            abs(p["sim"] - p["paper"]) / p["paper"] * 100.0 for p in paper),
    }


def per_layer(data):
    work = [it for it in data["items"] if it["kind"] == "scenario"]
    times = [min(it["rounds_s"]) for it in work]
    events = sum(it["events"] for it in work)
    sim_s = sum(it["sim_ns"] for it in work) / 1e9
    overhead = (fastest_round_total(work, "traced_rounds_s") /
                fastest_round_total(work) - 1.0)
    out = {
        "sim.ns_per_event": sum(times) / events * 1e9,
        "sim.events_per_sim_s": events / sim_s,
        "config.scenario_us.p50": percentile(times, 50) * 1e6,
        "config.scenario_us.p99": percentile(times, 99) * 1e6,
        "bench.trace_overhead_pct": 100.0 * overhead,
        "bench.reference_us": min(data["reference_s"]) * 1e6,
    }
    out.update(data["layers"])
    return out


def cmake_cache(build_dir):
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    return cache


def host_facts(build_dir):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "") or "(empty)",
    }


def build(root):
    """Configure once, then bring perfbench_measure and shieldctl up to
    date."""
    bdir = os.path.join(root, BUILD_DIR)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    cache = os.path.join(bdir, "CMakeCache.txt")
    own = os.path.join(root, "perfbench", "CMakeLists.txt")
    if (not os.path.exists(cache) or
            os.path.getmtime(own) > os.path.getmtime(cache)):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_measure",
                  "shieldctl", "-j", str(min(4, os.cpu_count() or 1))])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return (os.path.join(bdir, "perfbench_measure"),
            os.path.join(bdir, "shieldsim", "tools", "shieldctl"))


def report(data, facts, metrics, checks_ok, unscaled=None):
    """Human-readable evidence printed ahead of the result line."""
    w = data["workload"]
    print(f"== perfbench {w} (seed {data['seed']}, "
          f"{'traced' if data['traced'] else 'untraced'}) ==")
    print(f"host: nproc={facts['nproc']} compiler={facts['compiler']!r} "
          f"build_type={facts['build_type']}")
    print(f"rounds={data['rounds']} measured_s={data['measured_s']:.2f} "
          f"campaigns={data['campaigns']} specs={data['specs']} "
          f"scale={data['scale']}")
    ref = data["reference_s"]
    q1, q2, q3 = quartiles(ref)
    print(f"reference kernel: n={len(ref)} fastest={min(ref) * 1e6:.1f} us "
          f"q={q1 * 1e6:.1f}/{q2 * 1e6:.1f}/{q3 * 1e6:.1f} us; end-to-end "
          f"host times x {host_scale(data):.4f} "
          f"(= {REFERENCE_S * 1e6:.0f} us / fastest)")
    print("per-item rounds (n, fastest, q1/median/q3 in ms):")
    for it in data["items"]:
        for key in ("rounds_s", "traced_rounds_s"):
            r = it[key]
            if not r:
                continue
            q1, q2, q3 = quartiles(r)
            tag = " traced" if key == "traced_rounds_s" else ""
            print(f"  {it['name']:<40}{tag:>7} n={len(r):<3} "
                  f"min={min(r) * 1e3:9.3f} q={q1 * 1e3:9.3f}/"
                  f"{q2 * 1e3:9.3f}/{q3 * 1e3:9.3f}")
    print("set-up components (samples per component, sum of fastest, sum "
          "of medians in ms):")
    groups = {}
    for name, v in data["setup"].items():
        groups.setdefault(name.split("#")[0], []).append(v)
    for name, vs in sorted(groups.items()):
        print(f"  {name:<14} x{len(vs):<3} n={len(vs[0]):<3} "
              f"min={sum(min(v) for v in vs) * 1e3:9.4f} "
              f"median={sum(statistics.median(v) for v in vs) * 1e3:9.4f}")
    work = [it for it in data["items"] if it["kind"] == "scenario"]
    events = sum(it["events"] for it in work)
    sim_s = sum(it["sim_ns"] for it in work) / 1e9
    print("simulated statistics (must repeat exactly for a speed-only "
          "change):")
    print(f"  events={events} sim_s={sim_s:.9f} "
          f"sim.events_per_sim_s={events / sim_s:.6f}")
    for name, value in sorted(data["kernel"].items()):
        print(f"  kernel {name} = {value:.9g}")
    print("paper_err_pct inputs (simulated vs paper, mean over campaigns):")
    by_name = {}
    for p in data["paper"]:
        by_name.setdefault(p["name"], []).append(p)
    for name, ps in by_name.items():
        sim = statistics.mean(p["sim"] for p in ps)
        err = statistics.mean(abs(p["sim"] - p["paper"]) / p["paper"] * 100
                              for p in ps)
        print(f"  {name:<20} sim={sim:12.6g} paper={ps[0]['paper']:<8g} "
              f"err={err:7.2f}% (n={len(ps)})")
    if "span_time_ns" in data:
        print("spans (count, total and self time = span minus children, ms):")
        for name, t in sorted(data["span_time_ns"].items(),
                              key=lambda kv: -kv[1]["self_ns"]):
            print(f"  {name:<28} n={t['count']:<6} "
                  f"total={t['total_ns'] / 1e6:12.3f} "
                  f"self={t['self_ns'] / 1e6:12.3f}")
    print(f"outcomes: attempted={data['attempted']} status={data['status']} "
          f"fail_pct="
          f"{100.0 * data['not_ok'] / max(1, data['attempted']):.4f}")
    for name, c in sorted(data["checks"].items()):
        state = "ok" if c["ok"] else "FAILED: " + c.get("detail", "")
        print(f"  check {name:<30} x{c['runs']:<5} {state}")
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:16.6f} {unit}")
    for name, value in (unscaled or {}).items():
        print(f"  {name + ' (unscaled)':<32} {value:16.6f}")
    print("correct:", checks_ok)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    root = os.getcwd()
    missing = [p for p in REQUIRED_SOURCES
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print("perfbench: run from the root of a shieldsim checkout; "
              f"missing {', '.join(missing)}", file=sys.stderr)
        return 2

    measure, shieldctl = build(root)
    facts = host_facts(os.path.join(root, BUILD_DIR))
    work = os.path.join(root, WORK_DIR,
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_path = os.path.join(root, WORK_DIR,
                              f"trace-{args.workload}-{args.seed}.json")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [measure, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--shieldctl",
           shieldctl, "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    spent = time.monotonic() - t_start
    # A run that had to build first may take up to 900 s in all.
    limit = (FIRST_RUN_LIMIT_S if spent > 30 else RUN_LIMIT_S) - spent
    # Its own session, so a timeout can stop its children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: perfbench_measure did not finish within "
                 f"{limit:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: perfbench_measure exited {proc.returncode}")
    data = json.loads(out)
    data["seed"] = args.seed

    checks_ok = (data["not_ok"] == 0 and
                 all(c["ok"] for c in data["checks"].values()))
    if args.trace:
        v = subprocess.run([sys.executable,
                            os.path.join(root, "tools", "trace_validate.py"),
                            trace_path], capture_output=True, text=True)
        print((v.stdout + v.stderr).strip())
        checks_ok = checks_ok and v.returncode == 0
        values, spec = per_layer(data), PER_LAYER
        unscaled = None
    else:
        values, spec = end_to_end(data, host_scale(data)), END_TO_END
        raw = end_to_end(data, 1.0)
        unscaled = {name: raw[name] for name in
                    ("scen_per_min", "sim_s_per_wall_s", "setup_s",
                     "rerun_scen_per_min")}
    metrics = {}
    for name, unit in spec:
        check_metric(name, unit)
        metrics[name] = (float(values[name]), unit)
    report(data, facts, metrics, checks_ok, unscaled)
    print(json.dumps({
        "correct": checks_ok,
        "attempted": int(data["attempted"]),
        "failed": int(data["not_ok"]),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0 if checks_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
