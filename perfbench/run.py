#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: grid-warm, grid-observed, ev8-cold, serve-sessions (NOTES.md
says why each was chosen and what it bypasses).

The script builds the libraries, the bench_serve daemon and the
measurement binary (measure.cc) from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), clears every
EV8_* setting from the environment, runs the measurement binary for one workload and
turns its raw samples into metrics. With --trace 0 it prints the
end-to-end metrics; with --trace 1 the per-layer ones. It checks every
grid's per-cell misprediction digest against expected.json and prints,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 measured (even when the check found wrong outputs: the
result line says so), 2 the program could not be built or run.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("grid-warm", "grid-observed", "ev8-cold", "serve-sessions")

# The fixed scale: per-benchmark conditional-branch budget before the
# Table 2 weights (what --branches / EV8_BRANCHES_PER_BENCH mean).
DEFAULT_BRANCHES = 250000

# Set-up repetitions per run; the reported set-up time is their median.
# A batch set-up takes 50-150 ms and the first few can take three times
# as long as the rest; a served set-up takes about 1.2 s.
SETUP_REPS = {"serve-sessions": 5}
DEFAULT_SETUP_REPS = 21

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mbr_s", "Mbr/s"),
    ("peak_rss_mb", "MB"),
]

# Session and RPC latencies do not repeat within a tenth from run to run
# on every workload (NOTES.md), so they are per-layer metrics.
LATENCY = [
    ("session_p50_ms", "ms"),
    ("session_tail_ms", "ms"),
    ("rpc_p50_ms", "ms"),
    ("rpc_p99_ms", "ms"),
]

GRIDS = ("fig5", "fig6", "fig7", "fig8", "ablation-update-policy",
         "ablation-banking")

PER_LAYER = [
    ("trace_cache.synth_mbr_s", "Mbr/s"),
    ("block_stream.decode_mbr_s", "Mbr/s"),
    ("trace_cache.load_mbr_s", "Mbr/s"),
    ("trace_cache.stream_hit_ratio", "ratio"),
    ("trace_cache.disk_mb", "MB"),
    ("trace_cache.errors", "count"),
    *[("experiment.grid_s." + g, "s") for g in GRIDS],
    ("experiment.busy_frac", "ratio"),
    ("experiment.cell_p50_ms", "ms"),
    ("experiment.cell_p90_ms", "ms"),
    ("experiment.lanes_per_walk", "lanes"),
    ("experiment.cells_retried", "count"),
    ("kernel.gskew_mbr_s", "Mbr/s"),
    ("kernel.gshare_mbr_s", "Mbr/s"),
    ("kernel.yags_mbr_s", "Mbr/s"),
    ("kernel.bimode_mbr_s", "Mbr/s"),
    ("kernel.gskew_cell_mbr_s", "Mbr/s"),
    ("kernel.gskew_cell_generic_mbr_s", "Mbr/s"),
    ("kernel.ev8_mbr_s", "Mbr/s"),
    ("obs.plain_mbr_s", "Mbr/s"),
    ("obs.timed_mbr_s", "Mbr/s"),
    ("obs.events_mbr_s", "Mbr/s"),
    *[("serve.rpc_p50_ms." + op, "ms")
      for op in ("open", "start", "snapshot", "wait")],
    ("serve.ping_idle_ms", "ms"),
    ("serve.push_stall_frac", "ratio"),
    ("serve.pop_stall_frac", "ratio"),
    ("serve.daemon_cpu_util", "ratio"),
    ("serve.sessions_shed", "count"),
    ("serve.sessions_expired", "count"),
    ("host.cpu_util", "ratio"),
    *LATENCY,
    ("trace_overhead", "ratio"),
    ("failed_frac", "ratio"),
]

# Every EV8_* variable is recorded and cleared before the measurement binary
# starts,
# so a stray shell setting cannot change which program is measured: the
# path knobs (EV8_FUSED*, EV8_GENERIC_KERNEL, EV8_SIMD, EV8_FAULT_SPEC,
# EV8_SAMPLE_*, EV8_CHECKPOINT_DIR, EV8_TRACE_CACHE_DIR, EV8_JOBS) and the
# scale, retry and serve-limit knobs alike. The binary sets what it needs.
KNOB_PREFIX = "EV8_"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build(out):
    """Configures (once) and builds; build logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no ev8bp sources at " + str(ROOT / "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(nproc())]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")


def clean_env():
    """Returns (child environment, the EV8_* settings it dropped)."""
    env = dict(os.environ)
    recorded = {name: env.pop(name) for name in sorted(os.environ)
                if name.startswith(KNOB_PREFIX)}
    return env, recorded


def source_digest():
    """sha256 over the sources the benchmark builds (sorted paths)."""
    h = hashlib.sha256()
    for top in ("src", "bench", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".txt",
                                                   ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rank_value(sorted_values, pct):
    """Nearest-rank percentile (1-based rank ceil(pct/100 * n))."""
    n = len(sorted_values)
    idx = min(max(math.ceil(pct / 100.0 * n), 1), n)
    return sorted_values[idx - 1]


def tail(values):
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than twenty
    samples no percentile from p50 up has ten beyond it; the median is
    reported then, with the count beyond it.
    """
    s = sorted(values)
    n = len(s)
    for pct in range(99, 49, -1):
        beyond = n - min(max(math.ceil(pct / 100.0 * n), 1), n)
        if beyond >= 10:
            return rank_value(s, pct), pct, beyond
    return rank_value(s, 50), 50, n - min(max(math.ceil(n / 2), 1), n)


def check_outputs(runs, expected, branches):
    """Counts failed cells: reported failures, wrong digests and every
    cell of a served session that failed.

    Returns (attempted, failed, verdict per grid).
    """
    table = expected.get(str(branches))
    attempted = failed = 0
    verdict = {}
    seen = {}
    for run in runs:
        if "error" not in run:
            seen.setdefault(run["grid"], set()).add(run["digest"])
    for run in runs:
        grid = run["grid"]
        attempted += run["cells"]
        if "error" in run:
            print("failed session: " + run["error"])
            failed += run["cells"]
            continue
        if table is None:
            ok = len(seen[grid]) == 1
            word = "unchecked" if ok else "inconsistent"
        else:
            ok = table.get(grid) == run["digest"]
            word = "ok" if len(seen[grid]) == 1 and ok else "MISMATCH"
        verdict[grid] = word + " " + ",".join(sorted(seen[grid]))
        failed += run["cells"] if not ok else run["failed_cells"]
    return attempted, failed, verdict


def end_to_end(doc):
    setup = statistics.median(doc["setup_s"])
    passes = doc["pass_s"]
    # A serve round runs alongside the rounds of the other jobs - 1
    # clients, so the daemon's rate is that many times the round's.
    clients = doc["jobs"] if doc["workload"] == "serve-sessions" else 1
    mbr = statistics.median(clients * b / s for b, s in
                            zip(doc["pass_branches"], passes)) * 1e-6
    print("wall_s base: median of %d passes plus set-up (median of %d)"
          % (len(passes), len(doc["setup_s"])))
    return {
        "setup_s": setup,
        "wall_s": setup + statistics.median(passes),
        "sim_mbr_s": mbr,
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def latency(doc):
    rpcs = sorted(doc["rpc_ms"])
    tail_ms, tail_pct, beyond = tail(doc["session_ms"])
    print("session_tail_ms is p%d over %d sessions (%d beyond it); "
          "rpc percentiles over %d rpcs"
          % (tail_pct, len(doc["session_ms"]), beyond, len(rpcs)))
    return {
        "session_p50_ms": rank_value(sorted(doc["session_ms"]), 50),
        "session_tail_ms": tail_ms,
        "rpc_p50_ms": rank_value(rpcs, 50),
        "rpc_p99_ms": rank_value(rpcs, 99),
    }


def self_times(spans):
    """Self time per span name: duration minus child coverage, in s."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    for s in spans:
        # Children of one span may overlap (parallel loads): merge them.
        ivs = sorted((c["start_ns"], c["end_ns"])
                     for c in children.get(s["id"], []))
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in ivs:
            lo, hi = max(lo, s["start_ns"]), min(hi, s["end_ns"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        dur = s["end_ns"] - s["start_ns"]
        tot = totals.setdefault(s["name"], [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dur * 1e-9
        tot[2] += (dur - covered) * 1e-9
    return totals


def per_layer(doc, spans, failed, attempted):
    layers = dict(doc["layers"])
    layers.update(latency(doc))
    untraced = doc["untraced_pass_s"]
    layers["trace_overhead"] = (statistics.median(doc["pass_s"])
                                / statistics.median(untraced))
    layers["failed_frac"] = failed / attempted
    print("trace_cache.stream_hit_ratio base: %d stream requests at "
          "set-up" % layers.pop("trace_cache.stream_requests", 0))
    print("trace_overhead base: %d traced vs %d untraced passes"
          % (len(doc["pass_s"]), len(untraced)))
    print("self time by span (count, total s, self s):")
    totals = self_times(spans)
    for name, (count, total, own) in sorted(
            totals.items(), key=lambda kv: -kv[1][2]):
        print("  %-32s %7d %10.4f %10.4f" % (name, count, total, own))
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--branches", type=int, default=DEFAULT_BRANCHES,
                    help="per-benchmark branch budget (default %(default)s)")
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="digest table to check against")
    ap.add_argument("--serve-fault-spec", default="",
                    help="EV8_FAULT_SPEC for the bench_serve daemon only "
                         "(the smoke test uses it to fail sessions)")
    args = ap.parse_args()

    out = build_dir()
    build(out)
    env, knobs = clean_env()
    jobs = nproc()
    work = out / ("work-" + args.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(out / "ev8_perfbench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds,
           "--trace=%d" % args.trace,
           "--branches=%d" % args.branches,
           "--jobs=%d" % jobs,
           "--work=" + str(work),
           "--serve-bin=" + str(out / "bench_serve"),
           "--setup-reps=%d" % SETUP_REPS.get(args.workload,
                                               DEFAULT_SETUP_REPS)]
    if args.serve_fault_spec:
        cmd.append("--daemon-fault-spec=" + args.serve_fault_spec)
    # The measurement binary and the daemons it spawns share a fresh
    # process group, so an overrun stops them all together.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        # A run measures --seconds, plus set-up and, when traced, the
        # probes (a traced run takes about 2 x --seconds + 15 s). Up to
        # --seconds 27 the limit is 170 s, which keeps a run under 180 s.
        stdout, _ = proc.communicate(timeout=max(170, 4 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        stdout = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # leftovers of a failed run
    except ProcessLookupError:
        pass
    if stdout is None:
        proc.communicate()
        fail("measurement overran its time limit")
    if proc.returncode != 0:
        fail("measurement exited with %d" % proc.returncode)
    doc = json.loads(stdout.strip().splitlines()[-1])

    with open(args.expected) as f:
        expected = json.load(f)
    attempted, failed, verdict = check_outputs(doc["runs"], expected,
                                               args.branches)

    print("provenance: " + json.dumps({
        "cpu": cpu_model(), "nproc": jobs, "compiler": doc["compiler"],
        "build_type": doc["build_type"], "cxx_flags": doc["cxx_flags"],
        "simd_backend": doc["simd_backend"], "git_commit": git_commit(),
        "source_digest": source_digest(), "branches": args.branches,
        "cleared_env": knobs}))
    print("check: " + json.dumps(verdict, sort_keys=True))

    if args.trace:
        with open(work / "spans.json") as f:
            spans = json.load(f)
        values = per_layer(doc, spans, failed, attempted)
        names = PER_LAYER
    else:
        values = end_to_end(doc)
        names = END_TO_END
    metrics = {}
    for name, unit in names:
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-36s %14.6g %s" % (name, values[name], unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
