#!/usr/bin/env python3
"""CI guard: observing a run must not make it slow.

Times bench_fig5_schemes and bench_fig6_history_length in two modes:

 * observed: --json --events (sampled kernel timing, metrics and the
   misprediction event sink all on -- what every artifact run does);
 * plain:    --json --no-timing.

It fails when the median observed wall exceeds MAX_RATIO times the
median plain wall, for either bench, and prints the measured ratios.
MAX_RATIO is an interim 1.6, not the 1.25 this guard is meant to hold:
five runs of this script on a 4-core AVX2 VM read fig5 at 1.23-1.38
and fig6 at 1.39-1.50 (the same binaries vary by up to 50% between
passes there). Most of the remainder is fig6's serial merge of 4.2M
buffered mispredictions into the JSONL sink (EXPERIMENTS.md
"Observed walks"; ROADMAP item 2 tracks it, and the bound's
re-derivation on the CI runner). 1.6 stays far below the per-lane
observed fallback this guard exists to keep out (5.5x and 8.6x). It
also checks that observing changes no result:

 * the CSVs of the two modes are byte-identical;
 * the JSONs are byte-identical once the wall-clock members are masked
   (strip_telemetry.py's "telemetry"/"attempt_ns"/"sampling") together
   with the timing-dependent content: the "timing" block and the
   sim.time.* metrics, which only a timed run carries;
 * the observed run's timing call counts are exact: lookup and update
   calls equal the conditional-branch count and history calls equal
   the fetch-block count (sim.time.* vs sim.* counters).

Methodology, tuned for noisy shared runners: a throwaway warm-up run
per bench fills a private trace cache so trace synthesis lands on no
mode; modes then alternate observed, plain, plain, observed, ... so
slow machine drift cancels; each mode's median over REPEATS runs is
compared.

--report writes a JSON summary with the raw samples, the ratios and the
verdict; CI uploads it with the run artifacts.

Usage:
    check_observed_overhead.py --bench-dir build/bench \\
        [--report OBSERVED_overhead_report.json]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from strip_telemetry import mask_member, mask_timing_dependent  # noqa: E402

BENCHES = ("bench_fig5_schemes", "bench_fig6_history_length")
BRANCHES = 250000
REPEATS = 5
MAX_RATIO = 1.6

SIM_TIME_MEMBER = re.compile(r'"sim\.time\.[^"]*":\s*[-0-9.eE+]+')


def run_once(bench, mode, workdir, tag):
    """One bench run; returns (seconds, json_path, csv_path)."""
    paths = {k: os.path.join(workdir, f"{tag}.{k}")
             for k in ("json", "csv", "jsonl")}
    cmd = [bench, f"--branches={BRANCHES}", "--quiet",
           f"--json={paths['json']}", f"--csv={paths['csv']}"]
    if mode == "observed":
        cmd.append(f"--events={paths['jsonl']}")
    else:
        cmd.append("--no-timing")
    env = dict(os.environ)
    env["EV8_TRACE_CACHE_DIR"] = os.path.join(workdir, "trace_cache")
    start = time.monotonic()
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
    return time.monotonic() - start, paths["json"], paths["csv"]


def mask_observation(text):
    """The JSON with every wall-clock and timing-dependent value
    masked: what must match between an observed and a plain run."""
    text = mask_timing_dependent(text)
    text = mask_member(text, "timing", "{", "}")
    text = SIM_TIME_MEMBER.sub("", text)
    while True:
        tidy = (text.replace(",,", ",").replace("{,", "{")
                .replace(",}", "}"))
        if tidy == text:
            return text
        text = tidy


def check_call_counts(json_path):
    """Errors in the observed run's timing call counts ([] when
    exact)."""
    with open(json_path) as f:
        doc = json.load(f)
    counters = doc.get("metrics", {}).get("counters", {})
    errors = []
    expect = {
        "sim.time.lookup.calls": "sim.cond_branches",
        "sim.time.update.calls": "sim.cond_branches",
        "sim.time.history.calls": "sim.fetch_blocks",
    }
    for timed, exact in expect.items():
        if counters.get(timed) != counters.get(exact):
            errors.append(f"{timed}={counters.get(timed)} but "
                          f"{exact}={counters.get(exact)}")
    timing = doc.get("timing", {})
    if timing.get("lookup", {}).get("calls") != \
            timing.get("update", {}).get("calls"):
        errors.append(f"timing lookup/update calls differ: {timing}")
    return errors


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the bench binaries")
    parser.add_argument("--report", default=None,
                        help="write a JSON measurement report here")
    args = parser.parse_args()

    report = {"branches": BRANCHES, "repeats": REPEATS,
              "max_ratio": MAX_RATIO, "benches": {}}
    failed = False
    with tempfile.TemporaryDirectory(prefix="observed_overhead_") as wd:
        for name in BENCHES:
            bench = os.path.join(args.bench_dir, name)
            run_once(bench, "plain", wd, f"{name}.warmup")
            times = {"observed": [], "plain": []}
            last = {}
            for r in range(REPEATS):
                order = (("observed", "plain") if r % 2 == 0
                         else ("plain", "observed"))
                for mode in order:
                    secs, json_path, csv_path = run_once(
                        bench, mode, wd, f"{name}.{mode}{r}")
                    times[mode].append(secs)
                    last[mode] = (json_path, csv_path)
                    print(f"{name} run {r}: {mode:8s} {secs:.3f}s")
            observed = statistics.median(times["observed"])
            plain = statistics.median(times["plain"])
            ratio = observed / plain
            entry = {"observed_s": times["observed"],
                     "plain_s": times["plain"],
                     "observed_median_s": observed,
                     "plain_median_s": plain, "ratio": ratio,
                     "errors": []}
            print(f"{name}: observed median {observed:.3f}s / plain "
                  f"median {plain:.3f}s = {ratio:.3f}x "
                  f"(max {MAX_RATIO}x)")
            if ratio > MAX_RATIO:
                entry["errors"].append(
                    f"observed/plain {ratio:.3f}x exceeds "
                    f"{MAX_RATIO}x")

            obs_json, obs_csv = last["observed"]
            plain_json, plain_csv = last["plain"]
            if open(obs_csv, "rb").read() != open(plain_csv, "rb").read():
                entry["errors"].append("CSV differs between modes")
            if (mask_observation(open(obs_json).read())
                    != mask_observation(open(plain_json).read())):
                entry["errors"].append(
                    "JSON differs between modes beyond the masked "
                    "timing members")
            entry["errors"] += check_call_counts(obs_json)

            for err in entry["errors"]:
                print(f"FAIL: {name}: {err}", file=sys.stderr)
            failed |= bool(entry["errors"])
            report["benches"][name] = entry

    report["passed"] = not failed
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"report written to {args.report}")
    if not failed:
        print("observation overhead OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
