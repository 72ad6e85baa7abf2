#!/usr/bin/env python3
"""Smoke test of the benchmark at its smallest committed scale.

Run from the repository root:

    python3 perfbench/smoke_test.py

Checks, at 20000 branches per benchmark and one-second runs:

  - every workload runs once untraced and once traced, exits 0 and ends
    its output with a correct result line;
  - every end-to-end and per-layer metric of BENCHMARK.json prints, with
    its unit, in the matching run;
  - the traced run writes spans whose parent links resolve;
  - a wrong expected digest makes the run incorrect and failed_frac > 0;
  - a served session whose connection drops counts as failed cells, and
    the run still ends with a result line;
  - a scale with no committed digests prints "unchecked".

Exits 0 when every check passes, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "20000"

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark itself, for its paths)

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--branches", SCALE, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    check(result is not None,
          "%s trace=%d exits 0 with a result line" % (workload, trace))
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return result, proc.stdout


def metrics_match(result, declared, label):
    got = result["metrics"]
    for m in declared:
        entry = got.get(m["name"])
        check(entry is not None and entry.get("unit") == m["unit"]
              and isinstance(entry.get("value"), (int, float)),
              "%s prints %s in %s" % (label, m["name"], m["unit"]))


def spans_linked(workload):
    path = run.build_dir() / ("work-" + workload) / "spans.json"
    spans = json.loads(path.read_text())
    ids = {s["id"] for s in spans}
    parented = [s for s in spans if s["parent"]]
    check(bool(parented) and all(s["parent"] in ids for s in parented),
          "%s spans resolve their parent links (%d spans)"
          % (workload, len(spans)))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        result, _ = bench(w, 0)
        if result:
            check(result["correct"] and result["failed"] == 0,
                  "%s outputs match expected.json" % w)
            metrics_match(result, spec["end_to_end"], w)
        result, _ = bench(w, 1)
        if result:
            metrics_match(result, spec["per_layer"], w + " traced")
            spans_linked(w)

    table = json.loads((HERE / "expected.json").read_text())
    table[SCALE]["fig5"] = "0" * 16
    wrong = run.build_dir() / "smoke-wrong-expected.json"
    wrong.write_text(json.dumps(table))
    result, _ = bench("grid-warm", 1, "--expected", str(wrong))
    if result:
        frac = result["metrics"]["failed_frac"]["value"]
        check(not result["correct"] and result["failed"] > 0 and frac > 0,
              "a wrong fig5 digest fails cells (failed_frac %.3f)" % frac)

    # The daemon drops client 0's connection after its first measured
    # start: that session fails, the client reconnects and goes on.
    result, out = bench("serve-sessions", 0, "--serve-fault-spec",
                        "conn_drop/=m-c0-0/start")
    if result:
        check(not result["correct"] and result["failed"] > 0
              and "failed session: m-c0-0" in out,
              "a dropped served session fails its cells (%d of %d)"
              % (result["failed"], result["attempted"]))

    result, out = bench("ev8-cold", 0, "--branches", "21000")
    if result:
        check("unchecked" in out, "an uncommitted scale prints unchecked")

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
