#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at a tiny trace scale.

For every workload in BENCHMARK.json, an untraced and a traced run must
complete, be correct, and print every metric BENCHMARK.json lists, each
with a unit. Then the golden-count gate must pass on counts recorded a
moment earlier and fail once one recorded count is perturbed.

    python3 e2ebench/tests/selftest.py

Runs from any directory; takes about a minute after the first build.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "e2ebench" / "run.py"
SCALE = "0.05"
SEED = 3


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", trace, "--scale", SCALE, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    last = proc.stdout.splitlines()[-1] if proc.stdout else ""
    result = json.loads(last) if last.startswith("{") else None
    return proc.returncode, result, proc.stderr


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, listed in (("0", bench["end_to_end"]),
                              ("1", bench["per_layer"])):
            code, result, err = run(workload, trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s --trace %s completes correctly" % (workload, trace))
            if result is None:
                sys.stderr.write(err)
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "%s --trace %s result has exactly the four keys" %
                   (workload, trace))
            metrics = result["metrics"]
            missing = [m["name"] for m in listed
                       if m["name"] not in metrics
                       or metrics[m["name"]].get("unit") != m["unit"]]
            expect(not missing, "%s --trace %s names every listed metric with "
                   "its unit%s" % (workload, trace,
                                   " (missing: %s)" % missing if missing else ""))

    # Golden gate: record counts into a scratch copy, then perturb one.
    golden = ROOT / ".bench_build" / "selftest-golden.json"
    golden.parent.mkdir(parents=True, exist_ok=True)
    golden.write_text("{}\n")
    workload = bench["workloads"][0]["name"]
    code, _, _ = run(workload, "0", "--golden", str(golden), "--record-golden")
    expect(code == 0, "recording golden counts succeeds")
    code, result, _ = run(workload, "0", "--golden", str(golden))
    expect(code == 0 and result["correct"], "recorded golden counts pass")
    data = json.loads(golden.read_text())
    counts = data["counts"][workload]["%d@%s" % (SEED, SCALE)]
    counts["pacer_r100"][1] += 1
    golden.write_text(json.dumps(data))
    code, result, _ = run(workload, "0", "--golden", str(golden))
    expect(code != 0 and result is not None and not result["correct"]
           and result["failed"] >= 1, "a perturbed golden count fails the gate")
    golden.unlink()

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
