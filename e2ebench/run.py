#!/usr/bin/env python3
"""End-to-end benchmark: PACER's cost curve, batch and fleet paths.

Builds this package (which compiles the repository's libraries from
../src) into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench),
runs one workload, checks its race counts against golden.json when the
seed has golden values, and prints the result object as the last line.

    python3 e2ebench/run.py --workload eclipse-sweep --seed 1 \
        --seconds 26 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
--record-golden stores this run's counts in the golden file; --golden
points the check at another file; --scale shrinks every trace.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "e2ebench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: repository sources not found at %s" % (ROOT / "src"))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(step))
    return bdir / "e2ebench"


def golden_key(seed, scale):
    return str(seed) if scale == 1 else "%d@%g" % (seed, scale)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--golden", default=str(HERE / "golden.json"))
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    exe = build(build_dir())
    work = os.path.relpath(build_dir().parent / "e2ebench-work", ROOT)
    proc = subprocess.run(
        [str(exe), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--scale", repr(args.scale), "--work", work],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit("e2ebench: no result (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    counts = result.pop("counts")

    golden_path = Path(args.golden)
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
    key = golden_key(args.seed, args.scale)
    expected = golden.get("counts", {}).get(args.workload, {}).get(key)
    if expected is not None:
        for config, want in sorted(expected.items()):
            result["attempted"] += 1
            if counts.get(config) != want:
                result["failed"] += 1
                print("check failed: %s %s counts %s, golden %s" %
                      (args.workload, config, counts.get(config), want),
                      file=sys.stderr)
        print("golden counts for seed %s: checked" % key)
    else:
        print("golden counts for seed %s: none recorded" % key)
    if args.record_golden and result["failed"] == 0:
        golden.setdefault("counts", {}).setdefault(args.workload, {})[key] = counts
        text = json.dumps(golden, indent=2, sort_keys=True)
        # One [distinct, dynamic] pair per line.
        text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text)
        golden_path.write_text(text + "\n")

    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
