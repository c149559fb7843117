#!/usr/bin/env python3
"""Repository benchmark: builds forcebench from source and runs one workload.

    python3 perfbench/run.py --workload cmfd --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first call configures and builds
the Force library and the harness under .bench_build/perfbench (Release);
later calls only rebuild what changed. The harness prints its own report
(every metric with its unit, or the reason it is unavailable); this script
relays that report and ends it with one JSON line holding the metrics that
BENCHMARK.json names: its end_to_end list with --trace 0, its per_layer
list with --trace 1.

Exit codes: 0 correct run; 1 a wrong answer, a failed check or a missing
metric; 2 the build could not run; 3 the harness hung and was killed.
Every process the harness started is killed and reaped before exit.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "forcebench"
BUILD_TIMEOUT_S = 840
# A run measures for --seconds; set-up, the phase minimums and the trace
# split stay well inside this margin.
RUN_MARGIN_S = 120


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"the Force sources are missing ({ROOT / 'src'}); run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(2, f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(2, f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def reap_group(pgid):
    """Kills whatever is left of the harness's process group and waits
    until the group is empty."""
    end = time.monotonic() + 10
    while time.monotonic() < end:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        time.sleep(0.05)


def parse_report(text):
    metrics, unavailable, result = {}, {}, None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif len(parts) >= 3 and parts[0] == "unavailable":
            unavailable[parts[1]] = " ".join(parts[3:])
        elif parts and parts[0] == "result":
            result = dict(kv.split("=", 1) for kv in parts[1:])
    return metrics, unavailable, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cmfd", "tree", "pipeline", "short-forces"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="flip one bit of the oracle's answer (self-test)")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(2, "BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    build()
    if not BINARY.is_file():
        fail(2, f"the build produced no {BINARY}")

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    limit = args.seconds * 2 + RUN_MARGIN_S
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        out, _ = proc.communicate()
        sys.stdout.write(out)
        fail(3, f"{args.workload}: the harness did not finish within {limit:.0f} s "
                "and was killed with its team")
    reap_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode < 0:
        fail(3, f"{args.workload}: the harness was killed by signal {-proc.returncode} "
                "(a hang; see the message above)")

    metrics, unavailable, result = parse_report(out)
    if result is None:
        fail(1, f"{args.workload}: the harness printed no result (exit {proc.returncode})")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    chosen = {}
    problems = []
    for m in wanted:
        name = m["name"]
        if name not in metrics:
            why = unavailable.get(name, "not printed")
            problems.append(f"{name}: {why}")
            continue
        value, unit = metrics[name]
        if unit != m["unit"]:
            problems.append(f"{name}: unit {unit}, BENCHMARK.json says {m['unit']}")
        chosen[name] = {"value": value, "unit": m["unit"]}
    correct = proc.returncode == 0 and result.get("correct") == "1" and not problems
    for p in problems:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": chosen,
    }), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
