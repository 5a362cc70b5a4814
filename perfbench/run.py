#!/usr/bin/env python3
"""End-to-end benchmark of the Theorem-1 pipeline.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the Rust harness in perfbench/harness (release profile, offline,
into $CARGO_TARGET_DIR, default .bench_build), runs one workload in one
process of its own, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 its
per_layer list; the harness's names and units are checked against that
file. Exits non-zero without a result when the build or the run fails.
"""

import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
# The harness itself stays well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_records(text):
    """Turns the harness's `metric`/`calls`/`correct` lines into a result."""
    metrics, calls, correct = {}, None, None
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "metric" and len(fields) == 4:
            value = float(fields[3])
            if not math.isfinite(value):
                fail(f"metric {fields[1]} is not finite: {fields[3]}")
            metrics[fields[1]] = {"value": value, "unit": fields[2]}
        elif fields[0] == "calls" and len(fields) == 3:
            calls = (int(fields[1]), int(fields[2]))
        elif fields[0] == "correct" and len(fields) == 2:
            correct = fields[1] == "1"
        else:
            fail(f"unexpected harness output: {line!r}")
    if calls is None or correct is None:
        fail("harness printed no call counts")
    return metrics, calls, correct


def main():
    args = sys.argv[1:]
    if "--trace" not in args or args.index("--trace") + 1 >= len(args):
        fail("--trace <0|1> is required")
    trace = args[args.index("--trace") + 1] == "1"
    expected = expected_metrics(trace)

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("building the harness failed")

    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    exe = os.path.join(target, "release", "perfbench")
    # The harness runs its extra set-ups as child processes; a session of
    # its own lets a timeout stop all of them, not just the harness.
    run = subprocess.Popen(
        [exe, *args, "--out-dir", out_dir],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"harness exited with code {run.returncode}")

    metrics, (attempted, failed), correct = parse_records(stdout)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        fail(f"harness metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(expected.items())}")
    if attempted < 1:
        fail("harness attempted no calls")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
