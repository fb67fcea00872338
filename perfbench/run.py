#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the perfbench program
from source into .bench_build/ (Release), runs one measurement, checks every
job's output digest against perfbench/reference.json, and prints as its last
stdout line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. Each result, with its provenance, is also appended to
.bench_build/results.jsonl.

--record additionally stores this run's digest as the reference for
(workload, seed); use it only when a change is meant to alter outputs.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH_DIR / "reference.json"
RESULTS = ROOT / ".bench_build" / "results.jsonl"
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def parse_args(spec):
    names = [w["name"] for w in spec["workloads"]]

    def seed(text):
        # Decimal digits only: no sign, no spaces, no '_' — never wrapped.
        if not re.fullmatch(r"[0-9]+", text) or int(text) >= 2**64:
            raise argparse.ArgumentTypeError(
                f"invalid seed {text!r}: need an integer in [0, 2^64)")
        return int(text)

    def seconds(text):
        if not re.fullmatch(r"[0-9]+", text) or not 1 <= int(text) <= 3600:
            raise argparse.ArgumentTypeError(
                f"invalid seconds {text!r}: need an integer in [1, 3600]")
        return int(text)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=seed)
    parser.add_argument("--seconds", required=True, type=seconds)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--record", action="store_true",
                        help="store this run's digest as the reference")
    return parser.parse_args()


def build():
    """Configure once, then build incrementally; output goes to a log."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    # A few compile jobs keep the build's memory small on a shared host.
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    return BUILD_DIR / "perfbench"


def source_digest():
    """SHA-256 over the benchmarked sources, for checkouts without git."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def cpu_ticks():
    """Aggregate CPU ticks from /proc/stat: (steal, total), or None."""
    try:
        first = Path("/proc/stat").read_text().splitlines()[0]
        fields = [int(x) for x in first.split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields)


def main():
    spec = load_spec()
    args = parse_args(spec)
    binary = build()

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, NESSA_THREADS=str(nproc))
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             args.trace],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {BINARY_TIMEOUT_S} s")
    load_after = os.getloadavg()
    ticks_after = cpu_ticks()
    steal_share = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal_share = ((ticks_after[0] - ticks_before[0]) /
                       (ticks_after[1] - ticks_before[1]))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result")

    # Every job must reproduce the reference digest for this (workload,
    # seed). A seed without a recorded reference, or a run that records a
    # new one, is held to the run's own first job: outputs must then at
    # least be deterministic.
    references = {}
    if REFERENCE.exists():
        references = json.loads(REFERENCE.read_text())
    key = str(args.seed)
    expected = None
    if not args.record:
        expected = references.get(args.workload, {}).get(key)
    jobs = out["jobs"]
    reference_kind = "recorded" if expected else "first-job"
    if expected is None:
        expected = jobs[0]["digest"]
    failed = sum(1 for j in jobs if j["error"] or j["digest"] != expected)
    for j in jobs:
        if j["error"]:
            print(f"job failed: {j['error']}", file=sys.stderr)
        elif j["digest"] != expected:
            print(f"job digest {j['digest']} != reference {expected}",
                  file=sys.stderr)

    section = "per_layer" if args.trace == "1" else "end_to_end"
    metrics, samples = {}, {}
    for m in spec[section]:
        if m["name"] not in out["metrics"]:
            fail(f"perfbench did not report metric {m['name']}")
        value = out["metrics"][m["name"]]["median"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples[m["name"]] = out["metrics"][m["name"]]["samples"]
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {"correct": failed == 0 and finite,
              "attempted": len(jobs),
              "failed": failed,
              "metrics": metrics}

    if args.record:
        if failed:
            fail("not recording: the run had failed jobs")
        references.setdefault(args.workload, {})[key] = jobs[0]["digest"]
        ordered = {w: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
                   for w, seeds in sorted(references.items())}
        REFERENCE.write_text(json.dumps(ordered, indent=1) + "\n")

    provenance = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": out["build_type"],
        "cxx_flags": out["cxx_flags"],
        "compiler": out["compiler"],
        "nproc": nproc,
        "pool_threads": out["pool_threads"],
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "cpu_steal_share": steal_share,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "reference": reference_kind,
        "samples": samples,
    }
    with open(RESULTS, "a") as f:
        f.write(json.dumps({"provenance": provenance, "result": result}))
        f.write("\n")
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
