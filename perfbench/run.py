#!/usr/bin/env python3
"""End-to-end benchmark of the ECSSD simulator.

    python3 perfbench/run.py --workload trace-s10m --seed 1 \
        --seconds 12 --trace 0

Run from the repository root.  Builds perfbench/ (and the simulator
sources it compiles) with CMake into $CARGO_TARGET_DIR or
.bench_build/, runs one workload, checks its outputs, and prints a
table of every metric with its unit, clock and sample count.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  Metric meanings, clocks and layers are
in perfbench/catalog.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The first run in a fresh checkout builds; every run must end by this.
RUN_LIMIT_S = 170.0


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}", 2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build; returns the benchmark binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with log.open("w") as sink:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=sink,
                                      stderr=subprocess.STDOUT).returncode
            except OSError as error:
                fail(f"cannot run {step[0]}: {error}", 2)
            if code != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    binary = out / "ecssd_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_workload(binary, args, deadline):
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results-dir", str(results)]
    if args.small:
        command.append("--small")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}",
             proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    return json.loads(lines[-1]), results


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="fast small-size mode (self tests)")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    spec = load_json(ROOT / "BENCHMARK.json")
    catalog = load_json(BENCH_DIR / "catalog.json")
    if args.workload not in catalog["workloads"]:
        fail(f"unknown workload {args.workload}", 2)

    binary = build()
    raw, results = run_workload(binary, args, deadline)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[kind]}
    entries = catalog["metrics"]
    expected = {name for name, entry in entries.items()
                if entry["kind"] == kind
                and args.workload in entry["workloads"]}
    emitted = {name for name in raw["metrics"] if entries.get(name, {})
               .get("kind") == kind}
    unknown = sorted(set(raw["metrics"]) - set(entries))
    if unknown or emitted != expected:
        fail(f"metric set mismatch: missing {sorted(expected - emitted)}, "
             f"unexpected {sorted(emitted - expected)}, "
             f"uncatalogued {unknown}")

    env = raw["env"]
    print(f"workload {raw['workload']}  seed {raw['seed']}  "
          f"trace {raw['trace']}  scale {raw['scale']}  "
          f"repetitions {raw['reps']}")
    print(f"env nproc={env['nproc']} host_threads={env['host_threads']} "
          f"isa={env['isa']} build={env['build_type']} "
          f"compiler={env['compiler']}")
    print("repetitions setup_s "
          + " ".join(f"{t:.4f}" for t in raw["rep_setup_s"]) + "  host_s "
          + " ".join(f"{t:.4f}" for t in raw["rep_host_s"]))
    print(f"checks {raw['checks_run'] - len(raw['failed_checks'])}"
          f"/{raw['checks_run']} passed")
    for failure in raw["failed_checks"]:
        print(f"  FAILED: {failure}")
    print(f"{'metric':40} {'value':>16} {'unit':10} {'clock':16} samples")
    metrics = {}
    for name in sorted(declared):
        unit = declared[name]["unit"]
        clock = entries[name]["clock"]
        if name in raw["metrics"]:
            value, samples = raw["metrics"][name]
            print(f"{name:40} {value:16.6f} {unit:10} {clock:16} {samples}")
        else:
            # Not crossed by this workload (catalog "workloads").
            value = 0.0
            print(f"{name:40} {'n/a':>16} {unit:10} {clock:16} -")
        metrics[name] = {"value": value, "unit": unit}

    record = dict(raw, metrics={n: {"value": v, "samples": s}
                                for n, (v, s) in raw["metrics"].items()})
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
