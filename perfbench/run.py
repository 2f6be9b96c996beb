#!/usr/bin/env python3
"""Repo benchmark entry point: builds perfbench from source, runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload serve_open --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --self-check
  python3 perfbench/run.py --make-checkpoint

A run builds the library and the perfbench binary (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build, runs the workload with every DEEPGATE_*
knob cleared, and prints the binary's provenance line followed, as the last
line, by the result object {"correct", "attempted", "failed", "metrics"}.
setup_s is the median over SETUPS fresh processes, each timed from process
entry to the end of its set-up: SETUPS - 1 set-up-only runs, then the
measured run itself.
Traces and provenance files go to .bench_out/. On a build or set-up error it
exits non-zero without printing a result.

--self-check runs every workload at a small op count: twice untraced with
the same seed (prob_error and the counts must match exactly) and once
traced, and asserts that every metric BENCHMARK.json names is emitted with
its unit and that every output check passed.

--make-checkpoint retrains perfbench/model.dgtp (deterministic) and rewrites
perfbench/model.dgtp.fnv1a64.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
CHECKPOINT = BENCH_DIR / "model.dgtp"
WORKLOADS = ("serve_open", "eval_offline", "label_corpus", "edit_session")
RUN_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 10
SETUPS = 5
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def build():
    """Configure and build the binary; returns its path or None on failure."""
    out = build_dir()
    steps = []
    # A generated tree re-configures itself when a CMakeLists.txt changes.
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return out / "perfbench"


def child_env():
    # Knobs change code paths; the benchmark pins its own configuration.
    return {k: v for k, v in os.environ.items() if not k.startswith("DEEPGATE_")}


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Run perfbench; returns (exit code, stdout lines)."""
    out_dir = pathlib.Path(".bench_out").resolve()
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), *args, "--checkpoint", str(CHECKPOINT), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s")
        return 2, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def run_workload(binary, workload, seed, seconds, trace, ops=None, setup_only=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if ops is not None:
        args += ["--ops", str(ops)]
    if setup_only:
        args += ["--setup-only", "1"]
    code, lines = run_binary(binary, args, SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S)
    return code, lines, parse_result(lines)


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def setup_seconds(binary, workload, seed):
    """setup_s of a set-up-only process, or None when it failed."""
    _, _, result = run_workload(binary, workload, seed, 1, 0, setup_only=True)
    if result is None or "setup_s" not in result["metrics"]:
        return None
    return result["metrics"]["setup_s"]["value"]


def measured_run(binary, workload, seed, seconds, trace, ops=None):
    """Run one workload; with --trace 0, fold the other set-up processes'
    times into setup_s. Returns (exit code, provenance line, result)."""
    setups = []
    if trace == 0:
        for _ in range(SETUPS - 1):
            value = setup_seconds(binary, workload, seed)
            if value is None:
                return 2, None, None
            setups.append(value)
    code, lines, result = run_workload(binary, workload, seed, seconds, trace, ops)
    if result is None:
        return code, None, None
    provenance = json.loads(lines[-2]) if len(lines) >= 2 else {"provenance": {}}
    if trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = median(setups)
        provenance["provenance"]["setup_s_samples"] = setups
    return code, provenance, result


def self_check(binary):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        runs = []
        for trace in (0, 0, 1):
            code, _, result = measured_run(binary, workload, 7, 1, trace, ops=6)
            tag = f"{workload} trace={trace}"
            if result is None:
                problems.append(f"{tag}: no result line (exit {code})")
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: output check failed (exit {code})")
            for name, unit in wanted[trace].items():
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit:
                    problems.append(f"{tag}: metric {name} [{unit}] missing or wrong unit")
            if trace == 0:
                runs.append(result)
        if len(runs) == 2:
            a, b = runs
            same = (a["attempted"], a["failed"], a["metrics"]["prob_error"]["value"]) == \
                   (b["attempted"], b["failed"], b["metrics"]["prob_error"]["value"])
            if not same:
                problems.append(f"{workload}: prob_error or counts differ between two runs")
        log(f"self-check {workload}: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        log(p)
    return 0 if not problems else 1


def make_checkpoint(binary):
    code, lines = run_binary(binary, ["--make-checkpoint", str(CHECKPOINT)])
    if code != 0 or not lines:
        log("checkpoint training failed")
        return code or 1
    for line in lines[:-1]:
        print(line)
    digest = lines[-1].strip()
    (BENCH_DIR / "model.dgtp.fnv1a64").write_text(digest + "\n")
    print(f"{CHECKPOINT.name} fnv1a64 {digest}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--make-checkpoint", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.self_check or args.make_checkpoint):
        ap.error("one of --workload, --self-check or --make-checkpoint is required")

    binary = build()
    if binary is None:
        return 2
    if args.self_check:
        return self_check(binary)
    if args.make_checkpoint:
        return make_checkpoint(binary)

    code, provenance, result = measured_run(binary, args.workload, args.seed, args.seconds,
                                            args.trace)
    if result is None:
        log(f"no result (exit {code})")
        return code or 2
    print(json.dumps(provenance))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
