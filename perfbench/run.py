#!/usr/bin/env python3
"""Magellan end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload study|replay|ingest|all \
        [--seed N] [--seconds S] [--trace 0|1] [--scale F]

Builds the `perfbench` worker and `magellan-traced` from source into
$CARGO_TARGET_DIR (default `.bench_build`), generates the seed's inputs
(cached under `.perfbench/inputs`, keyed by the built binaries), then
runs `round(--seconds / first repetition's wall)` repetitions of the
workload (at least one), each with a fresh system under test. Every
repetition checks its own output. The last stdout line is one JSON
object: `correct`, `attempted`, `failed`, `metrics`. With `--trace 0`
the metrics are the end-to-end ones, medians over the repetitions;
with `--trace 1` they are the per-layer ones of a traced pass over the
same seed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study", "replay", "ingest")
UNITS = {
    "wall_s": "s",
    "reports_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# Input sets kept in the cache; each holds one archive (~100 MiB at
# the default scale).
KEEP_INPUTS = 12
# Per-process ceiling: a stuck worker is killed, not waited on.
PROCESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def stop_group(proc):
    """Kills the process group of `proc` and waits until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_proc(cmd, timeout=PROCESS_TIMEOUT_S, cwd=ROOT, env=None):
    """Runs `cmd` in its own process group; returns (code, stdout).

    The whole group (the worker and any serve child) is killed and
    reaped on timeout or interruption."""
    proc = subprocess.Popen(
        cmd,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        stop_group(proc)
        raise
    stop_group(proc)
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.strip().splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "magellan", "--bin", "magellan-traced"],
    ]
    for cmd in steps:
        code, out = run_proc(cmd, timeout=900, env=env)
        if code != 0:
            raise RuntimeError(f"build failed: {' '.join(cmd)}")
    worker = target / "release" / "perfbench"
    traced = target / "release" / "magellan-traced"
    for b in (worker, traced):
        if not b.is_file():
            raise RuntimeError(f"build produced no {b}")
    return worker, traced


def binaries_key(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def ensure_inputs(worker, key, seed, scale):
    """Returns (inputs dir, gen seconds or None when cached)."""
    cache = ROOT / ".perfbench" / "inputs"
    cache.mkdir(parents=True, exist_ok=True)
    inputs = cache / f"{key}-s{seed}-x{scale!r}"
    gen_s = None
    if not (inputs / "digest").is_file():
        code, out = run_proc([str(worker), "gen", "--seed", str(seed),
                              "--scale", repr(scale), "--inputs", str(inputs)])
        if code != 0:
            raise RuntimeError("input generation failed")
        gen_s = last_json(out)["gen_s"]
    os.utime(inputs)
    sets = sorted((p for p in cache.iterdir() if p.is_dir() and p != inputs),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in sets[KEEP_INPUTS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    return inputs, gen_s


def run_reps(worker, traced, workload, seed, scale, threads, work, inputs,
             seconds):
    """Runs the worker once; returns its repetition objects."""
    code, out = run_proc([
        str(worker), "run", "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--threads", str(threads), "--work", str(work),
        "--inputs", str(inputs), "--traced-bin", str(traced),
        "--seconds", repr(seconds)])
    if code != 0:
        raise RuntimeError(f"{workload} repetition failed (exit {code})")
    return [json.loads(l) for l in out.splitlines() if l.startswith("{")]


def run_workload(args, worker, traced, key, threads, work):
    """Runs `round(seconds / first wall)` repetitions (at least one), or
    one when tracing. `study` and `replay` get a fresh worker process
    per repetition; the `ingest` worker repeats by itself, since its
    system under test is the serve child it spawns each time."""
    seed, scale, workload = args.seed, args.scale, args.workload
    gen_s = None
    inputs = work / "no-inputs"
    if workload in ("replay", "ingest"):
        inputs, gen_s = ensure_inputs(worker, key, seed, scale)
    seconds = 0.0 if args.trace else args.seconds
    reps = run_reps(worker, traced, workload, seed, scale, threads, work,
                    inputs, seconds)
    if workload != "ingest":
        wanted = max(1, round(seconds / max(reps[0]["wall_s"], 1e-3)))
        while len(reps) < wanted:
            reps += run_reps(worker, traced, workload, seed, scale, threads,
                             work, inputs, seconds)
    layers = None
    if args.trace:
        code, out = run_proc([
            str(worker), "trace", "--seed", str(seed), "--scale", repr(scale),
            "--threads", str(threads), "--work", str(work),
            "--traced-bin", str(traced)])
        if code != 0:
            raise RuntimeError(f"traced pass failed (exit {code})")
        layers = last_json(out)
    return reps, gen_s, layers


def end_to_end(reps):
    """Medians over the repetitions."""
    med = statistics.median
    values = {
        "wall_s": med(r["wall_s"] for r in reps),
        "reports_per_s": med(r["reports"] / r["wall_s"] for r in reps),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "setup_s": med(r["setup_s"] for r in reps),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def summarize(args, reps, gen_s, layers, threads):
    """Prints the human-readable lines; returns the result object."""
    reasons = [r["reason"] for r in reps if not r["correct"]]
    if layers is not None and not layers["correct"]:
        reasons.append("traced pass: " + layers["reason"])
    attempted = sum(r["attempted"] for r in reps)
    failed = attempted if reasons else sum(r["failed"] for r in reps)
    first = reps[0]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "host_cores": host_cores(),
        "par_threads": threads,
        "repetitions": len(reps),
        "input_reports": first["input_reports"],
        "input_digest": first["input_digest"],
        "report_digest": first["report_digest"],
        "gen_s": (gen_s if gen_s is not None
                  else "none" if args.workload == "study" else "cached"),
        "failed_frac": failed / attempted,
    }
    if reasons:
        meta["failure"] = reasons[0]
    print("meta " + json.dumps(meta))
    for r in reps:
        print("rep " + json.dumps(r))
    if layers is None:
        metrics = end_to_end(reps)
        for k, m in metrics.items():
            print(f"{args.workload}.{k:<14} {m['value']:.6g} {m['unit']}")
        print(f"{args.workload}.{'failed_frac':<14} {meta['failed_frac']:.6g} ratio")
    else:
        stage = layers[f"{args.workload}_stage_s"]
        metrics = dict(layers["metrics"])
        metrics["trace_overhead_frac"] = {
            "value": stage / first["wall_s"] - 1.0, "unit": "ratio"}
        for k, m in metrics.items():
            print(f"{k:<32} {m['value']:.6g} {m['unit']}")
    return {"correct": not reasons, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=0.02)
    args = p.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        worker, traced = build(target)
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 2
    key = binaries_key([worker, traced])
    threads = host_cores()
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for w in workloads:
            args.workload = w
            reps, gen_s, layers = run_workload(args, worker, traced, key,
                                               threads, work)
            result = summarize(args, reps, gen_s, layers, threads)
            print(json.dumps(result), flush=True)
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
