"""Run one workload of the catent benchmark and print its metrics.

    python3 bench/run.py --workload table-tall --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository: the benchmark imports catent from
its ``src/`` directory and refuses to run without it.  One client runs
the workload's op in a closed loop for about ``--seconds`` (stopping at
the end of a balanced round), checks every op's output against the
independent reference, and prints two JSON lines: a record that makes
runs comparable (seed, input digest, source digest, machine), then the
result.  With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it holds the per-layer metrics:
half the time runs untraced, half traced over the same inputs (their
difference is the tracing overhead), and the spans are written to
``.bench_run/trace-<workload>-<seed>.json``.
"""

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NoReturn

from spans import NullTracer, Tracer
from workloads import WORKLOADS, cli_env

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"
SETUP_REPEATS = 5
IMPORT_TIMEOUT_S = 30
# a run that cannot finish a round stops anyway at this multiple of --seconds
HARD_STOP_FACTOR = 4
TAIL_BEYOND = 10
# The 2-vCPU machine this benchmark was tuned on alternates between fast and
# slow spells, about 1.6x apart, that last seconds to minutes, so raw medians
# of 25-second runs spread by up to 30%.  End-to-end timings are therefore
# reported at reference speed: ops are scaled by CALIBRATION_REFERENCE_S over
# the time a fixed calibration chunk takes around them.  Raw wall-clock
# figures are kept in the record.
CALIBRATION_DATA = [i % 97 for i in range(20_000)]
CALIBRATION_REPEATS = 10
CALIBRATION_REFERENCE_S = 0.015
CALIBRATION_EVERY_S = 0.5


def fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_catent():
    if not (SRC / "catent" / "__init__.py").is_file():
        fail(f"no catent sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import catent

    if Path(catent.__file__).resolve().parent != (SRC / "catent").resolve():
        fail(f"imported catent from {catent.__file__}, not from {SRC}")
    return catent


def calibrate() -> float:
    """Seconds for a fixed Counter-and-sort chunk, with the collector off so
    that the program's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CALIBRATION_REPEATS):
            Counter(CALIBRATION_DATA)
            sorted(CALIBRATION_DATA)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Scale a wall time by the calibrations taken just before and after it."""
    return seconds * 2 * CALIBRATION_REFERENCE_S / (before + after)


def setup(workload, seed: int, tr, repeats: int):
    """Import catent in a fresh interpreter and build the inputs, ``repeats``
    times; returns the last inputs and the median set-up seconds at
    reference speed."""
    env = cli_env(ROOT)
    seconds, calibrations = [], [calibrate()]
    for _ in range(repeats):
        start = time.perf_counter()
        with tr.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import catent"], cwd=ROOT, env=env,
                           check=True, capture_output=True, timeout=IMPORT_TIMEOUT_S)
        with tr.span("setup.build"):
            items, digest = workload.build(seed, tr)
        seconds.append(time.perf_counter() - start)
        calibrations.append(calibrate())
    return items, digest, statistics.median(
        map(at_reference_speed, seconds, calibrations, calibrations[1:]))


def measure(workload, items, seconds: float, tr, replay: bool) -> dict:
    """Closed loop, one client: run ops until ``seconds`` have passed and a
    round is complete.  Only the op itself is timed.  Every
    ``CALIBRATION_EVERY_S`` the calibration chunk runs, and the ops between
    two calibrations are scaled to reference speed by their mean."""
    durations, scaled, window, calibrations = [], [], [], [calibrate()]
    cells, failed, errors = 0, 0, []
    start = last_calibration = time.perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]
        tr.op = i
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                out = workload.op(item, tr)
            op_errors = None
        except Exception as exc:  # a raising op is failed work, not a crash
            op_errors = [f"op raised {type(exc).__name__}: {exc}"]
        window.append(time.perf_counter() - t0)
        if op_errors is None:
            try:
                op_errors = workload.check(item, out, tr)
                if replay:
                    workload.replay(item, out, tr)
            except Exception as exc:
                op_errors = [f"check raised {type(exc).__name__}: {exc}"]
        if op_errors:
            failed += 1
            errors.extend(op_errors[:3])
        cells += item["cells"]
        i += 1
        now = time.perf_counter()
        stop = (now - start >= seconds and i % workload.unit == 0) or (
            now - start >= HARD_STOP_FACTOR * seconds
        )
        if stop or now - last_calibration >= CALIBRATION_EVERY_S:
            calibrations.append(calibrate())
            last_calibration = time.perf_counter()
            durations.extend(window)
            scaled.extend(at_reference_speed(d, *calibrations[-2:]) for d in window)
            window = []
        if stop:
            break
    tr.op = -1
    return {"durations": durations, "scaled": scaled, "calibrations": calibrations,
            "cells": cells, "failed": failed, "errors": errors,
            "elapsed": time.perf_counter() - start}


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it, that percentile, and the samples beyond it; the maximum when
    there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def peak_rss_mb(workload_name: str) -> float:
    # the CLI workload's program runs in child processes
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# comparability record


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def numpy_version() -> str | None:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be nonnegative and --seconds positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    catent = import_catent()
    # keep the calibration, the ops and any child process on one CPU, so
    # that they see the same fast or slow spell
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs = WORKDIR / f"inputs-{os.getpid()}"
    inputs.mkdir(parents=True)
    workload = WORKLOADS[args.workload](catent, args.workload, inputs)
    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()

    try:
        items, digest, setup_s = setup(workload, args.seed, tracer,
                                       1 if traced else SETUP_REPEATS)
        if traced:
            plain = measure(workload, items, args.seconds / 2, NullTracer(), False)
            runs = [plain, measure(workload, items, args.seconds / 2, tracer, True)]
        else:
            runs = [measure(workload, items, args.seconds, tracer, False)]
    finally:
        shutil.rmtree(inputs)

    last = runs[-1]
    attempted = sum(len(r["durations"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    for message in [e for r in runs for e in r["errors"]][:10]:
        print(f"check: {message}", file=sys.stderr)
    tail_s, tail_pct, beyond = tail(last["scaled"])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": sum(r["elapsed"] for r in runs),
        "inputs_sha256": digest, "source_sha256": source_sha256(),
        "git_commit": git_commit(), "nproc": NPROC,
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": numpy_version(), "setup_repeats": 1 if traced else SETUP_REPEATS,
        "ops": len(last["durations"]), "fail_ratio": failed / attempted,
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "calibration_median_ms": 1000.0 * statistics.median(last["calibrations"]),
        "wall_p50_ms": 1000.0 * statistics.median(last["durations"]),
        "wall_tail_ms": 1000.0 * tail(last["durations"])[0],
    }

    if traced:
        plain, traced_run = (r["scaled"] for r in runs)
        k = min(len(plain), len(traced_run))
        values = tracer.summary()
        values.update(tracer.counts)
        values["trace.overhead_ms"] = 1000.0 * (sum(traced_run[:k]) - sum(plain[:k])) / k
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": setup_s,
            "cells_per_s": last["cells"] / sum(last["scaled"]),
            "op_p50_ms": 1000.0 * statistics.median(last["scaled"]),
            "op_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    if traced:
        trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path, {"record": record})
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
