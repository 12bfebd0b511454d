"""Run every workload on ten seeds and record one point of the perf
trajectory.

    python3 bench/record.py --out bench/trajectory/<name>.json

For each seed 1..10, runs each workload of BENCHMARK.json once untraced (seed-major, so a
slow spell of the machine hits all workloads alike), then each workload
once traced with seed 1, and the reference self-check.  Writes, per
workload and end-to-end metric, every value with its median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (interquartile
distance over median), plus the traced per-layer values and the
comparability record of every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record)["record"], json.loads(result)


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            runs[w].append(run(w, seed, seconds, 0))
            print(f"{w} seed {seed}: {runs[w][-1][1]}", file=sys.stderr)
    out = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for w in workloads:
        record, traced = run(w, 1, seconds, 1)
        results = [result for _, result in runs[w]]
        out["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], bound=m["bound"], **summarise(
                    [r["metrics"][m["name"]]["value"] for r in results]))
                for m in spec["end_to_end"]
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "trace_record": record,
            "records": [rec for rec, _ in runs[w]],
        }
    check = subprocess.run([sys.executable, str(BENCH / "selfcheck.py")], cwd=ROOT,
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    out["selfcheck"] = {"exit": check.returncode, "output": check.stdout.splitlines()}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for w, data in out["workloads"].items():
        for name, m in data["end_to_end"].items():
            print(f"{w:20s} {name:12s} median {m['median']:12.4f} {m['unit']:5s}"
                  f" spread {m['spread']:.4f} (bound {m['bound']})")
        print(f"{w:20s} failed {data['failed']} of {data['attempted']} ops")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
