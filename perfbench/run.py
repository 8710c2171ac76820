"""Benchmark of quasired: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``. Each
run starts fresh worker processes (``worker.py``), one at a time on one
thread. Untraced, two workers time the set-up and a third times it too, then
runs the timed passes and checks every output. Traced, one worker runs a fixed
number of passes plainly and a second runs them under the tracer; the ratio of
their wall times is the tracer's overhead. The program has no queues or
threads, so no metric reports waiting.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
gives the same figures for a reader, with ``failed_frac`` and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_WORKERS = 2  # set-up-only workers; the measuring worker gives a third sample


def _declared(kind: str) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _worker(role: str, args, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), role,
           args.workload, str(args.seed), str(args.seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {role} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _untraced(args, deadline) -> tuple[dict, dict]:
    setups = [_worker("setup", args, deadline) for _ in range(SETUP_WORKERS)]
    m = _worker("measure", args, deadline)
    for s in setups:
        m["errors"] += s["errors"]
        m["attempted"] += s["attempted"]
        m["failed"] += s["failed"]
    metrics = {name: m[name] for name in _declared("end_to_end")}
    metrics["setup_s"] = statistics.median([s["setup_s"] for s in setups] + [m["setup_s"]])
    return m, metrics


def _traced(args, deadline) -> tuple[dict, dict]:
    plain = _worker("plain", args, deadline)
    m = _worker("traced", args, deadline)
    differ = sum(a != b for a, b in zip(plain["digests"], m["digests"]))
    if differ:
        m["errors"].append(f"{differ} outputs differ between the plain and the traced worker")
        m["failed"] += differ * m["passes"]
    m["errors"] += plain["errors"]
    m["attempted"] += plain["attempted"]
    m["failed"] += plain["failed"]
    layer = m["layer"]
    layer["trace.overhead_frac"] = sum(m["pass_times"]) / sum(plain["pass_times"]) - 1
    units = _declared("per_layer")
    metrics = {name: layer[name] for name in units}
    moved = _fingerprint_moved(args, {k: v for k, v in metrics.items() if units[k] == "count"})
    if moved:
        m["errors"].append(f"counts differ from an earlier run at this seed: {', '.join(moved)}")
        m["failed"] += 1
    return m, metrics


def _fingerprint_moved(args, counts: dict) -> list[str]:
    """Counts must repeat exactly at one seed: compare them with an earlier
    traced run of this checkout at the same seed, if there was one."""
    path = OUT / f"fingerprint-{args.workload}-seed{args.seed}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return sorted(k for k in counts if before.get(k) != counts[k])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (ROOT / "src" / "quasired" / "__init__.py").is_file():
        print(f"error: no quasired sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        res, metrics = (_traced if args.trace else _untraced)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    units = _declared("per_layer" if args.trace else "end_to_end")
    summary = {"workload": args.workload, "seed": args.seed, "passes": res["passes"],
               "failed_frac": res["failed"] / res["attempted"]}
    if not args.trace:
        summary["query_samples"] = res["samples"]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
