"""One benchmark worker process: set-up, the passes of a workload, checks.

    python3 perfbench/worker.py ROLE WORKLOAD SEED SECONDS

run from the root of a checkout. ROLE is one of

* ``setup``: import ``quasired`` and run the warm-up, then stop;
* ``measure``: set-up, the tables timing, timed passes for about SECONDS
  (at least two), then every check;
* ``plain``: set-up and the workload's fixed number of traced-run passes,
  untraced, to give the tracer's overhead its base;
* ``traced``: the same with the tracer installed right after the import,
  then every check.

The last line of standard output is one JSON object with the results.
Times are scaled to a nominal machine speed by ``speed.Speed``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

import tracer
import workloads
from speed import Speed

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
TABLES_PER_PASS = 3  # tables runs timed after each pass of a verify workload
WALL_CAP = 1.5  # passes stop once they would run past this many times SECONDS


def _tables_error(output: str) -> str | None:
    status, _, text = output.partition("\n")
    if status != "exit 0" or "MISMATCH" in text:
        return "tables regeneration differs from the vendored goldens"
    return None


def main() -> None:
    role, name, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    wl = workloads.WORKLOADS[name]
    queries = wl.queries(seed) if role != "setup" else []
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tables-", dir=OUT)
    try:
        result = run(role, wl, queries, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


def _setup(role, wl, tmp, errors):
    """Import quasired from the checkout, install the tracer if asked,
    build the workload's root systems and run its warm-up queries."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import quasired
    import quasired.cli

    if not Path(quasired.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"quasired was imported from {quasired.__file__}, not {src}")
    tr = tracer.Tracer() if role == "traced" else None
    if tr:
        tr.install()
    for fam, rank in wl.types:
        quasired.rootsys.build_root_system(quasired.rootsys.SimpleType(fam, rank))
    for argv, want in wl.warmup:
        argv = [tmp if a == workloads.TMP else a for a in argv]
        got, _ = quasired.cli.run(argv)
        if got != want:
            errors.append(f"warm-up {argv}: exit {got}, expected {want}")
    return quasired, tr


def _tables(quasired, tmp) -> str:
    return "exit {}\n{}".format(*quasired.cli.run(["tables", "--out", tmp]))


def run(role, wl, queries, seconds, tmp) -> dict:
    speed = Speed()
    errors: list[str] = []
    (loaded,), (setup_s,) = speed.measure([(_setup, (role, wl, tmp, errors))])
    if isinstance(loaded, str):
        raise SystemExit(f"set-up failed: {loaded}")
    quasired, tr = loaded
    result = {"setup_s": setup_s}
    if role == "setup":
        result.update(attempted=len(wl.warmup), failed=len(errors), errors=errors)
        return result

    tables = [(_tables, (quasired, tmp))]
    tables_out, tables_times, pass_times = [], [], []

    # timed passes
    if tr:
        tr.start_passes()
    fixed = None if role == "measure" else wl.trace_passes
    first: list[str] = []  # outputs of the first pass
    changed: set[int] = set()  # queries whose output differed in a later pass
    times = array("d")
    passes = 0
    start = perf_counter()
    while True:
        p0 = perf_counter()
        tables_dt = 0.0
        if wl.tables_in_pass:
            (out,), (tables_dt,) = speed.measure(tables)
            tables_out.append(out)
            tables_times.append(tables_dt)
            # sweep queries take microseconds: one scale factor per batch
            outs, dts = speed.measure([(q.call, (quasired,)) for q in queries])
        else:
            # verify queries take about a second: one scale factor each
            outs, dts = [], []
            for q in queries:
                (out,), (dt,) = speed.measure([(q.call, (quasired,))])
                outs.append(out)
                dts.append(dt)
        if role == "measure" and not wl.tables_in_pass:
            # untimed for the pass; spread over the run, so that no one
            # stretch of machine speed sets the median
            for _ in range(TABLES_PER_PASS):
                (out,), (dt,) = speed.measure(tables)
                tables_out.append(out)
                tables_times.append(dt)
        if not first:
            first = outs
        changed.update(i for i, out in enumerate(outs) if out != first[i])
        passes += 1
        times.extend(dts)
        pass_times.append(tables_dt + sum(dts))
        # Stop on scaled time, so that the pass count, and with it the share
        # of the cold first pass, does not follow the machine's speed; but
        # stop on wall time too when the machine is slow enough to overrun
        # the run's time budget.
        if fixed is not None:
            if passes == fixed:
                break
        elif passes >= 2 and (
            sum(pass_times) + pass_times[-1] > seconds
            or perf_counter() - start + (perf_counter() - p0) > WALL_CAP * seconds
        ):
            break
    if tr:
        tr.uninstall()
        result["layer"] = tr.layer_metrics()
        tr.write(OUT / f"trace-{wl.name}.spans")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["pass_times"] = pass_times
    result["digests"] = [hashlib.sha256(o.encode()).hexdigest()[:16] for o in first]
    if role == "measure":
        result.update(
            queries_per_s=len(times) / sum(times),
            query_p50_s=statistics.median(times),
            query_p90_s=statistics.quantiles(times, n=10)[-1],
            samples=len(times),
            tables_s=statistics.median(tables_times),
        )

    attempted = len(wl.warmup) + len(queries) * passes + len(tables_out)
    failed = len(errors)
    if role != "plain":
        failed += passes * _check(quasired, queries, first, changed, errors)
        failed += _check_tables(tables_out, errors)
    result.update(attempted=attempted, failed=failed, passes=passes, errors=errors)
    return result


def _check(quasired, queries, first, changed, errors) -> int:
    """Count failed queries: those whose output changed between passes,
    disagrees with the oracle or with its transposed pair, or whose
    certificate does not re-verify."""
    bad = workloads.pair_errors(queries, first)
    for i, q in enumerate(queries):
        if i in bad:
            continue
        if i in changed:
            bad[i] = "output changed between passes"
        elif first[i].startswith("raised "):
            bad[i] = first[i]
        else:
            try:
                bad[i] = (q.check and q.check(first[i])) or (q.recheck and q.recheck(quasired, first[i]))
            except Exception as exc:  # malformed output is a failed query
                bad[i] = f"check raised {type(exc).__name__}: {exc}"
    bad = {i: e for i, e in bad.items() if e}
    errors += [f"{queries[i].key}: {e}" for i, e in list(bad.items())[:10]]
    return len(bad)


def _check_tables(tables_out, errors) -> int:
    failed = 0
    for out in tables_out:
        err = _tables_error(out) or (None if out == tables_out[0] else "tables output changed")
        if err:
            errors.append(err)
            failed += 1
    return failed


if __name__ == "__main__":
    main()
