#!/usr/bin/env python3
"""krext benchmark: seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 30 --trace 0

Run from the root of a krext checkout; the package is imported from its
``src/`` directory and from nowhere else.  One client runs operations
back to back for ``--seconds`` of timed CPU time and checks every
output outside the timed region.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics (setup_s, ops_per_s, op_s.p50,
  op_s.tail, ok_frac, peak_rss_mb);
* ``--trace 1``: the per-layer metrics.  One schedule cycle runs
  untraced, again with every layer's public functions wrapped in spans,
  and untraced once more; per-layer counts repeat exactly for a given
  seed and code.

End-to-end times are CPU seconds, user plus system, of the benchmark
process and the child processes it waited for, so time spent waiting
for a core that other work holds is not counted (on a shared 2-vCPU VM
a fixed Python loop read 32-89 ms of wall clock and 29-50 ms of CPU
time).  BLAS and OpenMP run one thread, so every operation is
single-threaded.
Per-layer times are wall clock, from the spans.

``correct`` is false when any operation returned a wrong answer;
``failed`` counts those plus the operations that raised or were
refused.  Lines before the last one report failing operations, the
share of operations with each input property and the environment.
Transport also reruns one instance, untimed and not counted, at the
scales below its timed range, and prints each wrong answer there as a
``# known_defect`` line.  Per-operation records (and spans, when
traced) are written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 7
# Runs measure whole rounds (a workload's POOL schedule cycles), so each run
# measures the same mix of operations, and at least three schedule
# cycles, so that a slow commit still runs every operation a few times.
MIN_CYCLES = 3
# no operation starts later than this, so that a run ends within 180 s
HARD_STOP_S = 100
# Tail percentile per workload: the highest step that leaves at least ten
# samples beyond it in every run at the seed's speed.  It is fixed so that
# runs and commits compare the same percentile; a run with too few
# samples steps down the ladder and records the step it used.
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 67.0, 50.0)
TAIL = {"transport": 95.0, "synthesis": 67.0, "toolkit": 90.0}
PROPERTIES = ("sparse", "rescaled", "signed")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(TAIL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_environment() -> int:
    """One BLAS/OpenMP thread for us and our children; import krext from src."""
    if not (SRC / "krext" / "__init__.py").is_file():
        sys.exit(f"error: no krext sources at {SRC}; run from the root of a krext checkout")
    nproc = len(os.sched_getaffinity(0))
    # one thread, so that CPU time is the time the operation needs and no
    # BLAS worker spins on a core that the host shares
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import krext
    if Path(krext.__file__).resolve().parent != (SRC / "krext").resolve():
        sys.exit(f"error: imported krext from {krext.__file__}, not from {SRC}")
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": nproc,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def cpu_now() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def timed_setup(workload, seed: int, workdir: Path):
    """Median over repeats of: a fresh interpreter importing krext, then input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        c0 = cpu_now()
        subprocess.run([sys.executable, "-c", "import krext"], check=True)
        state = workload.setup(seed, workdir)
        times.append(cpu_now() - c0)
    return state, statistics.median(times)


def execute(op, tracer=None) -> dict:
    """Run one operation (timed), then check its output (untimed)."""
    idx = tracer.begin("op", {"kind": op.kind}) if tracer else -1
    err = None
    t0, c0 = time.perf_counter(), cpu_now()
    try:
        out = op.run(tracer is not None)
    except Exception as exc:  # a failed operation is a result, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    finally:
        dt, wall = cpu_now() - c0, time.perf_counter() - t0
        if tracer:
            tracer.end(idx)
    if tracer and isinstance(out, dict) and "spans" in out:
        tracer.graft(out["spans"], idx)
        tracer.spans[idx][4].update(child=1, bytes_written=out["bytes_written"])
    t1 = time.perf_counter()
    status, reason = "ok", None
    if err is not None:
        status, reason = "raised", err
    else:
        try:
            reason = op.check(out)
        except Exception as exc:  # an output that cannot be checked is not correct
            status, reason = "unchecked", f"check raised {type(exc).__name__}: {exc}"
        else:
            status = "ok" if reason is None else "wrong"
    return {"kind": op.kind, "props": op.props, "dt": dt, "wall": wall,
            "check_s": time.perf_counter() - t1,
            "status": status, "reason": reason}


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted samples: a value that was measured."""
    return xs[max(-(-int(q * 10) * len(xs) // 1000), 1) - 1]


def tail(xs: list[float], want: float) -> tuple[float, float]:
    """Percentile at the highest ladder step <= want with ten samples beyond it."""
    steps = [q for q in TAIL_LADDER if q <= want]
    q = next((q for q in steps if len(xs) * (100.0 - q) / 100.0 >= 10), steps[-1])
    return q, percentile(xs, q)


def end_to_end(workload: str, records: list[dict], setup_s: float) -> tuple[dict, dict]:
    dts = sorted(r["dt"] for r in records)
    failed = sum(r["status"] != "ok" for r in records)
    q, tail_s = tail(dts, TAIL[workload])
    who = resource.RUSAGE_CHILDREN if workload == "toolkit" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(dts) / sum(dts), "1/s"),
        "op_s.p50": (percentile(dts, 50.0), "s"),
        "op_s.tail": (tail_s, "s"),
        "ok_frac": (1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"samples": len(dts), "tail_percentile": q, "fail_frac": failed / len(records),
              "timed_s": sum(dts), "timed_wall_s": sum(r["wall"] for r in records),
              "check_s": sum(r["check_s"] for r in records)}
    return metrics, detail


def per_layer(records: list[dict], tracer, untraced_s: float) -> dict:
    import tracing
    # each op's LP shapes, from the solve_lp spans under it
    spans = tracer.spans
    op_of = {}
    for i, (name, *_rest) in enumerate(spans):
        if name == "op":
            op_of[i] = len(op_of)
    for name, _, _, parent, attrs in spans:
        if name == "optim.solve_lp":
            while spans[parent][0] != "op":
                parent = spans[parent][3]
            records[op_of[parent]]["props"].setdefault("lp", []).append(
                [attrs.get("rows"), attrs.get("cols")])
    return {k: (v, tracing.unit_of(k)) for k, v in tracing.layer_metrics(spans, untraced_s).items()}


def property_shares(records: list[dict]) -> dict:
    return {p: sum(bool(r["props"].get(p)) for r in records) / len(records) for p in PROPERTIES}


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = prepare_environment()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = STATE / f"work-{run_id}-{os.getpid()}"
    known: list[str] = []
    try:
        state, setup_s = timed_setup(workload, args.seed, workdir)
        # what set-up made lives for the whole run: freezing it keeps the
        # collector from rescanning it inside timed operations
        gc.collect()
        gc.freeze()
        schedule = workload.schedule(state)
        records: list[dict] = []
        tracer = None
        if args.trace:
            import tracing
            # untraced, traced, untraced: the overhead is measured against
            # both neighbours, so a drift in machine speed cancels
            ops = [next(schedule) for _ in range(workload.cycle_len(state))]
            untraced = [execute(op) for op in ops]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records = [execute(op, tracer) for op in ops]
            finally:
                tracer.uninstall()
            untraced += [execute(op) for op in ops]
            # spans are wall clock, so the overhead compares wall clocks
            metrics = per_layer(records, tracer, sum(r["wall"] for r in untraced) / 2)
            records = untraced + records
            detail = {}
        else:
            cycle_len = workload.cycle_len(state)
            timed = 0.0
            deadline = time.monotonic() + HARD_STOP_S
            while timed < args.seconds or len(records) < MIN_CYCLES * cycle_len:
                for _ in range(workload.POOL * cycle_len):
                    if time.monotonic() > deadline:
                        break
                    records.append(execute(next(schedule)))
                    timed += records[-1]["dt"]
                else:
                    continue
                print(f"# stopped after {HARD_STOP_S} s, inside a round")
                break
            metrics, detail = end_to_end(args.workload, records, setup_s)
            if hasattr(workload, "probe"):
                known = workload.probe(state)
                detail["known_defects"] = len(known)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in records if r["status"] != "ok"]
    detail.update(workload=args.workload, seed=args.seed, env=environment(nproc),
                  property_share=property_shares(records),
                  failures=len(failures), wrong=sum(r["status"] != "raised" for r in failures))
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    dump = {"detail": detail, "metrics": metrics, "records": records}
    if tracer is not None:
        dump["spans"] = tracer.spans
    (results / f"{run_id}.json").write_text(json.dumps(dump))

    for key, value in detail.items():
        print(f"# {key}: {json.dumps(value)}")
    for line in known:
        print(f"# known_defect {line}")
    for r in failures[:25]:
        print(f"# FAIL {r['status']} {r['kind']} {json.dumps(r['props'])}: {r['reason']}")
    if len(failures) > 25:
        print(f"# ... {len(failures) - 25} more failures in {results / (run_id + '.json')}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": detail["wrong"] == 0,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
