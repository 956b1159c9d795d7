"""chancompat benchmark: time-to-verdict and verdict errors on four workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact-feasible --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each check starts after the previous
one returns. Set-up imports the library and generates the instances from
``--seed`` (both five times; set-up time is the sum of the two medians). The
run then repeats whole rounds, an instance of every kind in the workload,
until ``--seconds`` have passed and at least two rounds ran. Every verdict is
compared with a ground truth from construction or theory and every witness is
re-verified (see ``workloads.py``). A check fails when its verdict is wrong
or inconclusive, when it raises, or when its witness does not re-verify;
``correct`` turns false on anything but an inconclusive verdict. The
workloads are chosen so that no check fails; the instances on which the
solver is inconclusive run with ``--workload seed-defects``, which is
not a benchmark workload.

End-to-end metrics (``--trace 0``) are built from each kind's minimum latency
in the run, the least-disturbed time of its cheapest instance, in units of
``ref``: the minimum time of a fixed numpy kernel (small Hermitian
eigendecompositions and products, the solver's inner operations, no library
code) that runs once after every round:

* ``checks_per_ref``: kinds divided by the sum of the kinds' minimum
  latencies, the throughput of one round at those latencies;
* ``latency_min_p50_ref``: the median, over kinds, of the kinds' minimum
  latencies;
* ``setup_s``; ``peak_rss_mb``: peak resident set size of the process.

On a shared 2-core host the same work runs up to about twice as slow for
stretches of seconds to minutes. Medians and means of a run follow those
stretches; minima follow them less, and checks of 100 ms or more still spread
by 0.10 to 0.15 (quartile distance over median, ten 30 s runs). Dividing by
the reference measured in the same run takes most of the host's speed out: in
18 half-minute windows a 100 ms check's minimum spread 0.096, its ratio to
the reference minimum 0.048. The line before the result holds the same
figures in milliseconds, the plain median latency, mean throughput and p90
latency.

With ``--trace 1`` each round runs untraced and then traced; the traced half
gives the per-layer metrics (see ``tracing.py``) and the ratio of the two
halves is the tracing overhead. The line before the last holds the
environment, the per-kind latencies, the error rate, the failures and the p90
latency when at least 100 checks ran. Spans of a traced run are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
REF_STEPS = 100  # about 6 ms on a 2-core x86 VM
P90_MIN_SAMPLES = 100
MIN_ROUNDS = 2
LIB_MODULES = ("linalg", "channels", "feasibility", "analysis", "io", "cli")


def import_library(repeats: int = SETUP_REPEATS) -> float:
    """Import chancompat from the checkout's sources; median seconds taken.

    The first import is followed by ``repeats - 1`` reloads of every module in
    dependency order, so module-level work is timed several times. numpy is
    imported first and is not counted.
    """
    if not os.path.isfile(os.path.join(SRC, "chancompat", "__init__.py")):
        raise SystemExit(f"error: no chancompat sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401

    times = []
    for k in range(repeats):
        t0 = perf_counter()
        if k == 0:
            import chancompat.cli  # noqa: F401
        else:
            for name in LIB_MODULES:
                importlib.reload(sys.modules[f"chancompat.{name}"])
            importlib.reload(sys.modules["chancompat"])
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; record that it is unknown
        blas = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "chancompat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


def _git_commit() -> str | None:
    """HEAD commit when run inside a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return None


def reference_kernel():
    """A fixed numpy workload that times the host, not the library.

    Returns a function that runs it and gives its wall time in seconds.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    a = a + a.conj().T
    m, v = rng.standard_normal((100, 256)), rng.standard_normal(256)

    def timed() -> float:
        t0 = perf_counter()
        for _ in range(REF_STEPS):
            w, u = np.linalg.eigh(a)
            (u * np.maximum(w, 0.0)) @ u.conj().T
            m @ v
        return perf_counter() - t0

    return timed


def run_check(inst, tracer=None, check_id=0):
    """Time one check and judge it: (seconds, outcome, detail)."""
    t0 = perf_counter()
    try:
        if tracer is None:
            raw = inst.call()
        else:
            with tracer.check(check_id):
                raw = inst.call()
    except Exception as exc:  # a raising check is a failed check, not a crash
        return perf_counter() - t0, "error", repr(exc)[:200]
    seconds = perf_counter() - t0
    stdout = getattr(raw, "stdout", None)
    if tracer is not None and stdout is not None:
        tracer.counts["cli.report_bytes"] += len(stdout.encode())
    verdict = inst.verdict(raw)
    if verdict == "error":
        return seconds, "error", "no valid report"
    if verdict == "inconclusive":
        return seconds, "inconclusive", None
    if verdict != inst.expect:
        return seconds, "wrong", f"{verdict}, expected {inst.expect}"
    if verdict == "feasible" and not inst.witness_ok(raw):
        return seconds, "bad-witness", None
    return seconds, "ok", None


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0,
        tiny: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result object plus run details."""
    import tracing
    import workloads

    workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(setup_repeats):
            t0 = perf_counter()
            pool = workloads.build_pool(workload, seed, workdir, tiny)
            setups.append(perf_counter() - t0)

        tracer = tracing.Tracer() if trace else None
        records = []  # (round, kind, seconds, outcome, detail, traced)
        untraced_s = traced_s = 0.0
        traced_checks = 0
        reference, ref_times = reference_kernel(), []
        start = perf_counter()
        r = 0
        while True:
            instances = pool[r % len(pool)]
            passes = (None, tracer) if trace else (None,)
            for tr in passes:
                if tr is not None:
                    tr.install()
                try:
                    spent = 0.0
                    for inst in instances:
                        dt, outcome, detail = run_check(inst, tr, len(records))
                        spent += dt
                        records.append((r, inst.kind, dt, outcome, detail, tr is not None))
                finally:
                    if tr is not None:
                        tr.uninstall()
                if tr is None:
                    untraced_s += spent
                    ref_times.append(reference())
                else:
                    traced_s += spent
                    traced_checks += len(instances)
            r += 1
            # A kind's minimum over a single round is one sample. Traced rounds
            # run twice (untraced, then traced) and are not used for the minima.
            if perf_counter() - start >= seconds and (trace or r >= MIN_ROUNDS):
                break
        wall_s = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = Counter(rec[3] for rec in records)
    failed = len(records) - outcomes["ok"]
    correct = not (outcomes["wrong"] or outcomes["bad-witness"] or outcomes["error"])
    latencies = [rec[2] for rec in records if not rec[5]]
    by_kind = defaultdict(list)
    for rec in records:
        if not rec[5]:
            by_kind[rec[1]].append(rec[2])
    info = {
        "workload": workload,
        "seed": seed,
        "rounds": r,
        "kinds": len(pool[0]),
        "wall_s": wall_s,
        "outcomes": dict(outcomes),
        "error_rate": failed / len(records),
        "checks_per_s_mean": len(latencies) / untraced_s,
        "checks_per_s": len(by_kind) / sum(min(v) for v in by_kind.values()),
        "latency_min_p50_ms": statistics.median(min(v) for v in by_kind.values()) * 1e3,
        "ref_ms": {"n": len(ref_times), "median": statistics.median(ref_times) * 1e3,
                   "min": min(ref_times) * 1e3},
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_samples": len(latencies),
        "kind_ms": {k: {"n": len(v), "median": statistics.median(v) * 1e3, "min": min(v) * 1e3,
                        "max": max(v) * 1e3} for k, v in sorted(by_kind.items())},
        "setup_runs_s": setups,
        "import_s": import_s,
        "failures": sorted(Counter(f"{rec[1]}: {rec[3]}" + (f" ({rec[4]})" if rec[4] else "")
                                   for rec in records if rec[3] != "ok").items()),
        "sources": sorted({(inst.kind, inst.expect, inst.source) for inst in pool[0]}),
    }
    if len(latencies) >= P90_MIN_SAMPLES:
        info["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    if trace:
        metrics = tracing.layer_metrics(tracer, traced_checks, traced_s, untraced_s)
    else:
        ref = min(ref_times)
        fastest = [min(v) / ref for v in by_kind.values()]
        metrics = {
            "checks_per_ref": len(fastest) / sum(fastest),
            "latency_min_p50_ref": statistics.median(fastest),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "tracer": tracer,
        "traced_checks": traced_checks,
    }


def metric_units(trace: bool) -> dict[str, str]:
    """Units of the metrics a run prints, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # BLAS and OpenMP read these when numpy is imported, which happens only
    # below: small-matrix eigendecompositions thrash when two threads share
    # two cores.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_s = import_library()
    sys.path.insert(0, HERE)
    import workloads

    known = {**workloads.WORKLOADS, **workloads.PROBES}
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(known)}")
    os.makedirs(OUT, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    if args.trace:
        result["tracer"].dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    units = metric_units(bool(args.trace))
    if set(units) != set(result["metrics"]):
        raise SystemExit(f"error: metrics {sorted(result['metrics'])} do not match BENCHMARK.json")
    result["info"]["environment"] = environment()
    print(json.dumps({"info": result["info"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
