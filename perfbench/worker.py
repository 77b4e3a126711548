"""Run one workload in this fresh process and write its measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --result PATH --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --result PATH \
        --seconds S --budget B --trace 0|1

``run.py`` launches it: once per set-up probe and once for the measured run,
so the segment cache starts cold and the peak RSS is this workload's alone.
Rounds of the workload repeat until ``--seconds`` have passed and at least
MIN_JOBS jobs ran; no round starts that could end after ``--budget``.
With ``--trace 1`` the rounds alternate untraced and traced, and the traced
ones give the per-layer metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from itertools import count  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

MAX_ROUNDS = 50
MIN_JOBS = 100
ORACLE_SIZES = range(4, 11)


def setup(workload: str, seed: int, scratch: Path):
    """Import the package, draw every round's inputs and load LAPACK."""
    import drivenfluct
    import drivenfluct.cli  # noqa: F401  (the CLI layer is part of the package)

    origin = Path(drivenfluct.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"drivenfluct was imported from {origin}, not from {ROOT / 'src'}")
    import numpy as np
    from scipy.linalg import eigh

    import workloads

    rounds = workloads.prepare(workload, seed, MAX_ROUNDS, scratch)
    eigh(np.eye(2))
    return rounds, time.perf_counter() - _STARTED


@dataclass
class RoundResult:
    traced: bool
    durations: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    stats: Counter = field(default_factory=Counter)
    planned: int = 0
    rows: int = 0

    @property
    def wall(self) -> float:
        return sum(self.durations)


def run_round(round_, job_ids, segment_cache, tracer, traced: bool) -> RoundResult:
    from scipy.integrate import IntegrationWarning

    from workloads import CheckFailed

    result = RoundResult(traced=traced, planned=round_.planned)
    for job in round_.jobs():
        job_id = next(job_ids)
        cache_before = segment_cache.cache_info()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if traced:
                tracer.job = job_id
            start = time.perf_counter()
            try:
                value, error = job.run(), None
            except Exception as exc:  # a failing job is counted, not fatal
                value, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if traced:
                tracer.job = None
        cache_after = segment_cache.cache_info()
        result.durations.append(elapsed)
        result.stats["segment_cache.hits"] += cache_after.hits - cache_before.hits
        result.stats["segment_cache.misses"] += cache_after.misses - cache_before.misses
        result.stats["quad_warnings"] += sum(issubclass(w.category, IntegrationWarning) for w in caught)
        if job.n_sites in ORACLE_SIZES:
            result.stats[f"sector_s.n{job.n_sites}"] += elapsed
        if error is None:
            try:
                compared = job.check(value, result.stats)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:
                error = f"checker raised {type(exc).__name__}: {exc}"
            else:
                if compared > 0:
                    result.rows += compared
                else:
                    error = "checker compared zero rows"
        if error is not None:
            result.failures.append({"job": job.kind, "n_sites": job.n_sites, "error": error})
        del value
    if len(result.durations) != result.planned:
        result.failures.append(
            {"job": "round", "n_sites": None,
             "error": f"attempted {len(result.durations)} jobs, planned {result.planned}"}
        )
    return result


def measure(rounds, seconds: float, budget: float, trace: bool):
    from drivenfluct import exact_lattice

    # the lru_cache object, read before the tracer wraps the module attribute
    segment_cache = exact_lattice._segment_eigensystem
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    job_ids = count()
    results: list[RoundResult] = []
    start = time.perf_counter()
    longest = 0.0
    for index in range(len(rounds)):
        traced = trace and index % 2 == 1
        round_start = time.perf_counter()
        if traced:
            tracer.install()
        try:
            results.append(run_round(rounds[index], job_ids, segment_cache, tracer, traced))
        finally:
            if traced:
                tracer.uninstall()
        rounds[index] = None
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        jobs = sum(len(r.durations) for r in results)
        if now - start >= seconds and jobs >= MIN_JOBS and (traced or not trace):
            break
        # in a traced run the last round must be a traced one
        if now - start + longest * (2 if traced else 1) > budget:
            break
    return results, tracer


def end_to_end(results: list[RoundResult]) -> dict:
    plain = [r for r in results if not r.traced]
    latencies = [d for r in plain for d in r.durations]
    # Every round runs the same jobs in the same order on fresh inputs.  Other
    # tenants of a shared host slow whole stretches of a run, so wall_s takes
    # each job's fastest time over the rounds (best of N) and sums them.
    fastest = [min(times) for times in zip(*(r.durations for r in plain))]
    return {
        "wall_s": sum(fastest),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(results: list[RoundResult], tracer) -> dict:
    from tracing import COUNTED, SPANNED

    traced = [r for r in results if r.traced]
    plain = [r for r in results if not r.traced]
    rounds = len(traced)
    stats = sum((r.stats for r in traced), Counter())
    self_s, calls, top_level = tracer.self_times()
    metrics = {}
    for module, fn in SPANNED:
        name = f"{module}.{fn}"
        metrics[f"{name}.self_s"] = self_s[name] / rounds
        metrics[f"{name}.calls"] = calls[name] / rounds
    lookups = stats["segment_cache.hits"] + stats["segment_cache.misses"]
    metrics["exact_lattice.segment_cache.hit_ratio"] = stats["segment_cache.hits"] / lookups if lookups else 0.0
    metrics["exact_lattice.segment_cache.misses"] = stats["segment_cache.misses"] / rounds
    metrics["exact_lattice.dense_bytes_computed"] = tracer.counters["exact_lattice.dense_bytes_computed"] / rounds
    for n in ORACLE_SIZES:
        metrics[f"exact_lattice.sector_s.n{n}"] = stats[f"sector_s.n{n}"] / rounds
    for counter in COUNTED:
        metrics[counter] = tracer.counters[counter] / rounds
    metrics["nonequil_observables.quad_warnings"] = stats["quad_warnings"] / rounds
    metrics["cli.artifact_bytes"] = stats["cli.artifact_bytes"] / rounds
    metrics["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(
        r.wall for r in plain
    )
    metrics["trace.span_coverage"] = top_level / sum(r.wall for r in traced)
    return metrics


def known_defects(scratch: Path) -> dict:
    """Probe the recorded library defects once, untimed and untraced."""
    from workloads import probe_known_defects

    try:
        return {"known_defects": probe_known_defects(scratch), "probe_error": None}
    except Exception as exc:
        return {"known_defects": {}, "probe_error": f"{type(exc).__name__}: {exc}"}


def environment() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for library in sorted(libdir.glob("libscipy_openblas*")):
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                getter = getattr(ctypes.CDLL(str(library)), symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    threads[package.__name__] = getter()
                    break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "unknown",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--budget", type=float, default=150.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        rounds, setup_s = setup(args.workload, args.seed, scratch)
        payload = {"setup_s": setup_s}
        if not args.setup_only:
            results, tracer = measure(rounds, args.seconds, args.budget, bool(args.trace))
            payload.update(
                environment=environment(),
                rounds=len(results),
                traced_rounds=sum(r.traced for r in results),
                planned=sum(r.planned for r in results),
                attempted=sum(len(r.durations) for r in results),
                rows=sum(r.rows for r in results),
                failures=[f for r in results for f in r.failures],
                quad_warnings=sum(r.stats["quad_warnings"] for r in results),
                job_seconds=[[r.traced, r.durations] for r in results],
                metrics=end_to_end(results),
            )
            if args.trace:
                payload["metrics"].update(per_layer(results, tracer))
                spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
                tracer.write(spans)
                payload["spans"] = str(spans.relative_to(ROOT))
            # after peak_rss_mb is read, so the probe does not count in it
            payload.update(known_defects(scratch))
            payload["metrics"]["known_defects.present"] = sum(payload["known_defects"].values())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.result.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
