"""Benchmark entry point: one seeded workload, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up is timed in SETUP_PROBES
fresh processes plus the measured one, and ``setup_s`` is their median.
The workload then runs in its own fresh process (``worker.py``) with BLAS
pinned to one thread.  The report is printed for people first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json lists for the mode (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``), each with its unit.
Every run also leaves its full record, machine description included, in
``.perfbench_out/``.  Exits nonzero without a result when anything fails to
run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
# One BLAS thread: the single-threaded baseline, and steadier than two
# threads on a small machine shared with other work.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(RuntimeError):
    pass


def run_worker(argv: list[str], result: Path, deadline: float) -> dict:
    env = dict(os.environ, **{name: BLAS_THREADS for name in BLAS_VARIABLES})
    result.unlink(missing_ok=True)
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *argv, "--result", str(result)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {' '.join(argv)} ran past the time limit") from exc
    if done.returncode != 0 or not result.is_file():
        raise RunError(f"worker {' '.join(argv)} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(result.read_text())


def machine() -> dict:
    memory = "unknown"
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    memory = f"{int(line.split()[1]) / 1024**2:.1f} GiB"
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "memory": memory,
        "blas_pin": {name: BLAS_THREADS for name in BLAS_VARIABLES},
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="drivenfluct benchmark: one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    for probe in range(SETUP_PROBES):
        setups.append(run_worker([*common, "--setup-only"], OUT / f"{tag}-probe.json", deadline)["setup_s"])
    budget = deadline - time.monotonic() - 10.0
    record = run_worker(
        [*common, "--seconds", str(args.seconds), "--budget", str(budget), "--trace", str(args.trace)],
        OUT / f"{tag}.json",
        deadline,
    )
    setups.append(record["setup_s"])
    (OUT / f"{tag}-probe.json").unlink(missing_ok=True)

    metrics = dict(record["metrics"], setup_s=statistics.median(setups))
    failures = record["failures"]
    attempted = record["attempted"]
    correct = (
        not failures and record["probe_error"] is None and record["rows"] > 0 and attempted == record["planned"]
    )
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RunError(f"the worker did not measure {missing}")
    record.update(machine=machine(), setup_samples_s=setups, correct=correct)
    record["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    env = dict(record["environment"], **record["machine"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in sorted(env.items())))
    print(
        f"rounds {record['rounds']} ({record['traced_rounds']} traced)  jobs {attempted} attempted"
        f" / {record['planned']} planned  rows compared {record['rows']}"
    )
    for m in wanted:
        print(f"  {m['name']:<48} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':<48} {len(failures) / attempted:>16.6g} 1  ({len(failures)} of {attempted} jobs)")
    print(f"  {'setup samples':<48} {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"  {'IntegrationWarnings':<48} {record['quad_warnings']:>16d}")
    for defect, present in sorted(record["known_defects"].items()):
        print(f"  known defect {defect}: {'still present' if present else 'fixed'} (probed once, not a job)")
    if record["probe_error"] is not None:
        print(f"  known-defect probe failed: {record['probe_error']}")
    grouped = Counter((f["job"], f["n_sites"], f["error"][:300]) for f in failures)
    for (job, n_sites, error), times in sorted(grouped.items(), key=str)[:20]:
        where = job if n_sites is None else f"{job} N={n_sites}"
        print(f"  {times} x FAILED: {where}: {error}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RunError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
