"""Benchmark pairs of two checkouts, summed up by the gain rule.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs P --seed S

Pair p (p = 0 .. P-1) runs ``perfbench/run.py --trace 0`` with seed S + p
once in each checkout, the parent first in even pairs and the change first
in odd ones, each run as long as ``BENCHMARK.json`` sets.  The summary
first gives each side's failed jobs of all it attempted; then, for every
end-to-end metric, each side's median and quartiles, how many pairs the
change won (ties count for neither side), the parent's interquartile
range and the gap between the medians (positive where the change is
better), each as a share of the parent's median, and a verdict:

- ``gain``: the change won at least nine tenths of the pairs, and the
  medians differ, in its favour, by more than the parent's interquartile
  range;
- ``withheld``: the same, but a larger share of the change's jobs failed
  than of the parent's, so the gain does not count;
- ``unresolved``: the parent's interquartile range exceeds the metric's
  bound (as a fraction of the parent's median), unless every run of the
  change is better than every run of the parent;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``within bound`` otherwise.

Below it, per kind of job (``scripts/job_table.py``'s labels without their
ordinal), the sum of the fastest times of its jobs: each side's median over
the pairs, the median of the per-pair ratios change / parent, how many
pairs the change was faster, and the median over the pairs of the kind's
share of the parent's round total (the sum over every kind), so a change
that helps only some jobs can quote the share of the round they take.
``--jobs`` gives the same for every job.
Each run's record stays in its checkout's ``.perfbench_out/``.

Passing the parent checkout as both PARENT and CHANGE gives a null
series: what the verdicts, margins and ratios read when nothing changed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import job_table  # noqa: E402

SIDES = ("parent", "change")


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict, tuple[int, int]]:
    """One benchmark run in ``checkout``: its end-to-end metrics, its record
    and its (failed, attempted) jobs."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"warning: {checkout} seed {seed}: correct {result['correct']}, {result['failed']} failed jobs")
    record = json.loads((checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, record, (result["failed"], result["attempted"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), the quartiles inclusive of the ends."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(spec: dict, parent: list[float], change: list[float], more_failures: bool = False) -> dict:
    """The gain rule for one metric over paired runs (``parent[p]`` with
    ``change[p]``); ``more_failures`` when a larger share of the change's
    jobs failed."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    # positive where the change is better
    wins = sum(sign * (old - new) > 0 for old, new in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gap = sign * (p_median - c_median)
    separated = all(sign * (old - new) > 0 for old in parent for new in change)
    if wins >= math.ceil(0.9 * len(parent)) and gap > iqr:
        outcome = "withheld" if more_failures else "gain"
    elif iqr > spec["bound"] * abs(p_median) and not separated:
        outcome = "unresolved"
    elif -gap > spec["bound"] * abs(p_median):
        outcome = "worse"
    else:
        outcome = "within bound"
    scale = abs(p_median) if p_median else math.nan
    return {
        "name": spec["name"], "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3), "wins": wins, "pairs": len(parent), "verdict": outcome,
        "iqr_share": iqr / scale, "gap_share": gap / scale,
    }


def job_sums(record: dict, labels: list[str], per_job: bool = False) -> dict[str, float]:
    """Fastest time of each job, summed per kind (the label without its
    ordinal), or per job with ``per_job``."""
    times = job_table.fastest(record)
    if len(times) != len(labels):
        raise ValueError(f"the record has {len(times)} jobs a round, the labels {len(labels)}")
    sums: dict[str, float] = {}
    for label, seconds in zip(labels, times):
        key = label if per_job else re.sub(r" #\d+$", "", label)
        sums[key] = sums.get(key, 0.0) + seconds
    return sums


def job_rows(pairs: list[tuple[dict, dict]]) -> list[tuple[str, float, float, float, int, float]]:
    """(kind, parent median s, change median s, median ratio, change faster in
    how many pairs, median share of the parent's round total) per kind, from
    (parent sums, change sums) per pair."""
    totals = [sum(before.values()) for before, _ in pairs]
    rows = []
    for kind in pairs[0][0]:
        old = [before[kind] for before, _ in pairs]
        new = [after[kind] for _, after in pairs]
        ratios = [b / a for a, b in zip(old, new)]
        rows.append((kind, statistics.median(old), statistics.median(new), statistics.median(ratios),
                     sum(b < a for a, b in zip(old, new)), statistics.median(a / t for a, t in zip(old, totals))))
    return rows


def failure_share(counts: list[tuple[int, int]]) -> float:
    """Failed jobs as a share of the attempted ones, over (failed, attempted) runs."""
    attempted = sum(total for _, total in counts)
    return sum(failed for failed, _ in counts) / attempted if attempted else 0.0


def report(workload: str, pairs: int, failures: dict, verdicts: list[dict], rows: list[tuple]) -> str:
    lines = [f"workload {workload}: {pairs} pairs"]
    lines.append("failed jobs: " + ", ".join(
        f"{side} {sum(f for f, _ in failures[side])} of {sum(a for _, a in failures[side])}" for side in SIDES
    ))
    lines.append(
        f"{'metric':<14} {'parent q1 / median / q3':>32}  {'change q1 / median / q3':>32}  {'won':>6}"
        f"  {'iqr':>7}  {'gap':>7}  verdict"
    )
    for v in verdicts:
        sides = ["{:>10.4g} {:>10.4g} {:>10.4g}".format(*v[side]) for side in SIDES]
        lines.append(
            f"{v['name']:<14} {sides[0]:>32}  {sides[1]:>32}  {v['wins']:>2}/{pairs:<3}"
            f"  {v['iqr_share']:>7.1%}  {v['gap_share']:>+7.1%}  {v['verdict']}"
        )
    if rows:
        width = max(len(row[0]) for row in rows)
        lines += ["", f"{'job kind':<{width}}  {'parent ms':>10}  {'change ms':>10}  {'ratio':>6}  faster  share"]
        for kind, old, new, ratio, faster, share in rows:
            lines.append(
                f"{kind:<{width}}  {old * 1e3:>10.3f}  {new * 1e3:>10.3f}  {ratio:>6.3f}  {faster:>3}/{pairs:<3}{share:>6.1%}"
            )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="pair p runs seed S + p")
    parser.add_argument("--jobs", action="store_true", help="sum per job, not per kind of job")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    metrics = {side: [] for side in SIDES}
    failures = {side: [] for side in SIDES}
    sums = []
    for p in range(args.pairs):
        seed = args.seed + p
        labels = job_table.job_labels(args.workload, seed)
        runs = {}
        for side in (SIDES if p % 2 == 0 else SIDES[::-1]):
            runs[side] = run_side(checkouts[side], args.workload, seed, spec["run_seconds"])
            print(f"pair {p} seed {seed} {side}: " + "  ".join(f"{k} {v:.4g}" for k, v in runs[side][0].items()), flush=True)
        for side in SIDES:
            metrics[side].append(runs[side][0])
            failures[side].append(runs[side][2])
        sums.append(tuple(job_sums(runs[side][1], labels, args.jobs) for side in SIDES))

    more_failures = failure_share(failures["change"]) > failure_share(failures["parent"])
    verdicts = [
        verdict(m, [run[m["name"]] for run in metrics["parent"]], [run[m["name"]] for run in metrics["change"]], more_failures)
        for m in spec["end_to_end"]
    ]
    print(report(args.workload, args.pairs, failures, verdicts, job_rows(sums)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
