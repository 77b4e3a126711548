"""Per-job before/after table of two benchmark run records.

    python3 scripts/job_table.py PARENT.json CHANGE.json

Each argument is a run record that ``perfbench/run.py --trace 0`` leaves in
``.perfbench_out/<workload>-seed<seed>-trace0.json``, one taken at the parent
commit and one at the change, of the same workload.  For every job of a
round the table gives its fastest time over the untraced rounds (the minima
that ``wall_s`` sums), parent and change side by side with their ratio,
largest saving first.  Jobs are labelled by regenerating the record's seed's
first round from ``perfbench/workloads.py``: a job's kind, its site count
where it has one, an ``--selftest`` job after the subcommand it follows, and
an ordinal where a label repeats.  Below the round total, ``setup_s`` is the
median of each record's ``setup_samples_s`` (the set-up time of every fresh
process of the run), so a set-up claim reads from the same two records.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace0\.json")


def fastest(record: dict) -> list[float]:
    """Each job's minimum over the untraced rounds, in round order."""
    plain = [durations for traced, durations in record["job_seconds"] if not traced]
    return [min(times) for times in zip(*plain)]


def job_labels(workload: str, seed: int) -> list[str]:
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import workloads

    labels, previous = [], None
    with tempfile.TemporaryDirectory() as scratch:
        (round_,) = workloads.prepare(workload, seed, 1, Path(scratch))
        for job in round_.jobs():
            if job.kind == "selftest":
                label = f"{previous} --selftest"
            else:
                label = job.kind if job.n_sites is None else f"{job.kind} N={job.n_sites}"
                previous = job.kind
            labels.append(label)
    seen, total = Counter(), Counter(labels)
    numbered = []
    for label in labels:
        seen[label] += 1
        numbered.append(label if total[label] == 1 else f"{label} #{seen[label]}")
    return numbered


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="run record of the parent commit")
    parser.add_argument("change", type=Path, help="run record of the change")
    args = parser.parse_args()

    names = [RECORD_NAME.fullmatch(path.name) for path in (args.parent, args.change)]
    if not all(names):
        parser.error("each record must be named <workload>-seed<seed>-trace0.json")
    if names[0]["workload"] != names[1]["workload"]:
        parser.error(f"records of different workloads: {names[0]['workload']} and {names[1]['workload']}")
    records = [json.loads(path.read_text()) for path in (args.parent, args.change)]
    before, after = (fastest(record) for record in records)
    labels = job_labels(names[0]["workload"], int(names[0]["seed"]))
    if not len(before) == len(after) == len(labels):
        parser.error(f"job counts differ: parent {len(before)}, change {len(after)}, round {len(labels)}")

    rows = sorted(zip(labels, before, after), key=lambda row: row[2] - row[1])
    width = max(len(label) for label in labels + ["total", "setup_s"])
    print(f"{'job':<{width}}  {'parent ms':>10}  {'change ms':>10}  {'ratio':>6}")
    for label, old, new in rows:
        print(f"{label:<{width}}  {old * 1e3:>10.3f}  {new * 1e3:>10.3f}  {new / old:>6.3f}")
    old, new = sum(before), sum(after)
    print(f"{'total':<{width}}  {old * 1e3:>10.3f}  {new * 1e3:>10.3f}  {new / old:>6.3f}")
    old, new = (statistics.median(record["setup_samples_s"]) for record in records)
    print(f"{'setup_s':<{width}}  {old * 1e3:>10.3f}  {new * 1e3:>10.3f}  {new / old:>6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
