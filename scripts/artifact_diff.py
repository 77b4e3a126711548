"""Compare the CLI artifacts of two source checkouts, field by field.

    python3 scripts/artifact_diff.py CHECKOUT_A CHECKOUT_B

Runs every example of the README's CLI examples block and every
subcommand's ``--selftest`` as ``python -m drivenfluct.cli``, once per
checkout, with ``PYTHONPATH`` set to that checkout's ``src``.  Both run in
fresh directories holding the same generated viscosity tables, which the
README's viscosity examples read.  The calls are the union of both
checkouts' READMEs: A's in its order, then those only B's README holds,
and each call found in only one README is flagged as such in the report.

For every artifact the report says ``identical`` when the two files agree
byte for byte.  Otherwise it lists, per numeric CSV column or JSON field,
the largest absolute and relative change, and names the non-numeric
fields that differ.  Each call's exit code is given first, both where
they differ.  Exits 1 when any artifact or exit code differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# one liquid, noiseless Vogel-Fulcher-like data below its liquidus
VISCOSITY_ROWS = [("glassa", 620.0 + 20.0 * k, 10.0 ** (2.0 + 600.0 / (20.0 * k + 320.0))) for k in range(20)]
VISCOSITY_META = [("glassa", 1000.0, 2.0)]


def readme_runs(readme: str) -> tuple[list[list[str]], list[list[str]]]:
    """argv lists: the examples block, and ``<subcommand> --selftest`` for
    every subcommand of the README's table."""
    block = readme.split("Examples:\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("drivenfluct ")]
    subcommands = re.findall(r"^\| `([a-z0-9-]+)` \|", readme, flags=re.MULTILINE)
    return examples, [[name, "--selftest"] for name in subcommands]


def union_runs(readme_a: str, readme_b: str) -> list[tuple[list[str], str | None]]:
    """(argv, side) for every call of either README, examples before
    selftests: A's calls in its order, then those only B holds.  ``side`` is
    "A" or "B" for a call that only that README holds, else None."""
    union = []
    for calls_a, calls_b in zip(readme_runs(readme_a), readme_runs(readme_b)):
        union += [(call, None if call in calls_b else "A") for call in calls_a]
        union += [(call, "B") for call in calls_b if call not in calls_a]
    return union


def write_inputs(directory: Path) -> None:
    with open(directory / "viscosity.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["liquid", "T_K", "eta_Pa_s"])
        writer.writerows((name, repr(t), repr(eta)) for name, t, eta in VISCOSITY_ROWS)
    with open(directory / "viscosity_meta.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["liquid", "T_liquidus_K", "eta_liquidus_Pa_s"])
        writer.writerows((name, repr(t), repr(eta)) for name, t, eta in VISCOSITY_META)


def run(checkout: Path, argv: list[str], workdir: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and artifacts (name -> bytes) of one CLI call, stdout included."""
    outdir = workdir / "out"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("DRIVENFLUCT_OUTDIR", None)
    done = subprocess.run(
        [sys.executable, "-m", "drivenfluct.cli", *argv, "--outdir", str(outdir)],
        cwd=workdir,
        env=env,
        capture_output=True,
    )
    artifacts = {path.name: path.read_bytes() for path in sorted(outdir.glob("*")) if path.is_file()}
    artifacts["<stdout>"] = done.stdout
    return done.returncode, artifacts


def as_number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def json_leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from json_leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def fields(name: str, data: bytes) -> list[tuple[str, object]] | None:
    """(field, value) pairs of a CSV (the column header as field) or JSON
    artifact, in file order, or None for any other file."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        # an indexed list element keeps its field name without the index
        return [(re.sub(r"\[\d+\]", "[]", path), value) for path, value in json_leaves(json.loads(text))]
    if name.endswith(".csv"):
        rows = list(csv.reader(text.splitlines()))
        header, body = rows[0], rows[1:]
        return [(column, value) for row in body for column, value in zip(header, row)]
    return None


def compare(name: str, a: bytes, b: bytes) -> list[str]:
    """Report lines for one artifact present in both runs."""
    if a == b:
        return ["identical"]
    left, right = fields(name, a), fields(name, b)
    if left is None or right is None or [f for f, _ in left] != [f for f, _ in right]:
        return ["differs (not comparable field by field)"]
    changes: dict[str, list[float]] = {}
    other: set[str] = set()
    for (field, x), (_, y) in zip(left, right):
        u, v = as_number(x), as_number(y)
        if u is None or v is None:
            if x != y:
                other.add(field)
            continue
        if u == v or (math.isnan(u) and math.isnan(v)):
            continue
        delta = abs(u - v)
        scale = max(abs(u), abs(v))
        worst = changes.setdefault(field, [0.0, 0.0])
        worst[0] = max(worst[0], delta)
        worst[1] = max(worst[1], delta / scale if scale > 0 else math.inf)
    lines = [f"{field}: max abs {d:.3e}, max rel {r:.3e}" for field, (d, r) in changes.items()]
    lines += [f"{field}: non-numeric change" for field in sorted(other)]
    return lines or ["differs in formatting only"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in (args.checkout_a, args.checkout_b)]
    runs = union_runs(*((checkout / "README.md").read_text(encoding="utf-8") for checkout in checkouts))
    differs = False
    with tempfile.TemporaryDirectory() as scratch:
        for index, (call, side) in enumerate(runs):
            results = []
            for position, checkout in enumerate(checkouts):
                workdir = Path(scratch) / f"{index}-{position}"
                workdir.mkdir()
                write_inputs(workdir)
                results.append(run(checkout, call, workdir))
            (code_a, files_a), (code_b, files_b) = results
            label = " ".join(call)
            if side:
                print(f"{label}: only in README {side}")
            differs |= code_a != code_b
            print(f"{label}: exit code {code_a}" + ("" if code_a == code_b else f" -> {code_b}"))
            for name in sorted(set(files_a) | set(files_b)):
                if name not in files_a or name not in files_b:
                    differs = True
                    print(f"{label} | {name}: only in {'B' if name in files_b else 'A'}")
                    continue
                report = compare(name, files_a[name], files_b[name])
                differs |= report != ["identical"]
                for line in report:
                    print(f"{label} | {name}: {line}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
