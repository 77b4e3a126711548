"""The call list of ``scripts/artifact_diff.py``: both READMEs, unioned."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_diff.py"
spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)


def readme(*examples, subcommands=("spin-sigma",)):
    table = "".join(f"| `{name}` | does things |\n" for name in subcommands)
    lines = "".join(f"drivenfluct {line}\n" for line in examples)
    return f"# drivenfluct\n\n{table}\nExamples:\n\n```sh\n{lines}```\n"


def test_union_keeps_a_order_then_b_only_calls():
    a = readme("spin-sigma --n 4", "multiplicity --n 6", subcommands=("spin-sigma", "multiplicity"))
    b = readme("bose-dual --n 6", "spin-sigma --n 4", subcommands=("spin-sigma", "bose-dual"))
    assert artifact_diff.union_runs(a, b) == [
        (["spin-sigma", "--n", "4"], None),
        (["multiplicity", "--n", "6"], "A"),
        (["bose-dual", "--n", "6"], "B"),
        (["spin-sigma", "--selftest"], None),
        (["multiplicity", "--selftest"], "A"),
        (["bose-dual", "--selftest"], "B"),
    ]


def test_same_readme_flags_nothing():
    text = readme("spin-sigma --n 4", "multiplicity --n 6")
    runs = artifact_diff.union_runs(text, text)
    assert [call for call, _ in runs] == [call for calls in artifact_diff.readme_runs(text) for call in calls]
    assert all(side is None for _, side in runs)


def test_repository_readme_parses():
    examples, selftests = artifact_diff.readme_runs((SCRIPT.parent.parent / "README.md").read_text(encoding="utf-8"))
    assert len(selftests) == 16
    # an example of every subcommand of the table, so that each one's artifacts are compared
    assert sorted({argv[0] for argv in examples}) == sorted(name for name, _ in selftests)
