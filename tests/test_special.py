"""erfc family and J0 against the frozen 50-digit reference tables."""

import csv
from pathlib import Path

import pytest

from drivenfluct.special import bessel_j0, bessel_j0_first_zero, erfc, erfcx, log_erfc

DATA = Path(__file__).parent / "data"


def _load(name):
    with open(DATA / name, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [{k: float(v) for k, v in row.items()} for row in reader]


ERFC_TABLE = _load("erfc_reference.csv")
J0_TABLE = _load("j0_reference.csv")


def test_erfc_table_agreement():
    worst = 0.0
    for row in ERFC_TABLE:
        if row["erfc"] < 1e-305:  # below double-normal range; scaled forms cover it
            continue
        rel = abs(erfc(row["x"]) - row["erfc"]) / row["erfc"]
        worst = max(worst, rel)
    assert worst < 1e-13


def test_erfcx_table_agreement_full_range():
    worst = max(
        abs(erfcx(row["x"]) - row["erfcx"]) / row["erfcx"] for row in ERFC_TABLE
    )
    assert worst < 1e-13


def test_log_erfc_table_agreement_full_range():
    worst = max(
        abs(log_erfc(row["x"]) - row["log_erfc"]) / max(abs(row["log_erfc"]), 1e-3)
        for row in ERFC_TABLE
    )
    assert worst < 1e-13


def test_erfc_basics():
    assert erfc(0.0) == 1.0
    for x in (0.3, 1.2, 2.5, 7.0):
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-15)
    assert erfc(40.0) == 0.0  # underflow, documented
    assert log_erfc(40.0) < -1600.0
    with pytest.raises(ValueError):
        erfcx(-1.0)


def test_j0_table_agreement():
    for row in J0_TABLE:
        value = bessel_j0(row["x"])
        if abs(row["j0"]) > 1e-3:
            assert abs(value - row["j0"]) / abs(row["j0"]) < 1e-12, row["x"]
        else:
            # near zeros relative error is ill-posed; hold absolute accuracy
            assert abs(value - row["j0"]) < 1e-13, row["x"]


def test_j0_basics():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j0(-5.0) == bessel_j0(5.0)
    root = bessel_j0_first_zero()
    assert root == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(bessel_j0(root)) < 1e-13


def test_j0_small_argument_series():
    for q in (1e-4, 1e-3, 1e-2):
        assert bessel_j0(q) == pytest.approx(1.0 - q * q / 4.0, abs=q**4)
