"""CLI surface: artifacts, manifests, ingestion, determinism, exit codes."""

import argparse
import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drivenfluct import cli
from drivenfluct import ising_entangle as ie
from drivenfluct import nonequil_observables as no
from drivenfluct import oracles


FINITE = st.floats(allow_nan=False, allow_infinity=False)
GATES = ("ok", "all_ok", "slope_ok", "all_satisfied")


ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("artifact_diff", ROOT / "scripts" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)


def readme_examples():
    """The README's CLI examples as argv lists, split by ``scripts/artifact_diff.py``."""
    examples = artifact_diff.readme_runs((ROOT / "README.md").read_text(encoding="utf-8"))[0]
    if not examples:
        raise ValueError("README has no CLI examples block")
    return examples


def readme_library_example():
    """The code block of the README's "Library example" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def run_cli(args, outdir):
    return cli.main([*args, "--outdir", str(outdir)])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_fixture(tmp_path, records, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    data = tmp_path / "data.csv"
    meta = tmp_path / "meta.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["liquid", "T_K", "eta_Pa_s"])
        for liquid, abar, t_l, eta_l, temps in records:
            for t in temps:
                eta = no.viscosity_predict(float(t), t_l, abar, eta_l)
                if noise:
                    eta *= math.exp(noise * rng.normal())
                writer.writerow([liquid, repr(float(t)), repr(eta)])
    with open(meta, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["liquid", "T_liquidus_K", "eta_liquidus_Pa_s"])
        for liquid, _, t_l, eta_l, _ in records:
            writer.writerow([liquid, repr(t_l), repr(eta_l)])
    return data, meta


class TestSpinCommands:
    def test_spin_sigma_worked_row(self, tmp_path):
        assert run_cli(
            ["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", "--bz", "1", "--theta", "1.5707963"],
            tmp_path,
        ) == 0
        rows = read_csv(tmp_path / "spin_sigma.csv")
        assert float(rows[0]["sigma"]) == pytest.approx(0.433013, abs=1e-6)
        manifest = read_json(tmp_path / "spin-sigma_manifest.json")
        assert manifest["subcommand"] == "spin-sigma"
        assert manifest["outputs"] == ["spin_sigma.csv"]
        assert manifest["tool_version"]

    def test_spin_dist_summary(self, tmp_path):
        assert run_cli(
            ["spin-dist", "--n", "40", "--stot", "20", "--m", "0", "--theta", "1.0"],
            tmp_path,
        ) == 0
        summary = read_json(tmp_path / "spin_dist.json")
        assert summary["sigma_empirical"] == pytest.approx(summary["sigma_analytic"], abs=1e-10)
        assert summary["ks_to_arcsine"] < 0.3

    def test_exact_check_passes(self, tmp_path):
        assert run_cli(
            ["exact-check", "--n-min", "2", "--n-max", "4", "--thetas", "5"], tmp_path
        ) == 0
        summary = read_json(tmp_path / "exact_check.json")
        assert summary["ok"] and summary["max_abs_diff"] < 1e-10

    @pytest.mark.parametrize(
        "args, stem, key",
        [
            (["variance-rate", "--count", "0"], "variance_rate", "ok"),
            (["bose-dual", "--sets", "0"], "bose_dual", "all_ok"),
        ],
        ids=["variance-rate", "bose-dual"],
    )
    def test_gate_fails_when_nothing_compared(self, tmp_path, args, stem, key):
        assert run_cli(args, tmp_path) == 1
        assert read_json(tmp_path / f"{stem}.json")[key] is False
        assert read_csv(tmp_path / f"{stem}.csv") == []

    def test_spin_sigma_rejects_nan_by_name(self, tmp_path, capsys):
        data, meta = write_fixture(tmp_path, [("glassa", 0.085, 1000.0, 2.0, np.linspace(620.0, 1000.0, 14))])
        fit = ["viscosity-fit", "--data", str(data), "--meta", str(meta)]
        for k, (args, message) in enumerate((
            (["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", "--theta", "nan"], "--theta must be finite, got nan"),
            (["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", "--theta", "1", "--by", "nan"],
             "--by must be finite, got nan"),
            (["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", "--times", "-1"],
             "--times must be non-negative, got -1.0"),
            (["spin-sigma", "--n", "4", "--stot", "nan", "--m", "0", "--theta", "1"], "--stot must be finite, got nan"),
            (["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", "--times", "0", "nan"],
             "--times must be finite, got nan"),
            (["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", "--times", "inf", "1"],
             "--times must be finite, got inf"),
            (["spin-dist", "--n", "4", "--stot", "2", "--m", "inf", "--theta", "1"], "--m must be finite, got inf"),
            (["dicke-entropy", "--n", "4", "--m", "nan"], "--m must be finite, got nan"),
            (["bounds-check", "--m", "nan"], "--m must be finite, got nan"),
            (["variance-rate", "--m", "inf"], "--m must be finite, got inf"),
            (["bounds-check", "--j", "nan"], "--j must be finite, got nan"),
            (["magnus-check", "--j", "nan"], "--j must be finite, got nan"),
            (["magnus-check", "--t-max", "inf"], "--t-max must be finite, got inf"),
            (["magnus-check", "--t-min", "0"], "--t-min must be positive, got 0.0"),
            (["magnus-check", "--bz", "0"], "--bz must be nonzero: with no longitudinal field every segment commutes"),
            (["variance-rate", "--by", "nan"], "--by must be finite, got nan"),
            (["variance-rate", "--by", "0"], "--by must be positive, got 0.0"),
            (["variance-rate", "--by", "inf"], "--by must be finite, got inf"),
            (["bounds-check", "--theta", "nan"], "--theta must be finite, got nan"),
            (["bounds-check", "--by", "nan"], "--by must be finite, got nan"),
            (["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", "--by", "inf", "--times", "1"],
             "--by must be finite, got inf"),
            (["variance-rate", "--bz", "inf"], "--bz must be finite, got inf"),
            (["exact-check", "--j", "nan"], "--j must be finite, got nan"),
            (fit + ["--abar-hi", "inf"], "--abar-hi must be finite, got inf"),
            (["ising-corr", "--length", "6", "--walls", "2", "--j", "nan", "--distances", "1"],
             "--j must be finite, got nan"),
            (["ising-corr", "--length", "6", "--walls", "2", "--j", "inf", "--distances", "1"],
             "--j must be finite, got inf"),
            (["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", "--theta", "1", "--e-symm", "nan"],
             "--e-symm must be finite, got nan"),
            (["spin-dist", "--n", "4", "--stot", "2", "--m", "0", "--theta", "1", "--e-symm", "nan"],
             "--e-symm must be finite, got nan"),
            (["spin-dist", "--n", "4", "--stot", "2", "--m", "0", "--theta", "1", "--bz", "nan"],
             "--bz must be finite, got nan"),
            (["spin-dist", "--n", "4", "--stot", "2", "--m", "0", "--theta", "nan"], "--theta must be finite, got nan"),
            (["smear-planck", "--nu", "nan", "--kernel", "delta:1.0"], "--nu must be finite, got nan"),
            (["smear-planck", "--nu", "1", "--kernel", "delta:1.0", "--ptei-weight", "0.5", "--ptei-temperature", "nan"],
             "--ptei-temperature must be finite, got nan"),
            (["smear-green", "--kernel", "delta:0.0", "--tau", "nan"], "--tau must be finite, got nan"),
            (["smear-green", "--kernel", "delta:0.0", "--eps-k", "nan"], "--eps-k must be finite, got nan"),
            (["smear-green", "--kernel", "delta:0.0", "--omega-max", "inf"], "--omega-max must be finite, got inf"),
        )):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run_cli(args, tmp_path / str(k)) == 1
            err = capsys.readouterr().err
            assert message in err
            assert "RuntimeWarning" not in err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_turn_refused_by_the_schedule(self, tmp_path, capsys):
        # each field is finite, but the turn angle hypot(b_y, B_z) t is not
        args = ["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", "--by", "1.5e308", "--bz", "1.5e308", "--times", "1"]
        assert run_cli(args, tmp_path / "out") == 1
        assert "segment 0 turn angle must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_site_flags_refused_by_name(self, tmp_path, capsys):
        # each is refused before any lattice is built, so a refused
        # --n-max does not first run the N = 2..14 sweep
        for k, (args, message) in enumerate((
            (["bose-dual", "--n", "1"], "--n must be between 2 and 14 sites, got 1"),
            (["bose-dual", "--n", "15"], "--n must be between 2 and 14 sites, got 15"),
            (["magnus-check", "--n", "15"], "--n must be between 1 and 14 sites, got 15"),
            (["magnus-check", "--n", "0"], "--n must be between 1 and 14 sites, got 0"),
            (["variance-rate", "--n", "15"], "--n must be between 1 and 14 sites, got 15"),
            (["variance-rate", "--n", "0"], "--n must be between 1 and 14 sites, got 0"),
            (["bounds-check", "--n", "15"], "--n must be between 1 and 14 sites, got 15"),
            (["bounds-check", "--n", "0"], "--n must be between 1 and 14 sites, got 0"),
            (["exact-check", "--n-min", "0"], "--n-min must be between 1 and 14 sites, got 0"),
            (["exact-check", "--n-max", "15"], "--n-max must be between 1 and 14 sites, got 15"),
            (["exact-check", "--n-min", "5", "--n-max", "3"], "--n-min must not exceed --n-max, got 5 > 3"),
        )):
            assert run_cli(args, tmp_path / str(k)) == 1
            assert message in capsys.readouterr().err
            assert not (tmp_path / str(k)).exists()

    def test_bose_dual(self, tmp_path):
        assert run_cli(["bose-dual", "--n", "5", "--sets", "4"], tmp_path) == 0
        assert read_json(tmp_path / "bose_dual.json")["all_ok"]

    def test_moment_compare(self, tmp_path, capsys):
        assert run_cli(["moment-compare", "--sigma", "1.0", "--g-max", "3"], tmp_path) == 0
        rows = read_csv(tmp_path / "moment_compare.csv")
        assert float(rows[1]["arcsine"]) == 1.5
        assert float(rows[1]["gaussian"]) == 3.0
        assert run_cli(["moment-compare", "--sigma", "nan"], tmp_path) == 1
        assert "--sigma must be finite, got nan" in capsys.readouterr().err
        assert run_cli(["moment-compare", "--g-max", "200"], tmp_path / "big") == 1
        # at sigma = 1 the moment (2g - 1)!! first leaves the float range at g = 151
        assert "g = 151: the Gaussian moment overflows a float" in capsys.readouterr().err
        assert not (tmp_path / "big").exists()
        # a small sigma sends the arcsine moment below the float range first
        assert run_cli(["moment-compare", "--sigma", "0.01", "--g-max", "90"], tmp_path / "small") == 1
        err = capsys.readouterr().err
        assert "g = 83: the arcsine moment underflows a float at --sigma 0.01" in err
        assert not (tmp_path / "small").exists()
        # both moments stay finite past g = 170, their ratio g! does not
        assert run_cli(["moment-compare", "--sigma", "0.096", "--g-max", "175"], tmp_path / "ratio") == 1
        assert "g = 171: the moment ratio g! overflows a float" in capsys.readouterr().err


class TestPhysicsCommands:
    def test_magnus_check(self, tmp_path, capsys):
        assert run_cli(["magnus-check", "--count", "5"], tmp_path) == 0
        summary = read_json(tmp_path / "magnus_check.json")
        assert summary["slope_ok"]
        assert summary["commuting_error"] < 1e-12
        assert run_cli(["magnus-check", "--count", "1"], tmp_path / "one") == 1
        assert "--count must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "one").exists()

    def test_variance_rate(self, tmp_path):
        assert run_cli(["variance-rate", "--count", "3"], tmp_path) == 0
        assert read_json(tmp_path / "variance_rate.json")["ok"]

    def test_bounds_check(self, tmp_path):
        assert run_cli(["bounds-check", "--n", "4", "--m", "1"], tmp_path) == 0
        payload = read_json(tmp_path / "bounds_check.json")
        assert payload["robertson"]["satisfied"]
        assert payload["energy-rate"]["lhs"] == pytest.approx(0.625, abs=1e-6)

    def test_rate_threshold_si(self, tmp_path):
        assert run_cli(
            ["rate-threshold", "--temperature", "300", "--cv-total", "1e-3",
             "--cv-subsystem", "1e-6", "--si"],
            tmp_path,
        ) == 0
        payload = read_json(tmp_path / "rate_threshold.json")
        assert payload["threshold_natural"] == pytest.approx(2 * 300**2 * math.sqrt(1e-9))
        expected_watts = 2 * cli.KB_SI * 300**2 * math.sqrt(1e-9) / cli.HBAR_SI
        assert payload["threshold_watts"] == pytest.approx(expected_watts)

    def test_ising_corr(self, tmp_path):
        assert run_cli(
            ["ising-corr", "--length", "12", "--walls", "4", "--distances", "1", "2", "3"],
            tmp_path,
        ) == 0
        rows = read_csv(tmp_path / "ising_corr.csv")
        for row in rows:
            assert float(row["enumeration"]) == pytest.approx(
                float(row["hypergeometric"]), abs=1e-15
            )

    def test_dicke_entropy(self, tmp_path):
        assert run_cli(["dicke-entropy", "--n", "16", "32", "64", "1200", "--m", "0"], tmp_path) == 0
        payload = read_json(tmp_path / "dicke_entropy.json")
        assert payload["ln_slope"] == pytest.approx(0.5, abs=0.15)

    def test_multiplicity_table(self, tmp_path):
        assert run_cli(["multiplicity", "--n", "4"], tmp_path) == 0
        rows = read_csv(tmp_path / "multiplicity.csv")
        assert [row["exact"] for row in rows] == ["1", "3", "2"]

    def test_multiplicity_log_table(self, tmp_path):
        assert run_cli(["multiplicity", "--n", "10", "--log"], tmp_path) == 0
        rows = read_csv(tmp_path / "multiplicity.csv")
        assert [float(row["s"]) for row in rows] == [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
        for row in rows:
            s = float(row["s"])
            k = 5 - int(s)  # C(N, k) - C(N, k - 1) states of total spin N/2 - k
            assert float(row["exact"]) == math.log(math.comb(10, k) - (math.comb(10, k - 1) if k else 0))
            if s > 0:
                assert float(row["gaussian"]) == ie.spin_multiplicity_log(10, s, "gaussian")
            else:
                assert row["gaussian"] == ""

    def test_smear_planck_si(self, tmp_path):
        # nu in Hz, T in K, exact SI constants: Planck's spectral radiance
        # 2 h nu^3 / c^2 / expm1(h nu / k_B T), 8.499e-14 W m^-2 Hz^-1 sr^-1
        h, k_b, c = 6.62607015e-34, 1.380649e-23, 299792458.0
        assert run_cli(["smear-planck", "--nu", "1e12", "--kernel", "delta:300", "--si"], tmp_path) == 0
        (row,) = read_csv(tmp_path / "smear_planck.csv")
        expected = 2.0 * h * 1e12**3 / c**2 / math.expm1(h * 1e12 / (k_b * 300.0))
        assert expected == pytest.approx(8.499e-14, rel=1e-4)
        assert float(row["radiance_si"]) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_smear_green(self, tmp_path):
        assert run_cli(
            ["smear-green", "--kernel", "gauss:0.0,0.5", "--count", "11", "--z", "0.8"],
            tmp_path,
        ) == 0
        summary = read_json(tmp_path / "smear_green.json")
        assert summary["sum_rule_gap"] < 1e-6

    def test_smear_green_narrow_gaussian_is_quadrature_free(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["smear-green", "--kernel", "gauss:0.0,0.05", "--tau", "1000"], tmp_path) == 0

    def test_smear_planck(self, tmp_path):
        assert run_cli(
            ["smear-planck", "--nu", "1.0", "3.0", "--kernel", "delta:1.0"], tmp_path
        ) == 0
        rows = read_csv(tmp_path / "smear_planck.csv")
        assert float(rows[0]["radiance_natural"]) == pytest.approx(1 / (math.e - 1), rel=1e-12)


class TestViscosityPipeline:
    def test_fit_round_trip(self, tmp_path):
        data, meta = write_fixture(
            tmp_path, [("glassa", 0.085, 1000.0, 2.0, np.linspace(620.0, 1000.0, 14))]
        )
        assert run_cli(
            ["viscosity-fit", "--data", str(data), "--meta", str(meta)], tmp_path
        ) == 0
        payload = read_json(tmp_path / "viscosity_fit.json")
        assert payload["glassa"]["abar"] == pytest.approx(0.085, abs=1e-6)
        manifest = read_json(tmp_path / "viscosity-fit_manifest.json")
        assert set(manifest["input_digests"]) == {"data.csv", "meta.csv"}

    def test_collapse_points(self, tmp_path):
        data, meta = write_fixture(
            tmp_path,
            [
                ("a", 0.06, 900.0, 1.0, np.linspace(580.0, 900.0, 12)),
                ("b", 0.11, 1300.0, 1.0, np.linspace(830.0, 1300.0, 12)),
            ],
        )
        assert run_cli(["collapse", "--data", str(data), "--meta", str(meta)], tmp_path) == 0
        rows = read_csv(tmp_path / "collapse.csv")
        assert {row["liquid"] for row in rows} == {"a", "b"}
        for row in rows:
            x, y = float(row["x"]), float(row["y"])
            assert y * no.kernel_average(no.DeltaKernel(x), lambda q: 1.0) > 0
            assert math.log10(y) == pytest.approx(
                math.log10(no.master_curve(x)), abs=1e-6
            )


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
DATA_HEADER = ["liquid", "T_K", "eta_Pa_s"]
META_HEADER = ["liquid", "T_liquidus_K", "eta_liquidus_Pa_s"]


@st.composite
def viscosity_tables(draw):
    """(data rows, metadata rows) of a valid CSV pair, as (liquid, float, float)."""
    liquids = draw(st.lists(st.text("abxyz_-", min_size=1, max_size=5), min_size=1, max_size=3, unique=True))
    meta = [(liquid, draw(POSITIVE), draw(POSITIVE)) for liquid in liquids]
    data = draw(st.lists(st.tuples(st.sampled_from(liquids), POSITIVE, POSITIVE), min_size=1, max_size=12))
    return data, meta


def write_table(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def as_text(rows):
    return [[liquid, repr(first), repr(second)] for liquid, first, second in rows]


class TestIngest:
    @given(viscosity_tables())
    def test_valid_tables_ingest_to_the_records_written(self, tables):
        data_rows, meta_rows = tables
        with tempfile.TemporaryDirectory() as tmp:
            dataset = cli.ingest(
                write_table(Path(tmp) / "data.csv", DATA_HEADER, as_text(data_rows)),
                write_table(Path(tmp) / "meta.csv", META_HEADER, as_text(meta_rows)),
            )
        limits = {liquid: (t_l, eta_l) for liquid, t_l, eta_l in meta_rows}
        written: dict[str, list] = {}
        for liquid, temp, eta in data_rows:
            written.setdefault(liquid, []).append((temp, eta))
        assert [(r.liquid_id, r.rows, r.t_liquidus, r.eta_liquidus) for r in dataset.records] == [
            (liquid, tuple(rows), *limits[liquid]) for liquid, rows in sorted(written.items())
        ]

    @given(
        viscosity_tables(),
        st.booleans(),
        st.integers(1, 3),
        st.sampled_from(["nan", "inf", "-inf", "0.0", "-0.0", "-1.5", "oops", ""]),
        st.data(),
    )
    def test_spoiled_field_names_file_and_line(self, tables, in_meta, column, bad, data):
        data_rows, meta_rows = (as_text(rows) for rows in tables)
        spoiled = meta_rows if in_meta else data_rows
        index = data.draw(st.integers(0, len(spoiled) - 1))
        spoiled[index][column : column + 1] = [bad]  # column 3 adds a fourth field
        where = f"{'meta' if in_meta else 'data'}.csv:{index + 2}: "
        with tempfile.TemporaryDirectory() as tmp:
            data_path = write_table(Path(tmp) / "data.csv", DATA_HEADER, data_rows)
            meta_path = write_table(Path(tmp) / "meta.csv", META_HEADER, meta_rows)
            with pytest.raises(ValueError, match=re.escape(where)):
                cli.ingest(data_path, meta_path)

    @given(viscosity_tables(), st.data())
    def test_repeated_metadata_liquid_names_both_lines(self, tables, data):
        data_rows, meta_rows = (as_text(rows) for rows in tables)
        first = data.draw(st.integers(0, len(meta_rows) - 1))
        repeat = data.draw(st.integers(first + 1, len(meta_rows)))
        meta_rows.insert(repeat, [meta_rows[first][0], "900.0", "5.0"])
        message = f"meta.csv:{repeat + 2}: liquid {meta_rows[first][0]!r} repeats its metadata row at line {first + 2}"
        with tempfile.TemporaryDirectory() as tmp:
            data_path = write_table(Path(tmp) / "data.csv", DATA_HEADER, data_rows)
            meta_path = write_table(Path(tmp) / "meta.csv", META_HEADER, meta_rows)
            with pytest.raises(ValueError, match=re.escape(message)):
                cli.ingest(data_path, meta_path)

    def test_two_liquid_fixture(self, tmp_path):
        data, meta = write_fixture(
            tmp_path,
            [
                ("a", 0.07, 900.0, 1.0, np.linspace(600.0, 900.0, 5)),
                ("b", 0.09, 1100.0, 2.0, np.linspace(700.0, 1100.0, 5)),
            ],
        )
        dataset = cli.ingest(data, meta)
        assert len(dataset.records) == 2
        assert all(not record.flagged_rows for record in dataset.records)

    def test_nonpositive_viscosity_rejected_with_line(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("liquid,T_K,eta_Pa_s\nx,500.0,1.0\nx,510.0,-2.0\n", encoding="utf-8")
        meta = tmp_path / "meta.csv"
        meta.write_text("liquid,T_liquidus_K,eta_liquidus_Pa_s\nx,600.0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="data.csv:3"):
            cli.ingest(data, meta)

    def test_malformed_row_reported_with_line(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("liquid,T_K,eta_Pa_s\nx,500.0,1.0\nx,oops,1.0\n", encoding="utf-8")
        meta = tmp_path / "meta.csv"
        meta.write_text("liquid,T_liquidus_K,eta_liquidus_Pa_s\nx,600.0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="data.csv:3"):
            cli.ingest(data, meta)

    def test_above_liquidus_flagged(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(
            "liquid,T_K,eta_Pa_s\nx,650.0,5.0\nx,590.0,9.0\nx,700.0,1.0\nx,550.0,20.0\n",
            encoding="utf-8",
        )
        meta = tmp_path / "meta.csv"
        meta.write_text("liquid,T_liquidus_K,eta_liquidus_Pa_s\nx,600.0,1.0\n", encoding="utf-8")
        dataset = cli.ingest(data, meta)
        record = dataset.records[0]
        assert len(record.flagged_rows) == 2
        assert all(t <= 600.0 for t, _ in record.retained_rows)

    def test_missing_metadata_lists_liquids(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(
            "liquid,T_K,eta_Pa_s\nalpha,500.0,1.0\nbeta,510.0,2.0\n", encoding="utf-8"
        )
        meta = tmp_path / "meta.csv"
        meta.write_text("liquid,T_liquidus_K,eta_liquidus_Pa_s\nalpha,600.0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="beta"):
            cli.ingest(data, meta)

    def test_bad_header(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("liq,T,eta\n", encoding="utf-8")
        meta = tmp_path / "meta.csv"
        meta.write_text("liquid,T_liquidus_K,eta_liquidus_Pa_s\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            cli.ingest(data, meta)


# argv that each subcommand with a float flag runs on, exit 0; spin-sigma's
# drive is added where the flag under test is not itself the drive
VALID_ARGV = {
    "spin-sigma": ["--n", "4", "--stot", "2", "--m", "0"],
    "spin-dist": ["--n", "4", "--stot", "2", "--m", "0", "--theta", "1"],
    "exact-check": ["--n-max", "3", "--thetas", "2"],
    "magnus-check": ["--count", "2"],
    "variance-rate": ["--count", "2"],
    "bounds-check": [],
    "rate-threshold": ["--temperature", "1", "--cv-total", "1", "--cv-subsystem", "1"],
    "ising-corr": ["--length", "6", "--walls", "2", "--distances", "1"],
    "dicke-entropy": ["--n", "4"],
    "smear-green": ["--kernel", "delta:0.0", "--count", "3"],
    "smear-planck": ["--nu", "1", "--kernel", "delta:1.0"],
    "moment-compare": [],
}


def float_flags():
    """(subcommand, option) of every float flag in the parser, list flags included."""
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, next(opt for opt in action.option_strings if opt.startswith("--")))
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.type is float
    ]


class TestFiniteFlags:
    def test_every_float_flag_refuses_non_finite_by_name(self, tmp_path, capsys):
        data, meta = write_fixture(tmp_path, [("glassa", 0.085, 1000.0, 2.0, np.linspace(620.0, 1000.0, 14))])
        valid = dict(VALID_ARGV, **{sub: ["--data", str(data), "--meta", str(meta)] for sub in ("viscosity-fit", "collapse")})
        pairs = float_flags()
        assert len(pairs) == 45
        for sub in sorted({sub for sub, _ in pairs}):
            drive = ["--theta", "1"] if sub == "spin-sigma" else []
            assert run_cli([sub, *valid[sub], *drive], tmp_path / "valid" / sub) == 0, sub
        # an inert flag is refused too: smear-planck --ptei-temperature at zero weight
        cases = [(sub, flag, bad) for sub, flag in pairs for bad in ("nan", "inf", "1e999")]
        for k, (sub, flag, bad) in enumerate(cases):
            drive = ["--theta", "1"] if sub == "spin-sigma" and flag not in ("--theta", "--times") else []
            out = tmp_path / str(k)
            assert run_cli([sub, *valid[sub], *drive, flag, bad], out) == 1, (sub, flag, bad)
            assert f"{flag} must be finite, got {float(bad)!r}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("drive, message", [
        (["--theta", "1", "--times", "nan"], "argument --times: not allowed with argument --theta"),
        (["--times", "1", "--theta", "1"], "argument --theta: not allowed with argument --times"),
        ([], "one of the arguments --theta --times is required"),
        (["--theta"], "argument --theta: expected at least one argument"),
        (["--times"], "argument --times: expected at least one argument"),
    ])
    def test_spin_sigma_takes_exactly_one_drive(self, tmp_path, capsys, drive, message):
        with pytest.raises(SystemExit) as err:
            run_cli(["spin-sigma", "--n", "4", "--stot", "2", "--m", "0", *drive], tmp_path / "out")
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCliBehavior:
    def test_usage_error_exit_2(self, tmp_path, capsys):
        cases = [
            (["spin-sigma", "--not-a-flag"], "drivenfluct spin-sigma: error:"),
            (["variance-rate", "--count", "-1"], "argument --count: expected a non-negative integer, got '-1'"),
            (["smear-green", "--kernel", "delta:0", "--count", "-2"], "argument --count: expected"),
            (["exact-check", "--thetas", "-1"], "argument --thetas: expected"),
            (["exact-check", "--thetas", "0"], "argument --thetas: expected a positive integer, got '0'"),
            (["smear-green", "--kernel", "delta:0", "--count", "0"], "argument --count: expected a positive integer, got '0'"),
            (["bose-dual", "--sets", "-3"], "argument --sets: expected"),
            (["bose-dual", "--seed", "-1"], "argument --seed: expected a non-negative integer, got '-1'"),
            (["moment-compare", "--g-max", "-1"], "argument --g-max: expected"),
            (["moment-compare", "--g-max", "two"], "argument --g-max: expected a non-negative integer, got 'two'"),
            (["multiplicity", "--n", "-3"], "argument --n: expected a non-negative integer, got '-3'"),
        ]
        for argv, message in cases:
            with pytest.raises(SystemExit) as err:
                run_cli(argv, tmp_path / "out")
            assert err.value.code == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_numerical_failure_exit_1(self, tmp_path, capsys):
        status = run_cli(
            ["spin-sigma", "--n", "4", "--stot", "3", "--m", "0", "--theta", "1.0"], tmp_path
        )
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        args = ["spin-dist", "--n", "24", "--stot", "12", "--m", "2", "--theta", "0.9"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args, dir_a) == 0
        assert run_cli(args, dir_b) == 0
        for name in ("spin_dist.csv", "spin_dist.json", "spin-dist_manifest.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_non_finite_json_exits_1_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # every payload is serialised as strict JSON before any file is
        # written: a NaN slope is an error, not a "NaN" token in an artifact
        monkeypatch.setattr(oracles, "magnus_slope", lambda lattice, times: ([1.0] * len(times), math.nan))
        assert run_cli(["magnus-check"], tmp_path / "nan") == 1
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not (tmp_path / "nan").exists()

    def test_selftest_smoke(self, tmp_path, capsys):
        assert run_cli(["rate-threshold", "--temperature", "1", "--cv-total", "1",
                        "--cv-subsystem", "1", "--selftest"], tmp_path) == 0
        report = read_json(tmp_path / "rate-threshold_selftest.json")
        assert report["ok"]
        out = capsys.readouterr().out
        assert "ok worked-lhs" in out

    def test_kernel_parser(self):
        kernel = cli._parse_kernel("gauss:1.5,0.2")
        assert isinstance(kernel, no.GaussianKernel)
        empirical = cli._parse_kernel("empirical:0.5:0.25,1.5:0.75")
        assert empirical.points == ((0.5, 0.25), (1.5, 0.75))
        for spec in ("triangle:1.0", "gauss:1.0", "delta:", "empirical:0.5", "gauss:1.0,x"):
            with pytest.raises(ValueError, match=f"malformed kernel spec {spec!r}, expected delta:AT"):
                cli._parse_kernel(spec)
        for spec, message in (
            ("gauss:0.0,nan", "finite sigma > 0"),
            ("gauss:0.0,inf", "finite sigma > 0"),
            ("delta:nan", "delta kernel needs a finite location, got nan"),
            ("delta:inf", "delta kernel needs a finite location, got inf"),
            ("gauss:nan,0.5", "gaussian kernel needs a finite mean, got nan"),
            ("empirical:0.5:nan", "empirical weights must be finite, got nan"),
            ("empirical:nan:1.0", "empirical values must be finite, got nan"),
        ):
            with pytest.raises(ValueError, match=message):
                cli._parse_kernel(spec)

    @given(
        FINITE,
        FINITE,
        st.floats(min_value=1e-300, allow_infinity=False),
        st.lists(st.tuples(FINITE, st.floats(min_value=0.01, max_value=1.0)), min_size=1, max_size=5),
    )
    def test_kernel_spec_round_trip(self, at, mean, sigma, pairs):
        assert cli._parse_kernel(f"delta:{at!r}") == no.DeltaKernel(at)
        assert cli._parse_kernel(f"gauss:{mean!r},{sigma!r}") == no.GaussianKernel(mean, sigma)
        total = math.fsum(w for _, w in pairs)
        points = tuple((v, w / total) for v, w in pairs)
        spec = "empirical:" + ",".join(f"{v!r}:{w!r}" for v, w in points)
        assert cli._parse_kernel(spec) == no.EmpiricalKernel(points)

    @pytest.mark.parametrize("argv", readme_examples(), ids=lambda argv: argv[0])
    def test_readme_example(self, tmp_path, monkeypatch, argv):
        data, meta = write_fixture(
            tmp_path, [("glassa", 0.085, 1000.0, 2.0, np.linspace(620.0, 1000.0, 14))]
        )
        data.rename(tmp_path / "viscosity.csv")
        meta.rename(tmp_path / "viscosity_meta.csv")
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv, tmp_path / "out") == 0
        for path in (tmp_path / "out").glob("*.json"):
            payload = read_json(path)
            assert all(payload[gate] is True for gate in GATES if gate in payload), path.name

    def test_readme_library_example(self):
        namespace = {}
        exec(compile(readme_library_example(), "README.md", "exec"), namespace)
        # the block's own assert, which python -O would strip
        assert abs(namespace["closed_form"] - namespace["oracle"]) < 1e-10

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        # read on each call, not when the (kept) parser was built
        for name in ("envout", "envout2"):
            monkeypatch.setenv("DRIVENFLUCT_OUTDIR", str(tmp_path / name))
            assert cli.main(["moment-compare", "--g-max", "2"]) == 0
            assert cli.main(["moment-compare", "--selftest"]) == 0
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == [
                "moment-compare_manifest.json", "moment-compare_selftest.json", "moment_compare.csv"
            ]

    def test_kept_parser_carries_no_flags_over(self, tmp_path, capsys):
        base = ["spin-sigma", "--n", "4", "--stot", "2", "--m", "0"]
        assert run_cli([*base, "--theta", "1.0"], tmp_path / "a") == 0
        with pytest.raises(SystemExit) as err:
            run_cli(base, tmp_path / "b")
        assert err.value.code == 2
        assert "one of the arguments --theta --times is required" in capsys.readouterr().err

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        # a fresh interpreter: importing the CLI constructs no parser at all
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import drivenfluct.cli\n"
            "print(len(built))\n"
        )
        src = Path(cli.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "0"
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        cli._main_parser.cache_clear()
        argv = ["rate-threshold", "--temperature", "2", "--cv-total", "1", "--cv-subsystem", "1"]
        for k in range(5):
            assert run_cli(argv, tmp_path / str(k)) == 0
        assert len(calls) == 1
