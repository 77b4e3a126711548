"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines; the test names themselves mirror the criteria so a plain
``pytest -v`` run shows the same information.
"""

import csv
import io
import json
import math
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from drivenfluct import bounds as bd
from drivenfluct import cli
from drivenfluct import collective_spin as cs
from drivenfluct import exact_lattice as xl
from drivenfluct import ising_entangle as ie
from drivenfluct import magnus as mg
from drivenfluct import nonequil_observables as no
from drivenfluct import oracles
from drivenfluct import special as sp

DATA = Path(__file__).parent / "data"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_analytic_oracle_equivalence():
    start = time.monotonic()
    sizes = range(2, xl.MAX_SITES + 1)
    schedule = cs.DriveSchedule("replace", ((2.0 * math.pi / 20.0, 1.0),) * 20, 1.0)
    rows = [
        row
        for n in sizes
        for row in oracles.sigma_sweep(xl.LatticeSpec.chain(n, 1.0, 1.0), schedule)
    ]
    worst = max(abs(oracle - analytic) for _, _, oracle, analytic in rows)
    elapsed = time.monotonic() - start
    # every sector of every size, at each of the 20 segment boundaries
    expected_rows = sum(20 * (n + 1) for n in sizes)
    _report(
        1,
        "analytic-oracle equivalence",
        len(rows) == expected_rows and worst < 1e-10 and elapsed < 60.0,
        f"{len(rows)} rows, max |diff| = {worst:.3e}, {elapsed:.1f} s",
    )


def test_criterion_02_distribution_law():
    start = time.monotonic()
    s_tot, theta = 1000, 1.0
    sector = cs.SpinSector(2 * s_tot, s_tot, 0)
    schedule = cs.DriveSchedule("replace", ((theta, 1.0),), 1.0)
    distribution = cs.eigenweight_distribution(sector, theta)
    sigma = cs.analytic_sigma(sector, schedule, theta)
    mean = cs.analytic_energy_mean(sector, schedule, theta)
    ks = cs.ks_distance_to_arcsine(distribution, mean, sigma)
    cf_worst = max(
        abs(distribution.characteristic(float(q)).real - cs.characteristic_value(float(q), sigma))
        for q in np.linspace(0.5, 12.0, 10)
    )
    elapsed = time.monotonic() - start
    _report(
        2,
        "arcsine distribution law at S=1000",
        ks < 0.05 and cf_worst < 1e-3 and elapsed < 30.0,
        f"KS = {ks:.4f}, max cf dev = {cf_worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_03_moments():
    schedule = cs.DriveSchedule("replace", ((1.3, 1.0),), 1.0)
    sector = cs.SpinSector(4000, 2000, 0)
    worst_ratio_dev = max(
        abs(
            cs.central_moment(sector, schedule, 1.3, g, "exact")
            / cs.central_moment(sector, schedule, 1.3, g, "asymptotic")
            - 1.0
        )
        for g in (1, 2, 3)
    )
    worst_identity = 0.0
    for s2 in (1, 3, 10, 77, 500):
        sec = cs.SpinSector(2 * s2, s2, 0 if s2 % 2 == 0 else 1)
        exact = cs.central_moment(sec, schedule, 1.3, 1, "exact")
        sigma_sq = cs.analytic_sigma(sec, schedule, 1.3) ** 2
        worst_identity = max(worst_identity, abs(exact - sigma_sq))
    _report(
        3,
        "exact/asymptotic central moments",
        worst_ratio_dev < 0.05 and worst_identity < 1e-12,
        f"max ratio dev = {worst_ratio_dev:.2e}, g=1 identity dev = {worst_identity:.2e}",
    )


def test_criterion_04_boson_duality():
    rng = np.random.default_rng(1234)
    worst = 0.0
    sets = 0
    while sets < 20:
        n = 2 + sets % 7  # cycles N through 2..8
        bonds = tuple(
            (i, j, float(rng.normal()))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.85
        )
        report = xl.bose_dual(xl.LatticeSpec(n, bonds, float(rng.normal())))
        worst = max(worst, report.entry_max_delta)
        sets += 1
    _report(4, "hard-core boson duality", worst < 1e-10, f"max entry gap from the spin Hamiltonian = {worst:.3e}")


def test_criterion_05_magnus():
    lattice = xl.LatticeSpec.chain(3, 1.0, 1.0)
    errors, slope = oracles.magnus_slope(lattice, np.geomspace(1e-3, 1e-1, 9))

    psi = xl.dicke_state(3, 0.5)
    bracket = max(
        abs(mg.variance_expansion(psi, lattice, oracles.magnus_schedule(t), t).first_bracket)
        for t in (0.05, 0.2)
    )

    rates = oracles.rate_against_finite_difference(psi, lattice, 1.0, (0.4, 0.9, 1.7))
    worst_rate = max(abs(rate - fd) / abs(fd) for _, rate, fd in rates)
    _report(
        5,
        "magnus truncation and variance rate",
        len(errors) == 9
        and len(rates) == 3
        and abs(slope - 3.0) <= 0.2
        and bracket < 1e-12
        and worst_rate < 1e-6,
        f"slope = {slope:.3f}, first bracket = {bracket:.2e}, rate rel err = {worst_rate:.2e}",
    )


def test_criterion_06_bounds():
    slacks = oracles.robertson_fuzz(np.random.default_rng(20240915), 1000, 64)
    worst_slack = min(slacks)

    lattice = xl.LatticeSpec.chain(4, 1.0, 1.0)
    state = xl.evolve_state(
        xl.dicke_state(4, 1), lattice, cs.DriveSchedule("replace", ((math.pi / 2, 1.0),), 1.0)
    )[-1][1]
    worked = bd.uncertainty_check(
        state, xl.build_spin_hamiltonian(lattice), xl.build_transverse_field(4, 1.0), 4
    )[1]
    worked_ok = abs(worked.lhs - 0.625) < 1e-6 and abs(worked.rhs - 0.125) < 1e-6
    _report(
        6,
        "uncertainty bounds",
        len(slacks) == 1000 and worst_slack >= -1e-12 and worked_ok,
        f"min fuzz slack = {worst_slack:.2e}, worked (lhs, rhs) = ({worked.lhs:.6f}, {worked.rhs:.6f})",
    )


def test_criterion_07_ising_correlators():
    exact_match = True
    for length in range(2, 15):
        for walls in range(length):
            ensemble = ie.DomainWallEnsemble(length, walls)
            for d in range(1, length):
                if ie.correlator_fraction(ensemble, d, "enumeration") != ie.correlator_fraction(
                    ensemble, d, "hypergeometric"
                ):
                    exact_match = False

    gaps = []
    for bonds in (40, 80, 160, 320):
        ens = ie.DomainWallEnsemble(bonds + 1, int(0.3 * bonds))
        gaps.append(
            abs(
                ie.domain_wall_correlator(ens, 2, "hypergeometric")
                - ie.domain_wall_correlator(ens, 2, "asymptotic")
            )
        )
    halving_ok = all(
        abs(second / first - 0.5) <= 0.3 * 0.5 for first, second in zip(gaps, gaps[1:])
    )

    thermal_ok = True
    for length, walls in ((40, 10), (160, 60), (320, 50)):
        ens = ie.DomainWallEnsemble(length, walls, coupling=1.0)
        beta = ie.temperature_energy_maps(length, 1.0, energy=ens.energy).beta
        for d in (1, 3, 6):
            gap = abs(
                ie.domain_wall_correlator(ens, d, "thermal", beta=beta)
                - ie.domain_wall_correlator(ens, d, "asymptotic")
            )
            thermal_ok = thermal_ok and gap < 1.0 / length
    _report(
        7,
        "domain-wall correlators",
        exact_match and halving_ok and thermal_ok,
        f"enum==hyper: {exact_match}, gap ratios {[round(b/a, 3) for a, b in zip(gaps, gaps[1:])]}",
    )


def test_criterion_08_entanglement():
    value = ie.dicke_entanglement(ie.DickeSplit(4, 0, 2))
    value_ok = abs(value - 0.8675632284814612) < 1e-9
    sizes = [2**k for k in range(4, 11)]
    entropies = [ie.dicke_entanglement(ie.DickeSplit(n, 0, n // 2)) for n in sizes]
    slope = float(np.polyfit(np.log(sizes), entropies, 1)[0])
    _report(
        8,
        "Dicke entanglement",
        value_ok and abs(slope - 0.5) <= 0.1,
        f"S(4) = {value:.10f}, ln-slope = {slope:.3f}",
    )


def test_criterion_09_multiplicities():
    tables_ok = (
        [ie.spin_multiplicity(2, s) for s in (1, 0)] == [1, 1]
        and [ie.spin_multiplicity(3, s) for s in (1.5, 0.5)] == [1, 2]
        and [ie.spin_multiplicity(4, s) for s in (2, 1, 0)] == [1, 3, 2]
    )
    sum_rule_ok = True
    for n in range(1, 65):
        total = sum(
            ie.spin_multiplicity(n, doubled / 2.0) * (doubled + 1)
            for doubled in range(n % 2, n + 1, 2)
        )
        sum_rule_ok = sum_rule_ok and total == 2**n
    n_large = 10**4
    s_large = 2 * int(math.isqrt(n_large))
    ratio = math.exp(
        ie.spin_multiplicity_log(n_large, s_large, "gaussian")
        - ie.spin_multiplicity_log(n_large, s_large, "exact")
    )
    _report(
        9,
        "total-spin multiplicities",
        tables_ok and sum_rule_ok and abs(ratio - 1.0) < 0.05,
        f"tables ok, sum rule exact to N=64, gaussian/exact = {ratio:.4f}",
    )


def _erfc_table():
    with open(DATA / "erfc_reference.csv", newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def test_criterion_10_viscosity(tmp_path):
    # --- erfc reference-table agreement
    table = _erfc_table()
    plain_ok = all(
        abs(sp.erfc(row["x"]) - row["erfc"]) / row["erfc"] < 1e-13
        for row in table
        if row["erfc"] >= 1e-305
    )
    scaled_ok = all(
        abs(sp.erfcx(row["x"]) - row["erfcx"]) / row["erfcx"] < 1e-13 for row in table
    )

    # --- noiseless synthetic round trip
    temps = np.linspace(640.0, 1000.0, 14)
    record = no.ViscosityRecord(
        "clean",
        tuple((float(t), no.viscosity_predict(float(t), 1000.0, 0.085, 2.0)) for t in temps),
        1000.0,
        2.0,
    )
    clean_fit = no.fit_collapse(no.ViscosityDataset((record,)))[0]
    clean_ok = abs(clean_fit.abar - 0.085) < 1e-6

    # --- noisy recovery across the published abar span
    rng = np.random.default_rng(2718)
    noise = 0.02
    noisy_ok = True
    for abar in np.linspace(0.05, 0.12, 8):
        rows = tuple(
            (
                float(t),
                no.viscosity_predict(float(t), 1000.0, float(abar), 1.5)
                * math.exp(noise * rng.normal()),
            )
            for t in np.linspace(620.0, 1000.0, 16)
        )
        fit = no.fit_collapse(
            no.ViscosityDataset((no.ViscosityRecord("noisy", rows, 1000.0, 1.5),))
        )[0]
        noisy_ok = noisy_ok and abs(fit.abar - abar) / abar < 0.05

    # --- multi-liquid collapse residual below the injected noise
    records = []
    for name, abar, t_l in (("m1", 0.055, 800.0), ("m2", 0.09, 1100.0), ("m3", 0.12, 1500.0)):
        rows = tuple(
            (
                float(t),
                no.viscosity_predict(float(t), t_l, abar, 1.0) * math.exp(noise * rng.normal()),
            )
            for t in np.linspace(0.63 * t_l, t_l, 15)
        )
        records.append(no.ViscosityRecord(name, rows, t_l, 1.0))
    fits = no.fit_collapse(no.ViscosityDataset(tuple(records)))
    residuals = [
        math.log10(y) - math.log10(no.master_curve(x))
        for fit in fits
        for x, y in fit.points
    ]
    collapse_rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    collapse_ok = collapse_rms < noise / math.log(10.0)

    # --- end-to-end structural run on an externally shaped (non-erfc) dataset
    data_path = tmp_path / "external.csv"
    meta_path = tmp_path / "external_meta.csv"
    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["liquid", "T_K", "eta_Pa_s"])
        t_l, eta_inf, a_vft, t0 = 900.0, 1e-4, 2500.0, 400.0
        for t in np.linspace(550.0, 980.0, 25):  # includes above-liquidus rows
            eta = eta_inf * math.exp(a_vft / (float(t) - t0)) * math.exp(0.05 * rng.normal())
            writer.writerow(["vft", repr(float(t)), repr(eta)])
    with open(meta_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["liquid", "T_liquidus_K", "eta_liquidus_Pa_s"])
        writer.writerow(["vft", repr(900.0), repr(1e-4 * math.exp(2500.0 / 500.0))])
    status = cli.main(
        ["collapse", "--data", str(data_path), "--meta", str(meta_path), "--outdir", str(tmp_path)]
    )
    with open(tmp_path / "collapse.csv", newline="", encoding="utf-8") as fh:
        points = [(float(r["x"]), float(r["y"])) for r in csv.DictReader(fh)]
    dataset = cli.ingest(data_path, meta_path)
    retained = dataset.records[0].retained_rows
    eta_l = dataset.records[0].eta_liquidus
    observed_span = math.log10(max(e for _, e in retained) / min(e for _, e in retained))
    emitted_span = math.log10(max(y for _, y in points) / min(y for _, y in points))
    # y = eta/eta_liquidus, so the emitted log-range must equal the retained
    # dataset's full log-eta range decade for decade
    structural_ok = (
        status == 0
        and len(points) == len(retained)
        and emitted_span > 2.0
        and abs(emitted_span - observed_span) < 1e-9
    )
    assert eta_l > 0.0

    _report(
        10,
        "viscosity collapse pipeline",
        plain_ok and scaled_ok and clean_ok and noisy_ok and collapse_ok and structural_ok,
        f"erfc table ok, clean |dA| = {abs(clean_fit.abar - 0.085):.1e}, "
        f"collapse rms = {collapse_rms:.4f}, structural span = {emitted_span:.2f} decades",
    )


def test_criterion_11_smearing():
    weight_gap = max(
        abs(no.spectral_weight(1.0, kernel, 0.65, 3.0, -1e9, 1e9) - 0.65)
        for kernel in (
            no.DeltaKernel(0.2),
            no.GaussianKernel(0.1, 0.6),
            no.EmpiricalKernel(points=((-0.4, 0.3), (0.5, 0.7))),
        )
    )
    delta_identity = all(
        no.smeared_planck(nu, no.DeltaKernel(t)) == no.planck_radiance(nu, t)
        for nu, t in ((0.5, 2.0), (3.0, 1.0), (10.0, 0.7))
    )
    narrow = no.smeared_planck(3.0, no.GaussianKernel(1.0, 1e-4))
    narrow_dev = abs(narrow - no.planck_radiance(3.0, 1.0)) / no.planck_radiance(3.0, 1.0)
    _report(
        11,
        "Green and Planck smearing",
        weight_gap < 1e-6 and delta_identity and narrow_dev < 1e-6,
        f"sum rule gap = {weight_gap:.2e}, delta identity bit-exact, narrow dev = {narrow_dev:.2e}",
    )


def test_criterion_12_determinism(tmp_path):
    subcommands = sorted(oracles.SUITES)
    identical = True
    failures = []
    for name in subcommands:
        outputs = []
        for run in ("a", "b"):
            outdir = tmp_path / f"{name}-{run}"
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                status = cli.main([name, "--selftest", "--outdir", str(outdir)])
            payload = (outdir / f"{name}_selftest.json").read_bytes()
            if run == "a" and status != 0:
                failed = [c["name"] for c in json.loads(payload)["checks"] if not c["ok"]]
                failures.append(f"{name}: {', '.join(failed)}")
            outputs.append((buffer.getvalue(), payload))
        if outputs[0] != outputs[1]:
            identical = False
            failures.append(f"{name} (nondeterministic)")
    _report(
        12,
        "selftest determinism",
        identical and not failures,
        f"{len(subcommands)} subcommands, byte-identical reruns"
        + (f"; failures: {failures}" if failures else ""),
    )
