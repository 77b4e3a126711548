"""Command-line surface: sweeps, oracle cross-checks, dataset fits, emission.

Every subcommand writes plot-ready CSV/JSON artifacts plus one run manifest
(flags, package version, sha256 digests of ingested files, output names) and
is deterministic: identical inputs give byte-identical outputs.  Numbers are
emitted in full round-trip decimal form.  Each subcommand also has a
``--selftest`` mode that runs its module's oracle suite and exits nonzero on
any violation.

Exit codes: 0 success, 1 numerical failure or selftest violation, 2 usage.
Core quantities are in natural units (hbar = k_B = 1); ``--si`` converts at
the boundary where noted (rate-threshold, smear-planck).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bd
from . import collective_spin as cs
from . import exact_lattice as xl
from . import ising_entangle as ie
from . import magnus as mg
from . import nonequil_observables as no
from . import special as sp

# SI scale constants applied only at the output boundary.
HBAR_SI = 1.054571817e-34  # J s
KB_SI = 1.380649e-23  # J / K
PLANCK_SI = 6.62607015e-34  # J s
C_SI = 299792458.0  # m / s


# ---------------------------------------------------------------------------
# deterministic emission helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(
    outdir: Path,
    subcommand: str,
    args: argparse.Namespace,
    input_paths: list[Path],
    output_names: list[str],
) -> Path:
    params = {
        key: _fmt(value) if isinstance(value, float) else value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "outdir")
    }
    manifest = {
        "subcommand": subcommand,
        "parameters": params,
        "tool_version": __version__,
        "input_digests": {Path(p).name: _digest(p) for p in input_paths},
        "outputs": sorted(output_names),
    }
    path = outdir / f"{subcommand}_manifest.json"
    _write_json(path, manifest)
    return path


def _emit(
    args: argparse.Namespace,
    subcommand: str,
    artifacts: dict[str, object],
    input_paths: list[Path] | None = None,
) -> int:
    """Write artifacts ({filename: (header, rows) | json payload}) + manifest."""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for name, content in sorted(artifacts.items()):
        path = outdir / name
        if name.endswith(".csv"):
            header, rows = content
            _write_csv(path, header, rows)
        else:
            _write_json(path, content)
        names.append(name)
    manifest = _write_manifest(outdir, subcommand, args, input_paths or [], names)
    for name in names:
        print(f"wrote {name}")
    print(f"wrote {manifest.name}")
    return 0


_KERNEL_SYNTAX = "delta:AT | gauss:MEAN,SIGMA | empirical:V:W,..."


def _parse_kernel(spec: str) -> no.SmearKernel:
    """Parse the --kernel flag: comma-separated fields of colon-separated floats."""
    kind, _, rest = spec.partition(":")
    try:
        fields = [tuple(float(part) for part in chunk.split(":")) for chunk in rest.split(",")]
    except ValueError:
        fields = []
    widths = {len(field) for field in fields}
    if kind == "delta" and len(fields) == 1 and widths == {1}:
        return no.DeltaKernel(at=fields[0][0])
    if kind == "gauss" and len(fields) == 2 and widths == {1}:
        return no.GaussianKernel(mean=fields[0][0], sigma=fields[1][0])
    if kind == "empirical" and widths == {2}:
        return no.EmpiricalKernel(points=tuple(fields))
    raise ValueError(f"malformed kernel spec {spec!r}, expected {_KERNEL_SYNTAX}")


# ---------------------------------------------------------------------------
# per-module selftest suites (shared by several subcommands)
# ---------------------------------------------------------------------------


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _selftest_collective() -> list[dict]:
    checks: list[dict] = []
    sector = cs.SpinSector(4, 2, 0)
    sched = cs.DriveSchedule("replace", ((math.pi / 2, 1.0),), 1.0)
    sigma = cs.analytic_sigma(sector, sched, math.pi / 2)
    _check(checks, "sigma-closed-form", abs(sigma - math.sqrt(1.5) / (2 * math.sqrt(2))) < 1e-14)
    lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
    state = xl.evolve_state(xl.dicke_state(4, 0), lat, sched)[-1][1]
    oracle = xl.energy_density_sigma(state, xl.build_spin_hamiltonian(lat))
    _check(checks, "sigma-oracle", abs(sigma - oracle) < 1e-10, _fmt(abs(sigma - oracle)))
    _check(
        checks,
        "sigma-identity-rotation",
        cs.analytic_sigma(sector, cs.DriveSchedule("replace", ((1.0, 0.0),), 1.0), 1.0) == 0.0,
    )
    dist = cs.eigenweight_distribution(cs.SpinSector(1, 0.5, 0.5), math.pi / 2)
    _check(
        checks,
        "half-spin-weights",
        max(abs(w - 0.5) for _, w in dist.points) < 1e-14,
    )
    big = cs.eigenweight_distribution(cs.SpinSector(80, 40, 0), 1.0)
    _check(
        checks,
        "eigenweight-mean-consistency",
        abs(big.mean() - cs.analytic_energy_mean(cs.SpinSector(80, 40, 0), cs.DriveSchedule("replace", ((1.0, 1.0),), 1.0), 1.0)) < 1e-12,
    )
    _check(
        checks,
        "eigenweight-sigma-consistency",
        abs(big.std() - cs.analytic_sigma(cs.SpinSector(80, 40, 0), cs.DriveSchedule("replace", ((1.0, 1.0),), 1.0), 1.0)) < 1e-10,
    )
    _check(checks, "odd-moment-zero", abs(big.central_moment(3)) < 1e-12)
    _check(checks, "char-q0", cs.characteristic_value(0.0, 1.3) == 1.0)
    root = sp.bessel_j0_first_zero()
    _check(checks, "char-first-root", abs(cs.characteristic_value(root / math.sqrt(2.0), 1.0)) < 1e-10)
    _check(
        checks,
        "arcsine-center",
        abs(cs.arcsine_density(0.0, 0.0, 1.0) - 1.0 / (math.pi * math.sqrt(2.0))) < 1e-15,
    )
    _check(checks, "arcsine-outside", cs.arcsine_density(1.5, 0.0, 1.0) == 0.0)
    g1_exact = cs.central_moment(sector, sched, math.pi / 2, 1, "exact")
    _check(checks, "variance-moment-identity", abs(g1_exact - sigma**2) < 1e-14)
    return checks


def _selftest_exact() -> list[dict]:
    checks: list[dict] = []
    lat2 = xl.LatticeSpec(2, ((0, 1, 1.0),), 1.0)
    eigs = np.sort(np.linalg.eigvalsh(xl.build_spin_hamiltonian(lat2).matrix))
    _check(
        checks,
        "two-spin-spectrum",
        np.allclose(eigs, [-1.25, -0.25, 0.75, 0.75], atol=1e-12),
    )
    free = xl.LatticeSpec(3, (), 1.0)
    eigs_free = np.sort(np.linalg.eigvalsh(xl.build_spin_hamiltonian(free).matrix))
    _check(
        checks,
        "free-spin-spectrum",
        np.allclose(eigs_free, [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5], atol=1e-12),
    )
    lat = xl.LatticeSpec.chain(5, 0.7, 1.1)
    ham = xl.build_spin_hamiltonian(lat)
    s_sq = xl.spin_squared_operator(5)
    _, _, s_z = xl.total_spin_operators(5)
    _check(checks, "s2-commutes", np.max(np.abs(ham.matrix @ s_sq - s_sq @ ham.matrix)) < 1e-12)
    _check(checks, "sz-commutes", np.max(np.abs(ham.matrix @ s_z - s_z @ ham.matrix)) < 1e-12)
    worst = 0.0
    for m in (-2.5, -0.5, 1.5, 2.5):
        sector = cs.SpinSector(5, 2.5, m)
        for theta in (0.5, 1.7, 3.0):
            sched = cs.DriveSchedule("replace", ((theta, 1.0),), 1.1)
            state = xl.evolve_state(xl.dicke_state(5, m), lat, sched)[-1][1]
            worst = max(
                worst,
                abs(
                    xl.energy_density_sigma(state, ham)
                    - cs.analytic_sigma(sector, sched, theta)
                ),
            )
    _check(checks, "dicke-oracle-agreement", worst < 1e-10, _fmt(worst))
    full = cs.DriveSchedule("replace", ((2 * math.pi, 1.0),), 1.1)
    state = xl.evolve_state(xl.dicke_state(5, 1.5), lat, full)[-1][1]
    back = xl.expectation(state, ham)
    initial = xl.expectation(xl.dicke_state(5, 1.5), ham)
    _check(checks, "two-pi-periodicity", abs(back - initial) < 1e-9, _fmt(abs(back - initial)))
    mags = xl.site_magnetizations(state)
    _check(checks, "site-uniform", float(np.ptp(mags)) < 1e-10)
    return checks


def _selftest_bose() -> list[dict]:
    checks: list[dict] = []
    rng = np.random.default_rng(20240)
    worst = 0.0
    for n in (2, 3, 4, 5):
        bonds = tuple(
            (i, j, float(rng.normal()))
            for i in range(n)
            for j in range(i + 1, n)
        )
        lat = xl.LatticeSpec(n, bonds, float(rng.normal()))
        _, report = xl.bose_dual(lat)
        worst = max(worst, report.spectrum_max_delta)
        _check(checks, f"dual-spectrum-n{n}", report.spectra_match, _fmt(report.spectrum_max_delta))
        _check(checks, f"dual-doping-n{n}", report.doping_matches_transverse)
        _check(checks, f"dual-number-n{n}", report.number_maps_to_magnetization)
    _check(checks, "dual-worst-delta", worst < 1e-10, _fmt(worst))
    return checks


def _magnus_schedule(t: float) -> cs.DriveSchedule:
    # the standard non-commuting two-segment test schedule
    return cs.DriveSchedule("augment", ((t / 3.0, 1.0), (2.0 * t / 3.0, -0.5)), 1.0)


def _selftest_magnus() -> list[dict]:
    checks: list[dict] = []
    lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
    commuting = cs.DriveSchedule("replace", ((0.1, 1.0), (0.2, -0.5)), 1.0)
    _check(checks, "commuting-error", mg.magnus_error(lat, commuting, 0.3) < 1e-12)
    _check(checks, "zero-time-error", mg.magnus_error(lat, commuting, 0.0) == 0.0)
    t = 0.2
    sched = _magnus_schedule(t)
    terms = mg.magnus_terms(lat, sched, t)
    (dt1, h1), (dt2, h2) = mg.segment_hamiltonians(lat, sched)
    reference = -0.5 * dt1 * dt2 * (h2 @ h1 - h1 @ h2)
    _check(checks, "omega2-closed-form", np.max(np.abs(terms.omega2 - reference)) < 1e-12)
    times = np.geomspace(1e-3, 1e-1, 7)
    errors = [mg.magnus_error(lat, _magnus_schedule(tt), tt) for tt in times]
    slope = float(np.polyfit(np.log(times), np.log(errors), 1)[0])
    _check(checks, "error-slope-3", abs(slope - 3.0) < 0.2, _fmt(slope))
    psi = xl.dicke_state(3, 0.5)
    expansion = mg.variance_expansion(psi, lat, _magnus_schedule(0.05), 0.05)
    _check(checks, "eigenstate-first-bracket", abs(expansion.first_bracket) < 1e-12)
    theta = 0.7
    drive = cs.DriveSchedule("replace", ((theta, 1.0),), 1.0)
    state = xl.evolve_state(psi, lat, drive)[-1][1]
    ham = xl.build_spin_hamiltonian(lat)
    transverse = xl.build_transverse_field(3, 1.0)
    rate = mg.variance_rate(state, transverse, ham)
    h = 1e-5

    def sigma_sq(tt: float) -> float:
        out = xl.evolve_state(psi, lat, cs.DriveSchedule("replace", ((tt, 1.0),), 1.0))[-1][1]
        return xl.variance(out, ham) / 9.0

    fd = (sigma_sq(theta + h) - sigma_sq(theta - h)) / (2 * h)
    _check(checks, "rate-finite-difference", abs(rate - fd) <= 1e-6 * abs(fd), _fmt(abs(rate - fd) / abs(fd)))
    _check(checks, "rate-zero-at-start", abs(mg.variance_rate(psi, transverse, ham)) < 1e-12)
    return checks


def _selftest_bounds() -> list[dict]:
    checks: list[dict] = []
    lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
    sched = cs.DriveSchedule("replace", ((math.pi / 2, 1.0),), 1.0)
    state = xl.evolve_state(xl.dicke_state(4, 1), lat, sched)[-1][1]
    reports = bd.uncertainty_check(
        state, xl.build_spin_hamiltonian(lat), xl.build_transverse_field(4, 1.0), 4
    )
    _check(checks, "worked-lhs", abs(reports[1].lhs - 0.625) < 1e-6, _fmt(reports[1].lhs))
    _check(checks, "worked-rhs", abs(reports[1].rhs - 0.125) < 1e-6, _fmt(reports[1].rhs))
    _check(checks, "rhs-equality", abs(reports[0].rhs - reports[1].rhs) < 1e-12)
    _check(checks, "correlator-bound", reports[2].satisfied, _fmt(reports[2].slack))
    rng = np.random.default_rng(77)
    worst_slack = math.inf
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        h_a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h_a = (h_a + h_a.conj().T) / 2
        h_b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h_b = (h_b + h_b.conj().T) / 2
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        n_fake = 1
        while (1 << n_fake) < dim:
            n_fake += 1
        pad = 1 << n_fake
        amp = np.zeros(pad, dtype=complex)
        amp[:dim] = vec
        ha_pad = np.zeros((pad, pad), dtype=complex)
        ha_pad[:dim, :dim] = h_a
        hb_pad = np.zeros((pad, pad), dtype=complex)
        hb_pad[:dim, :dim] = h_b
        psi = xl.QuantumState(amp, n_fake)
        op_a = xl.MatrixOperator(ha_pad, n_fake, ("all",), (ha_pad,))
        op_b = xl.MatrixOperator(hb_pad, n_fake, ("all",), (hb_pad,))
        report = bd.uncertainty_check(psi, op_a, op_b, 4)[0]
        worst_slack = min(worst_slack, report.slack)
    _check(checks, "robertson-fuzz", worst_slack >= -1e-12, _fmt(worst_slack))
    _check(checks, "threshold-unit", bd.equilibrium_rate_threshold(1.0, 1.0, 1.0) == 2.0)
    _check(checks, "threshold-zero-capacity", bd.equilibrium_rate_threshold(3.0, 0.0, 1.0) == 0.0)
    ratio = bd.equilibrium_rate_threshold(2.0, 0.8, 0.3) / bd.equilibrium_rate_threshold(1.0, 0.8, 0.3)
    _check(checks, "threshold-t-squared", abs(ratio - 4.0) < 1e-12)
    return checks


def _selftest_ising() -> list[dict]:
    checks: list[dict] = []
    e2 = ie.DomainWallEnsemble(2, 0)
    _check(checks, "l2-aligned", ie.domain_wall_correlator(e2, 1, "enumeration") == 1.0)
    e31 = ie.DomainWallEnsemble(3, 1)
    _check(checks, "l3-d1", ie.domain_wall_correlator(e31, 1, "enumeration") == 0.0)
    _check(checks, "l3-d2", ie.domain_wall_correlator(e31, 2, "enumeration") == -1.0)
    agree = True
    for length in range(2, 9):
        for walls in range(length):
            ens = ie.DomainWallEnsemble(length, walls)
            for d in range(1, length):
                if ie.correlator_fraction(ens, d, "enumeration") != ie.correlator_fraction(
                    ens, d, "hypergeometric"
                ):
                    agree = False
    _check(checks, "enumeration-hypergeometric", agree)
    point = ie.temperature_energy_maps(40, 1.3, beta=0.45)
    back = ie.temperature_energy_maps(40, 1.3, energy=point.energy)
    _check(checks, "roundtrip", abs(back.beta - 0.45) < 1e-12)
    ens = ie.DomainWallEnsemble(60, 14, coupling=1.3)
    thermal = ie.domain_wall_correlator(
        ens, 3, "thermal", beta=ie.temperature_energy_maps(60, 1.3, energy=ens.energy).beta
    )
    asym = ie.domain_wall_correlator(ens, 3, "asymptotic")
    _check(checks, "thermal-correspondence", abs(thermal - asym) < 1e-12)
    _check(
        checks,
        "dicke-ln2",
        abs(ie.dicke_entanglement(ie.DickeSplit(2, 0, 1)) - math.log(2.0)) < 1e-14,
    )
    _check(
        checks,
        "dicke-n4",
        abs(ie.dicke_entanglement(ie.DickeSplit(4, 0, 2)) - 0.8675632284814612) < 1e-12,
    )
    _check(checks, "mult-n4", [ie.spin_multiplicity(4, s) for s in (2, 1, 0)] == [1, 3, 2])
    _check(checks, "mult-n3", [ie.spin_multiplicity(3, s) for s in (1.5, 0.5)] == [1, 2])
    ok = True
    for n in (2, 5, 12, 20):
        total = sum(
            ie.spin_multiplicity(n, (n % 2) / 2.0 + k) * (2 * ((n % 2) / 2.0 + k) + 1)
            for k in range(0, (n - (n % 2)) // 2 + 1)
        )
        ok = ok and int(round(total)) == 2**n
    _check(checks, "dimension-sum-rule", ok)
    ratio = math.exp(
        ie.spin_multiplicity_log(10000, 200, "gaussian")
        - ie.spin_multiplicity_log(10000, 200, "exact")
    )
    _check(checks, "gaussian-multiplicity", abs(ratio - 1.0) < 0.05, _fmt(ratio))
    return checks


def _selftest_nonequil() -> list[dict]:
    checks: list[dict] = []
    # frozen 30-digit references (arbitrary-precision, generated once)
    erfc_refs = {
        0.5: "0.479500122186953462317253346108",
        2.0: "0.00467773498104726583793074363275",
        4.419417382415922: "4.10452685043787878549521547828e-10",
        10.0: "2.08848758376254475700078629496e-45",
    }
    worst = 0.0
    for x, ref in erfc_refs.items():
        rel = abs(sp.erfc(x) - float(ref)) / float(ref)
        worst = max(worst, rel)
    _check(checks, "erfc-reference", worst < 1e-13, _fmt(worst))
    _check(checks, "viscosity-at-melt", no.viscosity_predict(700.0, 700.0, 0.1, 2.0) == 2.0)
    temps = np.linspace(650.0, 1100.0, 12)
    rows = tuple(
        (float(t), no.viscosity_predict(float(t), 1100.0, 0.085, 1.7)) for t in temps
    )
    fit = no.fit_collapse(
        no.ViscosityDataset((no.ViscosityRecord("synthetic", rows, 1100.0, 1.7),))
    )[0]
    _check(checks, "roundtrip-abar", abs(fit.abar - 0.085) < 1e-6, _fmt(abs(fit.abar - 0.085)))
    _check(
        checks,
        "kernel-delta",
        no.kernel_average(no.DeltaKernel(2.0), lambda q: q * q) == 4.0,
    )
    _check(
        checks,
        "kernel-gauss-linear",
        abs(no.kernel_average(no.GaussianKernel(3.0, 0.5), lambda q: 2 * q + 1) - 7.0) < 1e-10,
    )
    _check(
        checks,
        "kernel-gauss-square",
        abs(no.kernel_average(no.GaussianKernel(0.0, 1.0), lambda q: q * q) - 1.0) < 1e-8,
    )
    weight = no.spectral_weight(1.0, no.GaussianKernel(0.0, 0.4), 0.7, 2.0, -1e9, 1e9)
    _check(checks, "green-sum-rule", abs(weight - 0.7) < 1e-6, _fmt(weight))
    _check(
        checks,
        "planck-delta-identity",
        no.smeared_planck(3.0, no.DeltaKernel(1.2)) == no.planck_radiance(3.0, 1.2),
    )
    narrow = no.smeared_planck(3.0, no.GaussianKernel(1.0, 1e-4))
    _check(
        checks,
        "planck-narrow",
        abs(narrow - no.planck_radiance(3.0, 1.0)) < 1e-6 * no.planck_radiance(3.0, 1.0),
    )
    arc1, gauss1 = no.moment_compare(1, 1.7)
    _check(checks, "moments-g1", abs(arc1 - gauss1) < 1e-15)
    arc2, gauss2 = no.moment_compare(2, 1.0)
    _check(checks, "moments-g2", (arc2, gauss2) == (1.5, 3.0))
    return checks


_SELFTESTS = {
    "spin-sigma": _selftest_collective,
    "spin-dist": _selftest_collective,
    "exact-check": _selftest_exact,
    "bose-dual": _selftest_bose,
    "magnus-check": _selftest_magnus,
    "variance-rate": _selftest_magnus,
    "bounds-check": _selftest_bounds,
    "rate-threshold": _selftest_bounds,
    "ising-corr": _selftest_ising,
    "dicke-entropy": _selftest_ising,
    "multiplicity": _selftest_ising,
    "viscosity-fit": _selftest_nonequil,
    "collapse": _selftest_nonequil,
    "smear-green": _selftest_nonequil,
    "smear-planck": _selftest_nonequil,
    "moment-compare": _selftest_nonequil,
}


def _run_selftest(args: argparse.Namespace, subcommand: str) -> int:
    checks = _SELFTESTS[subcommand]()
    ok = all(c["ok"] for c in checks)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = f"{subcommand}_selftest.json"
    _write_json(outdir / name, {"subcommand": subcommand, "ok": ok, "checks": checks})
    for check in checks:
        status = "ok" if check["ok"] else "FAIL"
        print(f"{status} {check['name']}" + (f" ({check['detail']})" if check["detail"] else ""))
    print(f"wrote {name}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_spin_sigma(args: argparse.Namespace) -> int:
    sector = cs.SpinSector(args.n, args.stot, args.m)
    rows = []
    if args.mode == "replace":
        if not args.theta:
            raise ValueError("replace mode needs --theta values")
        for theta in args.theta:
            sched = cs.DriveSchedule("replace", ((max(abs(theta), 1e-12), 1.0 if theta >= 0 else -1.0),), args.bz)
            t_f = abs(theta)
            rows.append(
                (
                    theta,
                    cs.analytic_sigma(sector, sched, t_f),
                    cs.analytic_energy_mean(sector, sched, t_f, args.e_symm),
                )
            )
        header = ["theta", "sigma", "mean"]
    else:
        if not args.times:
            raise ValueError("augment mode needs --times values")
        horizon = max(args.times)
        sched = cs.DriveSchedule("augment", ((max(horizon, 1e-12), args.by),), args.bz)
        for t_f in args.times:
            rows.append(
                (
                    t_f,
                    cs.analytic_sigma(sector, sched, t_f),
                    cs.analytic_energy_mean(sector, sched, t_f, args.e_symm),
                )
            )
        header = ["t", "sigma", "mean"]
    return _emit(args, "spin-sigma", {"spin_sigma.csv": (header, rows)})


def _cmd_spin_dist(args: argparse.Namespace) -> int:
    sector = cs.SpinSector(args.n, args.stot, args.m)
    dist = cs.eigenweight_distribution(sector, args.theta, b_z=args.bz, e_symm=args.e_symm)
    sched = cs.DriveSchedule("replace", ((max(abs(args.theta), 1e-12), 1.0 if args.theta >= 0 else -1.0),), args.bz)
    t_f = abs(args.theta)
    sigma = cs.analytic_sigma(sector, sched, t_f)
    mean = cs.analytic_energy_mean(sector, sched, t_f, args.e_symm)
    summary = {
        "sigma_analytic": sigma,
        "mean_analytic": mean,
        "sigma_empirical": dist.std(),
        "mean_empirical": dist.mean(),
        "ks_to_arcsine": cs.ks_distance_to_arcsine(dist, mean, sigma) if sigma > 0 else None,
        "distribution": dist.to_json_dict(),
    }
    return _emit(
        args,
        "spin-dist",
        {
            "spin_dist.csv": (["value", "weight"], list(dist.points)),
            "spin_dist.json": summary,
        },
    )


def _cmd_exact_check(args: argparse.Namespace) -> int:
    rows = []
    worst = 0.0
    thetas = np.linspace(0.0, 2.0 * math.pi, args.thetas + 1)[1:]
    for n in range(args.n_min, args.n_max + 1):
        lat = xl.LatticeSpec.chain(n, args.j, args.bz)
        ham = xl.build_spin_hamiltonian(lat, with_decomposition=False)
        s_tot = n / 2.0
        for k in range(n + 1):
            m = -s_tot + k
            sector = cs.SpinSector(n, s_tot, m)
            sched = cs.DriveSchedule(
                "replace", tuple((float(th), 1.0) for th in np.diff(np.concatenate([[0.0], thetas]))), args.bz
            )
            trajectory = xl.evolve_state(xl.dicke_state(n, m), lat, sched)
            for (t, state), theta in zip(trajectory[1:], thetas):
                analytic = cs.analytic_sigma(sector, sched, t)
                oracle = xl.energy_density_sigma(state, ham)
                gap = abs(analytic - oracle)
                worst = max(worst, gap)
                rows.append((n, m, theta, oracle, analytic, gap))
    # a sweep that compared no rows proves nothing, so it cannot pass
    summary = {"max_abs_diff": worst, "tolerance": 1e-10, "ok": bool(rows) and worst < 1e-10}
    status = _emit(
        args,
        "exact-check",
        {
            "exact_check.csv": (["n", "m", "theta", "sigma_oracle", "sigma_analytic", "abs_diff"], rows),
            "exact_check.json": summary,
        },
    )
    return status if summary["ok"] else 1


def _cmd_bose_dual(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    for index in range(args.sets):
        n = int(rng.integers(2, args.n + 1))
        bonds = tuple(
            (i, j, float(rng.normal()))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.8
        )
        lat = xl.LatticeSpec(n, bonds, float(rng.normal()))
        _, report = xl.bose_dual(lat)
        ok = (
            report.spectra_match
            and report.doping_matches_transverse
            and report.number_maps_to_magnetization
        )
        rows.append((index, n, len(bonds), report.spectrum_max_delta, ok))
    all_ok = bool(rows) and all(row[-1] for row in rows)
    status = _emit(
        args,
        "bose-dual",
        {
            "bose_dual.csv": (["set", "n", "bonds", "spectrum_max_delta", "ok"], rows),
            "bose_dual.json": {"all_ok": all_ok, "sets": args.sets},
        },
    )
    return status if all_ok else 1


def _cmd_magnus_check(args: argparse.Namespace) -> int:
    if args.count < 2:
        raise ValueError(f"--count must be at least 2 to fit a slope, got {args.count}")
    lat = xl.LatticeSpec.chain(args.n, args.j, args.bz)
    times = np.geomspace(args.t_min, args.t_max, args.count)
    rows = []
    for t in times:
        rows.append((float(t), mg.magnus_error(lat, _magnus_schedule(float(t)), float(t))))
    slope = float(np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0])
    commuting = cs.DriveSchedule("replace", ((0.1, 1.0), (0.2, -0.5)), args.bz)
    summary = {
        "slope": slope,
        "slope_ok": abs(slope - 3.0) <= 0.2,
        "commuting_error": mg.magnus_error(lat, commuting, 0.3),
    }
    psi = xl.dicke_state(args.n, 0.0 if args.n % 2 == 0 else 0.5)
    series = {}
    for t in (0.02, 0.05, 0.1):
        expansion = mg.variance_expansion(psi, lat, _magnus_schedule(t), t)
        series[_fmt(t)] = {label: value for label, value in expansion.series()}
    status = _emit(
        args,
        "magnus-check",
        {
            "magnus_error.csv": (["t", "error"], rows),
            "magnus_check.json": summary,
            "magnus_variance_series.json": series,
        },
    )
    return status if summary["slope_ok"] else 1


def _cmd_variance_rate(args: argparse.Namespace) -> int:
    lat = xl.LatticeSpec.chain(args.n, args.j, args.bz)
    ham = xl.build_spin_hamiltonian(lat)
    transverse = xl.build_transverse_field(args.n, args.by)
    m = (0.0 if args.n % 2 == 0 else 0.5) if args.m is None else args.m
    psi0 = xl.dicke_state(args.n, m)
    rows = []
    worst = 0.0
    h = 1e-5
    for theta in np.linspace(0.25, 2.75, args.count):

        def sigma_sq(tt: float) -> float:
            state = xl.evolve_state(
                psi0, lat, cs.DriveSchedule("replace", ((tt, args.by),), args.bz)
            )[-1][1]
            return xl.variance(state, ham) / args.n**2

        t_f = float(theta) / args.by
        state = xl.evolve_state(
            psi0, lat, cs.DriveSchedule("replace", ((t_f, args.by),), args.bz)
        )[-1][1]
        rate = mg.variance_rate(state, transverse, ham)
        fd = (sigma_sq(t_f + h) - sigma_sq(t_f - h)) / (2 * h)
        rel = abs(rate - fd) / max(abs(fd), 1e-30)
        worst = max(worst, rel)
        rows.append((t_f, rate, fd, rel))
    summary = {"max_rel_err": worst, "ok": bool(rows) and worst < 1e-6}
    status = _emit(
        args,
        "variance-rate",
        {
            "variance_rate.csv": (["t", "rate", "finite_difference", "rel_err"], rows),
            "variance_rate.json": summary,
        },
    )
    return status if summary["ok"] else 1


def _cmd_bounds_check(args: argparse.Namespace) -> int:
    lat = xl.LatticeSpec.chain(args.n, args.j, args.bz)
    sched = cs.DriveSchedule("replace", ((max(abs(args.theta), 1e-12), args.by),), args.bz)
    state = xl.evolve_state(xl.dicke_state(args.n, args.m), lat, sched)[-1][1]
    reports = bd.uncertainty_check(
        state,
        xl.build_spin_hamiltonian(lat),
        xl.build_transverse_field(args.n, args.by),
        args.n,
    )
    payload = {report.label: report.to_json_dict() for report in reports}
    payload["all_satisfied"] = all(r.satisfied for r in reports[:2])
    return _emit(args, "bounds-check", {"bounds_check.json": payload})


def _cmd_rate_threshold(args: argparse.Namespace) -> int:
    natural = bd.equilibrium_rate_threshold(args.temperature, args.cv_total, args.cv_subsystem)
    payload = {
        "temperature": args.temperature,
        "cv_total": args.cv_total,
        "cv_subsystem": args.cv_subsystem,
        "threshold_natural": natural,
    }
    if args.si:
        # inputs T [K], C_v [J/K]; output in watts: 2 k_B T^2 sqrt(C C) / hbar
        payload["threshold_watts"] = (
            2.0
            * KB_SI
            * args.temperature**2
            * math.sqrt(args.cv_total * args.cv_subsystem)
            / HBAR_SI
        )
    return _emit(args, "rate-threshold", {"rate_threshold.json": payload})


def _cmd_ising_corr(args: argparse.Namespace) -> int:
    ensemble = ie.DomainWallEnsemble(args.length, args.walls, args.j)
    beta = ie.temperature_energy_maps(args.length, args.j, energy=ensemble.energy).beta
    rows = []
    for d in args.distances:
        d = int(d)
        enum_value = (
            ie.domain_wall_correlator(ensemble, d, "enumeration")
            if args.length <= 20
            else ""
        )
        rows.append(
            (
                d,
                enum_value,
                ie.domain_wall_correlator(ensemble, d, "hypergeometric"),
                ie.domain_wall_correlator(ensemble, d, "asymptotic"),
                ie.domain_wall_correlator(ensemble, d, "thermal", beta=beta),
            )
        )
    return _emit(
        args,
        "ising-corr",
        {
            "ising_corr.csv": (
                ["distance", "enumeration", "hypergeometric", "asymptotic", "thermal"],
                rows,
            ),
            "ising_corr.json": {"beta_from_energy": beta, "energy": ensemble.energy},
        },
    )


def _cmd_dicke_entropy(args: argparse.Namespace) -> int:
    rows = []
    for n in args.n:
        n = int(n)
        left = n // 2 if args.la is None else args.la
        split = ie.DickeSplit(n, args.m, left)
        rows.append(
            (
                n,
                left,
                ie.dicke_entanglement(split, "exact"),
                ie.dicke_entanglement(split, "saddle"),
            )
        )
    payload = {}
    if len(rows) >= 3:
        payload["ln_slope"] = float(
            np.polyfit(np.log([r[0] for r in rows]), [r[2] for r in rows], 1)[0]
        )
    return _emit(
        args,
        "dicke-entropy",
        {
            "dicke_entropy.csv": (["n", "l_a", "exact", "saddle"], rows),
            "dicke_entropy.json": payload,
        },
    )


def _cmd_multiplicity(args: argparse.Namespace) -> int:
    n = args.n
    doubled_values = list(range(n % 2, n + 1, 2))
    rows = []
    for doubled in reversed(doubled_values):
        s = doubled / 2.0
        if args.log:
            exact = ie.spin_multiplicity_log(n, s, "exact")
            gaussian = (
                ie.spin_multiplicity_log(n, s, "gaussian") if s > 0 else ""
            )
        else:
            exact = ie.spin_multiplicity(n, s, "exact")
            gaussian = ie.spin_multiplicity(n, s, "gaussian") if s > 0 else ""
        rows.append((s, exact, gaussian))
    return _emit(
        args,
        "multiplicity",
        {"multiplicity.csv": (["s", "exact", "gaussian"], rows)},
    )


def ingest(data_path: str | Path, meta_path: str | Path) -> no.ViscosityDataset:
    """Parse and validate the documented viscosity CSV pair.

    Data header: liquid,T_K,eta_Pa_s.  Metadata header:
    liquid,T_liquidus_K,eta_liquidus_Pa_s.  Malformed rows are reported with
    their line number; liquids missing metadata are a hard error.  Rows above
    the liquidus are retained but flagged (excluded from fits downstream).
    """
    data_path, meta_path = Path(data_path), Path(meta_path)
    meta: dict[str, tuple[float, float]] = {}
    with open(meta_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["liquid", "T_liquidus_K", "eta_liquidus_Pa_s"]:
            raise ValueError(f"{meta_path.name}: unexpected header {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                liquid, t_l, eta_l = row[0], float(row[1]), float(row[2])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{meta_path.name}:{line_no}: malformed row {row}") from exc
            if t_l <= 0 or eta_l <= 0:
                raise ValueError(f"{meta_path.name}:{line_no}: non-positive liquidus values")
            meta[liquid] = (t_l, eta_l)
    rows_by_liquid: dict[str, list[tuple[float, float]]] = {}
    with open(data_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["liquid", "T_K", "eta_Pa_s"]:
            raise ValueError(f"{data_path.name}: unexpected header {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                liquid, temp, eta = row[0], float(row[1]), float(row[2])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{data_path.name}:{line_no}: malformed row {row}") from exc
            if temp <= 0 or eta <= 0:
                raise ValueError(
                    f"{data_path.name}:{line_no}: T and eta must be positive (got {temp}, {eta})"
                )
            rows_by_liquid.setdefault(liquid, []).append((temp, eta))
    missing = sorted(set(rows_by_liquid) - set(meta))
    if missing:
        raise ValueError(f"liquids missing metadata: {', '.join(missing)}")
    records = tuple(
        no.ViscosityRecord(
            liquid_id=liquid,
            rows=tuple(rows),
            t_liquidus=meta[liquid][0],
            eta_liquidus=meta[liquid][1],
        )
        for liquid, rows in sorted(rows_by_liquid.items())
    )
    return no.ViscosityDataset(records=records)


def _fit_artifacts(args: argparse.Namespace) -> tuple[list, dict, list[Path]]:
    dataset = ingest(args.data, args.meta)
    fits = no.fit_collapse(dataset, (args.abar_lo, args.abar_hi))
    payload = {
        fit.liquid_id: dict(
            fit.to_json_dict(),
            flagged_rows=list(
                next(r for r in dataset.records if r.liquid_id == fit.liquid_id).flagged_rows
            ),
        )
        for fit in fits
    }
    return fits, payload, [Path(args.data), Path(args.meta)]


def _cmd_viscosity_fit(args: argparse.Namespace) -> int:
    fits, payload, inputs = _fit_artifacts(args)
    rows = [
        (fit.liquid_id, fit.abar, fit.residual_rms, len(fit.points), fit.at_boundary)
        for fit in fits
    ]
    return _emit(
        args,
        "viscosity-fit",
        {
            "viscosity_fit.json": payload,
            "viscosity_fit.csv": (
                ["liquid", "abar", "residual_rms", "n_points", "at_boundary"],
                rows,
            ),
        },
        input_paths=inputs,
    )


def _cmd_collapse(args: argparse.Namespace) -> int:
    fits, payload, inputs = _fit_artifacts(args)
    rows = [
        (fit.liquid_id, x, y) for fit in fits for x, y in fit.points
    ]
    return _emit(
        args,
        "collapse",
        {
            "collapse.csv": (["liquid", "x", "y"], rows),
            "collapse_fits.json": payload,
        },
        input_paths=inputs,
    )


def _cmd_smear_green(args: argparse.Namespace) -> int:
    kernel = _parse_kernel(args.kernel)
    grid = np.linspace(args.omega_min, args.omega_max, args.count)
    result = no.smeared_green(grid, args.eps_k, kernel, args.z, args.tau)
    rows = [
        (float(w), float(g.real), float(g.imag), float(a))
        for w, g, a in zip(result.omega, result.values, result.spectral)
    ]
    weight = no.spectral_weight(args.eps_k, kernel, args.z, args.tau, -1e9, 1e9)
    summary = {
        "sum_rule_weight": weight,
        "z": args.z,
        "sum_rule_gap": abs(weight - args.z),
    }
    return _emit(
        args,
        "smear-green",
        {
            "smear_green.csv": (["omega", "re_g", "im_g", "spectral"], rows),
            "smear_green.json": summary,
        },
    )


def _cmd_smear_planck(args: argparse.Namespace) -> int:
    kernel = _parse_kernel(args.kernel)
    rows = []
    for nu in args.nu:
        value = no.smeared_planck(nu, kernel, args.ptei_weight, args.ptei_temperature)
        if args.si:
            # interpret nu as Hz and T as K: occupancy at h nu / k_B T, prefactor 2 h nu / c^3
            shifted = no.smeared_planck(
                nu * PLANCK_SI / KB_SI, kernel, args.ptei_weight, args.ptei_temperature
            )
            rows.append((nu, value, shifted * 2.0 * PLANCK_SI * nu / C_SI**3))
        else:
            rows.append((nu, value, ""))
    return _emit(
        args,
        "smear-planck",
        {"smear_planck.csv": (["nu", "radiance_natural", "radiance_si"], rows)},
    )


def _cmd_moment_compare(args: argparse.Namespace) -> int:
    rows = []
    for g in range(1, args.g_max + 1):
        arcsine, gaussian = no.moment_compare(g, args.sigma)
        rows.append((g, arcsine, gaussian, gaussian / arcsine))
    return _emit(
        args,
        "moment-compare",
        {"moment_compare.csv": (["g", "arcsine", "gaussian", "ratio"], rows)},
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--outdir",
        default=os.environ.get("DRIVENFLUCT_OUTDIR", "."),
        help="output directory (default: $DRIVENFLUCT_OUTDIR or '.')",
    )
    sub.add_argument(
        "--selftest",
        action="store_true",
        help="run this subcommand's oracle suite instead of the command",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivenfluct",
        description="Energy-density fluctuations of driven quantum systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p = subparsers.add_parser("spin-sigma", help="closed-form width sweeps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stot", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--bz", type=float, default=1.0)
    p.add_argument("--by", type=float, default=1.0)
    p.add_argument("--mode", choices=["replace", "augment"], default="replace")
    p.add_argument("--theta", type=float, nargs="*", help="rotation angles (replace mode)")
    p.add_argument("--times", type=float, nargs="*", help="drive times (augment mode)")
    p.add_argument("--e-symm", dest="e_symm", type=float, default=0.0)
    p.set_defaults(func=_cmd_spin_sigma)

    p = subparsers.add_parser("spin-dist", help="eigenweight distribution vs arcsine law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stot", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--bz", type=float, default=1.0)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--e-symm", dest="e_symm", type=float, default=0.0)
    p.set_defaults(func=_cmd_spin_dist)

    p = subparsers.add_parser("exact-check", help="analytic vs 2^N oracle suite")
    p.add_argument("--n-min", dest="n_min", type=int, default=2)
    p.add_argument("--n-max", dest="n_max", type=int, default=6)
    p.add_argument("--thetas", type=int, default=10)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--bz", type=float, default=1.0)
    p.set_defaults(func=_cmd_exact_check)

    p = subparsers.add_parser("bose-dual", help="hard-core boson duality check")
    p.add_argument("--n", type=int, default=6, help="max sites")
    p.add_argument("--sets", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_bose_dual)

    p = subparsers.add_parser("magnus-check", help="truncation error scaling")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--bz", type=float, default=1.0)
    p.add_argument("--t-min", dest="t_min", type=float, default=1e-3)
    p.add_argument("--t-max", dest="t_max", type=float, default=1e-1)
    p.add_argument("--count", type=int, default=7)
    p.set_defaults(func=_cmd_magnus_check)

    p = subparsers.add_parser("variance-rate", help="variance rate vs finite differences")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=float, default=None, help="magnetization (default: 0 or 1/2)")
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--bz", type=float, default=1.0)
    p.add_argument("--by", type=float, default=1.0)
    p.add_argument("--count", type=int, default=6)
    p.set_defaults(func=_cmd_variance_rate)

    p = subparsers.add_parser("bounds-check", help="two-Hamiltonian uncertainty reports")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--bz", type=float, default=1.0)
    p.add_argument("--by", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=math.pi / 2)
    p.set_defaults(func=_cmd_bounds_check)

    p = subparsers.add_parser("rate-threshold", help="equilibrium cooling-rate threshold")
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--cv-total", dest="cv_total", type=float, required=True)
    p.add_argument("--cv-subsystem", dest="cv_subsystem", type=float, required=True)
    p.add_argument("--si", action="store_true", help="also emit watts for SI inputs")
    p.set_defaults(func=_cmd_rate_threshold)

    p = subparsers.add_parser("ising-corr", help="domain-wall correlators, four methods")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--walls", type=int, required=True)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--distances", type=int, nargs="+", required=True)
    p.set_defaults(func=_cmd_ising_corr)

    p = subparsers.add_parser("dicke-entropy", help="bipartite Dicke entanglement")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--la", type=int, default=None, help="left block size (default n/2)")
    p.set_defaults(func=_cmd_dicke_entropy)

    p = subparsers.add_parser("multiplicity", help="total-spin sector multiplicities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--log", action="store_true", help="emit natural logs (large N)")
    p.set_defaults(func=_cmd_multiplicity)

    p = subparsers.add_parser("viscosity-fit", help="fit the width parameter per liquid")
    p.add_argument("--data", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--abar-lo", dest="abar_lo", type=float, default=0.001)
    p.add_argument("--abar-hi", dest="abar_hi", type=float, default=1.0)
    p.set_defaults(func=_cmd_viscosity_fit)

    p = subparsers.add_parser("collapse", help="emit collapse coordinates liquid,x,y")
    p.add_argument("--data", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--abar-lo", dest="abar_lo", type=float, default=0.001)
    p.add_argument("--abar-hi", dest="abar_hi", type=float, default=1.0)
    p.set_defaults(func=_cmd_collapse)

    p = subparsers.add_parser("smear-green", help="chemical-potential-smeared Green's function")
    p.add_argument("--omega-min", dest="omega_min", type=float, default=-10.0)
    p.add_argument("--omega-max", dest="omega_max", type=float, default=10.0)
    p.add_argument("--count", type=int, default=201)
    p.add_argument("--eps-k", dest="eps_k", type=float, default=0.0)
    p.add_argument("--z", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=10.0)
    p.add_argument("--kernel", required=True, help=_KERNEL_SYNTAX)
    p.set_defaults(func=_cmd_smear_green)

    p = subparsers.add_parser("smear-planck", help="temperature-smeared thermal radiance")
    p.add_argument("--nu", type=float, nargs="+", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--ptei-weight", dest="ptei_weight", type=float, default=0.0)
    p.add_argument("--ptei-temperature", dest="ptei_temperature", type=float, default=None)
    p.add_argument("--si", action="store_true", help="also emit 2 h nu / c^3 prefactored values for Hz/K inputs")
    p.set_defaults(func=_cmd_smear_planck)

    p = subparsers.add_parser("moment-compare", help="arcsine vs Gaussian moment table")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--g-max", dest="g_max", type=int, default=5)
    p.set_defaults(func=_cmd_moment_compare)

    for sub in subparsers.choices.values():
        _add_common(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "--selftest" in argv:
        # selftest mode ignores the subcommand's regular (possibly required)
        # flags; only the subcommand name and --outdir matter
        subcommand = argv[0] if argv and not argv[0].startswith("-") else None
        if subcommand not in _SELFTESTS:
            print(f"error: --selftest needs a known subcommand, got {subcommand!r}", file=sys.stderr)
            return 2
        mini = argparse.ArgumentParser(prog=f"drivenfluct {subcommand}")
        _add_common(mini)
        args, _ = mini.parse_known_args(argv[1:])
        try:
            return _run_selftest(args, subcommand)
        except (ValueError, ArithmeticError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
