"""Command-line surface: sweeps, oracle cross-checks, dataset fits, emission.

Each subcommand handler computes its artifacts and returns them with its
gate and the paths it ingested; ``main`` emits them once, as plot-ready
CSV/JSON plus one run manifest (flags, package version, sha256 digests of
ingested files, output names), and exits 1 when the gate fails.  Output is
deterministic: identical inputs give byte-identical outputs, with numbers in
full round-trip decimal form.  The oracle comparisons and the ``--selftest``
suites live in ``oracles``; ``--selftest`` runs the subcommand's suite and
exits nonzero on any violation.

Exit codes: 0 success, 1 numerical failure or selftest violation, 2 usage.
Core quantities are in natural units (hbar = k_B = 1); ``--si`` converts at
the boundary where noted (rate-threshold, smear-planck).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
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
from . import oracles

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


def _json_text(payload) -> str:
    """Strict JSON: a NaN or infinity raises ValueError instead of being written."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest_text(
    subcommand: str,
    args: argparse.Namespace,
    input_paths: list[Path],
    output_names: list[str],
) -> str:
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
    return _json_text(manifest)


def _outdir(args: argparse.Namespace) -> Path:
    """The created output directory: --outdir, else $DRIVENFLUCT_OUTDIR as set at this call, else '.'."""
    outdir = Path(os.environ.get("DRIVENFLUCT_OUTDIR", ".") if args.outdir is None else args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _emit(
    args: argparse.Namespace,
    subcommand: str,
    artifacts: dict[str, object],
    input_paths: list[Path],
) -> None:
    """Write artifacts ({filename: (header, rows) | json payload}) + manifest.

    Every JSON payload is serialised before the output directory is made,
    so one that cannot be written as strict JSON leaves no files behind.
    """
    names = sorted(artifacts)
    texts = {name: _json_text(artifacts[name]) for name in names if not name.endswith(".csv")}
    manifest_name = f"{subcommand}_manifest.json"
    manifest = _manifest_text(subcommand, args, input_paths, names)
    outdir = _outdir(args)
    for name in names:
        if name in texts:
            _write_text(outdir / name, texts[name])
        else:
            _write_csv(outdir / name, *artifacts[name])
    _write_text(outdir / manifest_name, manifest)
    for name in names:
        print(f"wrote {name}")
    print(f"wrote {manifest_name}")


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


def _run_selftest(args: argparse.Namespace, subcommand: str) -> int:
    checks = oracles.SUITES[subcommand]()
    ok = all(c["ok"] for c in checks)
    name = f"{subcommand}_selftest.json"
    text = _json_text({"subcommand": subcommand, "ok": ok, "checks": checks})
    _write_text(_outdir(args) / name, text)
    for check in checks:
        status = "ok" if check["ok"] else "FAIL"
        print(f"{status} {check['name']}" + (f" ({check['detail']})" if check["detail"] else ""))
    print(f"wrote {name}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (artifacts, gate, ingested paths)
# ---------------------------------------------------------------------------

Result = tuple[dict[str, object], bool, list[Path]]


def _finite_flag(flag: str, value: float, positive: bool = False) -> None:
    """Refuse a float flag that is not finite (with ``positive``, not positive
    and finite) by its name, before it reaches a grid or a drive duration."""
    if not (0.0 if positive else -math.inf) < value < math.inf:
        raise ValueError(f"{flag} must be {'positive and ' if positive else ''}finite, got {value!r}")


def _sites_flag(flag: str, value: int, minimum: int = 1) -> None:
    """Refuse a site-count flag outside [minimum, xl.MAX_SITES] by its name,
    before any lattice is built."""
    if not minimum <= value <= xl.MAX_SITES:
        raise ValueError(f"{flag} must be between {minimum} and {xl.MAX_SITES} sites, got {value}")


def _rotation(theta: float, b_z: float) -> cs.DriveSchedule:
    """Replace-mode drive whose unit field turns the spins by theta, either sign."""
    return cs.DriveSchedule("replace", ((max(abs(theta), 1e-12), 1.0 if theta >= 0 else -1.0),), b_z)


def _cmd_spin_sigma(args: argparse.Namespace) -> Result:
    sector = cs.SpinSector(args.n, args.stot, args.m)
    # (abscissa, schedule, t_f) per row
    if args.mode == "replace":
        if not args.theta:
            raise ValueError("replace mode needs --theta values")
        header = ["theta", "sigma", "mean"]
        runs = ((theta, _rotation(theta, args.bz), abs(theta)) for theta in args.theta)
    else:
        if not args.times:
            raise ValueError("augment mode needs --times values")
        for t_f in args.times:
            _finite_flag("--times", t_f)
        header = ["t", "sigma", "mean"]
        sched = cs.DriveSchedule("augment", ((max(max(args.times), 1e-12), args.by),), args.bz)
        runs = ((t_f, sched, t_f) for t_f in args.times)
    rows = [
        (x, cs.analytic_sigma(sector, sched, t_f), cs.analytic_energy_mean(sector, sched, t_f, args.e_symm))
        for x, sched, t_f in runs
    ]
    return {"spin_sigma.csv": (header, rows)}, True, []


def _cmd_spin_dist(args: argparse.Namespace) -> Result:
    sector = cs.SpinSector(args.n, args.stot, args.m)
    dist = cs.eigenweight_distribution(sector, args.theta, b_z=args.bz, e_symm=args.e_symm)
    sched = _rotation(args.theta, args.bz)
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
    artifacts = {
        "spin_dist.csv": (["value", "weight"], list(dist.points)),
        "spin_dist.json": summary,
    }
    return artifacts, True, []


def _cmd_exact_check(args: argparse.Namespace) -> Result:
    _sites_flag("--n-min", args.n_min)
    _sites_flag("--n-max", args.n_max)
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min must not exceed --n-max, got {args.n_min} > {args.n_max}")
    thetas = np.linspace(0.0, 2.0 * math.pi, args.thetas + 1)[1:]
    sched = cs.DriveSchedule(
        "replace", tuple((float(th), 1.0) for th in np.diff(np.concatenate([[0.0], thetas]))), args.bz
    )
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        sweep = oracles.sigma_sweep(xl.LatticeSpec.chain(n, args.j, args.bz), sched)
        # each sector contributes one row per angle, in angle order
        for (m, _, oracle, analytic), theta in zip(sweep, itertools.cycle(thetas)):
            rows.append((n, m, theta, oracle, analytic, abs(analytic - oracle)))
    worst = max((row[-1] for row in rows), default=0.0)
    # a sweep that compared no rows proves nothing, so it cannot pass
    summary = {"max_abs_diff": worst, "tolerance": 1e-10, "ok": bool(rows) and worst < 1e-10}
    artifacts = {
        "exact_check.csv": (["n", "m", "theta", "sigma_oracle", "sigma_analytic", "abs_diff"], rows),
        "exact_check.json": summary,
    }
    return artifacts, summary["ok"], []


def _cmd_bose_dual(args: argparse.Namespace) -> Result:
    _sites_flag("--n", args.n, minimum=2)  # the draw below needs two sites
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
        report = xl.bose_dual(lat)
        ok = (
            report.spectra_match
            and report.doping_matches_transverse
            and report.number_maps_to_magnetization
        )
        rows.append((index, n, len(bonds), report.spectrum_max_delta, ok))
    all_ok = bool(rows) and all(row[-1] for row in rows)
    artifacts = {
        "bose_dual.csv": (["set", "n", "bonds", "spectrum_max_delta", "ok"], rows),
        "bose_dual.json": {"all_ok": all_ok, "sets": args.sets},
    }
    return artifacts, all_ok, []


def _cmd_magnus_check(args: argparse.Namespace) -> Result:
    if args.count < 2:
        raise ValueError(f"--count must be at least 2 to fit a slope, got {args.count}")
    # checked before the time grid is built: np.geomspace warns on an
    # infinite end and refuses a zero one
    _finite_flag("--t-min", args.t_min, positive=True)
    _finite_flag("--t-max", args.t_max, positive=True)
    _sites_flag("--n", args.n)
    if args.bz == 0.0:
        raise ValueError("--bz must be nonzero: with no longitudinal field every segment commutes, so there is no truncation error to fit")
    lat = xl.LatticeSpec.chain(args.n, args.j, args.bz)
    times = [float(t) for t in np.geomspace(args.t_min, args.t_max, args.count)]
    errors, slope = oracles.magnus_slope(lat, times)
    commuting = cs.DriveSchedule("replace", ((0.1, 1.0), (0.2, -0.5)), args.bz)
    summary = {
        "slope": slope,
        "slope_ok": abs(slope - 3.0) <= 0.2,
        "commuting_error": mg.magnus_error(lat, commuting, 0.3),
    }
    psi = xl.dicke_state(args.n, 0.0 if args.n % 2 == 0 else 0.5)
    series = {}
    for t in (0.02, 0.05, 0.1):
        expansion = mg.variance_expansion(psi, lat, oracles.magnus_schedule(t), t)
        series[_fmt(t)] = {label: value for label, value in expansion.series()}
    artifacts = {
        "magnus_error.csv": (["t", "error"], list(zip(times, errors))),
        "magnus_check.json": summary,
        "magnus_variance_series.json": series,
    }
    return artifacts, summary["slope_ok"], []


def _cmd_variance_rate(args: argparse.Namespace) -> Result:
    _finite_flag("--by", args.by, positive=True)  # it divides every angle into a duration
    _sites_flag("--n", args.n)
    lat = xl.LatticeSpec.chain(args.n, args.j, args.bz)
    m = (0.0 if args.n % 2 == 0 else 0.5) if args.m is None else args.m
    times = [float(theta) / args.by for theta in np.linspace(0.25, 2.75, args.count)]
    rows = [
        (t_f, rate, fd, abs(rate - fd) / max(abs(fd), 1e-30))
        for t_f, rate, fd in oracles.rate_against_finite_difference(
            xl.dicke_state(args.n, m), lat, args.by, times
        )
    ]
    worst = max((row[-1] for row in rows), default=0.0)
    summary = {"max_rel_err": worst, "ok": bool(rows) and worst < 1e-6}
    artifacts = {
        "variance_rate.csv": (["t", "rate", "finite_difference", "rel_err"], rows),
        "variance_rate.json": summary,
    }
    return artifacts, summary["ok"], []


def _cmd_bounds_check(args: argparse.Namespace) -> Result:
    _finite_flag("--theta", args.theta)
    _sites_flag("--n", args.n)
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
    return {"bounds_check.json": payload}, True, []


def _cmd_rate_threshold(args: argparse.Namespace) -> Result:
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
    return {"rate_threshold.json": payload}, True, []


def _cmd_ising_corr(args: argparse.Namespace) -> Result:
    ensemble = ie.DomainWallEnsemble(args.length, args.walls, args.j)
    beta = ie.temperature_energy_maps(args.length, args.j, energy=ensemble.energy).beta
    rows = []
    for d in args.distances:
        d = int(d)
        enum_value = (
            ie.domain_wall_correlator(ensemble, d, "enumeration")
            if args.length <= ie.ENUMERATION_MAX_LENGTH
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
    artifacts = {
        "ising_corr.csv": (
            ["distance", "enumeration", "hypergeometric", "asymptotic", "thermal"],
            rows,
        ),
        "ising_corr.json": {"beta_from_energy": beta, "energy": ensemble.energy},
    }
    return artifacts, True, []


def _cmd_dicke_entropy(args: argparse.Namespace) -> Result:
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
    artifacts = {
        "dicke_entropy.csv": (["n", "l_a", "exact", "saddle"], rows),
        "dicke_entropy.json": payload,
    }
    return artifacts, True, []


def _cmd_multiplicity(args: argparse.Namespace) -> Result:
    n = args.n
    counts = ie.spin_multiplicities(n)  # every sector from one sweep, 2S = N mod 2 + 2k at k
    rows = []
    for doubled in range(n, -1, -2):
        s = doubled / 2.0
        exact = counts[doubled // 2]
        if args.log:
            exact = math.log(exact)
            gaussian = ie.spin_multiplicity_log(n, s, "gaussian") if s > 0 else ""
        else:
            gaussian = ie.spin_multiplicity(n, s, "gaussian") if s > 0 else ""
        rows.append((s, exact, gaussian))
    return {"multiplicity.csv": (["s", "exact", "gaussian"], rows)}, True, []


def _read_viscosity_rows(path: Path, header: list[str]) -> list[tuple[int, str, float, float]]:
    """(line, liquid, value, value) rows of one viscosity CSV, blank rows skipped; a row of other
    than three fields, or a value that does not parse or is not positive and finite, fails at file:line."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found != header:
            raise ValueError(f"{path.name}: unexpected header {found}")
        for row in reader:
            if not row:
                continue
            where = f"{path.name}:{reader.line_num}"
            try:
                liquid, first, second = row[0], *map(float, row[1:])
            except ValueError as exc:
                raise ValueError(f"{where}: malformed row {row}") from exc
            # the chained form fails nan as well as non-positive and infinite values
            if not (0.0 < first < math.inf and 0.0 < second < math.inf):
                raise ValueError(f"{where}: {header[1]} and {header[2]} must be positive and finite (got {first}, {second})")
            rows.append((reader.line_num, liquid, first, second))
    return rows


def ingest(data_path: str | Path, meta_path: str | Path) -> no.ViscosityDataset:
    """Parse and validate the documented viscosity CSV pair.

    Data header: liquid,T_K,eta_Pa_s.  Metadata header:
    liquid,T_liquidus_K,eta_liquidus_Pa_s.  A malformed, non-positive or
    non-finite value in either is reported with its file:line; liquids missing
    metadata, or listed twice in it, are a hard error.  Rows above the liquidus
    are retained but flagged (excluded from fits downstream).
    """
    data_path, meta_path = Path(data_path), Path(meta_path)
    meta: dict[str, tuple[int, float, float]] = {}
    for line, liquid, t_l, eta_l in _read_viscosity_rows(meta_path, ["liquid", "T_liquidus_K", "eta_liquidus_Pa_s"]):
        if liquid in meta:
            raise ValueError(f"{meta_path.name}:{line}: liquid {liquid!r} repeats its metadata row at line {meta[liquid][0]}")
        meta[liquid] = (line, t_l, eta_l)
    rows_by_liquid: dict[str, list[tuple[float, float]]] = {}
    for _, liquid, temp, eta in _read_viscosity_rows(data_path, ["liquid", "T_K", "eta_Pa_s"]):
        rows_by_liquid.setdefault(liquid, []).append((temp, eta))
    missing = sorted(set(rows_by_liquid) - set(meta))
    if missing:
        raise ValueError(f"liquids missing metadata: {', '.join(missing)}")
    records = tuple(
        no.ViscosityRecord(
            liquid_id=liquid,
            rows=tuple(rows),
            t_liquidus=meta[liquid][1],
            eta_liquidus=meta[liquid][2],
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


def _cmd_viscosity_fit(args: argparse.Namespace) -> Result:
    fits, payload, inputs = _fit_artifacts(args)
    rows = [
        (fit.liquid_id, fit.abar, fit.residual_rms, len(fit.points), fit.at_boundary)
        for fit in fits
    ]
    artifacts = {
        "viscosity_fit.json": payload,
        "viscosity_fit.csv": (
            ["liquid", "abar", "residual_rms", "n_points", "at_boundary"],
            rows,
        ),
    }
    return artifacts, True, inputs


def _cmd_collapse(args: argparse.Namespace) -> Result:
    fits, payload, inputs = _fit_artifacts(args)
    rows = [
        (fit.liquid_id, x, y) for fit in fits for x, y in fit.points
    ]
    artifacts = {
        "collapse.csv": (["liquid", "x", "y"], rows),
        "collapse_fits.json": payload,
    }
    return artifacts, True, inputs


def _cmd_smear_green(args: argparse.Namespace) -> Result:
    kernel = _parse_kernel(args.kernel)
    # checked before the grid is built: np.linspace warns on an infinite end
    _finite_flag("--omega-min", args.omega_min)
    _finite_flag("--omega-max", args.omega_max)
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
    artifacts = {
        "smear_green.csv": (["omega", "re_g", "im_g", "spectral"], rows),
        "smear_green.json": summary,
    }
    return artifacts, True, []


def _cmd_smear_planck(args: argparse.Namespace) -> Result:
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
    return {"smear_planck.csv": (["nu", "radiance_natural", "radiance_si"], rows)}, True, []


def _cmd_moment_compare(args: argparse.Namespace) -> Result:
    rows = []
    for g in range(1, args.g_max + 1):
        arcsine, gaussian = no.moment_compare(g, args.sigma)
        # a subnormal arcsine moment keeps too few bits to divide by
        if arcsine < sys.float_info.min:
            raise ArithmeticError(
                f"g = {g}: the arcsine moment underflows a float at --sigma {args.sigma!r};"
                " raise --sigma or lower --g-max"
            )
        ratio = gaussian / arcsine
        if ratio == math.inf:
            raise ArithmeticError(f"g = {g}: the moment ratio g! overflows a float; lower --g-max")
        rows.append((g, arcsine, gaussian, ratio))
    return {"moment_compare.csv": (["g", "arcsine", "gaussian", "ratio"], rows)}, True, []


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _count(text: str, minimum: int = 0) -> int:
    """argparse type of the count flags: an integer of at least ``minimum``."""
    try:
        value = int(text)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        kind = "non-negative" if minimum == 0 else "positive"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


def _positive_count(text: str) -> int:
    """argparse type of the count flags that have no zero-row case."""
    return _count(text, minimum=1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--outdir",
        default=None,
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
    p.add_argument("--thetas", type=_positive_count, default=10)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--bz", type=float, default=1.0)
    p.set_defaults(func=_cmd_exact_check)

    p = subparsers.add_parser("bose-dual", help="hard-core boson duality check")
    p.add_argument("--n", type=int, default=6, help="max sites")
    p.add_argument("--sets", type=_count, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_bose_dual)

    p = subparsers.add_parser("magnus-check", help="truncation error scaling")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--bz", type=float, default=1.0)
    p.add_argument("--t-min", dest="t_min", type=float, default=1e-3)
    p.add_argument("--t-max", dest="t_max", type=float, default=1e-1)
    p.add_argument("--count", type=_count, default=7)
    p.set_defaults(func=_cmd_magnus_check)

    p = subparsers.add_parser("variance-rate", help="variance rate vs finite differences")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=float, default=None, help="magnetization (default: 0 or 1/2)")
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--bz", type=float, default=1.0)
    p.add_argument("--by", type=float, default=1.0)
    p.add_argument("--count", type=_count, default=6)
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
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--log", action="store_true", help="emit natural logs (large N)")
    p.set_defaults(func=_cmd_multiplicity)

    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--data", required=True)
    fit.add_argument("--meta", required=True)
    fit.add_argument("--abar-lo", dest="abar_lo", type=float, default=0.001)
    fit.add_argument("--abar-hi", dest="abar_hi", type=float, default=1.0)

    p = subparsers.add_parser("viscosity-fit", parents=[fit], help="fit the width parameter per liquid")
    p.set_defaults(func=_cmd_viscosity_fit)

    p = subparsers.add_parser("collapse", parents=[fit], help="emit collapse coordinates liquid,x,y")
    p.set_defaults(func=_cmd_collapse)

    p = subparsers.add_parser("smear-green", help="chemical-potential-smeared Green's function")
    p.add_argument("--omega-min", dest="omega_min", type=float, default=-10.0)
    p.add_argument("--omega-max", dest="omega_max", type=float, default=10.0)
    p.add_argument("--count", type=_positive_count, default=201)
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
    p.add_argument("--g-max", dest="g_max", type=_count, default=5)
    p.set_defaults(func=_cmd_moment_compare)

    for sub in subparsers.choices.values():
        _add_common(sub)
    return parser


# Each parser is built on first use and kept for the process (the full tree
# costs milliseconds); none is built at import.
@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    return build_parser()


@functools.cache
def _selftest_parser(subcommand: str) -> argparse.ArgumentParser:
    mini = argparse.ArgumentParser(prog=f"drivenfluct {subcommand}")
    _add_common(mini)
    return mini


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "--selftest" in argv:
        # selftest mode ignores the subcommand's regular (possibly required)
        # flags; only the subcommand name and --outdir matter
        subcommand = argv[0] if argv and not argv[0].startswith("-") else None
        if subcommand not in oracles.SUITES:
            print(f"error: --selftest needs a known subcommand, got {subcommand!r}", file=sys.stderr)
            return 2
        args, _ = _selftest_parser(subcommand).parse_known_args(argv[1:])
        try:
            return _run_selftest(args, subcommand)
        except (ValueError, ArithmeticError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    args = _main_parser().parse_args(argv)
    try:
        artifacts, ok, input_paths = args.func(args)
        _emit(args, args.subcommand, artifacts, input_paths)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
