"""The seeded workloads: inputs, timed jobs and independent checks.

A workload is prepared as a list of rounds.  Each round draws all of its
inputs from ``numpy.random.default_rng([seed, round])`` when it is prepared,
so the same seed gives the same inputs, and the library only ever receives
those generated numbers and files.  Running a round yields its jobs one by
one: ``job.run()`` is the timed call into the library, ``job.check(value,
stats)`` the untimed comparison against an independent route, returning the
number of rows it compared.  A check that compared nothing counts as failed.

Every round of a workload does the same amount of work on fresh inputs, so
rounds can be repeated until the measuring time is used up; fresh couplings
per round keep the first segment of every lattice a cold cache miss.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np
from scipy import special as ss
from scipy.linalg import expm

from drivenfluct import bounds as bd
from drivenfluct import cli
from drivenfluct import collective_spin as cs
from drivenfluct import exact_lattice as xl
from drivenfluct import magnus as mg

# Library defects known at the baseline (perfbench/README.md describes each):
# id -> (CLI call that hits it, text of the failure it gives while it stands).
# Every run probes each once, after the timed rounds and outside the counted
# jobs, so that ``failed`` counts only regressions and the defect still shows.
KNOWN_DEFECTS = {
    "dicke-entropy-underflow": (["dicke-entropy", "--n", "1200"], "math domain error"),
}


class CheckFailed(Exception):
    """A job's result disagrees with its independent reference."""


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, Counter], int]
    n_sites: int | None = None


@dataclass
class Round:
    planned: int
    jobs: Callable[[], Iterator[Job]]


def _close(what: str, got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> int:
    # written so that NaN never passes
    if not abs(got - want) <= atol + rtol * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (rtol {rtol}, atol {atol})")
    return 1


def _require(what: str, ok: bool) -> int:
    if not ok:
        raise CheckFailed(what)
    return 1


# ---------------------------------------------------------------------------
# independent references: Kronecker-product operators and closed forms
# ---------------------------------------------------------------------------

# single-site spin-1/2 matrices in the library's basis order (index 0 = down)
_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_SY = np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex)
_SZ = np.diag([-0.5, 0.5]).astype(complex)


def _site_operator(n_sites: int, site: int, single: np.ndarray) -> np.ndarray:
    # site 0 is the least significant bit of the basis index: rightmost factor
    factors = [single if k == site else np.eye(2) for k in reversed(range(n_sites))]
    return reduce(np.kron, factors)


def _kron_chain(n_sites: int, j: float, b_z: float) -> np.ndarray:
    ops = [[_site_operator(n_sites, s, m) for m in (_SX, _SY, _SZ)] for s in range(n_sites)]
    h = -b_z * sum(ops[s][2] for s in range(n_sites))
    for s in range(n_sites - 1):
        h = h - j * sum(ops[s][a] @ ops[s + 1][a] for a in range(3))
    return h


def _kron_transverse(n_sites: int, b_y: float) -> np.ndarray:
    return -b_y * sum(_site_operator(n_sites, s, _SY) for s in range(n_sites))


def _dicke_vector(n_sites: int, m: float) -> np.ndarray:
    n_up = int(round(m + n_sites / 2))
    hits = np.array([bin(k).count("1") == n_up for k in range(1 << n_sites)])
    return hits / math.sqrt(hits.sum())


def _chain_frobenius_sq(n_sites: int, j: float, b_z: float) -> float:
    # tr(H^2) for -J sum S_i.S_i+1 - B_z sum S_z: the bond and field terms are
    # trace-orthogonal, tr((S.S)^2) = 3/16 and tr(S_z^2) = 1/4 per basis state
    return 2.0**n_sites * ((n_sites - 1) * j * j * 3.0 / 16.0 + n_sites * b_z * b_z / 4.0)


def _sigma_prefactor(n_sites: int, s_tot: float, m: float, b_z: float) -> float:
    # replace-mode width B_z S sqrt(1 + 1/S - (m/S)^2) / (N sqrt 2), before |sin theta|
    return abs(b_z) * s_tot * math.sqrt(1.0 + 1.0 / s_tot - (m / s_tot) ** 2) / (
        n_sites * math.sqrt(2.0)
    )


def _check_operator_norms(name: str, op, want_frob_sq: float) -> int:
    mat = op.matrix
    rows = _close(f"{name} |H|_F^2", float(np.vdot(mat, mat).real), want_frob_sq, rtol=1e-12)
    rows += _close(f"{name} trace", float(np.trace(mat).real), 0.0, atol=1e-9 * want_frob_sq)
    return rows


def _sectors(n_sites: int) -> list[float]:
    return [-n_sites / 2.0 + k for k in range(n_sites + 1)]


# ---------------------------------------------------------------------------
# oracle-sweep
# ---------------------------------------------------------------------------

ORACLE_SITES = range(4, 11)
ORACLE_ANGLES = 20


def _oracle_sweep(rng: np.random.Generator) -> Round:
    params = []
    for n in ORACLE_SITES:
        params.append(
            dict(
                n=n,
                j=float(rng.uniform(0.5, 1.5)),
                b_z=float(rng.uniform(0.5, 1.5)),
                steps=tuple(float(x) for x in rng.uniform(0.1, 0.6, ORACLE_ANGLES)),
                probe_m=float(rng.choice(_sectors(n))),
            )
        )
    planned = sum(p["n"] + 5 for p in params)

    def jobs() -> Iterator[Job]:
        for p in params:
            yield from _oracle_jobs(**p)

    return Round(planned, jobs)


def _oracle_jobs(n: int, j: float, b_z: float, steps: tuple, probe_m: float) -> Iterator[Job]:
    lattice = xl.LatticeSpec.chain(n, j, b_z)
    schedule = cs.DriveSchedule("replace", tuple((d, 1.0) for d in steps), b_z)
    times = schedule.boundary_times()[1:]
    s_tot = n / 2.0
    ops: dict = {}

    def build():
        ops["h"] = xl.build_spin_hamiltonian(lattice)
        ops["t"] = xl.build_transverse_field(n, 1.0)

    def check_build(_, stats):
        rows = _check_operator_norms("H", ops["h"], _chain_frobenius_sq(n, j, b_z))
        return rows + _check_operator_norms("B_y", ops["t"], 2.0**n * n / 4.0)

    yield Job("build", build, check_build, n)

    for m in _sectors(n):
        sector = cs.SpinSector(n, s_tot, m)

        def sector_run(m=m):
            trajectory = xl.evolve_state(xl.dicke_state(n, m), lattice, schedule)
            if m == probe_m:
                ops["state"] = trajectory[-1][1]
            return [xl.energy_density_sigma(state, ops["h"]) for _, state in trajectory[1:]]

        def sector_check(sigmas, stats, sector=sector):
            rows = _require("one sigma per segment boundary", len(sigmas) == len(times))
            for t, sigma in zip(times, sigmas):
                rows += _close(
                    f"sigma n={n} m={sector.m} t={t}",
                    sigma,
                    cs.analytic_sigma(sector, schedule, t),
                    atol=1e-10,
                )
            return rows

        yield Job("sector", sector_run, sector_check, n)

    theta = schedule.total_duration
    sigma_probe = _sigma_prefactor(n, s_tot, probe_m, b_z) * abs(math.sin(theta))

    def correlators():
        return xl.connected_pair_correlators(ops["state"], ops["h"])

    def check_correlators(report, stats):
        rows = _require("N x N correlator matrix", report.g_matrix.shape == (n, n))
        return rows + _close("sigma^2 from correlators", report.sigma_sq, sigma_probe**2, atol=1e-10)

    yield Job("correlators", correlators, check_correlators, n)

    def uncertainty():
        return bd.uncertainty_check(ops["state"], ops["h"], ops["t"], n)

    def check_uncertainty(reports, stats):
        # sigma(B_y S_y) is rotation invariant about y: (S(S+1) - m^2)/2; the
        # commutator mean is B_z <S_x> = B_z m sin(theta)
        sigma_total = math.sqrt((s_tot * (s_tot + 1.0) - probe_m**2) / 2.0)
        rhs = 0.5 * abs(b_z * probe_m * math.sin(theta)) / n
        rows = _close("robertson lhs", reports[0].lhs, sigma_probe * sigma_total, rtol=1e-9, atol=1e-12)
        rows += _close("robertson rhs", reports[0].rhs, rhs, rtol=1e-9, atol=1e-12)
        rows += _close("energy-rate rhs", reports[1].rhs, rhs, rtol=1e-9, atol=1e-12)
        rows += _require("robertson satisfied", reports[0].satisfied and reports[1].satisfied)
        return rows

    yield Job("uncertainty", uncertainty, check_uncertainty, n)

    def variance_rate():
        return mg.variance_rate(ops["state"], ops["t"], ops["h"])

    def check_rate(value, stats):
        h_step = 1e-5
        start = xl.dicke_state(n, probe_m)

        def sigma_sq(t: float) -> float:
            one_segment = cs.DriveSchedule("replace", ((t, 1.0),), b_z)
            state = xl.evolve_state(start, lattice, one_segment)[-1][1]
            return xl.variance(state, ops["h"]) / n**2

        finite_difference = (sigma_sq(theta + h_step) - sigma_sq(theta - h_step)) / (2 * h_step)
        closed_form = _sigma_prefactor(n, s_tot, probe_m, b_z) ** 2 * math.sin(2.0 * theta)
        rows = _close("rate vs closed form", value, closed_form, atol=1e-10)
        rows += _close("rate vs finite difference", value, finite_difference, rtol=1e-6, atol=1e-9)
        return rows

    yield Job("variance_rate", variance_rate, check_rate, n)


# ---------------------------------------------------------------------------
# driven-multisegment
# ---------------------------------------------------------------------------

DRIVEN_SITES = (6, 7, 8)
DRIVEN_SCHEDULES = 3  # replace-mode schedules per N
DRIVEN_SEGMENTS = 12  # distinct b_y per schedule: more than the 8-entry segment cache
AUGMENT_SITES = (7, 8)
AUGMENT_JOBS = 6  # single-segment augment runs per N
PROPAGATOR_SITES = (7, 8)
PROPAGATOR_JOBS = 3
MAGNUS_SITES = (3, 4, 5)
MAGNUS_TIMES = tuple(float(t) for t in np.geomspace(1e-3, 1e-1, 7))
EXPANSION_TIMES = (0.02, 0.05, 0.1)


def _signed_fields(rng: np.random.Generator, count: int) -> tuple[float, ...]:
    return tuple(float(x) for x in rng.choice([-1.0, 1.0], count) * rng.uniform(0.3, 1.5, count))


def _driven_multisegment(rng: np.random.Generator) -> Round:
    lattices = {
        n: (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5)))
        for n in DRIVEN_SITES + MAGNUS_SITES
    }
    replace = [
        (n, float(rng.choice(_sectors(n))), tuple(float(d) for d in rng.uniform(0.05, 0.4, DRIVEN_SEGMENTS)), _signed_fields(rng, DRIVEN_SEGMENTS))
        for n in DRIVEN_SITES
        for _ in range(DRIVEN_SCHEDULES)
    ]
    augment = [
        (n, float(rng.choice(_sectors(n))), float(rng.uniform(0.3, 3.0)), _signed_fields(rng, 1)[0])
        for n in AUGMENT_SITES
        for _ in range(AUGMENT_JOBS)
    ]
    propagate = [
        (n, float(rng.choice(_sectors(n))), tuple(float(d) for d in rng.uniform(0.1, 0.5, 4)), _signed_fields(rng, 4), float(rng.uniform(0.2, 0.8)))
        for n in PROPAGATOR_SITES
        for _ in range(PROPAGATOR_JOBS)
    ]
    magnus = [
        (n, float(rng.uniform(0.5, 1.5)), -float(rng.uniform(0.2, 1.0)), float(rng.choice(_sectors(n))))
        for n in MAGNUS_SITES
    ]
    planned = (
        len(DRIVEN_SITES)
        + len(replace)
        + len(augment)
        + len(propagate)
        + 2 * len(magnus)
    )

    def jobs() -> Iterator[Job]:
        for n in DRIVEN_SITES:
            j, b_z = lattices[n]
            lattice = xl.LatticeSpec.chain(n, j, b_z)
            ham: dict = {}
            yield _build_job(lattice, ham)
            for n_rep, m, durations, fields in replace:
                if n_rep == n:
                    yield _replace_job(lattice, ham, m, tuple(zip(durations, fields)))
            for n_aug, m, duration, b_y in augment:
                if n_aug == n:
                    yield _augment_job(lattice, ham, m, duration, b_y)
        for n, m, durations, fields, fraction in propagate:
            j, b_z = lattices[n]
            yield _propagator_job(xl.LatticeSpec.chain(n, j, b_z), m, tuple(zip(durations, fields)), fraction)
        for n, b_first, b_second, m in magnus:
            j, b_z = lattices[n]
            yield from _magnus_jobs(n, j, b_z, b_first, b_second, m)

    return Round(planned, jobs)


def _build_job(lattice, ham: dict) -> Job:
    n = lattice.n_sites
    j = lattice.couplings[0][2]

    def build():
        ham["h"] = xl.build_spin_hamiltonian(lattice, with_decomposition=False)

    def check(_, stats):
        return _check_operator_norms("H", ham["h"], _chain_frobenius_sq(n, j, lattice.b_z))

    return Job("build", build, check, n)


def _replace_job(lattice, ham: dict, m: float, segments: tuple) -> Job:
    n = lattice.n_sites
    schedule = cs.DriveSchedule("replace", segments, lattice.b_z)
    sector = cs.SpinSector(n, n / 2.0, m)
    times = schedule.boundary_times()[1:]

    def run():
        trajectory = xl.evolve_state(xl.dicke_state(n, m), lattice, schedule)
        return [xl.energy_density_sigma(state, ham["h"]) for _, state in trajectory[1:]]

    def check(sigmas, stats):
        # every segment rotates about y, so the closed form is exact for the
        # accumulated angle whatever the segment fields are
        rows = _require("one sigma per segment boundary", len(sigmas) == len(times))
        for t, sigma in zip(times, sigmas):
            rows += _close(f"replace sigma n={n} t={t}", sigma, cs.analytic_sigma(sector, schedule, t), atol=1e-10)
        return rows

    return Job("replace", run, check, n)


def _augment_job(lattice, ham: dict, m: float, duration: float, b_y: float) -> Job:
    n = lattice.n_sites
    schedule = cs.DriveSchedule("augment", ((duration, b_y),), lattice.b_z)
    sector = cs.SpinSector(n, n / 2.0, m)

    def run():
        state = xl.evolve_state(xl.dicke_state(n, m), lattice, schedule)[-1][1]
        return xl.energy_density_sigma(state, ham["h"])

    def check(sigma, stats):
        return _close(f"augment sigma n={n}", sigma, cs.analytic_sigma(sector, schedule, duration), atol=1e-10)

    return Job("augment", run, check, n)


def _propagator_job(lattice, m: float, segments: tuple, fraction: float) -> Job:
    n = lattice.n_sites
    schedule = cs.DriveSchedule("replace", segments, lattice.b_z)
    t_final = schedule.total_duration - fraction * segments[-1][0]
    truncated = cs.DriveSchedule(
        "replace", segments[:-1] + ((segments[-1][0] * (1.0 - fraction), segments[-1][1]),), lattice.b_z
    )

    def run():
        unitary = xl.propagator(lattice, schedule, t_final)
        return unitary, unitary @ xl.dicke_state(n, m).amplitudes

    def check(value, stats):
        unitary, psi = value
        reference = xl.evolve_state(xl.dicke_state(n, m), lattice, truncated)[-1][1].amplitudes
        rows = _close("U(t) psi vs evolve_state", float(np.linalg.norm(psi - reference)), 0.0, atol=1e-10)
        drift = float(np.max(np.abs(unitary.conj().T @ unitary - np.eye(unitary.shape[0]))))
        return rows + _close("unitarity of U(t)", drift, 0.0, atol=1e-10)

    return Job("propagator", run, check, n)


def _magnus_jobs(n: int, j: float, b_z: float, b_first: float, b_second: float, m: float) -> Iterator[Job]:
    lattice = xl.LatticeSpec.chain(n, j, b_z)

    def schedule(t: float) -> cs.DriveSchedule:
        # two non-commuting augment segments, the shape magnus-check uses
        return cs.DriveSchedule("augment", ((t / 3.0, b_first), (2.0 * t / 3.0, b_second)), b_z)

    h_spin = _kron_chain(n, j, b_z)
    h_first = h_spin + _kron_transverse(n, b_first)
    h_second = h_spin + _kron_transverse(n, b_second)

    def exact_unitary(t: float) -> np.ndarray:
        return expm(-1j * h_second * (2.0 * t / 3.0)) @ expm(-1j * h_first * (t / 3.0))

    def reference_error(t: float) -> float:
        dt1, dt2 = t / 3.0, 2.0 * t / 3.0
        omega1 = -1j * (h_first * dt1 + h_second * dt2)
        omega2 = -0.5 * dt2 * dt1 * (h_second @ h_first - h_first @ h_second)
        return float(np.linalg.norm(expm(omega1 + omega2) - exact_unitary(t), 2))

    def sweep():
        return [mg.magnus_error(lattice, schedule(t), t) for t in MAGNUS_TIMES]

    def check_sweep(errors, stats):
        rows = 0
        for t, error in zip(MAGNUS_TIMES, errors):
            rows += _close(f"magnus error n={n} t={t}", error, reference_error(t), rtol=1e-6, atol=1e-13)
        # the log-log slope is the order of the Magnus truncation remainder
        slope = float(np.polyfit(np.log(MAGNUS_TIMES), np.log(errors), 1)[0])
        return rows + _close(f"magnus error slope n={n}", slope, 3.0, atol=0.2)

    yield Job("magnus_error", sweep, check_sweep, n)

    def expansions():
        return [mg.variance_expansion(xl.dicke_state(n, m), lattice, schedule(t), t) for t in EXPANSION_TIMES]

    def check_expansions(results, stats):
        psi = _dicke_vector(n, m)
        rows = 0
        for t, expansion in zip(EXPANSION_TIMES, results):
            final = exact_unitary(t) @ psi
            h_final = h_spin @ final
            mean = np.vdot(final, h_final).real
            exact = (np.vdot(h_final, h_final).real - mean**2) / n**2
            rows += _close(f"variance n={n} t={t}", expansion.exact, exact, atol=1e-12)
            # a Dicke state is an eigenstate of the reference Hamiltonian
            rows += _close("first bracket on an eigenstate", expansion.first_bracket, 0.0, atol=1e-12)
        return rows

    yield Job("variance_expansion", expansions, check_expansions, n)


# ---------------------------------------------------------------------------
# cli-suite
# ---------------------------------------------------------------------------

def _synthetic_liquid(rng: np.random.Generator, name: str) -> tuple:
    """Noise-free erfc-law rows (scipy's erfc, not the library's), with two
    rows above the liquidus that the fit must ignore."""
    t_l = float(rng.uniform(600.0, 1600.0))
    eta_l = float(10.0 ** rng.uniform(-1.0, 1.0))
    abar = float(rng.uniform(0.05, 0.2))
    temps = np.concatenate([np.linspace(0.72 * t_l, t_l, 14), [1.02 * t_l, 1.05 * t_l]])
    x = (t_l - temps) / (abar * temps * math.sqrt(2.0))
    rows = tuple((float(t), float(eta_l / e)) for t, e in zip(temps, ss.erfc(x)))
    return name, rows, t_l, eta_l, abar


SUBCOMMANDS = (
    "spin-sigma", "spin-dist", "exact-check", "bose-dual", "magnus-check", "variance-rate",
    "bounds-check", "rate-threshold", "ising-corr", "dicke-entropy", "multiplicity",
    "viscosity-fit", "collapse", "smear-green", "smear-planck", "moment-compare",
)
GATE_FIELDS = ("ok", "all_ok", "slope_ok", "all_satisfied")
VISCOSITY_DATASETS = 4


def _write_viscosity_pairs(rng: np.random.Generator, directory: Path) -> list[tuple[Path, Path]]:
    """Seeded viscosity CSV pairs in the documented schema, three liquids each."""
    pairs = []
    for index in range(VISCOSITY_DATASETS):
        data, meta = directory / f"viscosity-{index}.csv", directory / f"viscosity-{index}-meta.csv"
        with open(data, "w", newline="", encoding="utf-8") as d, open(meta, "w", newline="", encoding="utf-8") as m:
            data_rows, meta_rows = csv.writer(d, lineterminator="\n"), csv.writer(m, lineterminator="\n")
            data_rows.writerow(["liquid", "T_K", "eta_Pa_s"])
            meta_rows.writerow(["liquid", "T_liquidus_K", "eta_liquidus_Pa_s"])
            for k in range(3):
                name, rows, t_l, eta_l, _ = _synthetic_liquid(rng, f"liquid-{k}")
                meta_rows.writerow([name, repr(t_l), repr(eta_l)])
                data_rows.writerows([name, repr(t), repr(eta)] for t, eta in rows)
        pairs.append((data, meta))
    return pairs


def _cli_argv(rng: np.random.Generator, data: Path, meta: Path) -> dict[str, list[str]]:
    def nums(values) -> list[str]:
        # fixed-point text: argparse takes "-6e-05" for an option, not a number
        return [f"{float(v):.15f}" for v in values]

    n_spin = int(rng.integers(4, 41))
    return {
        "spin-sigma": ["--n", str(n_spin), "--stot", repr(n_spin / 2), "--m", repr(-n_spin / 2 + int(rng.integers(0, n_spin + 1))),
                       "--bz", *nums([rng.uniform(0.5, 1.5)]), "--theta", *nums(rng.uniform(-3.0, 3.0, 20))],
        "spin-dist": ["--n", "400", "--stot", "200", "--m", repr(float(rng.integers(-200, 201))),
                      "--theta", *nums([rng.uniform(0.2, 3.0)])],
        "exact-check": ["--n-max", "6", "--thetas", "20",
                        "--j", *nums([rng.uniform(0.5, 1.5)]), "--bz", *nums([rng.uniform(0.5, 1.5)])],
        "bose-dual": ["--n", "5", "--sets", "6", "--seed", str(int(rng.integers(0, 2**31)))],
        "magnus-check": ["--n", "3", "--j", *nums([rng.uniform(0.5, 1.5)]), "--bz", *nums([rng.uniform(0.5, 1.5)])],
        "variance-rate": ["--n", "4", "--by", *nums([rng.uniform(0.5, 1.5)]), "--bz", *nums([rng.uniform(0.5, 1.5)])],
        "bounds-check": ["--n", "5", "--m", repr(float(rng.integers(-2, 3)) + 0.5), "--theta", *nums([rng.uniform(0.2, 3.0)]),
                         "--by", *nums([rng.uniform(0.3, 1.5)])],
        "rate-threshold": ["--temperature", *nums([rng.uniform(1.0, 500.0)]), "--cv-total", *nums([rng.uniform(0.1, 10.0)]),
                           "--cv-subsystem", *nums([rng.uniform(0.1, 10.0)]), "--si"],
        # enumeration cost grows as C(19, walls): fixed, so every round does the same work
        "ising-corr": ["--length", "20", "--walls", "6", "--j", *nums([rng.uniform(0.5, 1.5)]),
                       "--distances", *[str(d) for d in range(1, 20, 3)]],
        "dicke-entropy": ["--n", *[str(n) for n in (10, 20, 40, 80, 160, 320, 640)]],
        "multiplicity": ["--n", "1500"],
        "viscosity-fit": ["--data", str(data), "--meta", str(meta)],
        "collapse": ["--data", str(data), "--meta", str(meta)],
        "smear-green": ["--kernel", "gauss:" + ",".join(nums([rng.uniform(-0.5, 0.5), rng.uniform(0.2, 0.8)])), "--eps-k", *nums([rng.uniform(-1.0, 1.0)]),
                        "--z", *nums([rng.uniform(0.5, 1.0)]), "--tau", *nums([rng.uniform(2.0, 20.0)])],
        "smear-planck": ["--nu", *nums(np.sort(rng.uniform(0.2, 10.0, 6))), "--kernel", "gauss:1.0," + nums([rng.uniform(0.01, 0.04)])[0]],
        "moment-compare": ["--sigma", *nums([rng.uniform(0.1, 3.0)]), "--g-max", str(int(rng.integers(4, 12)))],
    }


def _cli_suite(rng: np.random.Generator, pairs: list[tuple[Path, Path]], outdir: Path) -> Round:
    data, meta = pairs[int(rng.integers(len(pairs)))]
    argv = _cli_argv(rng, data, meta)

    def jobs() -> Iterator[Job]:
        for index, sub in enumerate(SUBCOMMANDS):
            yield _cli_job(sub, [sub, *argv[sub]], outdir / f"{index:02d}-{sub}")
            yield _cli_job(sub, [sub, "--selftest"], outdir / f"{index:02d}-{sub}-selftest")

    return Round(2 * len(SUBCOMMANDS), jobs)


def probe_known_defects(scratch: Path) -> dict[str, bool]:
    """Run each KNOWN_DEFECTS call once: id -> True while the defect stands.

    A call that exits 0 must pass the usual CLI check, so a fix shows as
    False; any other failure raises CheckFailed."""
    present = {}
    for defect, (argv, text) in KNOWN_DEFECTS.items():
        job = _cli_job(argv[0], argv, scratch / f"known-{defect}")
        code, stderr = value = job.run()
        if code != 0 and text in stderr:
            present[defect] = True
        elif job.check(value, Counter()) > 0:
            present[defect] = False
        else:
            raise CheckFailed(f"{defect}: the probe compared zero rows")
    return present


def _cli_job(sub: str, argv: list[str], outdir: Path) -> Job:
    argv = [*argv, "--outdir", str(outdir)]
    selftest = "--selftest" in argv

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, err.getvalue()

    def check(value, stats):
        code, stderr = value
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited {code}: {stderr.strip()}")
        if selftest:
            report = json.loads((outdir / f"{sub}_selftest.json").read_text())
            names = [c["name"] for c in report["checks"] if not c["ok"]]
            _require(f"{sub} --selftest ok (failed: {names})", report["ok"] and not names)
            rows = len(report["checks"])
        else:
            manifest = json.loads((outdir / f"{sub}_manifest.json").read_text())
            rows = 0
            for name in manifest["outputs"]:
                path = outdir / name
                rows += _require(f"{sub} wrote {name}", path.is_file())
                if name.endswith(".json"):
                    payload = json.loads(path.read_text())
                    for gate in GATE_FIELDS:
                        if gate in payload:
                            rows += _require(f"{sub} {name} {gate}", payload[gate] is True)
                else:
                    with open(path, newline="", encoding="utf-8") as handle:
                        rows += _require(f"{sub} {name} has data rows", sum(1 for _ in handle) > 1)
        stats["cli.artifact_bytes"] += sum(p.stat().st_size for p in outdir.iterdir())
        return rows

    return Job("selftest" if selftest else sub, run, check)


# ---------------------------------------------------------------------------
# preparation
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, rounds: int, scratch: Path) -> list[Round]:
    """Draw the inputs of ``rounds`` rounds; files go under ``scratch``."""
    if workload == "cli-suite":
        pairs = _write_viscosity_pairs(np.random.default_rng([seed, 2**32 - 1]), scratch)
        return [
            _cli_suite(np.random.default_rng([seed, r]), pairs, scratch / f"round-{r:03d}")
            for r in range(rounds)
        ]
    build = {"oracle-sweep": _oracle_sweep, "driven-multisegment": _driven_multisegment}[workload]
    return [build(np.random.default_rng([seed, r])) for r in range(rounds)]
