"""Oracle checks: each closed form against an independent route, written once.

Four routines compare a closed form or an exact identity with an independent
route.  The CLI handlers, the selftest suites and the acceptance tests all
call them, so each comparison loop exists only here:

- ``sigma_sweep``: ``analytic_sigma`` against the 2^N lattice oracle along a
  drive, in the Dicke sectors of a lattice
- ``magnus_slope``: the log-log slope of the second-order Magnus truncation
  error on the standard two-segment drive
- ``rate_against_finite_difference``: the exact variance rate against a
  centred finite difference of the evolved variance
- ``robertson_fuzz``: the Robertson slack on random Hermitian pairs in random
  states, each pair checked by ``robertson_report`` in its own dimension

The per-module suites follow.  Each returns its checks as ``{"name", "ok",
"detail"}`` records in a fixed order, and ``SUITES`` maps every CLI
subcommand to its module's suite.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as bd
from . import collective_spin as cs
from . import exact_lattice as xl
from . import ising_entangle as ie
from . import magnus as mg
from . import nonequil_observables as no
from . import special as sp

__all__ = [
    "SUITES",
    "magnus_schedule",
    "magnus_slope",
    "rate_against_finite_difference",
    "robertson_report",
    "robertson_fuzz",
    "sigma_sweep",
]


# ---------------------------------------------------------------------------
# shared oracle routines
# ---------------------------------------------------------------------------


def sigma_sweep(
    lattice: xl.LatticeSpec,
    schedule: cs.DriveSchedule,
    sectors=None,
) -> list[tuple[float, float, float, float]]:
    """Closed-form width against the 2^N oracle along a drive.

    Evolves the Dicke state |S = N/2, m> of each magnetization in
    ``sectors`` (default: all N + 1 of them) through the schedule and
    returns one row (m, t, sigma_oracle, sigma_analytic) per segment
    boundary after t = 0, in sector order: ``energy_density_sigma`` of each
    state, whose trajectory gives its rows' variances from one product with
    the Hamiltonian, and ``analytic_sigma`` from the rotated axis at every
    boundary, one accumulation along the drive shared by the sectors.
    """
    n = lattice.n_sites
    ham = xl.build_spin_hamiltonian(lattice, with_decomposition=False)
    if sectors is None:
        sectors = [-n / 2.0 + k for k in range(n + 1)]
    axes = [n_perp for n_perp, _ in cs._rotated_axes(schedule, schedule.segments)[1:]]
    rows = []
    for m in sectors:
        prefactor = cs._sigma_prefactor(cs.SpinSector(n, n / 2.0, m), schedule)
        trajectory = xl.evolve_state(xl.dicke_state(n, m), lattice, schedule)[1:]
        for (t, state), n_perp in zip(trajectory, axes, strict=True):
            rows.append((m, t, xl.energy_density_sigma(state, ham), prefactor * n_perp))
    return rows


def magnus_schedule(t: float, b_z: float) -> cs.DriveSchedule:
    """The standard non-commuting two-segment augment drive of duration t, in the lattice's b_z."""
    return cs.DriveSchedule("augment", ((t / 3.0, 1.0), (2.0 * t / 3.0, -0.5)), b_z)


def magnus_slope(lattice: xl.LatticeSpec, times) -> tuple[list[float], float]:
    """Magnus truncation error of ``magnus_schedule(t, B_z)`` at each time, and the
    slope of log(error) against log(t) fitted through them (3 at second order).
    An error that is not positive is refused, naming its time."""
    errors = [mg.magnus_error(lattice, magnus_schedule(float(t), lattice.b_z), float(t)) for t in times]
    for t, error in zip(times, errors):
        # with B_z = 0, say, the segments commute and there is no error to fit
        if not error > 0.0:
            raise ValueError(f"Magnus truncation error at t = {float(t)!r} is {error!r}, not positive: no slope to fit")
    slope = float(np.polyfit(np.log(times), np.log(errors), 1)[0])
    return errors, slope


def rate_against_finite_difference(
    psi0: xl.QuantumState,
    lattice: xl.LatticeSpec,
    b_y: float,
    times,
) -> list[tuple[float, float, float]]:
    """Exact variance rate against a centred finite difference of sigma^2.

    A replace-mode drive with field ``b_y`` carries psi0 to each final time
    t_f.  Returns one row (t_f, rate, finite_difference) per time: the rate
    from ``variance_rate`` in the state at t_f, and the difference of the
    energy-density variance of psi0 evolved to t_f + h and t_f - h, h = 1e-5.
    """
    n = lattice.n_sites
    step = 1e-5
    ham = xl.build_spin_hamiltonian(lattice, with_decomposition=False)
    transverse = xl.build_transverse_field(n, b_y)

    def evolved(t: float) -> xl.QuantumState:
        drive = cs.DriveSchedule("replace", ((t, b_y),), lattice.b_z)
        return xl.evolve_state(psi0, lattice, drive)[-1][1]

    def sigma_sq(t: float) -> float:
        return xl.variance(evolved(t), ham) / n**2

    rows = []
    for t_f in times:
        rate = mg.variance_rate(evolved(t_f), transverse, ham)
        fd = (sigma_sq(t_f + step) - sigma_sq(t_f - step)) / (2 * step)
        rows.append((t_f, rate, fd))
    return rows


def robertson_report(h_a: np.ndarray, h_b: np.ndarray, vec: np.ndarray) -> bd.BoundReport:
    """Robertson report of the Hermitian parts of two square complex matrices in
    the normalised state vec: report (i) of ``bounds.uncertainty_check`` at four sites."""
    norm = np.linalg.norm(vec)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"state vector needs a positive finite norm, got {norm!r}")
    psi = vec / norm
    a_psi, b_psi = (((h + h.conj().T) / 2) @ psi for h in (h_a, h_b))
    return bd._robertson_report(a_psi, b_psi, xl._applied_variance(psi, a_psi), xl._applied_variance(psi, b_psi), 4)[0]


def robertson_fuzz(rng: np.random.Generator, trials: int, max_dim: int) -> list[float]:
    """Robertson slack on random Hermitian pairs in random states.

    Each trial draws a dimension in [2, max_dim], two complex Gaussian matrices and a complex
    state for :func:`robertson_report`.  The draw order is fixed, so a seed fixes every trial.
    """
    slacks = []
    for _ in range(trials):
        dim = int(rng.integers(2, max_dim + 1))
        h_a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h_b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        slacks.append(robertson_report(h_a, h_b, vec).slack)
    return slacks


# ---------------------------------------------------------------------------
# per-module selftest suites
# ---------------------------------------------------------------------------


def _check(checks: list, name: str, ok: bool, value: float | None = None) -> None:
    detail = "" if value is None else repr(float(value))
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def collective_suite() -> list[dict]:
    checks: list[dict] = []
    sector = cs.SpinSector(4, 2, 0)
    sched = cs.DriveSchedule("replace", ((math.pi / 2, 1.0),), 1.0)
    sigma = cs.analytic_sigma(sector, sched, math.pi / 2)
    _check(checks, "sigma-closed-form", abs(sigma - math.sqrt(1.5) / (2 * math.sqrt(2))) < 1e-14)
    [(_, _, oracle, _)] = sigma_sweep(xl.LatticeSpec.chain(4, 1.0, 1.0), sched, (0,))
    _check(checks, "sigma-oracle", abs(sigma - oracle) < 1e-10, abs(sigma - oracle))
    _check(
        checks,
        "sigma-identity-rotation",
        cs.analytic_sigma(sector, cs.DriveSchedule("replace", ((1.0, 0.0),), 1.0), 1.0) == 0.0,
    )
    dist = cs.eigenweight_distribution(cs.SpinSector(1, 0.5, 0.5), sched, math.pi / 2)
    _check(
        checks,
        "half-spin-weights",
        max(abs(w - 0.5) for _, w in dist.points) < 1e-14,
    )
    big_sector, drive = cs.SpinSector(80, 40, 0), cs.DriveSchedule("replace", ((1.0, 1.0),), 1.0)
    big = cs.eigenweight_distribution(big_sector, drive, 1.0)
    _check(checks, "eigenweight-mean-consistency", abs(big.mean() - cs.analytic_energy_mean(big_sector, drive, 1.0)) < 1e-12)
    _check(checks, "eigenweight-sigma-consistency", abs(big.std() - cs.analytic_sigma(big_sector, drive, 1.0)) < 1e-10)
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


def _total_spin(vectors: np.ndarray, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """S^2 = S^- S^+ + S_z^2 + S_z and S^z_tot on the columns of ``vectors``,
    from the bits of the basis index alone: S^z is the up-count minus N/2,
    and S^+ (S^-) moves each site's amplitude from its down (up) state."""
    idx = np.arange(1 << n_sites)
    s_z = (np.bitwise_count(idx) - 0.5 * n_sites)[:, None]
    up = ((idx >> np.arange(n_sites)[:, None]) & 1)[:, :, None]
    raised = sum(up[s] * vectors[idx ^ (1 << s)] for s in range(n_sites))
    lowered = sum((1 - up[s]) * raised[idx ^ (1 << s)] for s in range(n_sites))
    return lowered + s_z * (s_z + 1.0) * vectors, s_z * vectors


def exact_suite() -> list[dict]:
    checks: list[dict] = []
    lat2 = xl.LatticeSpec(2, ((0, 1, 1.0),), 1.0)
    eigs = np.sort(xl._spin_spectrum(lat2)[0])
    _check(
        checks,
        "two-spin-spectrum",
        np.allclose(eigs, [-1.25, -0.25, 0.75, 0.75], atol=1e-12),
    )
    free = xl.LatticeSpec(3, (), 1.0)
    eigs_free = np.sort(xl._spin_spectrum(free)[0])
    _check(
        checks,
        "free-spin-spectrum",
        np.allclose(eigs_free, [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5], atol=1e-12),
    )
    lat = xl.LatticeSpec.chain(5, 0.7, 1.1)
    ham = xl.build_spin_hamiltonian(lat)
    # both sides of [H, S^2] and [H, S^z] on seeded vectors
    vectors = np.random.default_rng(5).normal(size=(32, 6)).view(complex)
    s_sq, s_z = _total_spin(vectors, 5)
    h_s_sq, h_s_z = _total_spin(ham._times(vectors), 5)
    _check(checks, "s2-commutes", np.max(np.abs(ham._times(s_sq) - h_s_sq)) < 1e-12)
    _check(checks, "sz-commutes", np.max(np.abs(ham._times(s_z) - h_s_z)) < 1e-12)
    worst = max(
        abs(oracle - analytic)
        for theta in (0.5, 1.7, 3.0)
        for _, _, oracle, analytic in sigma_sweep(
            lat, cs.DriveSchedule("replace", ((theta, 1.0),), 1.1), (-2.5, -0.5, 1.5, 2.5)
        )
    )
    _check(checks, "dicke-oracle-agreement", worst < 1e-10, worst)
    full = cs.DriveSchedule("replace", ((2 * math.pi, 1.0),), 1.1)
    state = xl.evolve_state(xl.dicke_state(5, 1.5), lat, full)[-1][1]
    back = xl.expectation(state, ham)
    initial = xl.expectation(xl.dicke_state(5, 1.5), ham)
    _check(checks, "two-pi-periodicity", abs(back - initial) < 1e-9, abs(back - initial))
    mags = xl.site_magnetizations(state)
    _check(checks, "site-uniform", float(np.ptp(mags)) < 1e-10)
    return checks


def bose_suite() -> list[dict]:
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
        report = xl.bose_dual(lat)
        worst = max(worst, report.entry_max_delta)
        _check(checks, f"dual-entries-n{n}", report.entries_match, report.entry_max_delta)
        _check(checks, f"dual-doping-n{n}", report.doping_matches_transverse)
    _check(checks, "dual-worst-delta", worst < 1e-10, worst)
    return checks


def magnus_suite() -> list[dict]:
    checks: list[dict] = []
    lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
    commuting = cs.DriveSchedule("replace", ((0.1, 1.0), (0.2, -0.5)), 1.0)
    _check(checks, "commuting-error", mg.magnus_error(lat, commuting, 0.3) < 1e-12)
    _check(checks, "zero-time-error", mg.magnus_error(lat, commuting, 0.0) == 0.0)
    t = 0.2
    sched = magnus_schedule(t, lat.b_z)
    # c [g_0, f] against the pairwise commutator of the two single-site
    # segment generators g_0 + b_k f, with g_0 = -B_z s^z and f = -s^y in
    # the basis order (down, up); [g_0, f] = -i B_z s^x is nonzero, so a
    # wrong c fails
    g_0, f = -lat.b_z * np.diag([-0.5, 0.5]), np.array([[0.0, -0.5j], [0.5j, 0.0]])
    (dt1, b1), (dt2, b2) = sched.pieces(t)
    h1, h2 = g_0 + b1 * f, g_0 + b2 * f
    reference = -0.5 * dt1 * dt2 * (h2 @ h1 - h1 @ h2)
    omega2 = mg.magnus_terms(sched, t).c * (g_0 @ f - f @ g_0)
    _check(checks, "omega2-closed-form", np.max(np.abs(omega2 - reference)) < 1e-12)
    _, slope = magnus_slope(lat, np.geomspace(1e-3, 1e-1, 7))
    _check(checks, "error-slope-3", abs(slope - 3.0) < 0.2, slope)
    psi = xl.dicke_state(3, 0.5)
    expansion = mg.variance_expansion(psi, lat, magnus_schedule(0.05, lat.b_z), 0.05)
    _check(checks, "eigenstate-first-bracket", abs(expansion.first_bracket) < 1e-12)
    closed = cs.analytic_sigma(cs.SpinSector(3, 1.5, 0.5), magnus_schedule(0.05, lat.b_z), 0.05) ** 2
    gap = abs(expansion.exact - closed) / closed
    _check(checks, "exact-closed-form", gap <= 1e-12, gap)
    [(_, rate, fd)] = rate_against_finite_difference(psi, lat, 1.0, [0.7])
    _check(checks, "rate-finite-difference", abs(rate - fd) <= 1e-6 * abs(fd), abs(rate - fd) / abs(fd))
    ham = xl.build_spin_hamiltonian(lat)
    transverse = xl.build_transverse_field(3, 1.0)
    _check(checks, "rate-zero-at-start", abs(mg.variance_rate(psi, transverse, ham)) < 1e-12)
    return checks


def bounds_suite() -> list[dict]:
    checks: list[dict] = []
    lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
    sched = cs.DriveSchedule("replace", ((math.pi / 2, 1.0),), 1.0)
    state = xl.evolve_state(xl.dicke_state(4, 1), lat, sched)[-1][1]
    reports = bd.uncertainty_check(
        state, xl.build_spin_hamiltonian(lat), xl.build_transverse_field(4, 1.0), 4
    )
    _check(checks, "worked-lhs", abs(reports[1].lhs - 0.625) < 1e-6, reports[1].lhs)
    _check(checks, "worked-rhs", abs(reports[1].rhs - 0.125) < 1e-6, reports[1].rhs)
    _check(checks, "rhs-equality", abs(reports[0].rhs - reports[1].rhs) < 1e-12)
    _check(checks, "correlator-bound", reports[2].satisfied, reports[2].slack)
    worst_slack = min(robertson_fuzz(np.random.default_rng(77), 100, 16))
    _check(checks, "robertson-fuzz", worst_slack >= -1e-12, worst_slack)
    _check(checks, "threshold-unit", bd.equilibrium_rate_threshold(1.0, 1.0, 1.0) == 2.0)
    _check(checks, "threshold-zero-capacity", bd.equilibrium_rate_threshold(3.0, 0.0, 1.0) == 0.0)
    ratio = bd.equilibrium_rate_threshold(2.0, 0.8, 0.3) / bd.equilibrium_rate_threshold(1.0, 0.8, 0.3)
    _check(checks, "threshold-t-squared", abs(ratio - 4.0) < 1e-12)
    return checks


def ising_suite() -> list[dict]:
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
    _check(checks, "gaussian-multiplicity", abs(ratio - 1.0) < 0.05, ratio)
    return checks


def nonequil_suite() -> list[dict]:
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
    _check(checks, "erfc-reference", worst < 1e-13, worst)
    _check(checks, "viscosity-at-melt", no.viscosity_predict(700.0, 700.0, 0.1, 2.0) == 2.0)
    temps = np.linspace(650.0, 1100.0, 12)
    rows = tuple(
        (float(t), no.viscosity_predict(float(t), 1100.0, 0.085, 1.7)) for t in temps
    )
    fit = no.fit_collapse(
        no.ViscosityDataset((no.ViscosityRecord("synthetic", rows, 1100.0, 1.7),))
    )[0]
    _check(checks, "roundtrip-abar", abs(fit.abar - 0.085) < 1e-6, abs(fit.abar - 0.085))
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
    _check(checks, "green-sum-rule", abs(weight - 0.7) < 1e-6, weight)
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


SUITES = {
    "spin-sigma": collective_suite,
    "spin-dist": collective_suite,
    "exact-check": exact_suite,
    "bose-dual": bose_suite,
    "magnus-check": magnus_suite,
    "variance-rate": magnus_suite,
    "bounds-check": bounds_suite,
    "rate-threshold": bounds_suite,
    "ising-corr": ising_suite,
    "dicke-entropy": ising_suite,
    "multiplicity": ising_suite,
    "viscosity-fit": nonequil_suite,
    "collapse": nonequil_suite,
    "smear-green": nonequil_suite,
    "smear-planck": nonequil_suite,
    "moment-compare": nonequil_suite,
}
