"""Magnus expansion diagnostics for piecewise-constant drive schedules.

For a piecewise-constant Hamiltonian the first two exp-log generators have
closed forms (segment sums and pairwise commutators weighted by time-ordered
overlap areas), so the truncation error of exp(Omega_1 + Omega_2) against the
exact propagator isolates the genuine third-order remainder.  The module also
evaluates the short-time series of the energy-density variance and the exact
instantaneous variance rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .collective_spin import DriveSchedule
from .exact_lattice import (
    LatticeSpec,
    MatrixOperator,
    QuantumState,
    _require_dense_memory,
    build_spin_hamiltonian,
    build_transverse_field,
    propagator,
)

__all__ = [
    "MagnusTerms",
    "VarianceExpansion",
    "magnus_terms",
    "magnus_error",
    "variance_expansion",
    "variance_rate",
    "segment_hamiltonians",
]


@dataclass(frozen=True)
class MagnusTerms:
    """Anti-Hermitian generators of the truncated exp-log propagator."""

    omega1: np.ndarray
    omega2: np.ndarray

    def __post_init__(self):
        for name, term in (("omega1", self.omega1), ("omega2", self.omega2)):
            dev = np.max(np.abs(term + term.conj().T))
            if dev > 1e-12:
                raise ValueError(f"{name} not anti-Hermitian within 1e-12 ({dev:.3e})")

    @property
    def total(self) -> np.ndarray:
        return self.omega1 + self.omega2


@lru_cache(maxsize=8)
def _dense_generators(lattice: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense spin Hamiltonian and unit transverse field -sum_i S_i^y of a
    lattice, built once and shared read-only by every call on it."""
    _require_dense_memory(lattice.n_sites, 2, "the dense magnus generators")
    spin = build_spin_hamiltonian(lattice, with_decomposition=False).matrix
    unit_field = build_transverse_field(lattice.n_sites, 1.0).matrix
    spin.flags.writeable = unit_field.flags.writeable = False
    return spin, unit_field


def segment_hamiltonians(
    lattice: LatticeSpec, schedule: DriveSchedule
) -> list[tuple[float, np.ndarray]]:
    """(duration, H) per segment; replace mode drives with the transverse field
    alone, augment mode with the spin Hamiltonian plus the transverse field.
    Holds the two generators, one matrix per segment and one being built."""
    _require_dense_memory(lattice.n_sites, len(schedule.segments) + 3, "segment_hamiltonians")
    spin, unit_field = _dense_generators(lattice)
    out = []
    for duration, b_y in schedule.segments:
        drive = b_y * unit_field
        if schedule.mode == "augment":
            drive = drive + spin
        out.append((duration, drive))
    return out


def magnus_terms(lattice: LatticeSpec, schedule: DriveSchedule, t: float) -> MagnusTerms:
    """First and second exp-log generators at time t (hbar = 1).

    Omega_1 = -i sum_k H_k dt_k; Omega_2 = -(1/2) sum_{k>l} dt_k dt_l [H_k, H_l],
    the closed form of the time-ordered double integral for piecewise-constant
    schedules (no quadrature involved).  The steps dt_k are the schedule's
    ``pieces(t)``, the segments cut at t.  Holds the two generators, one
    matrix per segment, Omega_1, Omega_2 and the two products of a
    commutator with their difference.
    """
    _require_dense_memory(lattice.n_sites, len(schedule.segments) + 7, "magnus_terms")
    pieces = [
        (step, matrix)
        for (step, _), (_, matrix) in zip(schedule.pieces(t), segment_hamiltonians(lattice, schedule))
    ]
    dim = lattice.dim
    omega1 = np.zeros((dim, dim), dtype=complex)
    omega2 = np.zeros((dim, dim), dtype=complex)
    for step, matrix in pieces:
        omega1 += -1j * step * matrix
    for k in range(len(pieces)):
        dt_k, h_k = pieces[k]
        for l in range(k):
            dt_l, h_l = pieces[l]
            omega2 += -0.5 * dt_k * dt_l * (h_k @ h_l - h_l @ h_k)
    return MagnusTerms(omega1=omega1, omega2=omega2)


def magnus_error(lattice: LatticeSpec, schedule: DriveSchedule, t: float) -> float:
    """Spectral norm of exp(Omega_1 + Omega_2) minus the exact propagator.

    Holds the two generators, Omega_1, Omega_2 and their sum, and the eight
    work arrays of scipy's ``expm`` (its peak, measured with tracemalloc),
    or the Magnus terms' own working set where that is larger.
    """
    if t == 0.0:
        return 0.0
    _require_dense_memory(lattice.n_sites, max(len(schedule.segments) + 7, 13), "magnus_error")
    terms = magnus_terms(lattice, schedule, t)
    approx = expm(terms.total)
    exact = propagator(lattice, schedule, t)
    return float(np.linalg.norm(approx - exact, 2))


def _expect(psi: np.ndarray, matrix: np.ndarray) -> complex:
    return complex(np.vdot(psi, matrix @ psi))


@dataclass(frozen=True)
class VarianceExpansion:
    """Short-time series of the energy-density variance, with the exact value.

    ``second_bracket`` is the full second-order contribution: the commutator
    form of the bracketed operator products plus the square of the
    first-order mean shift (the latter vanishes identically on eigenstate
    inputs, the only case where the series is usually quoted).
    """

    sigma2_initial: float
    first_bracket: float
    second_bracket: float
    exact: float

    @property
    def partial_sum(self) -> float:
        return self.sigma2_initial + self.first_bracket + self.second_bracket

    def series(self) -> list[tuple[str, float]]:
        return [
            ("sigma2_initial", self.sigma2_initial),
            ("first_bracket", self.first_bracket),
            ("second_bracket", self.second_bracket),
            ("partial_sum", self.partial_sum),
            ("exact", self.exact),
        ]


def variance_expansion(
    state: QuantumState, lattice: LatticeSpec, schedule: DriveSchedule, t: float
) -> VarianceExpansion:
    """Expand sigma_eps^2(t) through second order in the drive and compare exact.

    The reference energy is the undriven spin Hamiltonian; the state is the
    t = 0 representative of the density matrix (pure states suffice since any
    density matrix can be purified).
    """
    if state.n_sites != lattice.n_sites:
        raise ValueError("state and lattice site counts differ")
    # H^2 held through the Magnus terms' own working set
    _require_dense_memory(lattice.n_sites, len(schedule.segments) + 8, "variance_expansion")
    n_sq = float(lattice.n_sites) ** 2
    h_ref = _dense_generators(lattice)[0]
    h_sq = h_ref @ h_ref
    psi = state.amplitudes
    e0 = _expect(psi, h_ref).real
    sigma2_initial = (_expect(psi, h_sq).real - e0**2) / n_sq

    terms = magnus_terms(lattice, schedule, t)
    om1, om2 = terms.omega1, terms.omega2
    comm_h2_om1 = _expect(psi, h_sq @ om1 - om1 @ h_sq).real
    comm_h_om1 = _expect(psi, h_ref @ om1 - om1 @ h_ref).real
    first_bracket = (comm_h2_om1 - 2.0 * e0 * comm_h_om1) / n_sq

    om1_sq = om1 @ om1
    comm_h2_om2 = _expect(psi, h_sq @ om2 - om2 @ h_sq).real
    anti_h2 = _expect(psi, om1_sq @ h_sq + h_sq @ om1_sq).real
    sandwich_h2 = _expect(psi, om1 @ (h_sq @ om1)).real
    comm_h_om2 = _expect(psi, h_ref @ om2 - om2 @ h_ref).real
    anti_h = _expect(psi, om1_sq @ h_ref + h_ref @ om1_sq).real
    sandwich_h = _expect(psi, om1 @ (h_ref @ om1)).real
    second_bracket = (
        comm_h2_om2
        + 0.5 * anti_h2
        - sandwich_h2
        - 2.0 * e0 * (comm_h_om2 + 0.5 * anti_h - sandwich_h)
        - comm_h_om1**2
    ) / n_sq

    final = propagator(lattice, schedule, t) @ psi
    e_t = _expect(final, h_ref).real
    exact = (_expect(final, h_sq).real - e_t**2) / n_sq
    return VarianceExpansion(
        sigma2_initial=sigma2_initial,
        first_bracket=first_bracket,
        second_bracket=second_bracket,
        exact=exact,
    )


def variance_rate(
    state_t: QuantumState, h_drive: MatrixOperator, h_ref: MatrixOperator
) -> float:
    """Instantaneous d(sigma_eps^2)/dt in the given state.

    Evaluates (i/N^2) <{D, H} - 2 <H> D> with D = [H_drive, H]; equals the
    time derivative of the energy-density variance when H_drive generates the
    motion at that instant.  With T = H_drive, {D, H} = T H^2 - H^2 T, so
    both expectations come from H psi, T psi and H T psi.
    """
    if h_drive.dim != h_ref.dim:
        raise ValueError("operator dimensions differ")
    psi = state_t.amplitudes
    h_psi = h_ref.array @ psi
    t_psi = h_drive.array @ psi
    ht_psi = h_ref.array @ t_psi
    mean_h = np.vdot(psi, h_psi).real
    anti = np.vdot(ht_psi, h_psi) - np.vdot(h_psi, ht_psi)
    mean_d = np.vdot(t_psi, h_psi) - np.vdot(h_psi, t_psi)
    value = 1j * (anti - 2.0 * mean_h * mean_d) / float(h_ref.n_sites) ** 2
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ArithmeticError("variance rate acquired an imaginary part")
    return float(value.real)
