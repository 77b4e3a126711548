"""Magnus expansion diagnostics for piecewise-constant drive schedules.

Every segment Hamiltonian is H_k = H_0 + b_k F in augment mode and b_k F in
replace mode, with H_0 the lattice's spin Hamiltonian and F = -S^y_tot the
unit transverse field.  So [H_k, H_l] = (b_l - b_k) [H_0, F], and the first
two exp-log generators are three scalars on two fixed operators:
Omega_1 = -i (tau H_0 + beta F) and Omega_2 = c [H_0, F], with
tau = sum_k dt_k, beta = sum_k dt_k b_k and
c = -(1/2) sum_{k>l} dt_k dt_l (b_l - b_k), the closed form of the
time-ordered double integral; replace mode has tau = c = 0.

The truncation error of exp(Omega_1 + Omega_2) against the exact propagator
isolates the genuine third-order remainder, and it reduces to 2x2 matrices.
H_0 = E - B_z S^z_tot, and the exchange E commutes with S_tot, so
exp(Omega_1 + Omega_2) = exp(-i tau E) V^(x)N, where V = exp(omega) and
omega is the same generator built from the single-site g_0 = -B_z s^z and
f = -s^y; the exact propagator is exp(-i t E) W^(x)N, with W the
accumulated single-site turn of the drive.  The common unitary factor drops
out of the spectral norm, and W^dag V has eigenvalues e^(+-i alpha), so
||V^(x)N - W^(x)N||_2 = max over m in {N, N-2, ...} of 2 |sin(m alpha / 2)|,
with sin(alpha / 2) = ||V - W||_F / (2 sqrt 2): O(N) work at any lattice
size.  The module also evaluates the short-time series of the
energy-density variance from products of H_0 and F with the state, and the
exact instantaneous variance rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .collective_spin import DriveSchedule
from .exact_lattice import (
    LatticeSpec,
    MatrixOperator,
    QuantumState,
    _accumulated_turns,
    _applied_variance,
    _pair_turns,
    _turn_every_site,
    _valid_csr,
    build_spin_hamiltonian,
    build_transverse_field,
)

__all__ = [
    "MagnusTerms",
    "VarianceExpansion",
    "magnus_terms",
    "magnus_error",
    "variance_expansion",
    "variance_rate",
]


@dataclass(frozen=True)
class MagnusTerms:
    """The scalars of Omega_1 = -i (tau H_0 + beta F) and Omega_2 = c [H_0, F]."""

    tau: float
    beta: float
    c: float

    def __post_init__(self):
        for name in ("tau", "beta", "c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"Magnus scalar {name} must be finite, got {value!r}")


def magnus_terms(schedule: DriveSchedule, t: float) -> MagnusTerms:
    """The scalars of the first two exp-log generators at time t (hbar = 1).

    The steps dt_k are the schedule's ``pieces(t)``, the segments cut at t;
    c sums its pairs in one pass, with running sums over the earlier steps.
    """
    steps = schedule.pieces(t)
    beta = math.fsum(step * b_y for step, b_y in steps)
    if schedule.mode == "replace":
        return MagnusTerms(tau=0.0, beta=beta, c=0.0)
    elapsed = moment = 0.0
    pairs = []
    for step, b_y in steps:
        pairs.append(step * (moment - b_y * elapsed))
        elapsed += step
        moment += step * b_y
    return MagnusTerms(tau=math.fsum(step for step, _ in steps), beta=beta, c=-0.5 * math.fsum(pairs))


def magnus_error(lattice: LatticeSpec, schedule: DriveSchedule, t: float) -> float:
    """Spectral norm of exp(Omega_1 + Omega_2) minus the exact propagator,
    from the single-site V and W of the module docstring.

    With s^x, s^y, s^z in the basis order (down, up), the single-site
    generator is omega = i n.s with n = (-c B_z, beta, tau B_z), so V is
    the (a, b) of ``exact_lattice._su2``: a = cos(|n|/2) - i n_z sin(|n|/2)/|n|
    and b = (n_y + i n_x) sin(|n|/2)/|n|.  Two such turns differ by
    ||V - W||_F = sqrt(2 (|a_V - a_W|^2 + |b_V - b_W|^2)).
    """
    if t == 0.0:
        return 0.0
    terms = magnus_terms(schedule, t)
    n_x, n_y, n_z = -terms.c * lattice.b_z, terms.beta, terms.tau * lattice.b_z
    length = math.hypot(n_x, n_y, n_z)
    # sin(|n|/2) / |n|, continued to 1/2 at n = 0
    s = math.sin(0.5 * length) / length if length > 0.0 else 0.5
    a_v, b_v = complex(math.cos(0.5 * length), -s * n_z), complex(s * n_y, s * n_x)
    w = _accumulated_turns(schedule.pieces(t), schedule.mode, lattice.b_z)[-1]
    half_angle = math.asin(min(1.0, 0.5 * math.hypot(abs(a_v - complex(w[0, 0])), abs(b_v - complex(w[1, 0])))))
    return max(2.0 * abs(math.sin(m * half_angle)) for m in range(lattice.n_sites, 0, -2))


@lru_cache(maxsize=8)
def _stacked_generators(lattice: LatticeSpec) -> sparse.csr_array:
    """H_0 above F = -S^y_tot in one complex CSR array, rows 0 .. 2^N - 1
    and 2^N .. 2^(N+1) - 1, so that one product with a block of states
    gives H_0 and F on each.  O(N 2^N) bytes (under 20 MB at 14 sites),
    built once per lattice and shared read-only."""
    h_op = build_spin_hamiltonian(lattice, with_decomposition=False).array
    f_op = build_transverse_field(lattice.n_sites, 1.0, with_decomposition=False).array
    stacked = _valid_csr(
        np.concatenate([h_op.data, f_op.data]),
        np.concatenate([h_op.indices, f_op.indices]),
        np.concatenate([h_op.indptr, f_op.indptr[1:] + h_op.nnz]),
        (2 * lattice.dim, lattice.dim),
    )
    for array in (stacked.data, stacked.indices, stacked.indptr):
        array.flags.writeable = False
    return stacked


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

    The reference energy is the undriven spin Hamiltonian H = H_0; the state
    is the t = 0 representative of the density matrix (pure states suffice
    since any density matrix can be purified).  Every term is an expectation
    of a polynomial in H and F, read from two products of the stacked
    [H; F], one with psi and the final state and one with H psi and F psi.
    With G = tau H + beta F, Omega_1 psi = -i G psi and Omega_2 psi =
    c (HF - FH) psi.  The exact value is the variance in W^(x)N psi: the
    exchange factor of the propagator commutes with H and drops out.  Both
    variances take the two-pass form of ``exact_lattice.variance``, so
    neither falls below zero near a zero-variance state.
    """
    if state.n_sites != lattice.n_sites:
        raise ValueError("state and lattice site counts differ")
    terms = magnus_terms(schedule, t)
    tau, beta = terms.tau, terms.beta
    stacked, dim = _stacked_generators(lattice), lattice.dim
    n_sq = float(lattice.n_sites) ** 2
    psi = state.amplitudes
    turn = _accumulated_turns(schedule.pieces(t), schedule.mode, lattice.b_z)[-1:]
    final = _turn_every_site(psi, lattice.n_sites, turn, _pair_turns(turn))[0]
    # two products with [H_0; F], on psi and the final state and then on
    # H_0 psi and F psi, each transposed so that a row is one vector's images
    applied = (stacked @ np.array([psi, final]).T).T.copy()
    h_psi, f_psi, h_final = applied[0, :dim], applied[0, dim:], applied[1, :dim]
    applied = (stacked @ np.array([h_psi, f_psi]).T).T.copy()
    hh_psi, fh_psi, hf_psi, ff_psi = applied[0, :dim], applied[0, dim:], applied[1, :dim], applied[1, dim:]
    g_psi = tau * h_psi + beta * f_psi
    hg_psi = tau * hh_psi + beta * hf_psi
    gg_psi = tau * hg_psi + beta * (tau * fh_psi + beta * ff_psi)
    omega2_psi = terms.c * (hf_psi - fh_psi)

    e0 = np.vdot(psi, h_psi).real
    # <[A, Omega]> = 2 Re <A psi|Omega psi> for Hermitian A, anti-Hermitian
    # Omega, which is 2 Im <A psi|G psi> for Omega_1 psi = -i G psi
    comm_h2_om1 = 2.0 * np.vdot(hh_psi, g_psi).imag
    comm_h_om1 = 2.0 * np.vdot(h_psi, g_psi).imag
    first_bracket = (comm_h2_om1 - 2.0 * e0 * comm_h_om1) / n_sq

    # Omega_1^2 = -G^2, and <Omega_1 A Omega_1> = -<G psi|A G psi>
    comm_h2_om2 = 2.0 * np.vdot(hh_psi, omega2_psi).real
    anti_h2 = -2.0 * np.vdot(gg_psi, hh_psi).real
    sandwich_h2 = -np.vdot(hg_psi, hg_psi).real
    comm_h_om2 = 2.0 * np.vdot(h_psi, omega2_psi).real
    anti_h = -2.0 * np.vdot(gg_psi, h_psi).real
    sandwich_h = -np.vdot(g_psi, hg_psi).real
    second_bracket = (
        comm_h2_om2
        + 0.5 * anti_h2
        - sandwich_h2
        - 2.0 * e0 * (comm_h_om2 + 0.5 * anti_h - sandwich_h)
        - comm_h_om1**2
    ) / n_sq

    return VarianceExpansion(
        sigma2_initial=_applied_variance(psi, h_psi) / n_sq,
        first_bracket=float(first_bracket),
        second_bracket=float(second_bracket),
        exact=_applied_variance(final, h_final) / n_sq,
    )


def variance_rate(
    state_t: QuantumState, h_drive: MatrixOperator, h_ref: MatrixOperator
) -> float:
    """Instantaneous d(sigma_eps^2)/dt in the given state.

    Evaluates (i/N^2) <{D, H} - 2 <H> D> with D = [H_drive, H]; equals the
    time derivative of the energy-density variance when H_drive generates the
    motion at that instant.  With T = H_drive, {D, H} = T H^2 - H^2 T, so
    both expectations come from H psi, T psi and H^2 psi; H is applied to
    the state and to H psi only, so a real state and a real H take real
    products there.
    """
    if h_drive.dim != h_ref.dim:
        raise ValueError("operator dimensions differ")
    psi = state_t.amplitudes
    h_psi = h_ref._times(psi)
    t_psi = h_drive._times(psi)
    hh_psi = h_ref._times(h_psi)
    mean_h = np.vdot(psi, h_psi).real
    # for Hermitian T and H, <T H^2> - <H^2 T> = 2i Im <T psi|H^2 psi> and
    # <D> = 2i Im <T psi|H psi>, so the rate is real by construction
    anti_im, mean_d_im = np.vdot(t_psi, hh_psi).imag, np.vdot(t_psi, h_psi).imag
    return float(-2.0 * (anti_im - 2.0 * mean_h * mean_d_im) / float(h_ref.n_sites) ** 2)
