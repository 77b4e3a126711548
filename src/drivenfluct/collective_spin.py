"""Closed-form fluctuation statistics of transversally driven collective spins.

A rotationally symmetric spin system in a longitudinal field, prepared in a
total-spin eigenstate |S, m> and rotated by a transverse drive, has an energy
density whose full statistics reduce to one-body angular-momentum algebra.
This module provides the closed forms (standard deviation, mean, even central
moments, Bessel characteristic function, bounded arcsine density) together
with the exact (2S+1)-dimensional ladder computation that backs them for any
finite S.

Units: hbar = 1 throughout; m is the z projection in units of hbar, fields
are energies, and densities are per lattice site.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .special import bessel_j0

__all__ = [
    "SpinSector",
    "DriveSchedule",
    "EmpiricalDistribution",
    "UndefinedSpinError",
    "ScheduleRangeError",
    "DegenerateDistributionError",
    "InvalidSectorError",
    "doubled_spin",
    "ladder_index",
    "up_count",
    "analytic_sigma",
    "analytic_energy_mean",
    "central_moment",
    "characteristic_value",
    "arcsine_density",
    "arcsine_cdf",
    "eigenweight_distribution",
    "ks_distance_to_arcsine",
    "wigner_d_column",
]


class InvalidSectorError(ValueError):
    """Raised for quantum numbers (N, S, m) that name no state of N spin-1/2 sites."""


class UndefinedSpinError(ValueError):
    """Raised when a quantity needs m/S and the sector has S = 0."""


class ScheduleRangeError(ValueError):
    """Raised when a requested time lies outside the drive schedule."""


class DegenerateDistributionError(ValueError):
    """Raised when a zero-width distribution is used where a density is needed."""


def _require_finite(value: float, name: str) -> None:
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")


def _doubled(value: float, name: str) -> int:
    # the one rounding of a half-integer quantum number: 2 * value, within 1e-9
    if not math.isfinite(value):
        raise InvalidSectorError(f"{name} must be finite, got {value}")
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-9:
        raise InvalidSectorError(f"{name} must be a half-integer, got {value}")
    return doubled


def doubled_spin(n_sites: int, s_tot: float) -> int:
    """2S, once S is checked to be a total spin of n_sites spin-1/2 sites."""
    if n_sites < 0:
        raise InvalidSectorError(f"n_sites must be non-negative, got {n_sites}")
    doubled = _doubled(s_tot, "s_tot")
    if doubled < 0:
        raise InvalidSectorError("s_tot must be non-negative")
    if doubled > n_sites:
        raise InvalidSectorError("s_tot cannot exceed n_sites/2 for spin-1/2 constituents")
    if (n_sites - doubled) % 2:
        raise InvalidSectorError("n_sites/2 - s_tot must be an integer")
    return doubled


def ladder_index(s_tot: float, m: float) -> int:
    """m + S, the index of |S, m> in the ascending ladder, once (S, m) is checked to name one."""
    doubled_s = _doubled(s_tot, "s_tot")
    doubled_m = _doubled(m, "m")
    if doubled_s < 0:
        raise InvalidSectorError("s_tot must be non-negative")
    if abs(doubled_m) > doubled_s:
        raise InvalidSectorError("|m| cannot exceed s_tot")
    if (doubled_s - doubled_m) % 2:
        raise InvalidSectorError("s_tot - |m| must be an integer")
    return (doubled_s + doubled_m) // 2


def up_count(n_sites: int, m: float) -> int:
    """Up spins of the S_z^tot = m sector of n_sites spin-1/2 sites; the one
    check that m is a finite half-integer with m + n_sites/2 an integer in [0, N]."""
    doubled = _doubled(m, "m")
    if (n_sites + doubled) % 2 or abs(doubled) > n_sites:
        raise InvalidSectorError(f"m = {m} is not a magnetization of {n_sites} spin-1/2 sites")
    return (n_sites + doubled) // 2


@dataclass(frozen=True)
class SpinSector:
    """Quantum numbers (N, S, m) of a collective-spin initial state."""

    n_sites: int
    s_tot: float
    m: float

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be a positive integer")
        doubled = doubled_spin(self.n_sites, self.s_tot)
        index = ladder_index(self.s_tot, self.m)
        # keep the exact half-integers, so a tolerance-zero S meets the S = 0 checks
        object.__setattr__(self, "s_tot", doubled / 2)
        object.__setattr__(self, "m", index - doubled / 2)

    @property
    def w(self) -> float:
        """Reduced polarization m/S; undefined for the S = 0 singlet."""
        if self.s_tot == 0:
            raise UndefinedSpinError("w = m/s_tot is undefined for s_tot = 0")
        return self.m / self.s_tot

    @property
    def dim(self) -> int:
        return doubled_spin(self.n_sites, self.s_tot) + 1


@dataclass(frozen=True)
class DriveSchedule:
    """Piecewise-constant transverse drive on top of a static longitudinal field.

    ``mode`` selects whether the transverse field replaces the system
    Hamiltonian during the drive or augments it; ``segments`` is an ordered
    tuple of (duration, b_y) pairs and ``b_z`` the longitudinal field.
    """

    mode: Literal["replace", "augment"]
    segments: tuple[tuple[float, float], ...]
    b_z: float

    def __post_init__(self):
        if self.mode not in ("replace", "augment"):
            raise ValueError(f"unknown drive mode {self.mode!r}")
        object.__setattr__(
            self,
            "segments",
            tuple((float(d), float(b)) for d, b in self.segments),
        )
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        _require_finite(self.b_z, "b_z")
        total_turn = total_duration = 0.0
        for index, (duration, b_y) in enumerate(self.segments):
            _require_finite(duration, f"segment {index} duration")
            if not duration > 0.0:
                raise ValueError("segment durations must be strictly positive")
            _require_finite(b_y, f"segment {index} b_y")
            # the angle every route turns the spins by: cos and sin of an infinite one fail
            turn = (math.hypot(b_y, self.b_z) if self.mode == "augment" else b_y) * duration
            _require_finite(turn, f"segment {index} turn angle")
            total_turn += abs(turn)
            total_duration += duration
        # the running sums of _rotated_axes and boundary_times stay below these;
        # a plain sum, since fsum raises OverflowError where one overflows
        _require_finite(total_turn, f"the {self.mode} drive's total turn angle")
        _require_finite(total_duration, f"the {self.mode} drive's total duration")

    @cached_property
    def total_duration(self) -> float:
        return math.fsum(d for d, _ in self.segments)

    def pieces(self, t: float) -> list[tuple[float, float]]:
        """(step, b_y) of each segment entered by time t, the last cut at t: the
        one rule by which every module reads a drive up to t.  t outside
        [-1e-12, T + 1e-9], NaN included, raises :class:`ScheduleRangeError`."""
        if not -1e-12 <= t <= self.total_duration + 1e-9:
            raise ScheduleRangeError(f"t = {t} outside schedule span [0, {self.total_duration}]")
        out = []
        start = 0.0
        for duration, b_y in self.segments:
            if t <= start:
                break
            # the running sum of boundary_times, so each boundary cuts exactly there
            end = start + duration
            out.append((duration, b_y) if t >= end else (t - start, b_y))
            start = end
        return out

    def boundary_times(self) -> list[float]:
        times = [0.0]
        for duration, _ in self.segments:
            times.append(times[-1] + duration)
        return times


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Discrete energy-density law: (value, weight) pairs sorted by value."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple(sorted((float(v), float(w)) for v, w in self.points))
        object.__setattr__(self, "points", pts)
        weights = np.array([w for _, w in pts])
        if weights.size == 0:
            raise ValueError("empirical distribution needs at least one point")
        for label, column in (("values", np.array([v for v, _ in pts])), ("weights", weights)):
            bad = column[~np.isfinite(column)]
            if bad.size:
                raise ValueError(f"empirical {label} must be finite, got {float(bad[0])!r}")
        if np.any(weights < -1e-12):
            raise ValueError("empirical weights must be non-negative")
        total = math.fsum(w for _, w in pts)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"empirical weights sum to {total}, not 1 within 1e-12")

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.points])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.points])

    def mean(self) -> float:
        return float(np.dot(self.weights, self.values))

    def central_moment(self, order: int) -> float:
        delta = self.values - self.mean()
        return float(np.dot(self.weights, delta**order))

    def variance(self) -> float:
        return self.central_moment(2)

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def characteristic(self, q: float) -> complex:
        """Mean of exp(iq (value - mean)) under the weights."""
        delta = self.values - self.mean()
        return complex(np.dot(self.weights, np.exp(1j * q * delta)))

    def to_json_dict(self) -> dict:
        return {
            "type": "empirical",
            "points": [{"value": v, "weight": w} for v, w in self.points],
        }


def _rotated_axes(schedule: DriveSchedule, steps) -> list[tuple[float, float]]:
    """Row k: (n_perp, n_z), the transverse and z parts of the image of z-hat
    after the first k (step, b_y) of ``steps``, from one accumulation; row 0
    is z-hat.  Replace mode turns it by the running sum theta of b_y step
    about y: (|sin theta|, cos theta).  Each augment step turns it by B step
    about k = (0, b_y, B_z)/B, B = hypot(b_y, B_z) (Rodrigues).  Every k lies
    in the y-z plane, where x -> -x maps each turn to its inverse, so the
    turns' order and sense leave n_perp and n_z unchanged."""
    axes = [(0.0, 1.0)]
    if schedule.mode == "replace":
        thetas = itertools.accumulate(b_y * step for step, b_y in steps)
        return axes + [(abs(math.sin(theta)), math.cos(theta)) for theta in thetas]
    n_x, n_y, n_z = 0.0, 0.0, 1.0
    for step, b_y in steps:
        b_total = math.hypot(b_y, schedule.b_z)
        if b_total > 0.0:  # no field, no turn
            k_y, k_z = b_y / b_total, schedule.b_z / b_total
            cos, sin = math.cos(b_total * step), math.sin(b_total * step)
            along = (k_y * n_y + k_z * n_z) * (1.0 - cos)  # (k . n)(1 - cos)
            n_x, n_y, n_z = (
                n_x * cos + (k_y * n_z - k_z * n_y) * sin,
                n_y * cos + k_z * n_x * sin + k_y * along,
                n_z * cos - k_y * n_x * sin + k_z * along,
            )
        axes.append((math.hypot(n_x, n_y), n_z))
    return axes


def _rotated_axis(schedule: DriveSchedule, t_f: float) -> tuple[float, float]:
    """(n_perp, n_z) at t_f: the last row of ``_rotated_axes`` over ``pieces(t_f)``."""
    return _rotated_axes(schedule, schedule.pieces(t_f))[-1]


def _sigma_prefactor(sector: SpinSector, schedule: DriveSchedule) -> float:
    """|B_z| S sqrt(1 + 1/S - w^2) / (N sqrt(2)), exact for all S: ``analytic_sigma`` over n_perp."""
    if sector.s_tot == 0:
        raise UndefinedSpinError("sigma needs w = m/s_tot; s_tot = 0 sector rejected")
    return (
        abs(schedule.b_z)
        * sector.s_tot
        / (sector.n_sites * math.sqrt(2.0))
        * math.sqrt(max(1.0 + 1.0 / sector.s_tot - sector.w**2, 0.0))
    )


def analytic_sigma(sector: SpinSector, schedule: DriveSchedule, t_f: float) -> float:
    """Standard deviation of the energy density after driving to time t_f:
    B_z S n_perp sqrt(1 + 1/S - w^2) / (N sqrt(2)), with n_perp the
    transverse part of the rotated z axis (|sin theta| under replace)."""
    return _sigma_prefactor(sector, schedule) * _rotated_axis(schedule, t_f)[0]


def analytic_energy_mean(
    sector: SpinSector, schedule: DriveSchedule, t_f: float, e_symm: float = 0.0
) -> float:
    """Mean energy density (e_symm - B_z m n_z)/N at drive time t_f, with n_z
    the z part of the rotated z axis (cos theta under replace): <S_z(t)> = m n_z.

    e_symm is the rotationally invariant part of the global energy in the
    initial eigenstate; the width formulas are independent of it.
    """
    _require_finite(e_symm, "e_symm")
    return (e_symm - schedule.b_z * sector.m * _rotated_axis(schedule, t_f)[1]) / sector.n_sites


def _ladder_arrays(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # m values ascending and raising amplitudes c_k = |S+|S,m_k>| of spin S = (dim - 1)/2
    s_tot = (dim - 1) / 2
    m_values = np.arange(dim, dtype=float) - s_tot
    below = m_values[:-1]
    couplings = np.sqrt(s_tot * (s_tot + 1.0) - below * (below + 1.0))
    return m_values, couplings


def central_moment(
    sector: SpinSector,
    schedule: DriveSchedule,
    t_f: float,
    g: int,
    method: Literal["asymptotic", "exact"] = "exact",
) -> float:
    """Even central moment <(delta eps)^(2g)> of the energy density.

    "asymptotic" evaluates the large-N law binom(2g, g) (sigma^2/2)^g;
    "exact" applies B_z (n_z (S_z - m) + n_perp S_x), the energy about its
    mean with (n_perp, n_z) the rotated z axis, g times to |S, m> in the
    (2S+1) representation and takes the squared norm (a turn about z brings
    the transverse part onto x and changes |S, m> only by a phase; global
    energy internally, divided by N^(2g) at the end, which avoids underflow
    for large N).  Odd moments vanish identically and are not parameterized
    here.
    """
    if g < 1:
        raise ValueError("moment index g must be a positive integer")
    if method == "asymptotic":
        sigma_sq = analytic_sigma(sector, schedule, t_f) ** 2
        return float(math.comb(2 * g, g)) * (0.5 * sigma_sq) ** g
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    if sector.s_tot == 0:
        raise UndefinedSpinError("exact moments need w; s_tot = 0 sector rejected")
    n_perp, n_z = _rotated_axis(schedule, t_f)
    m_values, couplings = _ladder_arrays(sector.dim)
    diag = schedule.b_z * n_z * (m_values - sector.m)
    off = schedule.b_z * n_perp * couplings / 2.0
    vec = np.zeros(len(m_values))
    vec[ladder_index(sector.s_tot, sector.m)] = 1.0
    for _ in range(g):
        nxt = diag * vec
        nxt[:-1] += off * vec[1:]
        nxt[1:] += off * vec[:-1]
        vec = nxt
    global_moment = float(np.dot(vec, vec))
    return global_moment / float(sector.n_sites) ** (2 * g)


def characteristic_value(q: float, sigma: float) -> float:
    """Characteristic function J0(q sigma sqrt(2)) of the arcsine law."""
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    return bessel_j0(q * sigma * math.sqrt(2.0))


def arcsine_density(value: float, center: float, width: float) -> float:
    """Bounded arcsine density with standard deviation ``width`` about ``center``.

    Supported on |value - center| < width sqrt(2); exactly zero outside.
    """
    if width <= 0.0:
        raise DegenerateDistributionError(
            "zero-width distribution has no density; use a point mass"
        )
    delta = value - center
    radicand = 2.0 - (delta / width) ** 2
    if radicand <= 0.0:
        return 0.0
    return 1.0 / (math.pi * width * math.sqrt(radicand))


def arcsine_cdf(value: float, center: float, width: float) -> float:
    """Cumulative distribution of :func:`arcsine_density`."""
    if width <= 0.0:
        raise DegenerateDistributionError(
            "zero-width distribution has no density; use a point mass"
        )
    span = width * math.sqrt(2.0)
    delta = value - center
    if delta <= -span:
        return 0.0
    if delta >= span:
        return 1.0
    return 0.5 + math.asin(delta / span) / math.pi


def wigner_d_column(s_tot: float, m: float, theta: float) -> np.ndarray:
    """Column d^S_{m', m}(theta) of the rotation about y, m' ascending.

    Computed by diagonalizing the real symmetric tridiagonal similarity
    transform of the S_y generator (stable for any S, unlike factorial
    formulas); the returned column is renormalized to unit norm.
    """
    col_index = ladder_index(s_tot, m)
    dim = _doubled(s_tot, "s_tot") + 1
    if dim == 1:
        return np.ones(1)
    _, couplings = _ladder_arrays(dim)
    eigvals, eigvecs = eigh_tridiagonal(np.zeros(dim), couplings / 2.0)
    phase = (1j) ** np.arange(dim)
    rotated = eigvecs @ (np.exp(-1j * theta * eigvals) * eigvecs[col_index, :])
    column = np.real(np.conj(phase) * rotated * phase[col_index])
    return column / np.linalg.norm(column)


def eigenweight_distribution(
    sector: SpinSector, schedule: DriveSchedule, t_f: float, e_symm: float = 0.0
) -> EmpiricalDistribution:
    """Exact weights |d^S_{m',m}(beta)|^2 on energies (e_symm - B_z m')/N after
    driving to time t_f, with beta = atan2(n_perp, n_z) the polar angle of the
    rotated z axis: a rotation that takes z-hat there is R_z R_y(beta) R_z,
    and its turns about z change only the phases of the amplitudes."""
    _require_finite(e_symm, "e_symm")
    column = wigner_d_column(sector.s_tot, sector.m, math.atan2(*_rotated_axis(schedule, t_f)))
    weights = column**2
    weights = weights / weights.sum()
    m_values = np.arange(sector.dim, dtype=float) - sector.s_tot
    energies = (e_symm - schedule.b_z * m_values) / sector.n_sites
    merged: dict[float, float] = {}
    for value, weight in zip(energies.tolist(), weights.tolist()):
        merged[value] = merged.get(value, 0.0) + weight
    return EmpiricalDistribution(points=tuple(merged.items()))


def ks_distance_to_arcsine(
    distribution: EmpiricalDistribution, center: float, width: float
) -> float:
    """Kolmogorov-Smirnov distance between step weights and the arcsine CDF."""
    running = 0.0
    worst = 0.0
    for value, weight in distribution.points:
        target = arcsine_cdf(value, center, width)
        worst = max(worst, abs(running - target), abs(running + weight - target))
        running += weight
    return worst
