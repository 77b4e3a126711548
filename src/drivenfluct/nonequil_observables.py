"""Smeared-observable phenomenology of systems with a broadened intensive parameter.

When an intensive parameter (energy density, temperature, chemical potential)
carries a finite width instead of an equilibrium delta function, observables
become kernel-weighted averages of their equilibrium curves.  This module
implements that averaging plus its three concrete consequences: the erfc law
for supercooled-liquid viscosity with per-liquid width fitting and the
universal collapse coordinates, chemical-potential-smeared coherent Green's
functions with their spectral sum rule, and temperature-smeared thermal
radiance.  The arcsine-versus-Gaussian moment bookkeeping that separates the
driven-state distribution from the relaxed one is included for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.special import wofz

from .collective_spin import EmpiricalDistribution
from .special import erfc, log_erfc

__all__ = [
    "DeltaKernel",
    "GaussianKernel",
    "EmpiricalKernel",
    "SmearKernel",
    "ViscosityRecord",
    "ViscosityDataset",
    "CollapseFit",
    "GreenResult",
    "InsufficientDataError",
    "KernelDomainError",
    "kernel_average",
    "tabulated_curve",
    "glass_sigma",
    "viscosity_predict",
    "log10_viscosity_predict",
    "collapse_abscissa",
    "master_curve",
    "fit_collapse",
    "golden_section_minimize",
    "smeared_green",
    "spectral_weight",
    "planck_radiance",
    "smeared_planck",
    "moment_compare",
]

_LN10 = math.log(10.0)
# the largest x at which e^x, and so math.expm1(x), is a finite float
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)
# Gaussian kernels are integrated over +-12 sigma; the excluded tail mass is
# below 1e-32, far under the quadrature's tolerance (see kernel_average).
_GAUSS_SPAN = 12.0
_QUAD_KW = {"epsabs": 1e-14, "epsrel": 1e-9, "limit": 200}
_GOLDEN_TOL = 1e-10


class InsufficientDataError(ValueError):
    """Raised when a liquid has too few retained rows to fit."""


class KernelDomainError(ValueError):
    """Raised when a kernel's support leaves the domain an operation needs."""


@dataclass(frozen=True)
class GaussianKernel:
    """Normal weight over the parameter, sigma > 0."""

    mean: float
    sigma: float

    def __post_init__(self):
        if not -math.inf < self.mean < math.inf:
            raise ValueError(f"gaussian kernel needs a finite mean, got {self.mean!r}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"gaussian kernel needs finite sigma > 0, got {self.sigma!r}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.mean - _GAUSS_SPAN * self.sigma, self.mean + _GAUSS_SPAN * self.sigma)

    def density(self, value: float) -> float:
        z = (value - self.mean) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))


# An empirical kernel is exactly an empirical distribution over the parameter.
EmpiricalKernel = EmpiricalDistribution
SmearKernel = Union[GaussianKernel, EmpiricalDistribution]


def DeltaKernel(at: float) -> EmpiricalDistribution:
    """Point mass at one parameter value: the one-atom empirical kernel."""
    if not -math.inf < at < math.inf:
        raise ValueError(f"delta kernel needs a finite location, got {at!r}")
    return EmpiricalDistribution(points=((at, 1.0),))


def tabulated_curve(xs: Sequence[float], ys: Sequence[float]) -> Callable[[float], float]:
    """Linear interpolant through (xs, ys), rejecting out-of-range queries."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need matching 1-d tables with at least two points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("table abscissae must be strictly increasing")

    def curve(x: float) -> float:
        if x < xs[0] - 1e-12 or x > xs[-1] + 1e-12:
            raise KernelDomainError(f"query {x} outside table range [{xs[0]}, {xs[-1]}]")
        return float(np.interp(x, xs, ys))

    return curve


def kernel_average(kernel: SmearKernel, curve: Callable[[float], float]) -> float:
    """Weighted average of an equilibrium curve over the kernel.

    Empirical kernels, delta ones included, are summed exactly by ``fsum``;
    Gaussian kernels use adaptive quadrature over +-12 sigma, which stops
    once its error estimate is within max(1e-14, 1e-9 |value|): relative
    1e-9 where |value| exceeds about 1e-5, and only absolute 1e-14 below
    that.  The error estimate itself is neither returned nor checked.
    ``scipy.integrate.quad`` is imported here, in the Gaussian branch, and
    not at module level: importing ``scipy.integrate`` also loads
    ``scipy.optimize`` (about 0.25 s), and this branch, reached through
    ``smeared_planck`` and ``spectral_weight``, is the only caller.
    """
    if isinstance(kernel, EmpiricalDistribution):
        return float(math.fsum(w * curve(v) for v, w in kernel.points))
    if isinstance(kernel, GaussianKernel):
        from scipy.integrate import quad

        lo, hi = kernel.support
        value, _ = quad(lambda q: kernel.density(q) * curve(q), lo, hi, **_QUAD_KW)
        return float(value)
    raise TypeError(f"unknown kernel type {type(kernel).__name__}")


def glass_sigma(
    temperature: float,
    eps_of_temperature: Callable[[float], float],
    t_melt: float,
    eps_melt: float,
    abar: float,
) -> float:
    """Energy-density width A T (eps_melt - eps(T)) / (T_melt - T) below melting."""
    if not 0.0 < temperature < t_melt:
        raise ValueError("temperature must lie strictly between 0 and t_melt")
    return abar * temperature * (eps_melt - eps_of_temperature(temperature)) / (t_melt - temperature)


def collapse_abscissa(temperature: float, t_melt: float, abar: float) -> float:
    """Collapse coordinate x = (T_melt - T) / (A T sqrt(2))."""
    return (t_melt - temperature) / (abar * temperature * math.sqrt(2.0))


def log10_viscosity_predict(
    temperature: float, t_melt: float, abar: float, eta_melt: float
) -> float:
    """log10 of the erfc viscosity law, stable arbitrarily deep below melting."""
    if abar <= 0.0:
        raise ValueError("abar must be positive")
    if not 0.0 < temperature <= t_melt:
        raise ValueError("temperature must lie in (0, t_melt]")
    x = collapse_abscissa(temperature, t_melt, abar)
    return math.log10(eta_melt) - log_erfc(x) / _LN10


def viscosity_predict(
    temperature: float, t_melt: float, abar: float, eta_melt: float
) -> float:
    """Viscosity eta_melt / erfc((T_melt - T)/(A T sqrt(2))); may overflow to inf
    at very deep supercooling, where the log10 form stays finite."""
    if abar <= 0.0:
        raise ValueError("abar must be positive")
    if not 0.0 < temperature <= t_melt:
        raise ValueError("temperature must lie in (0, t_melt]")
    denominator = erfc(collapse_abscissa(temperature, t_melt, abar))
    if denominator > 0.0:
        return eta_melt / denominator
    return math.inf


def master_curve(x: float) -> float:
    """Normalized viscosity 1/erfc(x) that every conforming liquid collapses onto."""
    return 1.0 / erfc(x)


def golden_section_minimize(
    fn: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Golden-section scan refined by one parabolic step; returns (x, f(x)).

    The scan stops at a bracket width of 1e-10.  Absolute accuracy of the
    argmin is additionally limited by the usual sqrt(eps) plateau of the
    objective around its minimum.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > _GOLDEN_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    # parabolic refinement through the bracket midpoints
    xm = 0.5 * (a + b)
    fm = fn(xm)
    h = 0.5 * (b - a)
    if h > 0.0:
        f_lo, f_hi = fn(max(a, lo)), fn(min(b, hi))
        denom = f_lo - 2.0 * fm + f_hi
        if denom > 0.0:
            shift = 0.5 * h * (f_lo - f_hi) / denom
            candidate = xm + max(-h, min(h, shift))
            f_candidate = fn(candidate)
            if f_candidate < fm:
                return candidate, f_candidate
    return xm, fm


@dataclass(frozen=True)
class ViscosityRecord:
    """Per-liquid (T, eta) rows with liquidus metadata.

    Rows above the liquidus temperature are legal (published datasets include
    them) but flagged and excluded from fitting.
    """

    liquid_id: str
    rows: tuple[tuple[float, float], ...]
    t_liquidus: float
    eta_liquidus: float

    def __post_init__(self):
        # the chained form fails nan as well as non-positive and infinite values
        if not (0.0 < self.t_liquidus < math.inf and 0.0 < self.eta_liquidus < math.inf):
            raise ValueError(f"{self.liquid_id}: liquidus metadata must be positive and finite")
        rows = tuple((float(t), float(eta)) for t, eta in self.rows)
        for t, eta in rows:
            if not (0.0 < t < math.inf and 0.0 < eta < math.inf):
                raise ValueError(f"{self.liquid_id}: rows need positive, finite T and eta")
        object.__setattr__(self, "rows", rows)

    @property
    def flagged_rows(self) -> tuple[int, ...]:
        return tuple(i for i, (t, _) in enumerate(self.rows) if t > self.t_liquidus)

    @property
    def retained_rows(self) -> tuple[tuple[float, float], ...]:
        return tuple((t, eta) for t, eta in self.rows if t <= self.t_liquidus)


@dataclass(frozen=True)
class ViscosityDataset:
    records: tuple[ViscosityRecord, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "records", tuple(sorted(self.records, key=lambda r: r.liquid_id))
        )
        ids = [r.liquid_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate liquid ids in dataset")


@dataclass(frozen=True)
class CollapseFit:
    """Fitted width parameter and collapse coordinates for one liquid."""

    liquid_id: str
    abar: float
    residual_rms: float
    points: tuple[tuple[float, float], ...]
    at_boundary: bool

    def to_json_dict(self) -> dict:
        return {
            "liquid_id": self.liquid_id,
            "abar": self.abar,
            "residual_rms": self.residual_rms,
            "at_boundary": self.at_boundary,
            "n_points": len(self.points),
        }


def _fit_single(
    record: ViscosityRecord, abar_bounds: tuple[float, float]
) -> CollapseFit:
    retained = record.retained_rows
    if len(retained) < 3:
        raise InsufficientDataError(
            f"{record.liquid_id}: {len(retained)} retained rows, need at least 3"
        )
    lo, hi = abar_bounds
    log_obs = [math.log10(eta) for _, eta in retained]

    def objective(abar: float) -> float:
        return math.fsum(
            (
                log10_viscosity_predict(t, record.t_liquidus, abar, record.eta_liquidus)
                - lobs
            )
            ** 2
            for (t, _), lobs in zip(retained, log_obs)
        )

    abar, best = golden_section_minimize(objective, lo, hi)
    # measured against abar, so the flag does not depend on the bracket width
    at_boundary = min(abar - lo, hi - abar) <= 1e-6 * abar
    points = tuple(
        (collapse_abscissa(t, record.t_liquidus, abar), eta / record.eta_liquidus)
        for t, eta in retained
    )
    for x, _ in points:
        if not math.isfinite(x):
            raise ArithmeticError(f"{record.liquid_id}: non-finite collapse abscissa")
    return CollapseFit(
        liquid_id=record.liquid_id,
        abar=abar,
        residual_rms=math.sqrt(best / len(retained)),
        points=points,
        at_boundary=at_boundary,
    )


def fit_collapse(
    dataset: ViscosityDataset, abar_bounds: tuple[float, float] = (0.001, 1.0)
) -> list[CollapseFit]:
    """Least-squares width parameter per liquid, fit on log10 viscosity.

    The 16-decade dynamic range of real data makes linear-eta least squares
    meaningless; the log10 target weights every decade equally.  The liquidus
    viscosity comes from the dataset metadata and is not fitted.
    """
    lo, hi = abar_bounds
    # the chained form fails nan as well as an infinite upper bound
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"abar bounds must satisfy 0 < lo < hi < inf, got lo = {lo!r}, hi = {hi!r}")
    return [_fit_single(record, abar_bounds) for record in dataset.records]


@dataclass(frozen=True)
class GreenResult:
    """Coherent Green's function on a frequency grid with its spectral function."""

    omega: np.ndarray
    values: np.ndarray
    spectral: np.ndarray


def _check_line_shape(eps_k: float, z_weight: float, lifetime: float) -> None:
    """The one check of a quasiparticle line: finite eps_k, Z in (0, 1], 0 < tau < inf."""
    if not -math.inf < eps_k < math.inf:
        raise ValueError(f"eps_k must be finite, got {eps_k!r}")
    if not 0.0 < z_weight <= 1.0:
        raise ValueError(f"z_weight must lie in (0, 1], got {z_weight!r}")
    if not 0.0 < lifetime < math.inf:
        raise ValueError(f"lifetime must be positive and finite, got {lifetime!r}")


def _lorentzian(omega: float, eps_k: float, mu: float, z_weight: float, lifetime: float) -> complex:
    return z_weight / complex(omega - eps_k + mu, 1.0 / lifetime)


def smeared_green(
    omega_grid: Sequence[float],
    eps_k: float,
    kernel: SmearKernel,
    z_weight: float,
    lifetime: float,
) -> GreenResult:
    """Coherent Green's function averaged over a chemical-potential kernel.

    G(omega) = integral d mu' P(mu') Z / (omega - eps_k + mu' + i/tau), with
    the spectral function A = -Im G / pi attached.  Z and tau are held fixed
    across the kernel (sweep momenta externally).  Empirical kernels (delta
    ones included) sum Lorentzians; a Gaussian kernel gives the Voigt profile
    G = -i Z sqrt(pi/2)/sigma w((omega - eps_k + mean + i/tau)/(sigma sqrt 2)),
    with w the Faddeeva function, evaluated over the whole grid at once.
    """
    omega = np.asarray(omega_grid, dtype=float)
    if omega.ndim != 1 or omega.size == 0:
        raise ValueError("omega_grid must be a non-empty 1-d sequence")
    if not np.isfinite(omega).all():
        raise ValueError("omega_grid values must all be finite")
    if np.any(np.diff(omega) < 0):
        raise ValueError("omega_grid must be sorted ascending")
    _check_line_shape(eps_k, z_weight, lifetime)

    if isinstance(kernel, GaussianKernel):
        scale = kernel.sigma * math.sqrt(2.0)
        values = (-1j * z_weight * math.sqrt(math.pi) / scale) * wofz(
            (omega - eps_k + kernel.mean + 1j / lifetime) / scale
        )
    elif isinstance(kernel, EmpiricalDistribution):
        values = np.array(
            [sum(weight * _lorentzian(w, eps_k, mu, z_weight, lifetime) for mu, weight in kernel.points) for w in omega]
        )
    else:
        raise TypeError(f"unknown kernel type {type(kernel).__name__}")
    spectral = -values.imag / math.pi
    return GreenResult(omega=omega, values=values, spectral=spectral)


def spectral_weight(
    eps_k: float,
    kernel: SmearKernel,
    z_weight: float,
    lifetime: float,
    omega_lo: float,
    omega_hi: float,
) -> float:
    """Closed-form integral of the spectral function over [omega_lo, omega_hi].

    Each Lorentzian contributes (Z/pi)(atan((omega - eps_k + mu) tau)) at the
    limits; the kernel average of that primitive is exact up to quadrature,
    making this the independent check of the sum rule (total weight -> Z).
    """
    _check_line_shape(eps_k, z_weight, lifetime)

    def primitive(mu: float) -> float:
        return (z_weight / math.pi) * (
            math.atan((omega_hi - eps_k + mu) * lifetime)
            - math.atan((omega_lo - eps_k + mu) * lifetime)
        )

    return kernel_average(kernel, primitive)


def planck_radiance(nu: float, temperature: float) -> float:
    """Thermal occupancy 1/(e^(nu/T) - 1); the 2 h nu / c^3 prefactor is unity here.

    Past nu/T = log(max float), where e^(nu/T) overflows, it is evaluated as
    e^(-nu/T)/(1 - e^(-nu/T)), which underflows toward 0 instead.
    """
    if not 0.0 < nu < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {nu!r}")
    if not 0.0 < temperature < math.inf:
        raise KernelDomainError(f"temperature must be positive and finite, got {temperature!r}")
    x = nu / temperature
    if x > _LOG_MAX_FLOAT:
        return math.exp(-x) / -math.expm1(-x)
    return 1.0 / math.expm1(x)


def smeared_planck(
    nu: float,
    kernel: SmearKernel,
    ptei_weight: float = 0.0,
    ptei_temperature: float | None = None,
) -> float:
    """Planck radiance averaged over an effective-temperature kernel.

    Adds ptei_weight/(e^(nu/T) - 1) for the phase-transition energy window
    pinned at the nominal temperature; the window's weight is a free
    parameter since only its functional form is fixed.  A delta kernel's one
    atom of weight 1 gives :func:`planck_radiance` itself (bit-identical to
    the unsmeared law, since fsum([1.0 * x]) == x).
    """
    if not 0.0 <= ptei_weight <= 1.0:
        raise ValueError("ptei_weight must lie in [0, 1]")
    if isinstance(kernel, GaussianKernel) and kernel.support[0] <= 0.0:
        raise KernelDomainError("gaussian temperature kernel support touches T <= 0")
    if isinstance(kernel, EmpiricalDistribution) and any(
        t <= 0.0 for t, _ in kernel.points
    ):
        raise KernelDomainError("temperature kernel has points at T <= 0")
    value = kernel_average(kernel, lambda t: planck_radiance(nu, t))
    if ptei_weight > 0.0:
        if ptei_temperature is None or not 0.0 < ptei_temperature < math.inf:
            raise ValueError(f"ptei contribution needs a positive, finite ptei_temperature, got {ptei_temperature!r}")
        value += ptei_weight * planck_radiance(nu, ptei_temperature)
    return value


def moment_compare(g: int, sigma: float) -> tuple[float, float]:
    """Order-2g central moments of the arcsine and Gaussian laws at equal sigma.

    Arcsine counting gives binom(2g, g)(sigma^2/2)^g, Gaussian pairing gives
    (2g)!/(2^g g!) sigma^(2g); they agree only at g = 1.  Both are formed as
    exact rationals and rounded once, so neither overflows or underflows
    before its value does.
    """
    if g < 1:
        raise ValueError("g must be a positive integer")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    # sigma^(2g) / 2^g as an exact ratio of integers; int / int rounds once
    num, den = sigma.as_integer_ratio()
    num, den = num ** (2 * g), 2**g * den ** (2 * g)
    try:
        # the Gaussian moment is g! times the arcsine one, so it overflows first
        gaussian = math.perm(2 * g, g) * num / den
    except OverflowError:
        raise ArithmeticError(f"g = {g}: the Gaussian moment overflows a float") from None
    return math.comb(2 * g, g) * num / den, gaussian
