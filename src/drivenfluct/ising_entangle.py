"""Domain-wall statistics, Dicke entanglement, and total-spin multiplicities.

Fixed-wall-count eigenstates of the open Ising chain reproduce thermal
correlators; permutation-symmetric (Dicke) states carry an entanglement
entropy that grows logarithmically with subsystem size; and SU(2) character
counting gives the exact multiplicity of each total-spin sector.  All combinatorics
run in exact integers and rationals, since the binomials overflow fixed-width arithmetic
long before the system sizes of interest; each ratio is rounded to float once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Literal, NamedTuple

import numpy as np

from .collective_spin import InvalidSectorError, doubled_spin, up_count

__all__ = [
    "ENUMERATION_MAX_LENGTH",
    "DomainWallEnsemble",
    "DickeSplit",
    "ThermalPoint",
    "InvalidSectorError",
    "UnphysicalEnergyError",
    "domain_wall_correlator",
    "correlator_fraction",
    "temperature_energy_maps",
    "dicke_entanglement",
    "dicke_split_sigma_sq",
    "ising_split_sigma_sq",
    "saddle_entropy",
    "spin_multiplicity",
    "spin_multiplicities",
    "spin_multiplicity_log",
]

ENUMERATION_MAX_LENGTH = 20


class UnphysicalEnergyError(ValueError):
    """Raised for chain energies outside the spectrum of the Ising chain."""


@dataclass(frozen=True)
class DomainWallEnsemble:
    """Open Ising chain eigenstates labeled by an exact domain-wall count."""

    chain_length: int
    wall_count: int
    coupling: float = 1.0

    def __post_init__(self):
        if self.chain_length < 2:
            raise ValueError("chain_length must be at least 2")
        if not 0 <= self.wall_count <= self.bond_count:
            raise ValueError("wall_count must lie in [0, chain_length - 1]")
        if not 0.0 < self.coupling < math.inf:
            raise ValueError(f"coupling must be positive and finite, got {self.coupling!r}")

    @property
    def bond_count(self) -> int:
        return self.chain_length - 1

    @property
    def energy(self) -> float:
        # k broken bonds at +J, the rest at -J (spins are +-1 here)
        return -self.coupling * (self.bond_count - 2 * self.wall_count)

    @cached_property
    def _wall_masks(self) -> np.ndarray:
        """Every configuration of the ensemble as a bit mask over the bonds
        (bit b marks a wall on bond b), ascending and read-only: filtered
        from all 2^(L-1) masks once per ensemble, for every distance."""
        configs = np.arange(1 << self.bond_count, dtype=np.uint32)
        configs = configs[np.bitwise_count(configs) == self.wall_count]
        configs.flags.writeable = False
        return configs


def _enumeration_fraction(ensemble: DomainWallEnsemble, distance: int, site: int) -> Fraction:
    # S^z_r S^z_{r+d} is -1 exactly when an odd number of walls sits on the
    # bonds r .. r+d-1
    configs = ensemble._wall_masks
    window = ((1 << distance) - 1) << site
    odd = int(np.count_nonzero(np.bitwise_count(configs & window) & 1))
    return Fraction(configs.size - 2 * odd, configs.size)


def _hypergeometric_fraction(ensemble: DomainWallEnsemble, distance: int) -> Fraction:
    bonds = ensemble.bond_count
    k = ensemble.wall_count
    denom = math.comb(bonds, k)
    total = 0
    for j in range(0, min(distance, k) + 1):
        total += (-1) ** j * math.comb(distance, j) * math.comb(bonds - distance, k - j)
    return Fraction(total, denom)


def correlator_fraction(
    ensemble: DomainWallEnsemble,
    distance: int,
    method: Literal["enumeration", "hypergeometric"],
    site: int = 0,
) -> Fraction:
    """Exact rational <S^z_r S^z_{r+d}> for the two exact methods.

    "enumeration" lists every wall configuration as a bit mask over the
    bonds (2^(L-1) masks, hence the cap at chain length 20) and counts those
    with an odd number of walls between r and r+d; "hypergeometric" sums the
    closed form over the wall count inside that window.
    """
    if not 1 <= distance <= ensemble.bond_count - site:
        raise ValueError(f"distance {distance} out of range for site {site}")
    if method == "enumeration":
        if ensemble.chain_length > ENUMERATION_MAX_LENGTH:
            raise ValueError(
                f"enumeration capped at chain length {ENUMERATION_MAX_LENGTH}"
            )
        return _enumeration_fraction(ensemble, distance, site)
    if method == "hypergeometric":
        return _hypergeometric_fraction(ensemble, distance)
    raise ValueError(f"{method!r} has no exact rational form")


def domain_wall_correlator(
    ensemble: DomainWallEnsemble,
    distance: int,
    method: Literal["enumeration", "hypergeometric", "asymptotic", "thermal"],
    beta: float | None = None,
    site: int = 0,
) -> float:
    """Two-point spin correlator at the given separation, by four routes.

    "enumeration" averages S^z_r S^z_{r+d} over the equal-amplitude
    superposition of all fixed-wall-count configurations, enumerated as bit
    masks (the correlator is diagonal in the product basis, so the state
    average is the configuration average; it is independent of r, which
    tests may verify by varying ``site``).  "hypergeometric" is the same
    number in closed form, "asymptotic" the independent-bond limit
    ((B - 2k)/B)^d, and "thermal" the canonical-chain value tanh(beta J)^d.
    """
    if method in ("enumeration", "hypergeometric"):
        return float(correlator_fraction(ensemble, distance, method, site=site))
    if not 1 <= distance <= ensemble.bond_count:
        raise ValueError(f"distance {distance} out of range")
    if method == "asymptotic":
        bonds = ensemble.bond_count
        return ((bonds - 2 * ensemble.wall_count) / bonds) ** distance
    if method == "thermal":
        if beta is None:
            raise ValueError("thermal method needs beta")
        return math.tanh(beta * ensemble.coupling) ** distance
    raise ValueError(f"unknown method {method!r}")


class ThermalPoint(NamedTuple):
    beta: float
    energy: float
    heat_capacity: float


def temperature_energy_maps(
    chain_length: int,
    coupling: float,
    energy: float | None = None,
    beta: float | None = None,
) -> ThermalPoint:
    """Open-chain map E = -J(L-1) tanh(beta J), used in either direction.

    The heat capacity L((beta J)^2 - (beta E / L)^2) is the large-L form; it
    diverges at the spectral edges where the inverse map sends E to
    beta = +-inf.
    """
    if (energy is None) == (beta is None):
        raise ValueError("provide exactly one of energy or beta")
    j = float(coupling)
    if not 0.0 < j < math.inf:
        raise ValueError(f"coupling must be positive and finite, got {j!r}")
    scale = j * (chain_length - 1)
    if beta is None:
        if abs(energy) > scale + 1e-12:
            raise UnphysicalEnergyError(
                f"|E| = {abs(energy)} exceeds the chain bound {scale}"
            )
        ratio = max(-1.0, min(1.0, -energy / scale))
        beta = math.inf if ratio == 1.0 else (-math.inf if ratio == -1.0 else math.atanh(ratio) / j)
    else:
        energy = -scale * math.tanh(beta * j)
    if math.isinf(beta):
        return ThermalPoint(beta=beta, energy=energy, heat_capacity=math.inf)
    heat_capacity = chain_length * ((beta * j) ** 2 - (beta * energy / chain_length) ** 2)
    return ThermalPoint(beta=beta, energy=energy, heat_capacity=heat_capacity)


@dataclass(frozen=True)
class DickeSplit:
    """Bipartition of a permutation-symmetric magnetization eigenstate."""

    n_sites: int
    m: float
    left_size: int

    def __post_init__(self):
        if not 1 <= self.left_size <= self.n_sites - 1:
            raise ValueError("left_size must leave both parts non-empty")
        up_count(self.n_sites, self.m)

    @property
    def right_size(self) -> int:
        return self.n_sites - self.left_size

    @property
    def n_up(self) -> int:
        return up_count(self.n_sites, self.m)


def _schmidt_weights(split: DickeSplit) -> list[float]:
    n_up = split.n_up
    total = math.comb(split.n_sites, n_up)
    lo = max(0, n_up - split.right_size)
    hi = min(split.left_size, n_up)
    return [
        math.comb(split.left_size, k) * math.comb(split.right_size, n_up - k) / total
        for k in range(lo, hi + 1)
    ]


def saddle_entropy(sigma_sq: float) -> float:
    """Entropy ln-width formula 0.5 ln(2 pi sigma^2 + 1) of a Gaussian weight profile."""
    if sigma_sq < 0.0:
        raise ValueError("sigma_sq must be non-negative")
    return 0.5 * math.log(2.0 * math.pi * sigma_sq + 1.0)


def dicke_split_sigma_sq(split: DickeSplit) -> float:
    """Gaussian width of the Schmidt profile from free-spin capacities.

    Non-interacting spins in a field with up fraction p have per-site number
    variance p(1-p); the energy constraint combines the two parts
    harmonically, giving sigma^2 = p(1-p) L_A L_B / N in up-count units.
    """
    p = split.n_up / split.n_sites
    return p * (1.0 - p) * split.left_size * split.right_size / split.n_sites


def ising_split_sigma_sq(
    chain_length: int, left_size: int, beta: float, coupling: float = 1.0
) -> float:
    """Gaussian width of an Ising-chain bipartition from chain heat capacities.

    sigma^2 = T^2 C_A C_B / (C_A + C_B) with each part's capacity from the
    open-chain formula at the shared inverse temperature.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    left = temperature_energy_maps(left_size, coupling, beta=beta)
    right = temperature_energy_maps(chain_length - left_size, coupling, beta=beta)
    c_eff = (
        left.heat_capacity
        * right.heat_capacity
        / (left.heat_capacity + right.heat_capacity)
    )
    return c_eff / beta**2


def dicke_entanglement(
    split: DickeSplit, method: Literal["exact", "saddle"] = "exact"
) -> float:
    """Bipartite entanglement entropy (nats) of a Dicke magnetization state.

    "exact" reduces the state analytically: the Schmidt weights are the
    hypergeometric fractions C(L_A, k) C(L_B, n-k) / C(N, n), each an exact
    integer ratio rounded once to float before the log.  "saddle" applies
    :func:`saddle_entropy` to the free-spin Gaussian width.
    """
    if method == "exact":
        entropy = 0.0
        for w in _schmidt_weights(split):
            if w > 0.0:  # a weight that underflows to 0.0 adds w ln w -> 0
                entropy -= w * math.log(w)
        return entropy
    if method == "saddle":
        return saddle_entropy(dicke_split_sigma_sq(split))
    raise ValueError(f"unknown method {method!r}")


def spin_multiplicity(
    n_sites: int,
    s_tot: float,
    method: Literal["exact", "gaussian"] = "exact",
) -> int | float:
    """Number of total-spin-S sectors among N coupled spin-1/2 sites.

    "exact" evaluates the SU(2) character count N!(2S+1)/((N/2+S+1)!(N/2-S)!)
    in exact integers, written as C(N, N/2-S)(2S+1)/(N/2+S+1).  "gaussian" is
    the fixed N >> S >> 1 approximation 2^(N+5/2) e^(-2S^2/N) S /
    (N^(3/2) sqrt(pi)); it overflows floats near N ~ 700, where
    :func:`spin_multiplicity_log` stays usable.  :func:`spin_multiplicities`
    gives every exact sector of one N in a single pass.
    """
    doubled = doubled_spin(n_sites, s_tot)
    if method == "exact":
        lower = (n_sites - doubled) // 2  # N/2 - S
        count, remainder = divmod(math.comb(n_sites, lower) * (doubled + 1), n_sites - lower + 1)
        if remainder:
            raise ArithmeticError("character count is not an integer")
        return count
    if method == "gaussian":
        try:
            return math.exp(spin_multiplicity_log(n_sites, s_tot, method="gaussian"))
        except ValueError:
            return 0.0
        except OverflowError:
            return math.inf
    raise ValueError(f"unknown method {method!r}")


def spin_multiplicities(n_sites: int) -> list[int]:
    """Exact multiplicity of every total spin of N spin-1/2 sites, for 2S = N mod 2, ..., N.

    One pass of the recurrence C(N, j+1) = C(N, j)(N - j)/(j + 1) over j = N/2 - S
    gives every binomial; each sector is then the character count of
    :func:`spin_multiplicity`, its exact division checked.
    """
    doubled_spin(n_sites, n_sites / 2)  # the top sector exists for every N >= 0
    counts = []
    binomial = 1  # C(N, 0)
    for lower in range(n_sites // 2 + 1):
        count, remainder = divmod(binomial * (n_sites - 2 * lower + 1), n_sites - lower + 1)
        if remainder:
            raise ArithmeticError("character count is not an integer")
        counts.append(count)
        binomial = binomial * (n_sites - lower) // (lower + 1)
    return counts[::-1]


def spin_multiplicity_log(
    n_sites: int,
    s_tot: float,
    method: Literal["exact", "gaussian"] = "exact",
) -> float:
    """Natural log of the multiplicity; the usable form at large N."""
    if method == "exact":
        return math.log(spin_multiplicity(n_sites, s_tot, method="exact"))
    if method == "gaussian":
        if doubled_spin(n_sites, s_tot) == 0:
            raise ValueError("gaussian form needs S > 0")
        return (
            (n_sites + 2.5) * math.log(2.0)
            - 2.0 * s_tot * s_tot / n_sites
            + math.log(s_tot)
            - 1.5 * math.log(n_sites)
            - 0.5 * math.log(math.pi)
        )
    raise ValueError(f"unknown method {method!r}")
