"""Two-Hamiltonian uncertainty machinery for open driven systems.

A subsystem Hamiltonian H (energy density H/N) and the static generator
H_total of the full motion obey a Robertson product bound whose right side
becomes the energy change rate through the Heisenberg equation, and in turn
bounds the product of mean |connected correlators| of the two local-term
decompositions.  A companion formula gives the cooling-rate threshold beyond
which a canonically equilibrated composite is self-contradictory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact_lattice import MatrixOperator, QuantumState, _applied_variance, _pair_correlators

__all__ = ["BoundReport", "uncertainty_check", "equilibrium_rate_threshold"]

_SLACK_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: lhs >= rhs with slack = lhs - rhs."""

    label: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def satisfied(self) -> bool:
        return self.slack >= -_SLACK_TOL

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "satisfied": self.satisfied,
        }


def _robertson_report(system_psi, total_psi, var_system: float, var_total: float, n_sites: int) -> tuple[BoundReport, complex]:
    """Report (i) of ``uncertainty_check`` and <[H, H_total]> of two Hermitian operators,
    from their products with the state and their variances."""
    commutator_mean = complex(np.vdot(system_psi, total_psi) - np.vdot(total_psi, system_psi))
    lhs = math.sqrt(var_system) / n_sites * math.sqrt(var_total)
    return BoundReport(label="robertson", lhs=lhs, rhs=0.5 * abs(commutator_mean) / n_sites), commutator_mean


def uncertainty_check(
    state: QuantumState,
    h_system: MatrixOperator,
    h_total: MatrixOperator,
    n_sites: int,
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """Evaluate the three product bounds in the given state.

    (i)  sigma(H/N) sigma(H_total) >= |<[H/N, H_total]>| / 2   (Robertson)
    (ii) same lhs >= |dE/dt| / (2N) with dE/dt = i <[H_total, H]>
    (iii) mean|G|_system * mean|G|_total >= |dE/dt|^2 / (4 N^2), correlators
          taken over each operator's fixed local-term decomposition.

    (i) can never be violated; (ii) coincides with (i) for a time-independent
    H_total; (iii) is reported as evidence, not asserted.
    """
    if h_system.dim != h_total.dim:
        raise ValueError("operator dimensions differ")
    # each operator is applied to the state once, for its variance, the
    # commutator and its correlators' variance identity
    psi = state.amplitudes
    system_psi = h_system._times(psi)
    total_psi = h_total._times(psi)
    var_system = _applied_variance(psi, system_psi)
    var_total = _applied_variance(psi, total_psi)
    robertson, commutator_mean = _robertson_report(system_psi, total_psi, var_system, var_total, n_sites)

    energy_rate = (1j * -commutator_mean).real  # i <[H_total, H]> = -i <[H, H_total]>
    rate_rhs = 0.5 * abs(energy_rate) / n_sites

    gbar_system = _pair_correlators(state, h_system, var_system).gbar
    gbar_total = _pair_correlators(state, h_total, var_total).gbar
    correlator_rhs = energy_rate**2 / (4.0 * n_sites**2)

    return (
        robertson,
        BoundReport(label="energy-rate", lhs=robertson.lhs, rhs=rate_rhs),
        BoundReport(label="correlator-product", lhs=gbar_system * gbar_total, rhs=correlator_rhs),
    )


def equilibrium_rate_threshold(
    temperature: float, cv_total: float, cv_subsystem: float
) -> float:
    """Energy change rate beyond which joint canonical equilibrium fails.

    2 T^2 sqrt(C_total C_subsystem) in natural units (hbar = k_B = 1); a
    plain formula evaluator, no bath model behind it.
    """
    # the chained comparisons also fail for nan, which passes a plain `<= 0` test
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    for name, value in (("cv_total", cv_total), ("cv_subsystem", cv_subsystem)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    return 2.0 * temperature**2 * math.sqrt(cv_total * cv_subsystem)
