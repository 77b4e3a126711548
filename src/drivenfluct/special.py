"""Scalar special functions used by the closed forms: erfc family and Bessel J0.

Thin wrappers over :mod:`scipy.special` that return Python floats and keep
the package's contracts: ``erfc`` underflows to 0 past x ~ 26.6,
``erfcx`` and ``log_erfc`` are defined for x >= 0 only, and ``log_erfc``,
taken through ``erfcx``, stays finite far past that underflow.  Their
accuracy is pinned against the frozen 50-digit reference tables in
tests/data.
"""

from __future__ import annotations

import math

from scipy import special as sc


def erfc(x: float) -> float:
    """Complementary error function; use :func:`log_erfc` past its underflow."""
    return float(sc.erfc(x))


def erfcx(x: float) -> float:
    """Scaled complementary error function e^(x^2) erfc(x) for x >= 0."""
    if x < 0.0:
        raise ValueError("erfcx implemented for x >= 0 only")
    return float(sc.erfcx(x))


def log_erfc(x: float) -> float:
    """Natural log of erfc(x) for x >= 0, valid far past the underflow point."""
    if x < 0.0:
        raise ValueError("log_erfc implemented for x >= 0 only")
    x = float(x)
    return math.log(sc.erfcx(x)) - x * x


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind J0."""
    return float(sc.j0(x))


def bessel_j0_first_zero() -> float:
    """First positive root of J0."""
    return float(sc.jn_zeros(0, 1)[0])
