"""Regenerate the frozen reference tables under tests/data.

Run once at build time; the emitted CSVs are committed so the test suite does
not depend on an arbitrary-precision library.  The special functions are
computed at 50 significant digits and written in full round-trip decimal
form.  The eigenbasis table is the energy distribution of one state on a
5-site lattice with a near-degenerate spectrum, one atom per eigenvector of
a 40-digit diagonalisation of its dense spin Hamiltonian.

Usage: python3 scripts/make_reference_tables.py
"""

from __future__ import annotations

import csv
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 50

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"


def erfc_points() -> list[float]:
    points = [i / 8.0 for i in range(0, 241)]  # 0 .. 30 step 0.125
    points += [0.999999, 1.5, 1.500001, 4.419417382415922, 26.0, 26.5, 29.999]
    return sorted(set(points))


def j0_points() -> list[float]:
    points = [i / 4.0 for i in range(0, 241)]  # 0 .. 60 step 0.25
    points += [17.999, 18.0, 18.001, 100.0, 250.0, 1000.0]
    return sorted(set(points))


# A lattice on which a dense double-precision eigh misses single eigenvector
# weights by more than eps ||H|| / gap: the 1e-5 bond splits levels that
# are degenerate without it.  The state is the test suite's
# random_state(5, default_rng(5)).
EIGENBASIS_BONDS = ((0, 3, -1.0), (0, 4, 0.5), (1, 2, 1.0), (1, 3, 1e-05))
EIGENBASIS_SITES = 5
EIGENBASIS_DIGITS = 40


def eigenbasis_state() -> np.ndarray:
    rng = np.random.default_rng(EIGENBASIS_SITES)
    vector = rng.normal(size=1 << EIGENBASIS_SITES) + 1j * rng.normal(size=1 << EIGENBASIS_SITES)
    return vector / np.linalg.norm(vector)


def eigenbasis_points(amplitudes: np.ndarray) -> list[tuple]:
    """(energy per site, weight) of the state on the eigenbasis of
    -sum J S_i.S_j (B_z = 0), one atom per eigenvector in energy order,
    weights normalised to sum 1."""
    with mp.workdps(EIGENBASIS_DIGITS):
        dim = 1 << EIGENBASIS_SITES
        ham = mp.zeros(dim, dim)
        for i, j, coupling in EIGENBASIS_BONDS:
            c = mp.mpf(coupling)
            for r in range(dim):
                up_i, up_j = (r >> i) & 1, (r >> j) & 1
                ham[r, r] -= c * (mp.mpf(up_i) - 0.5) * (mp.mpf(up_j) - 0.5)
                if up_i != up_j:
                    ham[r ^ ((1 << i) | (1 << j)), r] -= c / 2
        energies, vectors = mp.eigsy(ham)
        psi = [mp.mpc(complex(a).real, complex(a).imag) for a in amplitudes]
        weights = [
            abs(mp.fsum(vectors[r, k] * psi[r] for r in range(dim))) ** 2 for k in range(dim)
        ]
        total = mp.fsum(weights)
        return sorted((energies[k] / EIGENBASIS_SITES, weights[k] / total) for k in range(dim))


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    with open(DATA_DIR / "erfc_reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "erfc", "erfcx", "log_erfc"])
        for x in erfc_points():
            xm = mp.mpf(repr(x))
            erfc_val = mp.erfc(xm)
            erfcx_val = mp.exp(xm * xm) * erfc_val
            writer.writerow(
                [
                    repr(x),
                    mp.nstr(erfc_val, 25),
                    mp.nstr(erfcx_val, 25),
                    mp.nstr(mp.log(erfc_val), 25),
                ]
            )
    with open(DATA_DIR / "j0_reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "j0"])
        for x in j0_points():
            xm = mp.mpf(repr(x))
            writer.writerow([repr(x), mp.nstr(mp.besselj(0, xm), 25)])
    amplitudes = eigenbasis_state()
    with open(DATA_DIR / "eigenbasis_state.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["re", "im"])
        for a in amplitudes:
            writer.writerow([repr(float(a.real)), repr(float(a.imag))])
    with open(DATA_DIR / "eigenbasis_reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["energy_per_site", "weight"])
        for energy, weight in eigenbasis_points(amplitudes):
            writer.writerow([mp.nstr(energy, EIGENBASIS_DIGITS), mp.nstr(weight, EIGENBASIS_DIGITS)])


if __name__ == "__main__":
    main()
