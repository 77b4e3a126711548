"""Brute-force 2^N oracle for driven spin-1/2 lattices.

Everything here is built on the full product basis (bit i of a basis index is
site i, bit value 1 = spin up): the point is an exact reference for the
closed forms in :mod:`collective_spin`, not a production simulator, hence the
cap at 14 sites.  Includes the hard-core-boson dual obtained from the spin
algebra (boson number = up-spin indicator), whose spectrum must coincide with
the spin Hamiltonian's.

Matrix-free routes (memory O(N 2^N) for a chain): operators and their
local-term decompositions are written from bit operations straight into
scipy CSR arrays and applied as such; replace-mode evolution applies the
same single-site y-rotation to every site of the state; ``expectation``,
``variance``, ``connected_pair_correlators``, ``bounds.uncertainty_check``
and ``magnus.variance_rate`` use matrix-vector products only.  Augment-mode
evolution is exact without a dense operator: the exchange E = -sum J S_i.S_j
commutes with S_tot, so a segment is the same single-site field rotation on
every site followed by exp(-i E t), taken from one cached real eigensystem
of E per lattice (one block per magnetisation sector, O(sum_k C(N,k)^3)
time once, 208 MB of eigenvectors at N = 14, refused beyond physical
memory).  Dense routes (16 * 4^N bytes per 2^N x 2^N complex array, 4.3 GB
at N = 14): ``MatrixOperator.matrix``, ``propagator``,
``eigenbasis_distribution``, ``bose_dual``, the total-spin operators and the
:mod:`magnus` generators.  Each raises :class:`SizeLimitError` before
allocating more than the machine's physical memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from .collective_spin import DriveSchedule, EmpiricalDistribution, ScheduleRangeError

__all__ = [
    "MAX_SITES",
    "SizeLimitError",
    "NumericalDriftError",
    "LatticeSpec",
    "QuantumState",
    "MatrixOperator",
    "CorrelatorReport",
    "BoseDualReport",
    "build_spin_hamiltonian",
    "build_transverse_field",
    "dicke_state",
    "evolve_state",
    "propagator",
    "expectation",
    "variance",
    "energy_density_sigma",
    "site_magnetizations",
    "total_spin_operators",
    "spin_squared_operator",
    "connected_pair_correlators",
    "eigenbasis_distribution",
    "bose_dual",
    "bose_doping_operator",
]

MAX_SITES = 14


class SizeLimitError(ValueError):
    """Raised for lattices beyond the site cap, or dense arrays beyond memory."""


class NumericalDriftError(RuntimeError):
    """Raised when state norms drift past tolerance; never repaired silently."""


@dataclass(frozen=True)
class LatticeSpec:
    """Sites, pair couplings (i < j, each bond once), and longitudinal field."""

    n_sites: int
    couplings: tuple[tuple[int, int, float], ...]
    b_z: float

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        if self.n_sites > MAX_SITES:
            raise SizeLimitError(f"lattice oracle capped at {MAX_SITES} sites")
        seen = set()
        normalized = []
        for i, j, j_ij in self.couplings:
            i, j = int(i), int(j)
            if not (0 <= i < j < self.n_sites):
                raise ValueError(f"bond ({i}, {j}) needs 0 <= i < j < n_sites")
            if (i, j) in seen:
                raise ValueError(f"duplicate bond ({i}, {j})")
            seen.add((i, j))
            normalized.append((i, j, float(j_ij)))
        object.__setattr__(self, "couplings", tuple(normalized))

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    @classmethod
    def chain(cls, n_sites: int, j: float = 1.0, b_z: float = 1.0) -> "LatticeSpec":
        bonds = tuple((i, i + 1, j) for i in range(n_sites - 1))
        return cls(n_sites=n_sites, couplings=bonds, b_z=b_z)

    @classmethod
    def complete(cls, n_sites: int, j: float = 1.0, b_z: float = 1.0) -> "LatticeSpec":
        bonds = tuple(
            (i, k, j) for i in range(n_sites) for k in range(i + 1, n_sites)
        )
        return cls(n_sites=n_sites, couplings=bonds, b_z=b_z)


@dataclass(frozen=True)
class QuantumState:
    """Normalized state vector on the 2^n product basis."""

    amplitudes: np.ndarray
    n_sites: int
    norm_tol: float = 1e-12

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (1 << self.n_sites,):
            raise ValueError("amplitude vector length must be 2^n_sites")
        drift = abs(math.sqrt(np.vdot(amps, amps).real) - 1.0)
        if not drift <= self.norm_tol:  # NaN fails too
            raise ValueError(f"state norm off unity by {drift:.3e}")

    def to_json_dict(self) -> dict:
        """Binary-free JSON form: amplitudes as [re, im] pairs in basis order."""
        return {
            "n_sites": self.n_sites,
            "amplitudes": [[z.real, z.imag] for z in self.amplitudes.tolist()],
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "QuantumState":
        amps = np.array([complex(re, im) for re, im in record["amplitudes"]])
        return cls(amplitudes=amps, n_sites=record["n_sites"])


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(needed: int, what: str) -> None:
    """Refuse to allocate ``needed`` bytes for ``what`` beyond physical memory."""
    available = _physical_memory_bytes()
    if needed > available:
        raise SizeLimitError(
            f"{what} needs {needed} bytes, more than the {available} bytes of physical memory"
        )


def _require_dense_memory(n_sites: int) -> None:
    """Refuse a dense 2^N x 2^N complex array larger than physical memory."""
    _require_memory(16 * 4**n_sites, f"a dense {n_sites}-site operator")


def _entries(array: sparse.csr_array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of a CSR array's stored entries."""
    indptr = array.indptr
    return np.repeat(np.arange(array.shape[0]), indptr[1:] - indptr[:-1]), array.indices, array.data


def _max_abs_of_sum(dim: int, pieces) -> float:
    """Largest |entry| of the sum of (rows, cols, values) pieces, O(nnz log nnz).

    Written in numpy because scipy's own duplicate summing costs about 4x
    more per call on the few-site operators that the CLI builds by the dozen.
    """
    rows, cols, values = (np.concatenate(part) for part in zip(*pieces))
    if not values.size:
        return 0.0
    keys = rows.astype(np.int64) * dim + cols
    order = keys.argsort()
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return float(np.abs(np.add.reduceat(values[order], starts)).max())


def _as_csr(matrix) -> sparse.csr_array:
    matrix = matrix.tocsr() if sparse.issparse(matrix) else sparse.csr_array(matrix)
    return matrix.astype(complex, copy=False)


class MatrixOperator:
    """Hermitian operator, optionally with a local-term decomposition.

    ``array`` holds the operator and ``term_stack`` its terms, term k in rows
    k*2^N .. (k+1)*2^N - 1, so one product gives every term's.  ``terms``
    may be given one matrix per label or already stacked.  Both are scipy
    CSR arrays when either is given sparse (the builders here) and dense
    arrays otherwise, so neither form is ever copied into the other.
    ``matrix`` is the dense form, a new 16 * 4^N-byte array on each read of
    a sparse operator.  When present the terms must sum back to the full
    operator (bond terms are split half-half between their two sites, one
    fixed choice among the many admissible splits).
    """

    def __init__(
        self,
        matrix,
        n_sites: int,
        labels: tuple[str, ...] = (),
        terms=None,
    ):
        dim = 1 << n_sites
        if not (terms is None or sparse.issparse(terms) or getattr(terms, "ndim", 0) == 2):
            terms = list(terms)
            if any(sparse.issparse(term) for term in terms):
                terms = sparse.vstack([_as_csr(term) for term in terms], format="csr")
            else:
                terms = np.concatenate([np.asarray(term) for term in terms])
        if sparse.issparse(matrix) or sparse.issparse(terms):
            array = _as_csr(matrix)
            term_stack = None if terms is None else _as_csr(terms)
        else:
            array = np.asarray(matrix, dtype=complex)
            term_stack = None if terms is None else np.asarray(terms, dtype=complex)
        if array.shape != (dim, dim) or (term_stack is not None and term_stack.shape[1] != dim):
            raise ValueError("matrix shape must be 2^n x 2^n")
        if sparse.issparse(array):
            rows, cols, values = _entries(array)
            herm = _max_abs_of_sum(dim, [(rows, cols, values), (cols, rows, -values.conj())])
        else:
            herm = float(np.abs(array - array.conj().T).max())
        if herm > 1e-12:
            raise ValueError(f"operator not Hermitian within 1e-12 (max dev {herm:.3e})")
        if term_stack is not None:
            if term_stack.shape[0] != len(labels) * dim:
                raise ValueError("one label per decomposition term required")
            if sparse.issparse(array):
                term_rows, term_cols, term_values = _entries(term_stack)
                gap = _max_abs_of_sum(dim, [(term_rows % dim, term_cols, term_values), (rows, cols, -values)])
            else:
                gap = float(np.abs(term_stack.reshape(-1, dim, dim).sum(axis=0) - array).max())
            if gap > 1e-12:
                raise ValueError(f"decomposition does not resum to operator ({gap:.3e})")
        self.array = array
        self.term_stack = term_stack
        self.n_sites = n_sites
        self.labels = tuple(labels)

    @property
    def terms(self) -> tuple | None:
        """The local terms, one 2^N x 2^N block of ``term_stack`` per label."""
        if self.term_stack is None:
            return None
        dim = self.dim
        return tuple(self.term_stack[k * dim:(k + 1) * dim] for k in range(len(self.labels)))

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    @property
    def matrix(self) -> np.ndarray:
        if not sparse.issparse(self.array):
            return self.array
        _require_dense_memory(self.n_sites)
        return self.array.toarray()

    def to_json_dict(self) -> dict:
        """Binary-free JSON form: row-major [re, im] pairs (decomposition omitted)."""
        return {
            "n_sites": self.n_sites,
            "labels": list(self.labels),
            "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix.tolist()],
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "MatrixOperator":
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in record["matrix"]]
        )
        return cls(matrix=mat, n_sites=record["n_sites"], labels=tuple(record["labels"]))


@dataclass(frozen=True)
class CorrelatorReport:
    """Connected pair correlators G_ij of a local-term decomposition.

    ``gbar`` is the mean of |G_ij| over all term pairs and ``sigma_sq`` the
    variance of the intensive observable (sum of terms over the term count);
    sigma_sq = mean of G_ij is an algebraic identity checked on construction.
    """

    g_matrix: np.ndarray
    gbar: float
    sigma_sq: float

    def __post_init__(self):
        n_terms = self.g_matrix.shape[0]
        resummed = float(np.sum(self.g_matrix)) / n_terms**2
        if abs(resummed - self.sigma_sq) > 1e-12:
            raise ValueError(
                f"variance identity violated: sum G/N'^2 = {resummed}, sigma^2 = {self.sigma_sq}"
            )
        if self.gbar < self.sigma_sq - 1e-12:
            raise ValueError("mean |G| cannot undercut the variance bound")


def _csr(cols: np.ndarray, values: np.ndarray, dim: int) -> sparse.csr_array:
    """CSR array whose row r holds values[r] at columns cols[r].

    Every row has the same number of slots, so the CSR arrays are the inputs
    flattened: O(entries), no sorting.  Stored zeros are dropped.
    """
    width = cols.shape[1]
    out = sparse.csr_array(
        (values.astype(complex).ravel(), cols.ravel(), np.arange(0, cols.size + 1, width)),
        shape=(cols.shape[0], dim),
    )
    out.eliminate_zeros()
    return out


def _site_bits(n_sites: int) -> np.ndarray:
    idx = np.arange(1 << n_sites)
    return np.array([(idx >> i) & 1 for i in range(n_sites)])


def _spin_z(n_sites: int) -> list[np.ndarray]:
    """S^z of each site on every basis index."""
    idx = np.arange(1 << n_sites)
    return [((idx >> s) & 1) - 0.5 for s in range(n_sites)]


def _exchange_bonds(spin_z: list[np.ndarray], couplings):
    """Per bond, (i, j, Ising diagonal, flip mask, flip values) of -J S_i.S_j.

    The flip-flop part swaps two antiparallel spins: row r holds it at
    column r ^ mask, and since flipping both spins keeps the pair
    antiparallel, the row's own spins decide the entry.
    """
    for i, j, j_ij in couplings:
        ising = -j_ij * (spin_z[i] * spin_z[j])
        yield i, j, ising, (1 << i) | (1 << j), np.where(spin_z[i] != spin_z[j], -0.5 * j_ij, 0.0)


def build_spin_hamiltonian(lattice: LatticeSpec, with_decomposition: bool = True) -> MatrixOperator:
    """Heisenberg-coupled spins in a longitudinal field: -sum J S.S - B_z sum S_z.

    Built from bit operations: the field and Ising parts are diagonal, and a
    bond's flip-flop part swaps two antiparallel spins.  The decomposition
    assigns each site its field term plus half of every incident bond, so the
    term count equals the site count.
    """
    n = lattice.n_sites
    idx = np.arange(lattice.dim)
    spin_z = _spin_z(n)
    diagonal = np.zeros(lattice.dim)
    site_diagonals = []
    for s in range(n):
        field_term = lattice.b_z * spin_z[s]
        diagonal -= field_term
        site_diagonals.append(-field_term)
    # row r holds the diagonal and, per bond, column r ^ mask
    flips = []
    site_flips: list[list] = [[] for _ in range(n)]
    for i, j, ising, mask, flip_values in _exchange_bonds(spin_z, lattice.couplings):
        diagonal += ising
        flips.append((mask, flip_values))
        for site in (i, j):
            site_diagonals[site] = site_diagonals[site] + 0.5 * ising
            site_flips[site].append((mask, 0.5 * flip_values))
    masks = np.array([0] + [mask for mask, _ in flips])
    total = _csr(idx[:, None] ^ masks, np.column_stack([diagonal, *(v for _, v in flips)]), lattice.dim)
    if not with_decomposition:
        return MatrixOperator(total, n)
    # row block s holds site s's term; rows of sites with fewer bonds are
    # padded with zero diagonal slots, which _csr drops
    width = 1 + max(map(len, site_flips))
    cols = np.tile(idx[:, None], (n, 1, width))
    values = np.zeros(cols.shape)
    for s in range(n):
        values[s, :, 0] = site_diagonals[s]
        for k, (mask, flip_values) in enumerate(site_flips[s], start=1):
            cols[s, :, k] ^= mask
            values[s, :, k] = flip_values
    terms = _csr(cols.reshape(-1, width), values.reshape(-1, width), lattice.dim)
    labels = tuple(f"site-{s}" for s in range(n))
    return MatrixOperator(total, n, labels, terms)


def build_transverse_field(n_sites: int, b_y: float) -> MatrixOperator:
    """Uniform transverse drive -b_y sum_i S_i^y, with its per-site decomposition."""
    if n_sites > MAX_SITES:
        raise SizeLimitError(f"lattice oracle capped at {MAX_SITES} sites")
    idx = np.arange(1 << n_sites)
    sites = np.arange(n_sites)
    # row r holds column c = r ^ 2^s for every site s, with
    # <down|S_y|up> = i/2 and <up|S_y|down> = -i/2 read from bit s of c
    cols = idx[:, None] ^ (1 << sites)
    values = -b_y * (1j * (((cols >> sites) & 1) - 0.5))
    total = _csr(cols, values, idx.size)
    # site s alone is one entry per row, in row block s of the stack
    terms = _csr(cols.T.reshape(-1, 1), values.T.reshape(-1, 1), idx.size)
    labels = tuple(f"site-{s}" for s in range(n_sites))
    return MatrixOperator(total, n_sites, labels, terms)


def dicke_state(n_sites: int, m: float) -> QuantumState:
    """Equal-amplitude superposition of all product states with S_z^tot = m."""
    n_up = m + n_sites / 2
    if abs(n_up - round(n_up)) > 1e-9 or not (0 <= round(n_up) <= n_sites):
        raise ValueError(f"m = {m} is not a magnetization of {n_sites} spin-1/2 sites")
    n_up = int(round(n_up))
    hits = _site_bits(n_sites).sum(axis=0) == n_up
    amps = np.zeros(1 << n_sites, dtype=complex)
    amps[hits] = 1.0 / math.sqrt(int(hits.sum()))
    return QuantumState(amplitudes=amps, n_sites=n_sites)


# Sectors are diagonalised together, as one block-diagonal block, until the
# block has this many rows: below it the products cost less than the numpy
# call overhead of one more block.
_MERGED_BLOCK_ROWS = 32


@lru_cache(maxsize=8)
def _segment_eigensystem(n_sites: int, couplings: tuple) -> tuple:
    # Cached eigensystem of the exchange E = -sum J_ij S_i.S_j, the part of
    # an augment segment's Hamiltonian that depends on neither field, so
    # one entry serves every b_y and B_z on a lattice.  E conserves the
    # up-spin count k, so it is block diagonal by sector, with real blocks,
    # and flipping every spin maps sector k onto sector N - k with the same
    # block.  Returns (order, inverse, blocks).  ``order`` lists the basis
    # indices group by group: a group is a run of sectors k < N/2, each
    # index followed by its flipped image, or the sector k = N/2 alone.
    # ``inverse`` undoes that order.  ``blocks`` holds per group its span in
    # ``order`` and the (eigenvalues, eigenvectors) of its sectors k <= N/2.
    # The memory check counts the eigenvectors' bytes: from N = 8 on, 0.5 to
    # 0.75 of the 8 * C(2N, N) of one block per sector.  The arrays are
    # shared and read-only.
    sizes = [math.comb(n_sites, k) for k in range(n_sites // 2 + 1)]
    # [first, end) sectors per group: runs of the sectors k < N/2, each
    # closed once it has enough rows, then the middle sector of even N
    spans, rows_in_run = [], _MERGED_BLOCK_ROWS
    for k in range((n_sites + 1) // 2):
        if rows_in_run >= _MERGED_BLOCK_ROWS:
            spans.append([k, k])
            rows_in_run = 0
        spans[-1][1] = k + 1
        rows_in_run += sizes[k]
    if n_sites % 2 == 0:
        spans.append([n_sites // 2, n_sites // 2 + 1])
    _require_memory(
        8 * sum(sum(sizes[first:end]) ** 2 for first, end in spans),
        f"the {n_sites}-site exchange eigensystem",
    )
    full = (1 << n_sites) - 1
    idx = np.arange(full + 1)
    spin_z = _spin_z(n_sites)
    ups = sum((idx >> s) & 1 for s in range(n_sites))
    diagonal = np.zeros(idx.size)
    rows, cols, values = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)], [np.empty(0)]
    for _, _, ising, mask, flip_values in _exchange_bonds(spin_z, couplings):
        diagonal += ising
        # a flip keeps the up-spin count: both ends lie in the row's sector
        hit = np.flatnonzero(flip_values)
        rows.append(hit)
        cols.append(hit ^ mask)
        values.append(flip_values[hit])
    rows, cols, values = (np.concatenate(part) for part in (rows, cols, values))
    row_ups = ups[rows]
    position = np.empty_like(idx)
    groups, blocks = [], []
    start = 0
    for first, end in spans:
        states = np.flatnonzero((ups >= first) & (ups < end))
        position[states] = np.arange(states.size)
        block = np.diag(diagonal[states])
        entries = (row_ups >= first) & (row_ups < end)
        block[position[rows[entries]], position[cols[entries]]] = values[entries]
        groups.append(np.column_stack([states, full - states]).ravel() if 2 * first < n_sites else states)
        blocks.append((start, start + groups[-1].size, *np.linalg.eigh(block)))
        start += groups[-1].size
    order = np.concatenate(groups)
    inverse = np.argsort(order)
    for array in (order, inverse, *(a for block in blocks for a in block[2:])):
        array.flags.writeable = False
    return order, inverse, tuple(blocks)


def _exchange_evolution(vectors: np.ndarray, eigensystem: tuple, duration: float) -> np.ndarray:
    """exp(-i E t) applied to a state, or to every column of a matrix.

    A group's rows, each index's and its flipped image's side by side,
    take two real products with the group's eigenvectors: complex input is
    viewed as its real and imaginary parts, so no complex copy of the
    eigenvectors is made.
    """
    order, inverse, blocks = eigensystem
    grouped = vectors[order]
    for lo, hi, eigvals, eigvecs in blocks:
        part = grouped[lo:hi].view(float).reshape(eigvals.size, -1)
        coeffs = (eigvecs.T @ part).view(complex)
        coeffs *= np.exp((-1j * duration) * eigvals)[:, None]
        part[...] = eigvecs @ coeffs.view(float)
    return grouped[inverse]


def _y_rotation(angles) -> np.ndarray:
    """exp(i angle S^y) on one site (basis order down, up), one per angle."""
    half = 0.5 * np.asarray(angles, dtype=float)
    c, s = np.cos(half), np.sin(half)
    return np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2).astype(complex)


def _field_turn(duration: float, b_y: float, b_z: float) -> tuple[complex, complex]:
    """exp(i t (B_z S^z + b_y S^y)) on one site, as the (a, b) of ``_su2``:
    the turn about the axis (0, b_y, B_z) that the fields of an augment
    segment make in time t."""
    omega = math.hypot(b_y, b_z)
    half = 0.5 * omega * duration
    # sin(half) / omega, continued to t / 2 where there is no field and the
    # turn is the identity
    s = math.sin(half) / omega if omega > 0.0 else 0.5 * duration
    return complex(math.cos(half), -s * b_z), complex(s * b_y)


def _su2(turns) -> np.ndarray:
    """The stack of single-site unitaries [[a, -conj(b)], [b, conj(a)]], one
    per (a, b), in basis order (down, up)."""
    return np.array(
        [[[a, -b.conjugate()], [b, a.conjugate()]] for a, b in turns], dtype=complex
    ).reshape(-1, 2, 2)


def _rotations(singles) -> tuple[np.ndarray, np.ndarray]:
    """A stack of single-site 2x2 unitaries R, and the two-site R (x) R of each."""
    single = np.asarray(singles, dtype=complex).reshape(-1, 2, 2)
    pair = (single[:, :, None, :, None] * single[:, None, :, None, :]).reshape(-1, 4, 4)
    return single, pair


def _kron_power(single: np.ndarray, n_sites: int) -> np.ndarray:
    """The N-fold Kronecker power of a single-site matrix, as ``np.kron``
    would multiply it out, without its per-call overhead."""
    out = single
    for _ in range(n_sites - 1):
        out = (out[:, None, :, None] * single[None, :, None, :]).reshape(2 * out.shape[0], -1)
    return out


def _rotate_every_site(psi: np.ndarray, n_sites: int, single: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Apply the single-site rotation to every site of ``psi``, O(N 2^N).

    Each pass applies ``pair`` = R (x) R to the two least significant sites
    and moves them to the most significant positions, so after N/2 passes
    (and one single-site pass for odd N) every site is rotated once and the
    bit order is back where it started.
    """
    for _ in range(n_sites // 2):
        psi = np.dot(pair, psi.reshape(-1, 4).T).reshape(-1)
    if n_sites % 2:
        psi = np.dot(single, psi.reshape(-1, 2).T).reshape(-1)
    return psi


def evolve_state(
    state: QuantumState, lattice: LatticeSpec, schedule: DriveSchedule
) -> list[tuple[float, QuantumState]]:
    """Evolve exactly through every schedule segment.

    A replace-mode segment is exp(i b_y t S^y_tot), the same y-rotation on
    every site.  An augment-mode segment's Hamiltonian E - B_z S^z_tot -
    b_y S^y_tot splits exactly, because the exchange E commutes with S_tot:
    the same field rotation on every site, then exp(-i E t) from the cached
    sector eigensystem of E.  Returns (time, state) at t = 0 and each
    segment boundary.  Norms are checked against 1e-10 drift and never
    renormalized.
    """
    if state.n_sites != lattice.n_sites:
        raise ValueError("state and lattice site counts differ")
    replace = schedule.mode == "replace"
    if replace:
        singles = _y_rotation([b_y * duration for duration, b_y in schedule.segments])
    else:
        singles = _su2([_field_turn(duration, b_y, lattice.b_z) for duration, b_y in schedule.segments])
        exchange = _segment_eigensystem(lattice.n_sites, lattice.couplings)
    singles, pairs = _rotations(singles)
    psi = state.amplitudes
    t = 0.0
    trajectory = [(0.0, state)]
    for k, (duration, _) in enumerate(schedule.segments):
        psi = _rotate_every_site(psi, lattice.n_sites, singles[k], pairs[k])
        if not replace:
            psi = _exchange_evolution(psi, exchange, duration)
        t += duration
        try:
            evolved = QuantumState(amplitudes=psi, n_sites=state.n_sites, norm_tol=1e-10)
        except ValueError as exc:  # the norm check: psi keeps its length
            raise NumericalDriftError(f"{exc} at t = {t}") from exc
        trajectory.append((t, evolved))
    return trajectory


def propagator(lattice: LatticeSpec, schedule: DriveSchedule, t: float) -> np.ndarray:
    """Exact unitary U(t) for the schedule (partial final segment included).

    Dense, 16 * 4^N bytes.  Every segment turns each site by the same 2x2
    rotation, so the product of the turns is the N-fold Kronecker power of
    one accumulated rotation: about y in replace mode, and in augment mode
    followed by exp(-i E t) of the exchange, which commutes with them all.
    """
    if t < -1e-12 or t > schedule.total_duration + 1e-9:
        raise ScheduleRangeError(f"t = {t} outside schedule span")
    _require_dense_memory(lattice.n_sites)
    steps = []
    remaining = t
    for duration, b_y in schedule.segments:
        step = min(duration, remaining)
        if step <= 0.0:
            break
        steps.append((step, b_y))
        remaining -= step
    if schedule.mode == "replace":
        # y-rotations commute: the product is the rotation by the summed angle
        rotation = _y_rotation([math.fsum(b_y * step for step, b_y in steps)])[0]
        return _kron_power(rotation, lattice.n_sites)
    # compose the turns, later ones on the left, as (a, b) pairs
    a, b = 1.0 + 0.0j, 0.0j
    for step, b_y in steps:
        a_step, b_step = _field_turn(step, b_y, lattice.b_z)
        a, b = a_step * a - b_step.conjugate() * b, b_step * a + a_step.conjugate() * b
    rotation = _su2([(a, b)])[0]
    exchange = _segment_eigensystem(lattice.n_sites, lattice.couplings)
    return _exchange_evolution(_kron_power(rotation, lattice.n_sites), exchange, math.fsum(step for step, _ in steps))


def _apply(operator: MatrixOperator | np.ndarray, psi: np.ndarray) -> np.ndarray:
    return (operator.array if isinstance(operator, MatrixOperator) else operator) @ psi


def expectation(state: QuantumState, operator: MatrixOperator | np.ndarray) -> float:
    value = np.vdot(state.amplitudes, _apply(operator, state.amplitudes))
    return float(value.real)


def variance(state: QuantumState, operator: MatrixOperator | np.ndarray) -> float:
    """Two-pass form ||(A - <A>) psi||^2 / <psi|psi>.

    Immune to the <A^2> - <A>^2 cancellation that floors sigma at ~1e-8 near
    zero-variance states.  Dividing by <psi|psi> keeps the state's norm
    rounding (1 ulp for a Dicke state, up to 1e-10 after evolution) out of
    the result.
    """
    psi = state.amplitudes
    applied = _apply(operator, psi)
    norm_sq = np.vdot(psi, psi).real
    residual = applied - (np.vdot(psi, applied).real / norm_sq) * psi
    return float(np.vdot(residual, residual).real / norm_sq)


def energy_density_sigma(state: QuantumState, operator: MatrixOperator) -> float:
    """Standard deviation of operator/N in the state."""
    return math.sqrt(variance(state, operator)) / operator.n_sites


def site_magnetizations(state: QuantumState) -> np.ndarray:
    """Per-site <S_i^z>, computed from basis weights without matrices."""
    weights = np.abs(state.amplitudes) ** 2
    bits = _site_bits(state.n_sites)
    return (bits - 0.5) @ weights


def total_spin_operators(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense global (S_x, S_y, S_z)."""
    _require_dense_memory(n_sites)
    idx = np.arange(1 << n_sites)
    sites = np.arange(n_sites)
    # S^x and S^y flip one site: row r holds column c = r ^ 2^s for each s,
    # with <down|S_y|up> = i/2 and <up|S_y|down> = -i/2 read from bit s of c
    cols = idx[:, None] ^ (1 << sites)
    sx = _csr(cols, np.full(cols.shape, 0.5), idx.size)
    sy = _csr(cols, 1j * (((cols >> sites) & 1) - 0.5), idx.size)
    sz = _csr(idx[:, None], (((idx[:, None] >> sites) & 1) - 0.5).sum(axis=1, keepdims=True), idx.size)
    return sx.toarray(), sy.toarray(), sz.toarray()


def spin_squared_operator(n_sites: int) -> np.ndarray:
    sx, sy, sz = total_spin_operators(n_sites)
    return sx @ sx + sy @ sy + sz @ sz


def connected_pair_correlators(
    state: QuantumState, operator: MatrixOperator
) -> CorrelatorReport:
    """G_ij = Re<H_i H_j> - <H_i><H_j> over the operator's decomposition.

    Schrodinger-picture correlators of the fixed local terms in the given
    state; Heisenberg-picture terms that spread beyond their sites are not
    modeled (for the driven collective-spin model they stay local, so the
    two pictures agree there).
    """
    if operator.term_stack is None:
        raise ValueError("operator carries no local-term decomposition")
    psi = state.amplitudes
    n_terms = len(operator.labels)
    terms_psi = (operator.term_stack @ psi).reshape(n_terms, -1)
    means = (terms_psi @ psi.conj()).real
    overlap = terms_psi.conj() @ terms_psi.T
    g_matrix = overlap.real - means[:, None] * means
    g_matrix = 0.5 * (g_matrix + g_matrix.T)
    gbar = float(np.abs(g_matrix).sum() / g_matrix.size)
    sigma_sq = variance(state, operator) / n_terms**2
    return CorrelatorReport(g_matrix=g_matrix, gbar=gbar, sigma_sq=sigma_sq)


def eigenbasis_distribution(
    state: QuantumState, operator: MatrixOperator, merge_tol: float = 1e-9
) -> EmpiricalDistribution:
    """Weights of the state on the operator's eigenbasis, per-site eigenvalues.

    Eigenvalues closer than ``merge_tol`` (consecutive gaps) are merged into
    one weight at their unweighted mean.
    """
    eigvals, eigvecs = eigh(operator.matrix)
    weights = np.abs(eigvecs.conj().T @ state.amplitudes) ** 2
    points: list[tuple[float, float]] = []
    cluster = [0]
    for k in range(1, len(eigvals)):
        if eigvals[k] - eigvals[cluster[-1]] <= merge_tol:
            cluster.append(k)
        else:
            points.append(
                (float(np.mean(eigvals[cluster])) / operator.n_sites, float(weights[cluster].sum()))
            )
            cluster = [k]
    points.append(
        (float(np.mean(eigvals[cluster])) / operator.n_sites, float(weights[cluster].sum()))
    )
    total = math.fsum(w for _, w in points)
    points = [(v, w / total) for v, w in points]
    return EmpiricalDistribution(points=tuple(points))


def _boson_hop(n_sites: int, i: int, j: int) -> np.ndarray:
    """Dense b_i^dag b_j + b_j^dag b_i on the hard-core occupation basis."""
    dim = 1 << n_sites
    idx = np.arange(dim)
    occupied_j_empty_i = ((idx >> j) & 1).astype(bool) & ~((idx >> i) & 1).astype(bool)
    out = np.zeros((dim, dim), dtype=complex)
    src = idx[occupied_j_empty_i]
    out[src ^ ((1 << i) | (1 << j)), src] = 1.0
    return out + out.conj().T


def _boson_number(n_sites: int, i: int) -> np.ndarray:
    dim = 1 << n_sites
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    out[idx, idx] = (idx >> i) & 1
    return out


def bose_doping_operator(n_sites: int, b_y: float) -> np.ndarray:
    """(i b_y/2) sum_i (b_i^dag - b_i): the boson image of the transverse drive.

    With the number convention n_i = S_i^z + 1/2 the raising operator maps to
    b^dag, fixing this sign; the opposite overall sign corresponds to the
    boson = down-spin convention and generates the same rotation family.
    """
    _require_dense_memory(n_sites)
    dim = 1 << n_sites
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for site in range(n_sites):
        bit = (idx >> site) & 1
        creat = idx[bit == 0]
        out[creat ^ (1 << site), creat] += 0.5j * b_y
        annih = idx[bit == 1]
        out[annih ^ (1 << site), annih] -= 0.5j * b_y
    return out


@dataclass(frozen=True)
class BoseDualReport:
    """Equivalence evidence for the hard-core-boson dual of the spin model."""

    spectrum_max_delta: float
    spectra_match: bool
    doping_matches_transverse: bool
    number_maps_to_magnetization: bool
    constant_shift: float

    def to_json_dict(self) -> dict:
        return {
            "spectrum_max_delta": self.spectrum_max_delta,
            "spectra_match": self.spectra_match,
            "doping_matches_transverse": self.doping_matches_transverse,
            "number_maps_to_magnetization": self.number_maps_to_magnetization,
            "constant_shift": self.constant_shift,
        }


def bose_dual(lattice: LatticeSpec) -> tuple[MatrixOperator, BoseDualReport]:
    """Hard-core-boson Hamiltonian dual to the spin model, plus its evidence.

    Per bond (i < j, coupling J counted once):
        -(J/2)(b_i^dag b_j + h.c.) - J n_i n_j + (J/2)(n_i + n_j) - J/4
    plus -B_z sum n_i + B_z N/2.  The c-number pieces keep the full spectrum
    identical to the spin Hamiltonian's, not merely equal up to a shift.
    """
    _require_dense_memory(lattice.n_sites)
    dim = lattice.dim
    n = lattice.n_sites
    total = np.zeros((dim, dim), dtype=complex)
    numbers = [_boson_number(n, i) for i in range(n)]
    constant = lattice.b_z * n / 2.0
    for i, j, j_ij in lattice.couplings:
        total -= 0.5 * j_ij * _boson_hop(n, i, j)
        total -= j_ij * (numbers[i] @ numbers[j])
        total += 0.5 * j_ij * (numbers[i] + numbers[j])
        constant -= 0.25 * j_ij
    for i in range(n):
        total -= lattice.b_z * numbers[i]
    total += constant * np.eye(dim)
    bose_op = MatrixOperator(matrix=total, n_sites=n)

    spin_op = build_spin_hamiltonian(lattice, with_decomposition=False)
    spec_gap = float(
        np.max(np.abs(np.sort(eigh(total, eigvals_only=True)) - np.sort(eigh(spin_op.matrix, eigvals_only=True))))
    )
    doping = bose_doping_operator(n, 1.0)
    transverse = build_transverse_field(n, 1.0).matrix
    doping_ok = bool(np.max(np.abs(doping - transverse)) <= 1e-12)
    number_total = sum(numbers)
    _, _, sz = total_spin_operators(n)
    number_ok = bool(
        np.max(np.abs(number_total - (sz + 0.5 * n * np.eye(dim)))) <= 1e-12
    )
    report = BoseDualReport(
        spectrum_max_delta=spec_gap,
        spectra_match=spec_gap <= 1e-10,
        doping_matches_transverse=doping_ok,
        number_maps_to_magnetization=number_ok,
        constant_shift=constant,
    )
    return bose_op, report
