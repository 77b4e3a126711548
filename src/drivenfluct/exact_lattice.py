"""Brute-force 2^N oracle for driven spin-1/2 lattices.

Everything here is built on the full product basis (bit i of a basis index is
site i, bit value 1 = spin up): the point is an exact reference for the
closed forms in :mod:`collective_spin`, not a production simulator, hence the
cap at 14 sites.  Includes the hard-core-boson dual obtained from the spin
algebra (boson number = up-spin indicator), whose spectrum must coincide with
the spin Hamiltonian's; it conserves the boson number, so it is written one
real number-sector block at a time straight from the occupation bits of the
basis index, with no per-site or per-bond matrices.

Matrix-free routes (memory O(N 2^N) for a chain): operators and their
local-term decompositions are written from bit operations straight into
scipy CSR arrays, every bond's parts at once, and applied as such; that
CSR is correct by construction and tested against Kronecker-product
references, so it is stored unchecked, without scipy's validating
constructor, while operators given from outside are dense and checked to
1e-12.
Evolution turns every site by the same single-site unitary, so a whole
drive is evolved in one batched pass: replace-mode segments are
y-rotations, which commute, and in augment mode the exchange
E = -sum J S_i.S_j commutes with S_tot, so a segment is the same field turn
on every site followed by exp(-i E t).  The state at segment boundary k is
then the product U_k of the first k single-site turns on every site of the
initial state, in augment mode followed by exp(-i E t_k): every U_k, a 2x2
matrix, comes from one accumulation over the schedule, all K of them turn
the initial state together in N/2 batched pair passes (O(K N 2^N)), and
augment mode takes the K states through exp(-i E t_k) together, from one
cached real eigensystem of E per lattice (one block per magnetisation
sector, O(sum_k C(N,k)^3) time once, 208 MB of eigenvectors at N = 14,
refused beyond physical memory).  A drive's K turns are computed once and
shared, read-only, by every state evolved through it, such as the N + 1
Dicke sectors of one sweep.  The K boundary states are the rows of
one read-only array, which every state of the trajectory shares.
``expectation``, ``variance``, ``connected_pair_correlators``,
``bounds.uncertainty_check``, ``magnus.variance_expansion`` and
``magnus.variance_rate`` use matrix-vector products only, with one
exception: the first ``variance`` query on the rows of one trajectory
under one lattice-built operator takes every row's variance from one
product with the whole array, and keeps them with the trajectory.
``magnus.magnus_error`` works on the single-site turns alone.  Each
eigenvector of E lies in one sector, so the same eigensystem gives the
spectrum of the whole spin Hamiltonian E - B_z S^z_tot:
``eigenbasis_distribution`` (one atom per eigenvector) and the spin side
of ``bose_dual`` read it there.  The only dense routes
(8 * 4^N bytes per 2^N x 2^N real array, 16 * 4^N per complex one,
4.3 GB at N = 14) are ``MatrixOperator.matrix`` and ``propagator``.  Each
counts every dense array it holds at once, at its dtype's size, and
raises :class:`SizeLimitError` before allocating more than the machine's
physical memory, as ``bose_dual`` does for its largest number-sector block.

The arithmetic follows the dtype of the input.  The spin Hamiltonian and
its terms are stored as real (float64) CSR, the transverse field as
complex.  Dicke states are real and replace-mode turns are real rotations,
so a real state stays real through a replace-mode drive, in real
arithmetic; augment turns and exp(-i E t) are complex, and a complex state
stays complex everywhere.  A real operator meets a complex state through
a complex copy of its entries, made on first use and kept with the
operator, so that scipy does not convert them again on every product.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse

from .collective_spin import DriveSchedule, EmpiricalDistribution, up_count

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
    "connected_pair_correlators",
    "eigenbasis_distribution",
    "bose_dual",
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
        if not math.isfinite(self.b_z):
            raise ValueError(f"b_z must be finite, got {self.b_z}")
        seen = set()
        normalized = []
        for i, j, j_ij in self.couplings:
            i, j = int(i), int(j)
            if not (0 <= i < j < self.n_sites):
                raise ValueError(f"bond ({i}, {j}) needs 0 <= i < j < n_sites")
            if (i, j) in seen:
                raise ValueError(f"duplicate bond ({i}, {j})")
            seen.add((i, j))
            j_ij = float(j_ij)
            if not math.isfinite(j_ij):
                raise ValueError(f"coupling of bond ({i}, {j}) must be finite, got {j_ij}")
            normalized.append((i, j, j_ij))
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


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized state vector on the 2^n product basis.

    Float64 amplitudes stay float64, so a real state (a Dicke state, and
    every replace-mode state evolved from one) is computed in real
    arithmetic; amplitudes of any other dtype become complex128.  The
    boundary states of ``evolve_state`` are read-only rows of one array,
    and those of a drive of several segments hold (trajectory, row), the
    trajectory record that their variances are kept in; a state built
    here holds None.  States compare and hash by identity: two states with
    equal amplitudes are distinct objects, and a state can key a dict.
    """

    amplitudes: np.ndarray
    n_sites: int
    norm_tol: float = 1e-12
    _trajectory: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if amps.dtype != np.float64:
            amps = amps.astype(complex, copy=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (1 << self.n_sites,):
            raise ValueError("amplitude vector length must be 2^n_sites")
        drift = abs(math.sqrt(np.vdot(amps, amps).real) - 1.0)
        if not drift <= self.norm_tol:  # NaN fails too
            raise ValueError(f"state norm off unity by {drift:.3e}")

    @classmethod
    def _from_checked(
        cls, amplitudes: np.ndarray, n_sites: int, norm_tol: float, trajectory: tuple | None = None
    ) -> "QuantumState":
        """Amplitudes whose dtype, length and norm the caller has checked, stored as given."""
        state = cls.__new__(cls)
        # one write of the instance's fields, past the frozen __setattr__
        state.__dict__.update(amplitudes=amplitudes, n_sites=n_sites, norm_tol=norm_tol, _trajectory=trajectory)
        return state


class _Trajectory:
    """The boundary states of one drive, the rows of one read-only
    C-contiguous (K, 2^N) array, and their variances under each
    lattice-built operator, keyed by the operator object (which the record
    keeps alive): every row's, as floats, from the first query on."""

    __slots__ = ("states", "variances")

    def __init__(self, states: np.ndarray):
        self.states = states
        self.variances: dict = {}

    def variance(self, row: int, operator: "MatrixOperator") -> float | None:
        """Row ``row``'s kept variance under ``operator``, taken for every
        row on the first query, or None for an operator given as a dense
        array, whose product with several states is a different BLAS kernel
        from its product with one, so each state is taken alone."""
        if isinstance(operator.array, np.ndarray):
            return None
        kept = self.variances.get(operator)
        if kept is None:
            kept = self.variances[operator] = _row_variances(self.states, operator).tolist()
        return kept[row]


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(needed: int, what: str) -> None:
    """Refuse to allocate ``needed`` bytes for ``what`` beyond physical memory."""
    available = _physical_memory_bytes()
    if needed > available:
        raise SizeLimitError(
            f"{what} needs {needed} bytes, more than the {available} bytes of physical memory"
        )


def _require_dense_memory(
    n_sites: int, itemsize: int, arrays: int = 1, route: str = "a dense operator"
) -> None:
    """Refuse a route that holds ``arrays`` dense 2^N x 2^N arrays at once,
    ``itemsize`` * 4^N bytes each (8 real, 16 complex), if together they
    exceed physical memory."""
    held = f"{arrays} dense 2^N x 2^N array{'s' if arrays > 1 else ''} at once"
    _require_memory(arrays * itemsize * 4**n_sites, f"{route} on {n_sites} sites ({held})")


class MatrixOperator:
    """Hermitian operator, optionally with a local-term decomposition.

    ``array`` holds the operator and ``term_stack`` its terms, term k in rows
    k*2^N .. (k+1)*2^N - 1, so one product gives every term's.  The lattice
    builders store scipy CSR arrays, Hermitian and resumming by construction,
    without re-checking them: real (float64) for the spin Hamiltonian and
    its terms, complex for the transverse field.  Any other operator comes
    through this constructor as dense complex arrays, ``terms`` a sequence
    of 2^N x 2^N matrices, and must be Hermitian, with terms that sum back
    to it, each within 1e-12.  ``matrix`` is the dense form, a new array of
    8 * 4^N bytes (real) or 16 * 4^N bytes (complex) on each read of a
    sparse operator.  A complex state meets a real operator or term stack
    through its complex copy, made on its first such product and kept,
    twice the bytes of the real entries.  Bond terms are split half-half
    between their two sites, one fixed choice among the many admissible
    splits.
    """

    def __init__(self, matrix, n_sites: int, terms=None):
        parts = [] if terms is None else list(terms)
        if sparse.issparse(matrix) or any(map(sparse.issparse, parts)):
            raise TypeError("MatrixOperator takes dense arrays; sparse operators come only from the lattice builders")
        dim = 1 << n_sites
        array = np.asarray(matrix, dtype=complex)
        if array.shape != (dim, dim):
            raise ValueError("matrix shape must be 2^n x 2^n")
        herm = float(np.abs(array - array.conj().T).max())
        if herm > 1e-12:
            raise ValueError(f"operator not Hermitian within 1e-12 (max dev {herm:.3e})")
        term_stack = None
        if terms is not None:
            stacked = np.asarray(parts, dtype=complex)
            if stacked.shape[1:] != (dim, dim):
                raise ValueError("terms must be 2^n x 2^n matrices")
            gap = float(np.abs(stacked.sum(axis=0) - array).max())
            if gap > 1e-12:
                raise ValueError(f"decomposition does not resum to operator ({gap:.3e})")
            term_stack = stacked.reshape(-1, dim)
        self.array = array
        self.term_stack = term_stack
        self.n_sites = n_sites
        self._real_entries = False
        self._complex_copies = {}

    @classmethod
    def _from_builder(
        cls,
        array: sparse.csr_array,
        n_sites: int,
        term_stack: sparse.csr_array | None = None,
    ) -> "MatrixOperator":
        """A lattice builder's CSR operator and term stack, stored as given."""
        operator = cls.__new__(cls)
        operator.array = array
        operator.term_stack = term_stack
        operator.n_sites = n_sites
        operator._real_entries = array.dtype == np.float64
        operator._complex_copies = {}
        return operator

    def _times(self, vectors: np.ndarray, terms: bool = False) -> np.ndarray:
        """The operator, or its term stack, times ``vectors``, in their arithmetic.

        Real vectors take the operator as stored.  Complex vectors take a
        complex operator; a real CSR one is copied to complex once, on the
        first such product, and the copy is kept for the next.
        """
        operator = self.term_stack if terms else self.array
        if self._real_entries and vectors.dtype.kind == "c":
            twin = self._complex_copies.get(terms)
            if twin is None:
                twin = self._complex_copies[terms] = _complex_copy(operator)
            operator = twin
        return operator @ vectors

    @property
    def terms(self) -> tuple | None:
        """The local terms, each a 2^N x 2^N block of ``term_stack``."""
        if self.term_stack is None:
            return None
        dim = self.dim
        return tuple(self.term_stack[k:k + dim] for k in range(0, self.term_stack.shape[0], dim))

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    @property
    def matrix(self) -> np.ndarray:
        if not sparse.issparse(self.array):
            return self.array
        _require_dense_memory(self.n_sites, self.array.dtype.itemsize)
        return self.array.toarray()


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


# the print limit that scipy's constructor stores on every sparse array
_MAXPRINT = sparse.csr_array((0, 0)).maxprint


def _valid_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple) -> sparse.csr_array:
    """The CSR array of parts that are valid by construction: ``indptr``
    has one more entry than rows and rises from 0 to ``indices.size``, and
    every index lies in 0 .. shape[1] - 1.

    The parts are stored as given, int64 indices and the entries' dtype,
    as scipy's constructor stores them for a sparse array, but without
    that constructor, whose checks cost several times one product.  Stored
    zeros are then dropped, where there are any.  This is the one place
    that writes scipy's CSR attributes.
    """
    out = object.__new__(sparse.csr_array)
    out.__dict__.update(_shape=shape, maxprint=_MAXPRINT, indices=indices, indptr=indptr, data=data)
    if not data.all():
        out.eliminate_zeros()
    return out


def _csr(cols: np.ndarray, values: np.ndarray, dim: int) -> sparse.csr_array:
    """CSR array whose row r holds values[r] at columns cols[r].

    Every row has the same number of slots, so the CSR arrays are the inputs
    flattened: O(entries), no sorting.  The entries keep the dtype of
    ``values``.  Stored zeros are dropped.
    """
    width = cols.shape[1]
    return _valid_csr(values.ravel(), cols.ravel(), np.arange(0, cols.size + 1, width), (cols.shape[0], dim))


def _complex_copy(array: sparse.csr_array) -> sparse.csr_array:
    """``array`` with its entries as complex128, sharing its index arrays."""
    return _valid_csr(array.data.astype(complex), array.indices, array.indptr, array.shape)


def _site_bits(n_sites: int) -> np.ndarray:
    """Bit s of every basis index, row s per site: 1 = up.  S^z of site s
    is row s minus 0.5."""
    return (np.arange(1 << n_sites) >> np.arange(n_sites)[:, None]) & 1


def _exchange_bonds(spin_z: np.ndarray, couplings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flip masks, Ising diagonals, flip values) of -J S_i.S_j, one row per bond.

    The flip-flop part swaps two antiparallel spins: row r holds it at
    column r ^ mask, and since flipping both spins keeps the pair
    antiparallel, the row's own spins decide the entry.
    """
    bonds = np.array(couplings, dtype=float).reshape(-1, 3)
    first, second = bonds[:, :2].T.astype(int)
    j_ij = bonds[:, 2]
    z_first, z_second = spin_z[first], spin_z[second]
    ising = -j_ij[:, None] * (z_first * z_second)
    flips = np.where(z_first != z_second, (-0.5 * j_ij)[:, None], 0.0)
    return (1 << first) | (1 << second), ising, flips


def build_spin_hamiltonian(lattice: LatticeSpec, with_decomposition: bool = True) -> MatrixOperator:
    """Heisenberg-coupled spins in a longitudinal field: -sum J S.S - B_z sum S_z.

    Built from bit operations: the field and Ising parts are diagonal, and a
    bond's flip-flop part swaps two antiparallel spins.  The decomposition
    assigns each site its field term plus half of every incident bond, so the
    term count equals the site count.  Every bond's parts are computed at
    once, one row per bond, and each diagonal sums its parts in a fixed
    order: the field terms site by site, then the bonds in the order given.
    """
    n = lattice.n_sites
    idx = np.arange(lattice.dim)
    spin_z = _site_bits(n) - 0.5
    masks, ising, flips = _exchange_bonds(spin_z, lattice.couplings)
    fields = -(lattice.b_z * spin_z)
    diagonal = np.concatenate([fields, ising]).sum(axis=0, initial=0.0)
    # row r holds the diagonal and, per bond, column r ^ mask
    total = _csr(idx[:, None] ^ np.append(0, masks), np.column_stack([diagonal, flips.T]), lattice.dim)
    if not with_decomposition:
        return MatrixOperator._from_builder(total, n)
    # the bonds on each site in bond order, padded up to the most bonds on
    # one site with index len(masks): a bond of mask 0 and no entries,
    # whose slots _csr drops
    on_site: list[list[int]] = [[] for _ in range(n)]
    for bond, (i, j, _) in enumerate(lattice.couplings):
        on_site[i].append(bond)
        on_site[j].append(bond)
    width = max(map(len, on_site))
    table = np.array([bonds + [len(masks)] * (width - len(bonds)) for bonds in on_site], dtype=int)
    pad = np.zeros((1, lattice.dim))
    half_ising, half_flips = np.concatenate([0.5 * ising, pad]), np.concatenate([0.5 * flips, pad])
    padded_masks = np.append(masks, 0)
    # row block s holds site s's term: on the diagonal its field term plus
    # half of each of its bonds' Ising parts, in bond order, and in the
    # following slots half of each bond's flip; each slot is written for
    # every site at once
    cols = np.empty((n, lattice.dim, width + 1), dtype=int)
    values = np.empty(cols.shape)
    cols[:, :, 0] = idx
    values[:, :, 0] = fields
    for slot, bonds in enumerate(table.T, start=1):
        values[:, :, 0] += half_ising[bonds]
        np.bitwise_xor(idx, padded_masks[bonds, None], out=cols[:, :, slot])
        values[:, :, slot] = half_flips[bonds]
    terms = _csr(cols.reshape(-1, width + 1), values.reshape(-1, width + 1), lattice.dim)
    return MatrixOperator._from_builder(total, n, terms)


def build_transverse_field(n_sites: int, b_y: float, with_decomposition: bool = True) -> MatrixOperator:
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
    if not with_decomposition:
        return MatrixOperator._from_builder(total, n_sites)
    # site s alone is one entry per row, in row block s of the stack
    terms = _csr(cols.T.reshape(-1, 1), values.T.reshape(-1, 1), idx.size)
    return MatrixOperator._from_builder(total, n_sites, terms)


def dicke_state(n_sites: int, m: float) -> QuantumState:
    """Equal-amplitude superposition of all product states with S_z^tot = m,
    the basis indices with ``collective_spin.up_count(n_sites, m)`` set bits.
    The amplitudes are real (float64): 1/sqrt(C(N, n_up)) on each of the
    C(N, n_up) indices, normalised by construction."""
    n_up = up_count(n_sites, m)
    hits = np.bitwise_count(np.arange(1 << n_sites)) == n_up
    return QuantumState._from_checked(hits / math.sqrt(math.comb(n_sites, n_up)), n_sites, 1e-12)


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
    # ``order`` and the (up-counts, eigenvalues, eigenvectors) of its sectors
    # k <= N/2, each sector diagonalised on its own, so every eigenvector has
    # one up-count and is an eigenvector of E - B_z S^z_tot as well.
    # ``energies`` holds the blocks' eigenvalues one after the other, so
    # that their phases take one call for all blocks.
    # The memory check counts the eigenvectors' bytes: from N = 8 on, 0.5 to
    # 0.75 of the 8 * C(2N, N) of one block per sector.  The arrays are
    # shared and read-only.  Returns (order, inverse, blocks, energies).
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
    spin_z = _site_bits(n_sites) - 0.5
    ups = np.bitwise_count(idx)
    masks, ising, flips = _exchange_bonds(spin_z, couplings)
    diagonal = ising.sum(axis=0, initial=0.0)
    # bond by bond, the rows each flips; a flip keeps the up-spin count, so
    # both ends lie in the row's sector
    bond, rows = np.nonzero(flips)
    cols, values = rows ^ masks[bond], flips[bond, rows]
    row_ups = ups[rows]
    by_ups, offsets = np.argsort(ups, kind="stable"), np.cumsum([0, *sizes])
    position = np.empty_like(idx)
    groups, blocks = [], []
    start = 0
    for first, end in spans:
        states = by_ups[offsets[first]:offsets[end]]
        position[states] = np.arange(states.size)
        block = np.diag(diagonal[states])
        entries = (row_ups >= first) & (row_ups < end)
        block[position[rows[entries]], position[cols[entries]]] = values[entries]
        eigvals, eigvecs = np.empty(states.size), np.zeros(block.shape)
        for k in range(first, end):
            sector = slice(offsets[k] - offsets[first], offsets[k + 1] - offsets[first])
            eigvals[sector], eigvecs[sector, sector] = np.linalg.eigh(block[sector, sector])
        groups.append(np.column_stack([states, full - states]).ravel() if 2 * first < n_sites else states)
        blocks.append((start, start + groups[-1].size, ups[states], eigvals, eigvecs))
        start += groups[-1].size
    order = np.concatenate(groups)
    inverse = np.argsort(order)
    energies = np.concatenate([eigvals for *_, eigvals, _ in blocks])
    for array in (order, inverse, energies, *(a for block in blocks for a in block[2:])):
        array.flags.writeable = False
    return order, inverse, tuple(blocks), energies


def _exchange_evolution(vectors: np.ndarray, eigensystem: tuple, durations) -> np.ndarray:
    """exp(-i E t) applied to a state, or to every column of a matrix: for
    the one time given, or column k for time ``durations[k]`` of an array.

    A group's rows, each index's and its flipped image's side by side,
    take two real products with the group's eigenvectors: complex input is
    viewed as its real and imaginary parts, so no complex copy of the
    eigenvectors is made.
    """
    order, inverse, blocks, energies = eigensystem
    # a row per eigenvector, and a column per time if there are several
    phases = np.exp(np.multiply.outer(energies, -1j * durations))
    grouped = vectors[order]
    start = 0
    for lo, hi, _, eigvals, eigvecs in blocks:
        part = grouped[lo:hi].view(float).reshape(eigvals.size, -1)
        coeffs = (eigvecs.T @ part).view(complex)
        # one time phases every column alike; several phase the columns of
        # each image in turn, one time per column
        phased = coeffs if phases.ndim == 1 else coeffs.reshape(eigvals.size, -1, phases.shape[1])
        phased *= phases[start:start + eigvals.size, None]
        part[...] = eigvecs @ coeffs.view(float)
        start += eigvals.size
    return grouped[inverse]


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
    entries = [entry for a, b in turns for entry in (a, -b.conjugate(), b, a.conjugate())]
    return np.array(entries, dtype=complex).reshape(-1, 2, 2)


def _accumulated_turns(steps, mode: str, b_z: float) -> np.ndarray:
    """Row k: the single-site turn of the first k (step, b_y) steps together.

    Every step turns each site by the same 2x2 unitary, so the first k
    steps are one turn on every site.  Replace-mode steps are y-rotations
    exp(i angle S^y), which commute and are real: row k is the rotation
    [[c, -s], [s, c]] by the ``fsum`` of the first k angles, with c and s
    the cosine and sine of half of it.  Augment-mode steps are the complex
    field turns of ``_field_turn``, composed as (a, b) pairs, later ones on
    the left.  Row 0 is the identity.
    """
    if mode == "replace":
        angles = [b_y * step for step, b_y in steps]
        halves = [0.5 * math.fsum(angles[:k]) for k in range(len(angles) + 1)]
        cos, sin = [math.cos(half) for half in halves], [math.sin(half) for half in halves]
        return np.array([cos, [-s for s in sin], sin, cos]).T.reshape(-1, 2, 2)
    a, b = 1.0 + 0.0j, 0.0j
    products = [(a, b)]
    for step, b_y in steps:
        a_step, b_step = _field_turn(step, b_y, b_z)
        a, b = a_step * a - b_step.conjugate() * b, b_step * a + a_step.conjugate() * b
        products.append((a, b))
    return _su2(products)


@lru_cache(maxsize=8)
def _drive_turns(segments: tuple, mode: str, b_z: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows 1 .. K of ``_accumulated_turns``, one turn U_k per boundary, and
    the pair turns U_k (x) U_k, one 4x4 matrix per row, that
    ``_turn_every_site`` applies: computed once per drive, so that every
    state evolved through it shares them, as read-only arrays.  The key
    compares floats by value, so a field of -0.0 and one of 0.0 share an
    entry; their turns differ at most in the sign of a zero entry."""
    turns = _accumulated_turns(segments, mode, b_z)[1:]
    pairs = _pair_turns(turns)
    turns.flags.writeable = pairs.flags.writeable = False
    return turns, pairs


def _pair_turns(turns: np.ndarray) -> np.ndarray:
    """U (x) U of every turn U, stacked as the rows of one (4 K, 4) array."""
    return (turns[:, :, None, :, None] * turns[:, None, :, None, :]).reshape(-1, 4)


def _kron_power(single: np.ndarray, n_sites: int) -> np.ndarray:
    """The N-fold Kronecker power of a single-site matrix, as ``np.kron``
    would multiply it out, without its per-call overhead.  Each step writes
    the four scaled copies of the last power into place, so numpy's inner
    loop runs along its rows rather than along an axis of length 2."""
    out = single
    for _ in range(n_sites - 1):
        rows, cols = out.shape
        grown = np.empty((rows, 2, cols, 2), dtype=out.dtype)
        for a in range(2):
            for b in range(2):
                np.multiply(out, single[a, b], out=grown[:, a, :, b])
        out = grown.reshape(2 * rows, 2 * cols)
    return out


def _turn_every_site(psi: np.ndarray, n_sites: int, turns: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Row k: every site of ``psi`` turned by ``turns[k]``, O(K N 2^N) in all,
    with ``pairs`` the ``_pair_turns`` of ``turns``.

    Each pass applies R (x) R to the two least significant sites and moves
    them to the most significant positions, so after N/2 passes (and one
    single-site pass for odd N) every site is turned once and the bit order
    is back where it started.  While the states are one vector (``psi``, or
    the only row of one turn) a pass is one 2-D product for every turn;
    after that it is one stacked product, a 4x4 matrix per row.  numpy
    computes each product in ``np.result_type(psi, turns)``: real for a
    real state and real turns, while a complex state or complex turns make
    it complex, so a complex state keeps its imaginary part.
    """
    count = len(turns)
    # each pass's matrices stacked as rows: 2-D for a product with one vector
    passes = [pairs] * (n_sites // 2)
    if n_sites % 2:
        passes.append(turns.reshape(-1, 2))
    # a product's rows are the states one after the other, in C order, so
    # each pass reads the last one's output as it is
    states = psi
    for ops in passes:
        width = ops.shape[1]
        if count == 1 or states is psi:
            states = np.dot(ops, states.reshape(-1, width).T)
        else:
            columns = states.reshape(count, -1, width).transpose(0, 2, 1)
            states = np.matmul(ops.reshape(count, width, width), columns)
    return states.reshape(count, -1)


def evolve_state(
    state: QuantumState, lattice: LatticeSpec, schedule: DriveSchedule
) -> list[tuple[float, QuantumState]]:
    """Evolve exactly through every schedule segment, all boundaries at once.

    A replace-mode segment is exp(i b_y t S^y_tot), the same y-rotation on
    every site.  An augment-mode segment's Hamiltonian E - B_z S^z_tot -
    b_y S^y_tot splits exactly, because the exchange E commutes with S_tot:
    the same field turn on every site, then exp(-i E t).  So the state at
    boundary k is the product U_k of the first k single-site turns, from
    ``_accumulated_turns``, on every site of the initial state, in augment
    mode followed by exp(-i E t_k) from the cached sector eigensystem of E.
    Every boundary state is computed from the initial one: one batched pass
    turns it by all U_k, and in augment mode one pass through the
    eigensystem gives each its own exp(-i E t_k).  Returns (time, state) at
    t = 0 and each segment boundary, the times summed segment by segment.
    A real initial state stays real in replace mode, whose turns are real;
    augment mode is complex.  Every boundary's norm is checked against
    1e-10 drift in one pass, the first drifting boundary in time order is
    named, and no state is renormalized.

    The turns come from a small cache keyed by the drive's segments, mode
    and B_z, so the states evolved through one drive share them.  The
    boundary states are the rows of one read-only C-contiguous array, so a
    variance kept from them cannot go stale.  With more than one boundary
    they share one trajectory record: the first ``variance`` query on any
    of its rows under a lattice-built operator takes every row's variance
    from one product of the operator with the array and keeps them, bit
    for bit the per-state values.
    """
    if state.n_sites != lattice.n_sites:
        raise ValueError("state and lattice site counts differ")
    times = schedule.boundary_times()[1:]
    turns, pairs = _drive_turns(schedule.segments, schedule.mode, lattice.b_z)
    states = _turn_every_site(state.amplitudes, lattice.n_sites, turns, pairs)
    if schedule.mode == "augment":
        exchange = _segment_eigensystem(lattice.n_sites, lattice.couplings)
        if len(times) == 1:  # numpy gathers a lone state faster as a vector
            states = _exchange_evolution(states[0], exchange, times[0])[None]
        else:
            states = np.ascontiguousarray(_exchange_evolution(states.T, exchange, np.array(times)).T)
    drift = _first_drift(states, 1e-10)
    if drift is not None:
        raise NumericalDriftError(f"state norm off unity by {drift[1]:.3e} at t = {times[drift[0]]}")
    states.flags.writeable = False
    trajectory = _Trajectory(states) if len(times) > 1 else None
    return [(0.0, state)] + [
        (t, QuantumState._from_checked(psi, state.n_sites, 1e-10, None if trajectory is None else (trajectory, row)))
        for row, (t, psi) in enumerate(zip(times, states))
    ]


def _first_drift(states, tol: float) -> tuple[int, float] | None:
    """(index, drift) of the first state whose norm is off unity by more than
    ``tol`` (NaN is), or None.  The norms of several states come from one
    ``vecdot`` over their real and imaginary parts, the inner loop that
    ``vdot`` also runs; a lone state's ``vdot`` costs less."""
    if len(states) == 1:
        drift = abs(math.sqrt(np.vdot(states[0], states[0]).real) - 1.0)
        return None if drift <= tol else (0, drift)
    parts = states.view(float).reshape(len(states), -1)
    drifts = np.abs(np.sqrt(np.vecdot(parts, parts)) - 1.0)
    if drifts.max() <= tol:  # a NaN maximum fails this
        return None
    first = int(np.argmin(drifts <= tol))
    return first, float(drifts[first])


def propagator(lattice: LatticeSpec, schedule: DriveSchedule, t: float) -> np.ndarray:
    """Exact unitary U(t) for the schedule's ``pieces(t)`` (segments cut at t).

    Dense: real, 8 * 4^N bytes, in replace mode and complex, 16 * 4^N
    bytes, in augment mode.  Every segment turns each site by the same 2x2
    unitary, so the product of the turns is the N-fold Kronecker power of
    the last of ``_accumulated_turns``: about y in replace mode, and in
    augment mode followed by exp(-i E t) of the exchange, which commutes
    with them all.
    """
    steps = schedule.pieces(t)
    replace = schedule.mode == "replace"
    # augment mode also holds the exchange's gathered copy and its result
    _require_dense_memory(lattice.n_sites, 8 if replace else 16, 1 if replace else 3, "propagator")
    unitary = _kron_power(_accumulated_turns(steps, schedule.mode, lattice.b_z)[-1], lattice.n_sites)
    if replace:
        return unitary
    exchange = _segment_eigensystem(lattice.n_sites, lattice.couplings)
    return _exchange_evolution(unitary, exchange, math.fsum(step for step, _ in steps))


def expectation(state: QuantumState, operator: MatrixOperator) -> float:
    value = np.vdot(state.amplitudes, operator._times(state.amplitudes))
    return float(value.real)


def variance(state: QuantumState, operator: MatrixOperator) -> float:
    """Two-pass form ||(A - <A>) psi||^2 / <psi|psi>.

    Immune to the <A^2> - <A>^2 cancellation that floors sigma at ~1e-8 near
    zero-variance states.  Dividing by <psi|psi> keeps the state's norm
    rounding (1 ulp for a Dicke state, up to 1e-10 after evolution) out of
    the result.  For a boundary state of an ``evolve_state`` trajectory of
    several segments, the first query on any row under a lattice-built
    operator takes every row's variance from one product and keeps them,
    so later queries, ``energy_density_sigma`` and
    ``connected_pair_correlators`` included, read a kept value, equal to
    the per-state one bit for bit.  A dense operator takes each state alone.
    """
    if state._trajectory is not None:
        trajectory, row = state._trajectory
        kept = trajectory.variance(row, operator)
        if kept is not None:
            return kept
    return _applied_variance(state.amplitudes, operator._times(state.amplitudes))


def _applied_variance(psi: np.ndarray, applied: np.ndarray) -> float:
    """``variance`` from the state and the operator's product with it."""
    norm_sq = np.vdot(psi, psi).real
    residual = applied - (np.vdot(psi, applied).real / norm_sq) * psi
    return float(np.vdot(residual, residual).real / norm_sq)


def _row_variances(states: np.ndarray, operator: MatrixOperator) -> np.ndarray:
    """``_applied_variance`` of every row of ``states`` from one product
    with the operator.  Row by row, ``vecdot`` runs the loop of ``vdot`` and
    a CSR product sums each entry in the order of a product with one
    vector, so each value equals the per-state one bit for bit, provided the
    product's rows are C-contiguous as well: read with a stride, the dot
    products sum in another order."""
    applied = np.ascontiguousarray(operator._times(states.T).T)
    norm_sq = np.vecdot(states, states).real
    residual = applied - (np.vecdot(states, applied).real / norm_sq)[:, None] * states
    return np.vecdot(residual, residual).real / norm_sq


def energy_density_sigma(state: QuantumState, operator: MatrixOperator) -> float:
    """Standard deviation of operator/N in the state."""
    return math.sqrt(variance(state, operator)) / operator.n_sites


def site_magnetizations(state: QuantumState) -> np.ndarray:
    """Per-site <S_i^z>, computed from basis weights without matrices."""
    weights = np.abs(state.amplitudes) ** 2
    bits = _site_bits(state.n_sites)
    return (bits - 0.5) @ weights


def connected_pair_correlators(
    state: QuantumState, operator: MatrixOperator
) -> CorrelatorReport:
    """G_ij = Re<H_i H_j> - <H_i><H_j> over the operator's decomposition.

    Schrodinger-picture correlators of the fixed local terms in the given
    state; Heisenberg-picture terms that spread beyond their sites are not
    modeled (for the driven collective-spin model they stay local, so the
    two pictures agree there).
    """
    return _pair_correlators(state, operator, variance(state, operator))


def _pair_correlators(state: QuantumState, operator: MatrixOperator, total_variance: float) -> CorrelatorReport:
    """``connected_pair_correlators`` given the variance of the whole operator."""
    if operator.term_stack is None:
        raise ValueError("operator carries no local-term decomposition")
    psi = state.amplitudes
    terms_psi = operator._times(psi, terms=True).reshape(-1, psi.size)
    n_terms = terms_psi.shape[0]
    means = (terms_psi @ psi.conj()).real
    # <H_i psi|H_j psi> for every pair, one dot product each: ``vecdot``
    # runs the loop of ``vdot``, where a matrix product of a real stack
    # with its own transpose would load BLAS's syrk code on top of gemm's
    overlap = np.vecdot(terms_psi[:, None], terms_psi[None])
    g_matrix = overlap.real - means[:, None] * means
    g_matrix = 0.5 * (g_matrix + g_matrix.T)
    gbar = float(np.abs(g_matrix).sum() / g_matrix.size)
    sigma_sq = total_variance / n_terms**2
    return CorrelatorReport(g_matrix=g_matrix, gbar=gbar, sigma_sq=sigma_sq)


def _spin_spectrum(lattice: LatticeSpec, amplitudes: np.ndarray | None = None) -> tuple:
    """Eigenvalues of H = E - B_z S^z_tot from the cached exchange eigensystem,
    their up-spin counts, and, given amplitudes, their weights: an eigenvector
    of E in sector k has energy eps - B_z (k - N/2), its flipped image
    eps - B_z (N/2 - k)."""
    n = lattice.n_sites
    order, _, blocks, _ = _segment_eigensystem(n, lattice.couplings)
    values, counts, weights = [], [], []
    for lo, hi, ups, eigvals, eigvecs in blocks:
        # one column per sector: k, then N - k where the group pairs them
        sectors = np.column_stack([ups, n - ups])[:, : (hi - lo) // ups.size]
        values.append((eigvals[:, None] - lattice.b_z * (sectors - 0.5 * n)).ravel())
        counts.append(sectors.ravel())
        if amplitudes is not None:
            # complex amplitudes as their real and imaginary parts
            part = amplitudes[order[lo:hi]].view(float).reshape(eigvals.size, -1)
            weights.append((np.abs((eigvecs.T @ part).view(amplitudes.dtype)) ** 2).ravel())
    return np.concatenate(values), np.concatenate(counts), (np.concatenate(weights) if weights else None)


def eigenbasis_distribution(state: QuantumState, lattice: LatticeSpec) -> EmpiricalDistribution:
    """Weights of the state on the lattice's spin-Hamiltonian eigenbasis, one
    atom per eigenvector at its eigenvalue per site, weights normalised by
    ``fsum``.  Degenerate eigenvalues stay separate atoms, so compare two such
    laws by a distance continuous in the values, such as Wasserstein-1."""
    if state.n_sites != lattice.n_sites:
        raise ValueError("state and lattice site counts differ")
    values, _, weights = _spin_spectrum(lattice, state.amplitudes)
    return EmpiricalDistribution(
        points=tuple(zip((values / lattice.n_sites).tolist(), (weights / math.fsum(weights)).tolist()))
    )


@dataclass(frozen=True)
class BoseDualReport:
    """Equivalence evidence for the hard-core-boson dual of the spin model."""

    spectrum_max_delta: float
    spectra_match: bool
    doping_matches_transverse: bool
    number_maps_to_magnetization: bool


def _bose_dual_blocks(lattice: LatticeSpec):
    """Yield (states, block) per boson number k = 0..N: the basis indices
    with k occupied sites, ascending, and the real C(N,k) x C(N,k) block of
    the dual on them, which conserves the boson number.

    Written from the occupation bits n_i of the basis index: the number
    terms collect on the diagonal, and each bond hops the boson across
    wherever exactly one of its two sites is occupied.
    """
    n = lattice.n_sites
    idx = np.arange(lattice.dim)
    occupied = _site_bits(n)
    diagonal = np.zeros(lattice.dim)
    constant = lattice.b_z * n / 2.0
    for i, j, j_ij in lattice.couplings:
        diagonal -= j_ij * (occupied[i] * occupied[j])
        diagonal += 0.5 * j_ij * (occupied[i] + occupied[j])
        constant -= 0.25 * j_ij
    for i in range(n):
        diagonal -= lattice.b_z * occupied[i]
    diagonal += constant
    # every bond's hops at once, each from state src to src ^ (its mask)
    bonds = np.array(lattice.couplings).reshape(-1, 3)
    first, second = bonds[:, :2].T.astype(int)
    bond, src = np.nonzero(occupied[first] != occupied[second])
    dst = src ^ ((1 << first) | (1 << second))[bond]
    count = np.bitwise_count(idx)
    position = np.empty_like(idx)
    for k in range(n + 1):
        states = np.flatnonzero(count == k)
        position[states] = np.arange(states.size)
        block = np.diag(diagonal[states])
        run = count[src] == k
        block[position[dst[run]], position[src[run]]] = -0.5 * bonds[bond[run], 2]
        yield states, block


def bose_dual(lattice: LatticeSpec) -> BoseDualReport:
    """Evidence that the hard-core-boson dual reproduces the spin model.

    Per bond (i < j, coupling J counted once):
        -(J/2)(b_i^dag b_j + h.c.) - J n_i n_j + (J/2)(n_i + n_j) - J/4
    plus -B_z sum n_i + B_z N/2.  The c-number pieces keep the full spectrum
    identical to the spin Hamiltonian's, not merely equal up to a shift.
    Its spectrum, one ``eigvalsh`` per block of ``_bose_dual_blocks``, is
    checked against the spin spectrum read from the cached sector
    eigensystem of the exchange, as a whole and per boson number k against
    the sector with k up spins; the doping (i/2) sum_i (b_i^dag - b_i)
    (with n_i = S_i^z + 1/2 the raising operator is b^dag, which fixes the
    sign) against the CSR entries of the unit transverse drive.  One block
    is held at a time, at most 8 C(N, N/2)^2 bytes (94 MB at 14 sites).
    """
    n = lattice.n_sites
    size = math.comb(n, n // 2)
    _require_memory(8 * size**2, f"bose_dual on {n} sites (a {size} x {size} number-sector block)")
    values, ups, _ = _spin_spectrum(lattice)
    dual = np.concatenate([np.linalg.eigvalsh(block) for _, block in _bose_dual_blocks(lattice)])
    spec_gap = float(np.max(np.abs(np.sort(dual) - np.sort(values))))
    # boson number k = S^z_tot + N/2: block k, ascending, is the spin sector with k up spins
    number_gap = np.max(np.abs(dual - values[np.lexsort((values, ups))]))
    # b_i^dag on the columns where site i is empty, -b_i where it is
    # occupied: the drive stores each of these entries and nothing else
    idx = np.arange(lattice.dim)
    occupied = _site_bits(n)
    cols = np.tile(idx, n)
    rows = cols ^ np.repeat(1 << np.arange(n), lattice.dim)
    transverse = build_transverse_field(n, 1.0, with_decomposition=False).array
    doping_gap = np.max(np.abs(transverse[rows, cols] - 0.5j * (1 - 2 * occupied.ravel())))
    doping_ok = bool(transverse.nnz == cols.size and doping_gap <= 1e-12)
    return BoseDualReport(
        spectrum_max_delta=spec_gap,
        spectra_match=spec_gap <= 1e-10,
        doping_matches_transverse=doping_ok,
        number_maps_to_magnetization=bool(number_gap <= 1e-10),
    )
