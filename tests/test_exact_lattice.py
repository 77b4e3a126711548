"""Dense-oracle construction, evolution, correlators, and the boson dual."""

import contextlib
import csv
import math
import warnings
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh, expm
from scipy.sparse.linalg import expm_multiply
from scipy.stats import wasserstein_distance

from drivenfluct import bounds as bd
from drivenfluct import collective_spin as cs
from drivenfluct import exact_lattice as xl
from drivenfluct import magnus as mg
from drivenfluct import oracles

PI = math.pi
DATA = Path(__file__).resolve().parent / "data"


def replace_schedule(theta, b_z=1.0, b_y=1.0):
    return cs.DriveSchedule("replace", ((abs(theta) / abs(b_y), math.copysign(b_y, theta)),), b_z)


def w1(a, b):
    """Wasserstein-1 distance between two discrete laws given as (value,
    weight) pairs; continuous in the values, so degenerate or nearly
    degenerate atoms need no matching."""
    (u, u_weights), (v, v_weights) = (np.array(points).T for points in (a, b))
    return wasserstein_distance(u, v, u_weights, v_weights)


class TestLatticeSpec:
    def test_chain_and_complete(self):
        assert xl.LatticeSpec.chain(4).couplings == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
        assert len(xl.LatticeSpec.complete(5).couplings) == 10

    def test_rejects(self):
        with pytest.raises(xl.SizeLimitError):
            xl.LatticeSpec(15, (), 0.0)
        with pytest.raises(ValueError):
            xl.LatticeSpec(3, ((1, 0, 1.0),), 0.0)  # needs i < j
        with pytest.raises(ValueError):
            xl.LatticeSpec(3, ((0, 1, 1.0), (0, 1, 2.0)), 0.0)  # duplicate


class TestSpinHamiltonian:
    def test_two_spin_spectrum(self):
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec(2, ((0, 1, 1.0),), 1.0))
        eigenvalues = np.sort(np.linalg.eigvalsh(ham.matrix))
        assert np.allclose(eigenvalues, [-1.25, -0.25, 0.75, 0.75], atol=1e-13)

    def test_free_spin_spectrum(self):
        # J = 0: levels -N/2 .. N/2 in unit steps with binomial degeneracies
        n = 5
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec(n, (), 1.0))
        eigenvalues = np.sort(np.linalg.eigvalsh(ham.matrix))
        expected = np.sort(
            np.concatenate(
                [np.full(math.comb(n, k), n / 2.0 - k) for k in range(n + 1)]
            )
        )
        assert np.allclose(eigenvalues, expected, atol=1e-13)

    def test_total_spin_symmetry(self):
        lat = xl.LatticeSpec.complete(4, j=0.8, b_z=1.3)
        ham = xl.build_spin_hamiltonian(lat).matrix
        s_sq, s_z = kron_total_spin(4)
        assert np.max(np.abs(ham @ s_sq - s_sq @ ham)) < 1e-12
        assert np.max(np.abs(ham @ s_z - s_z @ ham)) < 1e-12

    def test_selftest_total_spin_matches_kron(self):
        # the exact selftest applies S^2 and S^z through the bits alone
        rng = np.random.default_rng(11)
        for n in (1, 3, 5):
            vectors = rng.normal(size=(1 << n, 4)).view(complex)
            s_sq, s_z = kron_total_spin(n)
            got_sq, got_z = oracles._total_spin(vectors, n)
            assert close(got_sq, s_sq @ vectors)
            assert close(got_z, s_z @ vectors)

    def test_decomposition_resums(self):
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.chain(4, 0.9, 0.4))
        assert len(ham.terms) == 4
        assert np.max(np.abs(sum(ham.terms) - ham.matrix)) < 1e-13

    def test_hermiticity_enforced(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            xl.MatrixOperator(matrix=bad, n_sites=1)

    def test_resum_enforced(self):
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.chain(4, 0.9, 0.4))
        matrix, terms = ham.matrix, [term.toarray() for term in ham.terms]
        outside = xl.MatrixOperator(matrix, 4, terms)
        # stored as CSR, term by term the terms given
        assert all(sparse.issparse(a) and np.array_equal(a.toarray(), b) for a, b in zip(outside.terms, terms))
        for bad in (1e-9, math.nan, math.inf):
            wrong = [term.copy() for term in terms]
            wrong[2][0, 0] += bad
            with pytest.raises(ValueError, match="resum"):
                xl.MatrixOperator(matrix, 4, wrong)


class TestDickeState:
    def test_amplitudes(self):
        state = xl.dicke_state(4, 1)
        weights = np.abs(state.amplitudes) ** 2
        populated = weights[weights > 0]
        assert len(populated) == 4  # C(4,3)
        assert populated == pytest.approx([0.25] * 4)
        # the up-spin count read bit by bit is the reference for bitwise_count
        for n in range(1, 9):
            ups = sum((np.arange(1 << n) >> s) & 1 for s in range(n))
            for k in range(n + 1):
                support = np.abs(xl.dicke_state(n, k - n / 2).amplitudes) > 0
                assert np.array_equal(support, ups == k)

    def test_rejects_bad_magnetization(self):
        with pytest.raises(ValueError):
            xl.dicke_state(4, 0.5)


@pytest.mark.parametrize(
    "dtype,kept",
    [(np.float64, np.float64), (np.float32, np.complex128), (np.int64, np.complex128), (np.complex64, np.complex128), (np.complex128, np.complex128)],
)
def test_state_keeps_float64_and_makes_other_dtypes_complex(dtype, kept):
    amplitudes = np.array([1, 0, 0, 0], dtype=dtype)
    assert xl.QuantumState(amplitudes, 2).amplitudes.dtype == kept


def test_states_compare_and_hash_by_identity():
    first, second = xl.dicke_state(4, 0), xl.dicke_state(4, 0)
    assert np.array_equal(first.amplitudes, second.amplitudes)
    assert first != second and not first == second
    assert first == first
    assert {first: 1, second: 2}[first] == 1


class TestEvolution:
    def test_eigenstate_static(self):
        lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
        state = xl.dicke_state(3, 1.5)
        sched = cs.DriveSchedule("augment", ((0.9, 0.0),), 1.0)  # evolve with H_spin alone
        ham = xl.build_spin_hamiltonian(lat)
        final = xl.evolve_state(state, lat, sched)[-1][1]
        assert xl.expectation(final, ham) == pytest.approx(xl.expectation(state, ham), abs=1e-12)
        assert xl.variance(final, ham) < 1e-12

    @pytest.mark.parametrize("n,m", [(4, 0), (4, 1), (5, -1.5), (6, 2)])
    def test_dicke_sigma_matches_closed_form(self, n, m):
        lat = xl.LatticeSpec.chain(n, 1.0, 1.0)
        for theta in (0.4, PI / 2, 2.2):
            [(_, t, oracle, analytic)] = oracles.sigma_sweep(lat, replace_schedule(theta), (m,))
            assert t == theta
            assert oracle == pytest.approx(analytic, abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sigma_sweep_rows_equal_per_state_route(self, n):
        # the sweep's batched variances and shared rotated axes give the same
        # floats as the unbatched route: each state's own product with H, and
        # analytic_sigma row by row
        rng = np.random.default_rng([17, n])
        lat = xl.LatticeSpec.chain(n, float(rng.normal()), float(rng.normal()))
        segments = tuple((float(rng.uniform(0.05, 0.5)), float(rng.normal())) for _ in range(20))
        schedule = cs.DriveSchedule("replace", segments, lat.b_z)
        ham = xl.build_spin_hamiltonian(lat, with_decomposition=False)
        expected = [
            (
                m,
                t,
                math.sqrt(xl._applied_variance(state.amplitudes, ham._times(state.amplitudes))) / n,
                cs.analytic_sigma(cs.SpinSector(n, n / 2, m), schedule, t),
            )
            for m in (-n / 2 + k for k in range(n + 1))
            for t, state in xl.evolve_state(xl.dicke_state(n, m), lat, schedule)[1:]
        ]
        assert len(expected) == 20 * (n + 1)
        assert oracles.sigma_sweep(lat, schedule) == expected
        # a Dicke state stays real through replace mode, and its real route
        # gives the complex route's states bit for bit
        for m in (-n / 2 + k for k in range(n + 1)):
            dicke = xl.dicke_state(n, m)
            assert dicke.amplitudes.dtype == np.float64
            real = xl.evolve_state(dicke, lat, schedule)[1:]
            complex_route = xl.evolve_state(xl.QuantumState(dicke.amplitudes.astype(complex), n), lat, schedule)[1:]
            for (_, state), (_, reference) in zip(real, complex_route, strict=True):
                assert state.amplitudes.dtype == np.float64
                assert reference.amplitudes.dtype == np.complex128
                assert np.array_equal(state.amplitudes, reference.amplitudes)
        # every sector evolved through the drive shares its turns, computed
        # once, and a drive of other segments with the same mode and B_z
        # computes its own; the shared arrays are read-only
        before = xl._drive_turns.cache_info()
        for m in (-n / 2 + k for k in range(n + 1)):
            xl.evolve_state(xl.dicke_state(n, m), lat, schedule)
        shorter = cs.DriveSchedule("replace", segments[:-1], lat.b_z)
        xl.evolve_state(xl.dicke_state(n, n / 2), lat, shorter)
        after = xl._drive_turns.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (n + 1, 1)
        turns, pairs = xl._drive_turns(schedule.segments, schedule.mode, lat.b_z)
        assert turns.shape == (20, 2, 2) and pairs.shape == (80, 4)
        assert not turns.flags.writeable and not pairs.flags.writeable

    @pytest.mark.parametrize("mode", ["replace", "augment"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_boundary_amplitudes_are_read_only(self, mode, count):
        # a variance kept with a trajectory cannot go stale under a write
        lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
        sched = cs.DriveSchedule(mode, ((0.4, 1.0),) * count, 1.0)
        for _, state in xl.evolve_state(xl.dicke_state(3, 0.5), lat, sched)[1:]:
            with pytest.raises(ValueError, match="read-only"):
                state.amplitudes[0] = 0.0

    def test_full_rotation_returns_observables(self):
        lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat)
        state = xl.dicke_state(4, 1)
        final = xl.evolve_state(state, lat, replace_schedule(2 * PI))[-1][1]
        assert xl.expectation(final, ham) == pytest.approx(
            xl.expectation(state, ham), abs=1e-9
        )
        assert xl.variance(final, ham) == pytest.approx(0.0, abs=1e-9)

    def test_site_uniform_magnetization(self):
        lat = xl.LatticeSpec.chain(5, 1.0, 1.0)
        trajectory = xl.evolve_state(
            xl.dicke_state(5, 0.5),
            lat,
            cs.DriveSchedule("replace", ((0.5, 1.0),) * 4, 1.0),
        )
        for _, state in trajectory:
            assert float(np.ptp(xl.site_magnetizations(state))) < 1e-10

    def test_trajectory_times(self):
        lat = xl.LatticeSpec.chain(2, 1.0, 1.0)
        sched = cs.DriveSchedule("replace", ((0.25, 1.0), (0.5, -1.0)), 1.0)
        times = [t for t, _ in xl.evolve_state(xl.dicke_state(2, 0), lat, sched)]
        assert times == pytest.approx([0.0, 0.25, 0.75])

    def test_dimension_mismatch(self):
        lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
        with pytest.raises(ValueError):
            xl.evolve_state(xl.dicke_state(2, 0), lat, replace_schedule(1.0))

    def test_norm_drift_raises_with_time(self, monkeypatch):
        rotate = xl._turn_every_site
        monkeypatch.setattr(xl, "_turn_every_site", lambda *args: 1.001 * rotate(*args))
        sched = cs.DriveSchedule("replace", ((0.5, 1.0), (0.25, 1.0)), 1.0)
        with pytest.raises(xl.NumericalDriftError, match=r"by 1\.000e-03 at t = 0\.5$"):
            xl.evolve_state(xl.dicke_state(3, 0.5), xl.LatticeSpec.chain(3), sched)

    @pytest.mark.parametrize("mode", ["replace", "augment"])
    def test_drift_raises_at_first_offending_boundary(self, monkeypatch, mode):
        # every boundary state is computed and checked at once; the check
        # names the first boundary that drifts, in time order, even where a
        # later one drifts more, and NaN drifts
        rotate = xl._turn_every_site
        sched = cs.DriveSchedule(mode, ((0.5, 1.0), (0.25, -0.7), (0.125, 1.3), (0.25, 0.4)), 1.0)
        for scales, message in (
            ((1.0, 1.0 + 1e-11, 1.002, 1.001), r"by 2\.000e-03 at t = 0\.875$"),
            ((1.0, 1.001, 1.003, 1.0), r"by 1\.000e-03 at t = 0\.75$"),
            ((1.0, 1.0, math.nan, 1.0), r"by nan at t = 0\.875$"),
        ):
            scale = np.array(scales)[:, None]
            monkeypatch.setattr(xl, "_turn_every_site", lambda *args, scale=scale: scale * rotate(*args))
            with pytest.raises(xl.NumericalDriftError, match=message):
                xl.evolve_state(xl.dicke_state(3, 0.5), xl.LatticeSpec.chain(3), sched)

    def test_augment_sigma_matches_closed_form(self):
        lat = xl.LatticeSpec.chain(4, 1.0, 0.8)
        ham = xl.build_spin_hamiltonian(lat, with_decomposition=False)
        sector = cs.SpinSector(4, 2, 1)
        sched = cs.DriveSchedule("augment", ((3.0, 0.6),), 0.8)
        for t_f in (0.3, 1.1, 2.7):
            partial = cs.DriveSchedule("augment", ((t_f, 0.6),), 0.8)
            state = xl.evolve_state(xl.dicke_state(4, 1), lat, partial)[-1][1]
            assert xl.energy_density_sigma(state, ham) == pytest.approx(
                cs.analytic_sigma(sector, sched, t_f), abs=1e-10
            )
            expected_mean = cs.analytic_energy_mean(sector, sched, t_f, e_symm=-0.25 * 3 * 1.0)
            assert xl.expectation(state, ham) / 4 == pytest.approx(expected_mean, abs=1e-10)


class TestCollectiveSpinOracle:
    """``central_moment("exact")`` and ``analytic_energy_mean`` against the
    2^N lattice: ||(H - mu)^g psi||^2 / N^(2g) and <H>/N in every Dicke
    sector, after a 4-segment replace drive and single-segment augment drives,
    and along multi-segment augment drives on random chains and graphs."""

    @staticmethod
    def lattice_moments(state, ham, g_max):
        psi = state.amplitudes
        mu = float(np.vdot(psi, ham.array @ psi).real)
        moments, vec = [], psi
        for _ in range(g_max):
            vec = ham.array @ vec - mu * vec
            moments.append(float(np.vdot(vec, vec).real))
        return mu, moments

    @pytest.mark.parametrize("n", range(2, 9))
    def test_moments_and_mean_match_lattice(self, n):
        rng = np.random.default_rng([23, n])
        bonds = tuple((i, j, float(rng.normal())) for i in range(n) for j in range(i + 1, n))
        lattice = xl.LatticeSpec(n, bonds, float(rng.uniform(0.5, 1.5)))
        ham = xl.build_spin_hamiltonian(lattice, with_decomposition=False)
        e_symm = -0.25 * math.fsum(j for _, _, j in bonds)  # every pair is a triplet at S = N/2
        b_z, b_y = lattice.b_z, float(rng.uniform(0.3, 1.2))
        replace = cs.DriveSchedule("replace", ((0.3, 1.1), (0.5, -0.7), (0.2, 1.9), (0.4, 0.6)), b_z)
        augments = [cs.DriveSchedule("augment", ((t_f, b_y),), b_z) for t_f in (0.4, 1.3, 2.9)]
        worst = 0.0
        for m in np.arange(n + 1) - n / 2:
            sector = cs.SpinSector(n, n / 2, m)
            psi = xl.dicke_state(n, m)
            cases = [(replace, t, state) for t, state in xl.evolve_state(psi, lattice, replace)[1:]]
            for sched in augments:
                cases.append((sched, sched.total_duration, xl.evolve_state(psi, lattice, sched)[-1][1]))
            for sched, t_f, state in cases:
                mu, moments = self.lattice_moments(state, ham, 3)
                pairs = [(mu / n, cs.analytic_energy_mean(sector, sched, t_f, e_symm))]
                for g, got in enumerate(moments, 1):
                    pairs.append((got / n ** (2 * g), cs.central_moment(sector, sched, t_f, g, "exact")))
                for got, want in pairs:
                    worst = max(worst, abs(got - want) / abs(want))
        assert worst < 1e-12

    @pytest.mark.parametrize("kind", ["chain", "graph"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_multi_segment_augment_matches_lattice(self, kind, n):
        # a seeded random chain, or graph with each pair a bond at even odds,
        # driven by 2-5 augment segments: at every boundary of every Dicke
        # sector, sigma through sigma_sweep, the mean with e_symm = -sum J / 4
        # and the exact moments g = 2, 3 from powers of H on the lattice state
        rng = np.random.default_rng([29, n, kind == "chain"])
        if kind == "chain":
            pairs = [(i, i + 1) for i in range(n - 1)]
        else:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        bonds = tuple((i, j, float(rng.uniform(-1.5, 1.5))) for i, j in pairs)
        lattice = xl.LatticeSpec(n, bonds, float(rng.uniform(-1.5, 1.5)))
        count = int(rng.integers(2, 6))
        segments = zip(rng.uniform(0.1, 0.8, count).tolist(), rng.uniform(-1.5, 1.5, count).tolist())
        schedule = cs.DriveSchedule("augment", tuple(segments), lattice.b_z)
        rows = oracles.sigma_sweep(lattice, schedule)
        assert len(rows) == (n + 1) * count
        assert max(abs(oracle - analytic) for _, _, oracle, analytic in rows) < 1e-12
        ham = xl.build_spin_hamiltonian(lattice, with_decomposition=False)
        e_symm = -0.25 * math.fsum(j for _, _, j in bonds)
        for m in np.arange(n + 1) - n / 2:
            sector = cs.SpinSector(n, n / 2, m)
            for t, state in xl.evolve_state(xl.dicke_state(n, m), lattice, schedule)[1:]:
                mu, moments = self.lattice_moments(state, ham, 3)
                assert abs(mu / n - cs.analytic_energy_mean(sector, schedule, t, e_symm)) < 1e-12
                for g in (2, 3):
                    assert abs(moments[g - 1] / n ** (2 * g) - cs.central_moment(sector, schedule, t, g, "exact")) < 1e-12


class TestGeneralSpinSectorOracle:
    def test_submaximal_sector(self):
        # an S_tot < N/2 eigenstate: simultaneous eigenvector of (H, S^2, S_z)
        lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat, with_decomposition=False)
        s_sq, s_z = kron_total_spin(4)
        # break degeneracies with commuting perturbations, then classify
        eigvals, eigvecs = eigh(ham.matrix + 1e-3 * s_sq + 1e-5 * s_z)
        target = None
        for k in range(len(eigvals)):
            vec = eigvecs[:, k]
            s2_val = float(np.real(np.vdot(vec, s_sq @ vec)))
            sz_val = float(np.real(np.vdot(vec, s_z @ vec)))
            if abs(s2_val - 2.0) < 1e-8 and abs(sz_val - 1.0) < 1e-8:  # S=1, m=1
                target = vec
                break
        assert target is not None
        state = xl.QuantumState(target, 4)
        sector = cs.SpinSector(4, 1, 1)
        theta = 1.3
        sched = replace_schedule(theta)
        final = xl.evolve_state(state, lat, sched)[-1][1]
        assert xl.energy_density_sigma(final, ham) == pytest.approx(
            cs.analytic_sigma(sector, sched, theta), abs=1e-9
        )


class TestCorrelators:
    def test_product_state_field_terms(self):
        lat = xl.LatticeSpec(3, (), 1.0)
        ham = xl.build_spin_hamiltonian(lat)
        state = xl.dicke_state(3, 1.5)  # |up up up>, a product state
        report = xl.connected_pair_correlators(state, ham)
        assert np.max(np.abs(report.g_matrix)) < 1e-14
        assert report.gbar == pytest.approx(0.0, abs=1e-14)

    def test_eigenstate_zero_variance(self):
        lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat)
        state = xl.dicke_state(3, 1.5)
        report = xl.connected_pair_correlators(state, ham)
        assert abs(np.sum(report.g_matrix)) < 1e-12

    def test_rotated_dicke_bound(self):
        lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat)
        state = xl.evolve_state(xl.dicke_state(4, 0), lat, replace_schedule(PI / 2))[-1][1]
        report = xl.connected_pair_correlators(state, ham)
        assert report.sigma_sq > 0.0
        # every G_ij is positive, so mean |G| is mean G, which is sigma^2
        assert np.all(report.g_matrix > 0.0)
        assert report.gbar == pytest.approx(report.sigma_sq, rel=1e-14)
        assert report.sigma_sq == pytest.approx(
            xl.energy_density_sigma(state, ham) ** 2, abs=1e-12
        )

    def test_requires_decomposition(self):
        lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat, with_decomposition=False)
        with pytest.raises(ValueError):
            xl.connected_pair_correlators(xl.dicke_state(3, 1.5), ham)

    def test_report_gates_refuse_nan(self):
        # a NaN anywhere fails a gate: G, its mean |G| or the variance
        good = np.full((2, 2), 0.25)
        xl.CorrelatorReport(g_matrix=good, gbar=0.25, sigma_sq=0.25)
        for g_matrix, gbar, sigma_sq, message in (
            (np.full((2, 2), math.nan), math.nan, math.nan, "variance identity"),
            (good, 0.25, math.nan, "variance identity"),
            (np.array([[0.25, math.nan], [0.25, 0.25]]), 0.25, 0.25, "variance identity"),
            (good, math.nan, 0.25, "undercut"),
        ):
            with pytest.raises(ValueError, match=message):
                xl.CorrelatorReport(g_matrix=g_matrix, gbar=gbar, sigma_sq=sigma_sq)


class TestEigenbasisDistribution:
    def test_eigenstate_point_mass(self):
        lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
        dist = xl.eigenbasis_distribution(xl.dicke_state(3, 1.5), lat)
        top = max(w for _, w in dist.points)
        assert top == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
        state = xl.evolve_state(xl.dicke_state(4, 1), lat, replace_schedule(0.9))[-1][1]
        dist = xl.eigenbasis_distribution(state, lat)
        assert math.fsum(w for _, w in dist.points) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n, m", [(4, 0), *((12, m) for m in range(-6, 7))])
    def test_matches_ladder_weights(self, n, m):
        theta = PI / 3
        lat = xl.LatticeSpec.chain(n, 1.0, 1.0)
        state = xl.evolve_state(xl.dicke_state(n, m), lat, replace_schedule(theta))[-1][1]
        oracle = xl.eigenbasis_distribution(state, lat)
        e_symm = -0.25 * sum(j for _, _, j in lat.couplings)
        ladder = cs.eigenweight_distribution(cs.SpinSector(n, n / 2, m), theta, 1.0, e_symm)
        assert len(oracle.points) == 2**n
        assert w1(oracle.points, ladder.points) <= 1e-12


class TestBoseDual:
    def test_two_site_chain(self):
        report = xl.bose_dual(xl.LatticeSpec(2, ((0, 1, 1.0),), 1.0))
        assert report.entries_match
        assert report.entry_max_delta < 1e-10
        assert report.doping_matches_transverse

    @staticmethod
    def _per_term_reference(lattice):
        # the dual summed from dense per-site number and per-bond hop matrices
        n, dim = lattice.n_sites, lattice.dim
        idx = np.arange(dim)
        numbers = []
        for i in range(n):
            number = np.zeros((dim, dim), dtype=complex)
            number[idx, idx] = (idx >> i) & 1
            numbers.append(number)
        total = np.zeros((dim, dim), dtype=complex)
        constant = lattice.b_z * n / 2.0
        for i, j, j_ij in lattice.couplings:
            hop = np.zeros((dim, dim), dtype=complex)
            src = idx[((idx >> j) & 1).astype(bool) & ~((idx >> i) & 1).astype(bool)]
            hop[src ^ ((1 << i) | (1 << j)), src] = 1.0
            total -= 0.5 * j_ij * (hop + hop.conj().T)
            total -= j_ij * (numbers[i] @ numbers[j])
            total += 0.5 * j_ij * (numbers[i] + numbers[j])
            constant -= 0.25 * j_ij
        for i in range(n):
            total -= lattice.b_z * numbers[i]
        total += constant * np.eye(dim)
        return total

    def test_matrix_pinned_to_per_term_construction(self):
        # the reference keeps the boson number, and the dual equals it entry
        # for entry, so a change of basis or of rounding shows even where the
        # spectra still agree
        rng = np.random.default_rng(2024)
        lattices = [
            xl.LatticeSpec(3, (), 0.8),
            xl.LatticeSpec.chain(4, 0.9, 0.0),
            xl.LatticeSpec.complete(4, -1.3, 0.6),
        ]
        for n in range(1, 7):
            for _ in range(3):
                bonds = tuple(
                    (i, j, float(rng.normal())) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7
                )
                lattices.append(xl.LatticeSpec(n, bonds, float(rng.normal())))
        for lattice in lattices:
            reference = self._per_term_reference(lattice)
            count = np.bitwise_count(np.arange(lattice.dim))
            assert not np.any(reference[count[:, None] != count])
            assert np.array_equal(xl._bose_dual_array(lattice).toarray(), reference)

    def test_number_gate_catches_bosons_on_down_spins(self, monkeypatch):
        # with n_i read off the down spins, boson number k sits on the spin
        # sector with N - k up spins: the whole spectrum still matches, the
        # field's diagonal entries do not
        dual_array, site_bits = xl._bose_dual_array, xl._site_bits

        def bosons_on_down_spins(lattice):
            with monkeypatch.context() as patch:
                patch.setattr(xl, "_site_bits", lambda n: 1 - site_bits(n))
                return dual_array(lattice)

        rng = np.random.default_rng(5)
        lattices = []
        for n in (3, 5, 7):
            bonds = tuple((i, j, float(rng.normal())) for i in range(n) for j in range(i + 1, n))
            lattices.append(xl.LatticeSpec(n, bonds, float(rng.uniform(0.5, 1.5))))
        assert all(xl.bose_dual(lattice).entries_match for lattice in lattices)
        monkeypatch.setattr(xl, "_bose_dual_array", bosons_on_down_spins)
        for lattice in lattices:
            report = xl.bose_dual(lattice)
            assert report.doping_matches_transverse
            assert not report.entries_match

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_couplings(self, seed):
        rng = np.random.default_rng(seed)
        # one 12-site lattice, past the reach of a dense 2^N dual
        for n in (3, 5, 7, 12) if seed == 0 else (3, 5, 7):
            bonds = tuple(
                (i, j, float(rng.normal()))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            )
            report = xl.bose_dual(xl.LatticeSpec(n, bonds, float(rng.normal())))
            assert report.entries_match
            assert report.entry_max_delta < 1e-10

    def test_doping_evolution_sigma(self):
        # doping drive on the boson side reproduces B_z |sin| sqrt(1 + 2/N - w^2)/(2 sqrt 2)
        n, m, b_y = 4, 1, 1.0
        lat = xl.LatticeSpec.chain(n, 1.0, 1.0)
        bose_op = xl.MatrixOperator(self._per_term_reference(lat), n)
        # (i b_y/2) sum (b^dag - b) = -b_y sum S^y, since b^dag - b = 2i S^y
        doping = -b_y * sum(kron_sites(n, {s: SY}) for s in range(n))
        eigvals, eigvecs = eigh(doping)
        psi = xl.dicke_state(n, m).amplitudes  # same occupation basis
        for theta in (0.7, PI / 2, 2.0):
            evolved = eigvecs @ (np.exp(-1j * eigvals * theta / b_y) * (eigvecs.conj().T @ psi))
            state = xl.QuantumState(evolved, n, norm_tol=1e-10)
            w = m / (n / 2.0)
            expected = abs(math.sin(theta)) / (2 * math.sqrt(2)) * math.sqrt(1 + 2 / n - w**2)
            assert xl.energy_density_sigma(state, bose_op) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# matrix-free routes against a dense Kronecker-product reference
# ---------------------------------------------------------------------------

# single-site spin-1/2 matrices in the library's basis order (index 0 = down)
SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY = np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex)
SZ = np.diag([-0.5, 0.5]).astype(complex)


def kron_sites(n_sites, singles):
    """Dense product of single-site matrices ({site: matrix}, identity elsewhere)."""
    # site 0 is the least significant bit of the basis index: rightmost factor
    return reduce(np.kron, [singles.get(k, np.eye(2)) for k in reversed(range(n_sites))])


def kron_total_spin(n_sites):
    """Dense (S^2, S^z_tot), summed from the single-site matrices."""
    totals = [sum(kron_sites(n_sites, {s: single}) for s in range(n_sites)) for single in (SX, SY, SZ)]
    return sum(total @ total for total in totals), totals[2]


def kron_hamiltonian_terms(lattice):
    """Dense per-site terms of H, one at a time: field plus half of every incident bond."""
    n = lattice.n_sites
    for s in range(n):
        term = -lattice.b_z * kron_sites(n, {s: SZ})
        for i, j, coupling in lattice.couplings:
            if s in (i, j):
                term = term - 0.5 * coupling * sum(
                    kron_sites(n, {i: single, j: single}) for single in (SX, SY, SZ)
                )
        yield term


def random_lattice(kind, n_sites, rng):
    pairs = (
        [(i, i + 1) for i in range(n_sites - 1)]
        if kind == "chain"
        else [(i, j) for i in range(n_sites) for j in range(i + 1, n_sites)]
    )
    bonds = tuple((i, j, float(rng.uniform(-1.5, 1.5))) for i, j in pairs)
    return xl.LatticeSpec(n_sites, bonds, float(rng.uniform(-1.5, 1.5)))


@st.composite
def bond_lattices(draw):
    """Up to 6 sites, any subset of the bonds, couplings of either sign, B_z = 0 allowed."""
    n_sites = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n_sites) for j in range(i + 1, n_sites)]
    bonds = tuple((i, j, draw(st.floats(-2.0, 2.0))) for i, j in pairs if draw(st.booleans()))
    return xl.LatticeSpec(n_sites, bonds, draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))))


def random_state(n_sites, rng):
    vector = rng.normal(size=1 << n_sites) + 1j * rng.normal(size=1 << n_sites)
    return xl.QuantumState(vector / np.linalg.norm(vector), n_sites)


def dense_variance(psi, applied):
    residual = applied - np.vdot(psi, applied).real * psi
    return np.vdot(residual, residual).real


def dense_correlators(psi, applied_terms):
    applied = np.stack(applied_terms)
    means = np.array([np.vdot(psi, row).real for row in applied])
    return (applied.conj() @ applied.T).real - np.outer(means, means)


def close(got, want, tol=1e-12):
    # agreement to tol, relative once the reference exceeds one
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) <= tol * max(1.0, np.max(np.abs(want)))


LATTICES = [("chain", n) for n in (2, 5, 8, 10)] + [("complete", n) for n in (3, 6, 8)]


@pytest.mark.parametrize("kind,n", LATTICES)
def test_matrix_free_routes_match_kron_reference(kind, n):
    rng = np.random.default_rng([n, kind == "chain"])
    lattice = random_lattice(kind, n, rng)
    ham = xl.build_spin_hamiltonian(lattice)
    b_y = float(rng.uniform(0.3, 1.5))
    drive = xl.build_transverse_field(n, b_y)

    # replace mode rotates every site about y: compare against the action of
    # the exponential of the dense S^y_tot (exp(-i H t) with H = -b_y S^y_tot)
    sy_sites = [kron_sites(n, {s: SY}) for s in range(n)]
    sy_total = sum(sy_sites)

    def rotate(angle, vectors):
        return expm_multiply(1j * angle * sy_total, vectors)

    segments = tuple(
        (float(d), float(b))
        for d, b in zip(rng.uniform(0.1, 0.8, 5), rng.choice([-1, 1], 5) * rng.uniform(0.3, 1.5, 5))
    )
    schedule = cs.DriveSchedule("replace", segments, lattice.b_z)
    state = random_state(n, rng)
    trajectory = xl.evolve_state(state, lattice, schedule)
    psi = state.amplitudes
    for (duration, field), (_, evolved) in zip(segments, trajectory[1:]):
        psi = rotate(field * duration, psi)
        assert close(evolved.amplitudes, psi)
    t_partial = schedule.total_duration - 0.3 * segments[-1][0]
    angle = sum(b * d for d, b in segments[:-1]) + segments[-1][1] * 0.7 * segments[-1][0]
    probes = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
    assert close(xl.propagator(lattice, schedule, t_partial) @ probes, rotate(angle, probes))

    final = trajectory[-1][1]
    psi = final.amplitudes
    h_ref = 0.0
    h_applied = []
    for term, dense_term in zip(ham.terms, kron_hamiltonian_terms(lattice)):
        assert close(term.toarray(), dense_term)
        h_ref = h_ref + dense_term
        h_applied.append(dense_term @ psi)
    t_applied = [-b_y * (sy @ psi) for sy in sy_sites]
    assert close(ham.matrix, h_ref)
    assert close(drive.matrix, -b_y * sum(sy_sites))
    h_psi, t_psi = sum(h_applied), sum(t_applied)

    assert close(xl.variance(final, ham), dense_variance(psi, h_psi))
    assert close(xl.expectation(final, ham), np.vdot(psi, h_psi).real)
    report = xl.connected_pair_correlators(final, ham)
    assert close(report.g_matrix, dense_correlators(psi, h_applied))

    reports = bd.uncertainty_check(final, ham, drive, n)
    commutator = np.vdot(psi, h_ref @ t_psi) - np.vdot(psi, -b_y * sum(sy @ h_psi for sy in sy_sites))
    lhs = math.sqrt(dense_variance(psi, h_psi)) / n * math.sqrt(dense_variance(psi, t_psi))
    gbar_product = np.mean(np.abs(dense_correlators(psi, h_applied))) * np.mean(
        np.abs(dense_correlators(psi, t_applied))
    )
    assert close([r.lhs for r in reports], [lhs, lhs, gbar_product])
    assert close(
        [r.rhs for r in reports],
        [0.5 * abs(commutator) / n] * 2 + [commutator.imag**2 / (4.0 * n**2)],
    )

    # variance rate from D = [T, H] applied term by term
    t_ref = -b_y * sum(sy_sites)

    def d_apply(vector):
        return t_ref @ (h_ref @ vector) - h_ref @ (t_ref @ vector)

    mean_h = np.vdot(psi, h_psi).real
    anti = np.vdot(psi, d_apply(h_psi)) + np.vdot(psi, h_ref @ d_apply(psi))
    rate = 1j * (anti - 2.0 * mean_h * np.vdot(psi, d_apply(psi))) / n**2
    assert close(mg.variance_rate(final, drive, ham), rate.real)

    # the complex state met the real Hamiltonian and term stack through one
    # complex copy of each, made once and kept; the products equal scipy's
    # own conversion of the real entries bit for bit
    copies = dict(ham._complex_copies)
    for terms, real in ((False, ham.array), (True, ham.term_stack)):
        twin = copies[terms]
        assert twin.dtype == np.complex128 and twin.indices is real.indices
        assert np.array_equal(twin.data, real.data)
        assert np.array_equal(ham._times(psi, terms), real @ psi)
    xl.connected_pair_correlators(final, ham)
    assert ham._complex_copies == copies
    # the complex transverse field and real states need no copy
    assert drive._complex_copies == {}
    fresh = xl.build_spin_hamiltonian(lattice)
    xl.connected_pair_correlators(xl.dicke_state(n, n / 2.0 - 1.0), fresh)
    assert fresh._complex_copies == {}


def check_augment_against_expm(lattice, segments, rng):
    """Augment evolution and propagator against expm of Kronecker-built H."""
    n = lattice.n_sites
    h_spin = sum(kron_hamiltonian_terms(lattice))
    sy_total = sum(kron_sites(n, {s: SY}) for s in range(n))

    def step(duration, b_y):
        return expm(-1j * duration * (h_spin - b_y * sy_total))

    schedule = cs.DriveSchedule("augment", segments, lattice.b_z)
    state = random_state(n, rng)
    psi = state.amplitudes
    for (duration, b_y), (_, evolved) in zip(segments, xl.evolve_state(state, lattice, schedule)[1:]):
        psi = step(duration, b_y) @ psi
        assert close(evolved.amplitudes, psi)
    # partial last segment
    t_partial = schedule.total_duration - 0.3 * segments[-1][0]
    unitary = step(0.7 * segments[-1][0], segments[-1][1])
    for duration, b_y in reversed(segments[:-1]):
        unitary = unitary @ step(duration, b_y)
    assert close(xl.propagator(lattice, schedule, t_partial), unitary)


def per_segment_states(lattice, schedule, psi):
    """Boundary states stepped one segment at a time with expm of the
    Kronecker-built segment Hamiltonian: -b_y S^y_tot in replace mode, the
    spin Hamiltonian plus it in augment mode."""
    n = lattice.n_sites
    sy_total = sum(kron_sites(n, {s: SY}) for s in range(n))
    h_spin = sum(kron_hamiltonian_terms(lattice)) if schedule.mode == "augment" else 0.0
    states = []
    for duration, b_y in schedule.segments:
        psi = expm(-1j * duration * (h_spin - b_y * sy_total)) @ psi
        states.append(psi)
    return states


@pytest.mark.parametrize("mode", ["replace", "augment"])
@pytest.mark.parametrize(
    "kind,n,count",
    [("chain", 1, 6), ("chain", 5, 1), ("complete", 5, 7), ("chain", 7, 4), ("chain", 4, 1), ("chain", 3, 200)],
)
def test_batched_boundaries_match_per_segment_reference(mode, kind, n, count):
    # every boundary state comes from the initial one through the
    # accumulated turn, in one batch; the references step segment by segment
    rng = np.random.default_rng([n, count, mode == "augment"])
    lattice = random_lattice(kind, n, rng)
    segments = tuple(
        (float(d), float(b)) for d, b in zip(rng.uniform(0.02, 0.8, count), rng.uniform(-1.5, 1.5, count))
    )
    schedule = cs.DriveSchedule(mode, segments, lattice.b_z)
    state = random_state(n, rng)
    trajectory = xl.evolve_state(state, lattice, schedule)
    # the boundary times are the segment durations summed one by one
    t, times = 0.0, [0.0]
    for duration, _ in segments:
        t += duration
        times.append(t)
    assert [t for t, _ in trajectory] == times
    assert trajectory[0][1] is state
    for (t, evolved), psi in zip(trajectory[1:], per_segment_states(lattice, schedule, state.amplitudes), strict=True):
        # a complex state keeps its imaginary part through the real replace turns
        assert evolved.amplitudes.dtype == np.complex128
        assert close(evolved.amplitudes, psi)
        assert close(evolved.amplitudes, xl.propagator(lattice, schedule, t) @ state.amplitudes)
    # a real state stays real in replace mode; augment mode makes it complex
    real = xl.QuantumState(state.amplitudes.real / np.linalg.norm(state.amplitudes.real), n)
    want = np.float64 if mode == "replace" else np.complex128
    for (_, evolved), psi in zip(xl.evolve_state(real, lattice, schedule)[1:], per_segment_states(lattice, schedule, real.amplitudes), strict=True):
        assert evolved.amplitudes.dtype == want
        assert close(evolved.amplitudes, psi)
    # every boundary's variance equals its own product's bit for bit, for H,
    # H with its terms (through the correlators), the complex transverse
    # field and an operator given densely from outside, in any order of rows
    # and operators: a trajectory of several boundaries takes every row's
    # from one product on the first query under an operator, and keeps each
    # operator's apart
    ham = xl.build_spin_hamiltonian(lattice, with_decomposition=False)
    ham_terms = xl.build_spin_hamiltonian(lattice)
    drive = xl.build_transverse_field(n, 0.7)
    outside = xl.MatrixOperator(drive.matrix, n)
    shuffled = list(rng.permutation(count))
    for start in (state, real):
        for order in (range(count), range(count - 1, -1, -1), shuffled):
            boundaries = [evolved for _, evolved in xl.evolve_state(start, lattice, schedule)[1:]]
            for position, row in enumerate(order):
                psi = boundaries[row].amplitudes
                for op in (ham, drive, ham_terms, outside):
                    want = xl._applied_variance(psi, op._times(psi))
                    if op is ham_terms:
                        assert xl.connected_pair_correlators(boundaries[row], op).sigma_sq == want / n**2
                    assert xl.variance(boundaries[row], op) == want
                if position == 0 and count > 1:
                    # one query on one row kept every row's variance, as
                    # floats, under each operator, the outside one included
                    record = boundaries[row]._trajectory[0]
                    assert set(record.variances) == {ham, drive, ham_terms, outside}
                    for op, kept in record.variances.items():
                        assert all(type(value) is float for value in kept)
                        assert kept == [xl._applied_variance(b.amplitudes, op._times(b.amplitudes)) for b in boundaries]
            # standalone states, a one-boundary drive's included, hold no trajectory
            assert (boundaries[0]._trajectory is None) == (count == 1)
            for lone in (start, xl.QuantumState(boundaries[-1].amplitudes, n)):
                assert lone._trajectory is None
                assert xl.variance(lone, drive) == xl._applied_variance(lone.amplitudes, drive._times(lone.amplitudes))


AUGMENT_LATTICES = [("chain", n) for n in range(2, 9)] + [("complete", n) for n in range(3, 7)]


@pytest.mark.parametrize("kind,n", AUGMENT_LATTICES)
def test_augment_routes_match_expm(kind, n):
    rng = np.random.default_rng([n, kind == "chain", 3])
    segments = tuple(
        (float(d), float(b)) for d, b in zip(rng.uniform(0.1, 0.8, 4), rng.uniform(-1.5, 1.5, 4))
    )
    check_augment_against_expm(random_lattice(kind, n, rng), segments, rng)


@pytest.mark.parametrize("b_y,b_z", [(0.0, 0.83), (0.71, 0.0), (0.0, 0.0)])
def test_augment_field_edge_cases(b_y, b_z):
    rng = np.random.default_rng(17)
    lattice = xl.LatticeSpec(5, random_lattice("chain", 5, rng).couplings, b_z)
    check_augment_against_expm(lattice, ((0.6, b_y), (0.35, b_y)), rng)
    if b_y == b_z == 0.0:
        # no field, no axis: the turn is exactly the identity
        assert np.array_equal(xl._su2([xl._field_turn(0.6, b_y, b_z)])[0], np.eye(2))


def test_augment_eigensystem_one_per_lattice():
    bonds = ((0, 1, 0.373), (1, 2, -0.917), (2, 3, 1.231), (0, 3, 0.052))
    state = xl.dicke_state(4, 0)
    before = xl._segment_eigensystem.cache_info()
    # fields b_y of every sign and B_z of two lattices on the same bonds
    for b_z in (0.4, -1.7):
        lattice = xl.LatticeSpec(4, bonds, b_z)
        for b_y in (0.3, -1.1, 0.0):
            schedule = cs.DriveSchedule("augment", ((0.5, b_y), (0.2, 2.0 * b_y)), b_z)
            xl.evolve_state(state, lattice, schedule)
            xl.propagator(lattice, schedule, 0.6)
    after = xl._segment_eigensystem.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 11


def dense_eigenbasis_distribution(state, lattice):
    """Reference: one atom per eigenvector of a dense eigh of the whole spin
    Hamiltonian, at its eigenvalue per site."""
    eigvals, eigvecs = eigh(xl.build_spin_hamiltonian(lattice).matrix)
    return list(zip(eigvals / lattice.n_sites, np.abs(eigvecs.conj().T @ state.amplitudes) ** 2))


class TestEigenbasisAgainstDenseRoute:
    """The sector-eigensystem spectrum of H = E - B_z S^z_tot against a dense eigh."""

    @staticmethod
    def assert_matches_dense(state, lattice):
        got = xl.eigenbasis_distribution(state, lattice).points
        assert len(got) == lattice.dim
        assert w1(got, dense_eigenbasis_distribution(state, lattice)) <= 1e-12

    @given(bond_lattices())
    # a 1e-5 bond splits levels by about 1e-6, where single weights of the
    # two routes differ by 3e-10; W1 weighs that by the split
    @example(xl.LatticeSpec(5, ((0, 3, -1.0), (0, 4, 0.5), (1, 2, 1.0), (1, 3, 1e-05)), 0.0))
    # B_z = 1e-9 splits each multiplet into levels 1e-9 apart
    @example(xl.LatticeSpec(3, ((1, 2, 2.0),), 1e-9))
    def test_any_bonds(self, lattice):
        self.assert_matches_dense(random_state(lattice.n_sites, np.random.default_rng(lattice.n_sites)), lattice)

    @pytest.mark.parametrize(
        "lattice",
        [
            xl.LatticeSpec(1, (), 0.8),
            xl.LatticeSpec(5, (), -0.6),
            xl.LatticeSpec.complete(5, 0.9, 0.0),
            xl.LatticeSpec.complete(6, -1.3, 0.0),
        ],
        ids=["one-site", "no-bonds", "complete-odd", "complete-even"],
    )
    def test_edge_lattices(self, lattice):
        # a complete graph at B_z = 0 has whole SU(2) multiplets at one level
        self.assert_matches_dense(random_state(lattice.n_sites, np.random.default_rng(3)), lattice)

    @pytest.mark.parametrize("mode", ["replace", "augment"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_evolved_states(self, n, mode):
        rng = np.random.default_rng([n, mode == "augment"])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        lattice = xl.LatticeSpec(n, tuple((i, j, float(rng.normal())) for i, j in pairs), float(rng.normal()))
        schedule = cs.DriveSchedule(mode, ((0.7, 0.9), (0.4, -1.3)), lattice.b_z)
        state = xl.evolve_state(xl.dicke_state(n, 0.5 * (n % 2)), lattice, schedule)[-1][1]
        self.assert_matches_dense(state, lattice)

    def test_near_degenerate_example_against_frozen_weights(self):
        # the first example of test_any_bonds, random_state(5,
        # default_rng(5)) on it, against a 40-digit diagonalisation written
        # by scripts/make_reference_tables.py
        lattice = xl.LatticeSpec(5, ((0, 3, -1.0), (0, 4, 0.5), (1, 2, 1.0), (1, 3, 1e-05)), 0.0)
        with open(DATA / "eigenbasis_state.csv", newline="") as fh:
            amplitudes = [complex(float(re), float(im)) for re, im in list(csv.reader(fh))[1:]]
        with open(DATA / "eigenbasis_reference.csv", newline="") as fh:
            want = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
        state = xl.QuantumState(np.array(amplitudes), 5)
        assert np.array_equal(state.amplitudes, random_state(5, np.random.default_rng(5)).amplitudes)
        got = xl.eigenbasis_distribution(state, lattice).points
        assert len(got) == len(want) == 32
        assert w1(got, want) <= 1e-12

    def test_site_counts_must_agree(self):
        with pytest.raises(ValueError, match="site counts differ"):
            xl.eigenbasis_distribution(xl.dicke_state(3, 0.5), xl.LatticeSpec.chain(4))


@contextlib.contextmanager
def validated_csr_pairs():
    """Record, while open, each array that ``_valid_csr`` makes together
    with scipy's validated constructor's on copies of the same parts, less
    their stored zeros."""
    made = []
    valid_csr = xl._valid_csr

    def recording(data, indices, indptr, shape):
        reference = sparse.csr_array((data.copy(), indices.copy(), indptr.copy()), shape=shape)
        reference.eliminate_zeros()
        made.append((valid_csr(data, indices, indptr, shape), reference))
        return made[-1][0]

    with mock.patch.object(xl, "_valid_csr", recording), mock.patch.object(mg, "_valid_csr", recording):
        yield made


class TestSparseOperatorChecks:
    def test_transverse_field_refuses_bad_input_by_name(self):
        for n_sites, b_y, message in (
            (3, math.nan, "b_y must be finite, got nan"),
            (3, math.inf, "b_y must be finite, got inf"),
            (3, -math.inf, "b_y must be finite, got -inf"),
            (0, 1.0, "n_sites must be positive"),
            (-2, 1.0, "n_sites must be positive"),
        ):
            for with_decomposition in (True, False):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # refused before any arithmetic
                    with pytest.raises(ValueError, match=message):
                        xl.build_transverse_field(n_sites, b_y, with_decomposition)
        with pytest.raises(xl.SizeLimitError):
            xl.build_transverse_field(xl.MAX_SITES + 1, 1.0)

    def test_every_operator_stores_csr(self):
        # both builders in both forms, and outside input given dense or as
        # CSR: the operator and its term stack are CSR arrays; dense and CSR
        # input of the same operator store equal parts
        lattice = xl.LatticeSpec.complete(4, 0.8, 1.3)
        built = [
            xl.build_spin_hamiltonian(lattice),
            xl.build_spin_hamiltonian(lattice, with_decomposition=False),
            xl.build_transverse_field(4, -0.6),
            xl.build_transverse_field(4, -0.6, with_decomposition=False),
        ]
        for operator in built:
            dense_terms = None if operator.terms is None else [term.toarray() for term in operator.terms]
            csr_terms = None if operator.terms is None else [sparse.csr_array(term) for term in dense_terms]
            from_dense = xl.MatrixOperator(operator.matrix, 4, dense_terms)
            from_csr = xl.MatrixOperator(sparse.csr_array(operator.matrix), 4, csr_terms)
            from_builder = xl.MatrixOperator(operator.array, 4, operator.terms)
            for stored in (operator, from_dense, from_csr, from_builder):
                assert isinstance(stored.array, sparse.csr_array)
                assert stored.array.shape == (16, 16)
                if operator.terms is None:
                    assert stored.term_stack is None
                else:
                    assert isinstance(stored.term_stack, sparse.csr_array)
                    assert stored.term_stack.shape == (16 * len(operator.terms), 16)
            for stored in (from_dense, from_csr, from_builder):
                assert stored.array.dtype == np.complex128
                assert (stored.array != operator.array).nnz == 0
            pairs = [(from_dense.array, from_csr.array)]
            if operator.terms is not None:
                pairs.append((from_dense.term_stack, from_csr.term_stack))
                assert (from_builder.term_stack != operator.term_stack).nnz == 0
            for a, b in pairs:
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(a, part), getattr(b, part))

    def test_operator_holds_no_dense_arrays(self):
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.chain(4, 0.9, 0.4))
        assert sparse.issparse(ham.array) and all(sparse.issparse(term) for term in ham.terms)
        held = [*vars(ham).values(), *ham.terms]
        assert not any(isinstance(value, np.ndarray) for value in held)

    def test_sparse_hermiticity_enforced(self):
        # an entry whose transposed partner is missing, a wrong partner, a
        # NaN and an inf on the diagonal: refused as non-Hermitian on the
        # stored entries, given densely or as CSR
        for bad in (
            [[0.0, 1e-9], [0.0, 0.0]],
            [[0.0, 1.0], [1.0 + 1e-9, 0.0]],
            [[math.nan, 0.0], [0.0, 1.0]],
            [[math.inf, 0.0], [0.0, 1.0]],
        ):
            dense = np.array(bad, dtype=complex)
            for given in (dense, sparse.csr_array(dense)):
                with pytest.raises(ValueError, match="Hermitian"):
                    xl.MatrixOperator(given, 1)
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.complete(4, 0.8, 1.3))
        for given in (ham.matrix, ham.array):
            assert xl.MatrixOperator(given, 4).dim == 16

    def test_each_term_hermitian(self):
        # terms that resum to the Hermitian zero operator but are not
        # Hermitian themselves, for which connected_pair_correlators would
        # report a nonzero G: refused given densely or as CSR (a NaN term
        # fails the resum check first)
        a, b = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1e-9j])
        for terms, index in (([a, -a], 0), ([np.zeros((2, 2)), b, -b], 1)):
            for given in (terms, [sparse.csr_array(term) for term in terms]):
                with pytest.raises(ValueError, match=f"term {index} not Hermitian"):
                    xl.MatrixOperator(np.zeros((2, 2)), 1, given)

    def test_sparse_input_refused(self):
        # sparse input, accepted as test_every_operator_stores_csr shows,
        # takes the dense input's checks: a wrong shape, a term stack in place
        # of a sequence of terms, no terms, a mis-shaped term, and terms that
        # do not resum
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.chain(4, 0.9, 0.4))
        for matrix, terms, message in (
            (sparse.eye_array(8), None, "matrix shape"),
            (ham.array, ham.term_stack, "terms must be"),
            (ham.array, (), "terms must be"),
            (ham.array, (*ham.terms, sparse.eye_array(8)), "terms must be"),
            (ham.array, ham.terms[1:], "resum"),
        ):
            with pytest.raises(ValueError, match=message):
                xl.MatrixOperator(matrix, 4, terms)

    @given(bond_lattices(), st.floats(-2.0, 2.0))
    @example(xl.LatticeSpec.chain(9, 0.8, -0.3), 0.6)
    @example(xl.LatticeSpec.complete(7, -1.2, 0.0), -1.4)
    @example(xl.LatticeSpec(2, (), 0.5), 0.0)
    def test_builders_hermitian_and_resumming(self, lattice, b_y):
        # the builders' CSR is stored unchecked: each term is Hermitian and
        # the terms sum to the operator by construction
        with validated_csr_pairs() as made:
            ham = xl.build_spin_hamiltonian(lattice)
            bare = xl.build_spin_hamiltonian(lattice, with_decomposition=False)
            field = xl.build_transverse_field(lattice.n_sites, b_y)
            xl.build_transverse_field(lattice.n_sites, b_y, with_decomposition=False)
            xl._complex_copy(ham.term_stack)
            mg._stacked_generators.__wrapped__(lattice)
        # six arrays from the builders, one copy, and the stack with its own
        # two builds: each equals what scipy's validating constructor makes
        # of the same parts, less their zeros
        assert len(made) == 10
        for array, reference in made:
            for part in ("data", "indices", "indptr"):
                got, want = getattr(array, part), getattr(reference, part)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert array.shape == reference.shape
            assert array.has_sorted_indices == reference.has_sorted_indices
            array.check_format(full_check=True)
        # the spin Hamiltonian and its terms are real, the transverse field complex
        assert ham.array.dtype == ham.term_stack.dtype == bare.array.dtype == np.float64
        assert field.array.dtype == field.term_stack.dtype == np.complex128
        for operator in (ham, bare, field):
            terms = operator.terms or ()
            for array in (operator.array, *terms):
                assert abs(array - array.conj().T).max() <= 1e-12
            if terms:
                assert len(terms) == lattice.n_sites
                assert abs(sum(terms) - operator.array).max() <= 1e-12


class TestDenseMemoryGuard:
    @pytest.fixture
    def tiny_memory(self, monkeypatch):
        # 500 bytes: a 3-site dense operator needs 8 * 4^3 = 512 (real)
        monkeypatch.setattr(xl, "_physical_memory_bytes", lambda: 500)

    @staticmethod
    def dense_routes():
        """(route, bytes it holds at once, how its refusal names them)."""
        lattice = xl.LatticeSpec.chain(3, 0.61, 1.37)
        ham = xl.build_spin_hamiltonian(lattice)
        replace = cs.DriveSchedule("replace", ((0.4, 1.0),), 1.37)
        augment = cs.DriveSchedule("augment", ((0.4, 0.777), (0.2, -0.3)), 1.37)
        # dense 3-site arrays, 512 bytes each if real, 1024 if complex
        routes = [
            (route, itemsize * 64 * arrays, rf"\({arrays} dense 2\^N x 2\^N arrays? at once\)")
            for route, itemsize, arrays in [
                # the spin Hamiltonian and the replace-mode propagator are real
                (lambda: ham.matrix, 8, 1),
                (lambda: xl.build_transverse_field(3, 0.7).matrix, 16, 1),
                (lambda: xl.propagator(lattice, replace, 0.4), 8, 1),
                # the Kronecker power, the exchange's gathered copy and its result
                (lambda: xl.propagator(lattice, augment, 0.4), 16, 3),
            ]
        ]
        return routes

    def test_dense_routes_refuse_before_allocating(self, monkeypatch):
        routes = self.dense_routes()  # with the memory there is, to fill the cache
        monkeypatch.setattr(xl, "_physical_memory_bytes", lambda: 500)
        for dense_route, needed, _ in routes:
            with pytest.raises(xl.SizeLimitError, match=f"needs {needed} bytes"):
                dense_route()

    def test_each_route_counts_everything_it_holds_at_once(self, monkeypatch):
        # one check up front, for the whole route: one byte short is refused
        # with the route's total, and the total itself passes every check
        # made on the way, the nested routes' included
        for dense_route, needed, held in self.dense_routes():
            monkeypatch.setattr(xl, "_physical_memory_bytes", lambda: needed - 1)
            with pytest.raises(xl.SizeLimitError, match=rf"{held} needs {needed} bytes"):
                dense_route()
            monkeypatch.setattr(xl, "_physical_memory_bytes", lambda: needed)
            dense_route()

    def test_cli_runs_sparse_routes_at_the_cap(self, monkeypatch, tmp_path, capsys):
        from drivenfluct import cli

        # the Magnus routes and the boson dual hold no dense array: with
        # 1000 bytes of memory both still run at 14 sites
        monkeypatch.setattr(xl, "_physical_memory_bytes", lambda: 1000)
        assert cli.main(["magnus-check", "--n", "14", "--outdir", str(tmp_path / "magnus")]) == 0
        assert "wrote magnus_check.json" in capsys.readouterr().out
        assert cli.main(["bose-dual", "--n", "14", "--outdir", str(tmp_path / "dual")]) == 0
        assert "wrote bose_dual.json" in capsys.readouterr().out

    def test_matrix_free_routes_need_no_dense_memory(self, tiny_memory):
        lattice = xl.LatticeSpec.chain(3, 0.61, 1.37)
        ham = xl.build_spin_hamiltonian(lattice)
        drive = xl.build_transverse_field(3, 1.0)
        schedule = cs.DriveSchedule("replace", ((0.4, 1.0), (0.3, -0.5)), 1.37)
        state = xl.evolve_state(xl.dicke_state(3, 0.5), lattice, schedule)[-1][1]
        assert xl.variance(state, ham) > 0.0
        assert xl.connected_pair_correlators(state, ham).sigma_sq > 0.0
        assert bd.uncertainty_check(state, ham, drive, 3)[0].satisfied
        assert math.isfinite(mg.variance_rate(state, drive, ham))
        # the Magnus routes: 2x2 turns, and products of CSR operators with
        # the state
        augment = cs.DriveSchedule("augment", ((0.4, 0.777), (0.2, -0.3)), 1.37)
        assert mg.magnus_error(lattice, augment, 0.5) > 0.0
        assert math.isfinite(mg.variance_expansion(state, lattice, augment, 0.5).exact)
        # augment evolution holds real sector eigenvectors, not a dense operator
        assert xl.variance(xl.evolve_state(state, lattice, augment)[-1][1], ham) > 0.0
        # so does the eigenbasis distribution, read from the same eigensystem
        assert math.fsum(w for _, w in xl.eigenbasis_distribution(state, lattice).points) == pytest.approx(1.0)

    def test_exchange_eigensystem_refuses_beyond_memory(self, monkeypatch):
        lattice = xl.LatticeSpec(6, ((0, 1, 0.29), (1, 2, -0.64), (3, 4, 1.08), (2, 5, 0.47)), 0.9)
        eigensystem = xl._segment_eigensystem(6, lattice.couplings)
        # the check counts the bytes of the eigenvectors the cache holds
        held = sum(eigvecs.nbytes for *_, eigvecs in eigensystem[2])
        xl._segment_eigensystem.cache_clear()
        schedule = cs.DriveSchedule("augment", ((0.4, 0.5),), 0.9)
        state = xl.dicke_state(6, 0)
        monkeypatch.setattr(xl, "_physical_memory_bytes", lambda: held - 1)
        with pytest.raises(xl.SizeLimitError, match=f"6-site exchange eigensystem needs {held} bytes"):
            xl.evolve_state(state, lattice, schedule)
        monkeypatch.setattr(xl, "_physical_memory_bytes", lambda: held)
        assert len(xl.evolve_state(state, lattice, schedule)) == 2
