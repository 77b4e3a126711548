"""Dense-oracle construction, evolution, correlators, and the boson dual."""

import json
import math
from functools import reduce

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, expm
from scipy.sparse.linalg import expm_multiply

from drivenfluct import bounds as bd
from drivenfluct import collective_spin as cs
from drivenfluct import exact_lattice as xl
from drivenfluct import magnus as mg

PI = math.pi


def replace_schedule(theta, b_z=1.0, b_y=1.0):
    return cs.DriveSchedule("replace", ((abs(theta) / abs(b_y), math.copysign(b_y, theta)),), b_z)


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
        s_sq = xl.spin_squared_operator(4)
        _, _, s_z = xl.total_spin_operators(4)
        assert np.max(np.abs(ham @ s_sq - s_sq @ ham)) < 1e-12
        assert np.max(np.abs(ham @ s_z - s_z @ ham)) < 1e-12

    def test_decomposition_resums(self):
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.chain(4, 0.9, 0.4))
        assert len(ham.terms) == 4
        assert np.max(np.abs(sum(ham.terms) - ham.matrix)) < 1e-13

    def test_hermiticity_enforced(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            xl.MatrixOperator(matrix=bad, n_sites=1)


class TestDickeState:
    def test_amplitudes(self):
        state = xl.dicke_state(4, 1)
        weights = np.abs(state.amplitudes) ** 2
        populated = weights[weights > 0]
        assert len(populated) == 4  # C(4,3)
        assert populated == pytest.approx([0.25] * 4)

    def test_rejects_bad_magnetization(self):
        with pytest.raises(ValueError):
            xl.dicke_state(4, 0.5)


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
        ham = xl.build_spin_hamiltonian(lat, with_decomposition=False)
        sector = cs.SpinSector(n, n / 2.0, m)
        for theta in (0.4, PI / 2, 2.2):
            sched = replace_schedule(theta)
            state = xl.evolve_state(xl.dicke_state(n, m), lat, sched)[-1][1]
            assert xl.energy_density_sigma(state, ham) == pytest.approx(
                cs.analytic_sigma(sector, sched, theta), abs=1e-10
            )

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
        rotate = xl._rotate_every_site
        monkeypatch.setattr(xl, "_rotate_every_site", lambda *args: 1.001 * rotate(*args))
        sched = cs.DriveSchedule("replace", ((0.5, 1.0), (0.25, 1.0)), 1.0)
        with pytest.raises(xl.NumericalDriftError, match=r"by 1\.000e-03 at t = 0\.5$"):
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


class TestGeneralSpinSectorOracle:
    def test_submaximal_sector(self):
        # an S_tot < N/2 eigenstate: simultaneous eigenvector of (H, S^2, S_z)
        lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat, with_decomposition=False)
        s_sq = xl.spin_squared_operator(4)
        _, _, s_z = xl.total_spin_operators(4)
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


class TestEigenbasisDistribution:
    def test_eigenstate_point_mass(self):
        lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat)
        dist = xl.eigenbasis_distribution(xl.dicke_state(3, 1.5), ham)
        top = max(w for _, w in dist.points)
        assert top == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat)
        state = xl.evolve_state(xl.dicke_state(4, 1), lat, replace_schedule(0.9))[-1][1]
        dist = xl.eigenbasis_distribution(state, ham)
        assert math.fsum(w for _, w in dist.points) == pytest.approx(1.0, abs=1e-12)

    def test_matches_ladder_weights(self):
        n, m, theta = 4, 0, PI / 3
        lat = xl.LatticeSpec.chain(n, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat)
        state = xl.evolve_state(xl.dicke_state(n, m), lat, replace_schedule(theta))[-1][1]
        oracle = xl.eigenbasis_distribution(state, ham)
        e_symm = -0.25 * sum(j for _, _, j in lat.couplings)
        ladder = cs.eigenweight_distribution(cs.SpinSector(n, 2, m), theta, 1.0, e_symm)
        oracle_map = dict(oracle.points)
        for value, weight in ladder.points:
            matches = [w for v, w in oracle_map.items() if abs(v - value) < 1e-9]
            assert matches and abs(matches[0] - weight) < 1e-10


class TestBoseDual:
    def test_two_site_chain(self):
        _, report = xl.bose_dual(xl.LatticeSpec(2, ((0, 1, 1.0),), 1.0))
        assert report.spectra_match
        assert report.spectrum_max_delta < 1e-10
        assert report.doping_matches_transverse
        assert report.number_maps_to_magnetization

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_couplings(self, seed):
        rng = np.random.default_rng(seed)
        for n in (3, 5, 7):
            bonds = tuple(
                (i, j, float(rng.normal()))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            )
            _, report = xl.bose_dual(xl.LatticeSpec(n, bonds, float(rng.normal())))
            assert report.spectrum_max_delta < 1e-10

    def test_doping_evolution_sigma(self):
        # doping drive on the boson side reproduces B_z |sin| sqrt(1 + 2/N - w^2)/(2 sqrt 2)
        n, m, b_y = 4, 1, 1.0
        lat = xl.LatticeSpec.chain(n, 1.0, 1.0)
        bose_op, _ = xl.bose_dual(lat)
        doping = xl.bose_doping_operator(n, b_y)
        eigvals, eigvecs = eigh(doping)
        psi = xl.dicke_state(n, m).amplitudes  # same occupation basis
        for theta in (0.7, PI / 2, 2.0):
            evolved = eigvecs @ (np.exp(-1j * eigvals * theta / b_y) * (eigvecs.conj().T @ psi))
            state = xl.QuantumState(evolved, n, norm_tol=1e-10)
            w = m / (n / 2.0)
            expected = abs(math.sin(theta)) / (2 * math.sqrt(2)) * math.sqrt(1 + 2 / n - w**2)
            assert xl.energy_density_sigma(state, bose_op) == pytest.approx(expected, abs=1e-10)


class TestSerialization:
    def test_state_round_trip(self):
        state = xl.dicke_state(3, 0.5)
        record = state.to_json_dict()
        text = json.dumps(record)
        back = xl.QuantumState.from_json_dict(json.loads(text))
        assert np.allclose(back.amplitudes, state.amplitudes)

    def test_operator_round_trip(self):
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.chain(2, 1.0, 0.5))
        back = xl.MatrixOperator.from_json_dict(ham.to_json_dict())
        assert np.allclose(back.matrix, ham.matrix)
        assert back.labels == ham.labels


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


class TestSparseOperatorChecks:
    def test_operator_holds_no_dense_arrays(self):
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.chain(4, 0.9, 0.4))
        assert sparse.issparse(ham.array) and all(sparse.issparse(term) for term in ham.terms)
        held = [*vars(ham).values(), *ham.terms]
        assert not any(isinstance(value, np.ndarray) for value in held)

    def test_sparse_hermiticity_enforced(self):
        # an entry whose transposed partner is missing, and a wrong partner
        one_sided = sparse.csr_array(np.array([[0.0, 1e-9], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            xl.MatrixOperator(one_sided, 1)
        skewed = sparse.csr_array(np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            xl.MatrixOperator(skewed, 1)
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.complete(4, 0.8, 1.3))
        assert xl.MatrixOperator(ham.array, 4).dim == 16

    def test_sparse_resum_enforced(self):
        ham = xl.build_spin_hamiltonian(xl.LatticeSpec.chain(4, 0.9, 0.4))
        terms = list(ham.terms)
        assert xl.MatrixOperator(ham.array, 4, ham.labels, terms).terms is not None
        # the terms may also come stacked, as the builders hand them over
        stacked = xl.MatrixOperator(ham.array, 4, ham.labels, ham.term_stack)
        assert all((a != b).nnz == 0 for a, b in zip(stacked.terms, terms))
        with pytest.raises(ValueError, match="resum"):
            xl.MatrixOperator(ham.array, 4, ham.labels, ham.term_stack * (1.0 + 1e-9))
        terms[2] = terms[2] * (1.0 + 1e-9)
        with pytest.raises(ValueError, match="resum"):
            xl.MatrixOperator(ham.array, 4, ham.labels, terms)
        with pytest.raises(ValueError, match="one label per"):
            xl.MatrixOperator(ham.array, 4, ham.labels[:3], ham.terms)


class TestDenseMemoryGuard:
    @pytest.fixture
    def tiny_memory(self, monkeypatch):
        # 1000 bytes: a 3-site dense operator needs 16 * 4^3 = 1024
        monkeypatch.setattr(xl, "_physical_memory_bytes", lambda: 1000)

    def test_dense_routes_refuse_before_allocating(self, tiny_memory):
        lattice = xl.LatticeSpec.chain(3, 0.61, 1.37)
        ham = xl.build_spin_hamiltonian(lattice)
        state = xl.dicke_state(3, 0.5)
        replace = cs.DriveSchedule("replace", ((0.4, 1.0),), 1.37)
        augment = cs.DriveSchedule("augment", ((0.4, 0.777),), 1.37)
        for dense_route in (
            lambda: ham.matrix,
            lambda: xl.propagator(lattice, replace, 0.4),
            lambda: xl.propagator(lattice, augment, 0.4),
            lambda: xl.eigenbasis_distribution(state, ham),
            lambda: xl.bose_dual(lattice),
            lambda: xl.total_spin_operators(3),
            lambda: mg.magnus_terms(lattice, augment, 0.4),
        ):
            with pytest.raises(xl.SizeLimitError, match="needs 1024 bytes"):
                dense_route()

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
        # augment evolution holds real sector eigenvectors, not a dense operator
        augment = cs.DriveSchedule("augment", ((0.4, 0.777), (0.2, -0.3)), 1.37)
        assert xl.variance(xl.evolve_state(state, lattice, augment)[-1][1], ham) > 0.0

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
