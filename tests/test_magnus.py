"""Exp-log generators, truncation-error scaling, and variance-rate identities.

The library reduces the Magnus routes to three scalars and 2x2 turns; the
dense reference here builds every segment Hamiltonian as a 2^N x 2^N matrix
and takes the K^2 commutator loop, scipy's ``expm`` and the exact
``exact_lattice.propagator``, as the routes did before that reduction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from drivenfluct import collective_spin as cs
from drivenfluct import exact_lattice as xl
from drivenfluct import magnus as mg
from drivenfluct import oracles

LAT = xl.LatticeSpec.chain(3, 1.0, 1.0)


def two_segment(t):
    # asymmetric non-commuting pair so no accidental cancellations occur
    return cs.DriveSchedule("augment", ((t / 3.0, 1.0), (2.0 * t / 3.0, -0.5)), 1.0)


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------


def dense_generators(lattice):
    """H_0 and the unit field F = -S^y_tot as dense arrays."""
    h_0 = xl.build_spin_hamiltonian(lattice, with_decomposition=False).matrix
    return h_0, xl.build_transverse_field(lattice.n_sites, 1.0).matrix


def dense_segments(lattice, schedule, t):
    """(step, H_k) per piece up to t: b_k F in replace mode, H_0 + b_k F in augment mode."""
    h_0, field = dense_generators(lattice)
    base = h_0 if schedule.mode == "augment" else np.zeros_like(h_0)
    return [(step, base + b_y * field) for step, b_y in schedule.pieces(t)]


def dense_omegas(lattice, schedule, t):
    """Omega_1 = -i sum H_k dt_k and Omega_2 = -(1/2) sum_{k>l} dt_k dt_l [H_k, H_l]."""
    pieces = dense_segments(lattice, schedule, t)
    omega1 = np.zeros((lattice.dim, lattice.dim), dtype=complex)
    omega2 = np.zeros_like(omega1)
    for step, h_k in pieces:
        omega1 += -1j * step * h_k
    for k, (dt_k, h_k) in enumerate(pieces):
        for dt_l, h_l in pieces[:k]:
            omega2 += -0.5 * dt_k * dt_l * (h_k @ h_l - h_l @ h_k)
    return omega1, omega2


def omegas_of(terms, lattice):
    """The library's scalars on the dense H_0 and F: (Omega_1, Omega_2)."""
    h_0, field = dense_generators(lattice)
    return -1j * (terms.tau * h_0 + terms.beta * field), terms.c * (h_0 @ field - field @ h_0)


def dense_magnus_error(lattice, schedule, t):
    omega1, omega2 = dense_omegas(lattice, schedule, t)
    return float(np.linalg.norm(expm(omega1 + omega2) - xl.propagator(lattice, schedule, t), 2))


def dense_variance_expansion(psi, lattice, schedule, t):
    """(sigma2_initial, first_bracket, second_bracket, exact) from dense products."""
    def expect(vector, matrix):
        return complex(np.vdot(vector, matrix @ vector))

    n_sq = float(lattice.n_sites) ** 2
    h_ref = dense_generators(lattice)[0]
    h_sq = h_ref @ h_ref
    e0 = expect(psi, h_ref).real
    sigma2_initial = (expect(psi, h_sq).real - e0**2) / n_sq
    om1, om2 = dense_omegas(lattice, schedule, t)
    comm_h2_om1 = expect(psi, h_sq @ om1 - om1 @ h_sq).real
    comm_h_om1 = expect(psi, h_ref @ om1 - om1 @ h_ref).real
    first_bracket = (comm_h2_om1 - 2.0 * e0 * comm_h_om1) / n_sq
    om1_sq = om1 @ om1
    second_bracket = (
        expect(psi, h_sq @ om2 - om2 @ h_sq).real
        + 0.5 * expect(psi, om1_sq @ h_sq + h_sq @ om1_sq).real
        - expect(psi, om1 @ (h_sq @ om1)).real
        - 2.0 * e0 * (
            expect(psi, h_ref @ om2 - om2 @ h_ref).real
            + 0.5 * expect(psi, om1_sq @ h_ref + h_ref @ om1_sq).real
            - expect(psi, om1 @ (h_ref @ om1)).real
        )
        - comm_h_om1**2
    ) / n_sq
    final = xl.propagator(lattice, schedule, t) @ psi
    e_t = expect(final, h_ref).real
    exact = (expect(final, h_sq).real - e_t**2) / n_sq
    return sigma2_initial, first_bracket, second_bracket, exact


@st.composite
def cut_drives(draw):
    """A lattice of 1..6 sites (chain or complete), a 1..5-segment drive in
    either mode, and a time t strictly inside one of its segments."""
    n_sites = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([xl.LatticeSpec.chain, xl.LatticeSpec.complete]))
    lattice = shape(n_sites, draw(st.floats(-1.5, 1.5)), draw(st.floats(-2.0, 2.0)))
    segments = tuple(
        draw(st.lists(st.tuples(st.floats(0.01, 0.4), st.floats(-2.0, 2.0)), min_size=1, max_size=5))
    )
    schedule = cs.DriveSchedule(draw(st.sampled_from(["replace", "augment"])), segments, lattice.b_z)
    cut = draw(st.integers(0, len(segments) - 1))
    t = sum(duration for duration, _ in segments[:cut]) + draw(st.floats(0.1, 0.9)) * segments[cut][0]
    return lattice, schedule, t


class TestAgainstDenseReference:
    @settings(max_examples=60, deadline=None)
    @given(cut_drives())
    def test_magnus_terms(self, drive):
        lattice, schedule, t = drive
        terms = mg.magnus_terms(schedule, t)
        for got, want in zip(omegas_of(terms, lattice), dense_omegas(lattice, schedule, t)):
            assert np.max(np.abs(got - want)) <= 1e-12
        if schedule.mode == "replace":
            assert terms.tau == terms.c == 0.0

    @settings(max_examples=60, deadline=None)
    @given(cut_drives())
    def test_magnus_error(self, drive):
        lattice, schedule, t = drive
        assert mg.magnus_error(lattice, schedule, t) == pytest.approx(dense_magnus_error(lattice, schedule, t), rel=0, abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(cut_drives(), st.integers(0, 2**32 - 1))
    def test_variance_expansion(self, drive, seed):
        lattice, schedule, t = drive
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=lattice.dim) + 1j * rng.normal(size=lattice.dim)
        psi = vector / np.linalg.norm(vector)
        expansion = mg.variance_expansion(xl.QuantumState(psi, lattice.n_sites), lattice, schedule, t)
        got = (expansion.sigma2_initial, expansion.first_bracket, expansion.second_bracket, expansion.exact)
        assert got == pytest.approx(dense_variance_expansion(psi, lattice, schedule, t), rel=0, abs=1e-13)

    def test_error_grows_with_the_site_count(self):
        # the ROADMAP's figure for the chain J = B_z = 1 at t = 0.1,
        # 4.14e-5 N / 4, reached at sizes no dense route can hold
        for n_sites in (4, 8, 12, 14):
            error = mg.magnus_error(xl.LatticeSpec.chain(n_sites, 1.0, 1.0), two_segment(0.1), 0.1)
            assert error == pytest.approx(4.1418e-5 * n_sites / 4, rel=1e-3)


class TestMagnusTerms:
    def test_constant_hamiltonian(self):
        sched = cs.DriveSchedule("augment", ((0.7, 0.5),), 1.0)
        terms = mg.magnus_terms(sched, 0.7)
        (_, h) = dense_segments(LAT, sched, 0.7)[0]
        omega1, omega2 = omegas_of(terms, LAT)
        assert np.max(np.abs(omega1 - (-1j * 0.7 * h))) < 1e-13
        assert terms.c == 0.0
        assert np.max(np.abs(omega2)) == 0.0

    def test_two_segment_closed_form(self):
        t = 0.4
        sched = two_segment(t)
        (dt1, h1), (dt2, h2) = dense_segments(LAT, sched, t)
        expected = -0.5 * dt1 * dt2 * (h2 @ h1 - h1 @ h2)
        assert np.max(np.abs(omegas_of(mg.magnus_terms(sched, t), LAT)[1] - expected)) < 1e-13

    def test_commuting_schedule_exact(self):
        sched = cs.DriveSchedule("replace", ((0.2, 1.0), (0.3, -0.7)), 1.0)
        terms = mg.magnus_terms(sched, 0.5)
        assert terms.tau == terms.c == 0.0
        exact = xl.propagator(LAT, sched, 0.5)
        assert np.max(np.abs(expm(sum(omegas_of(terms, LAT))) - exact)) < 1e-12

    def test_truncation_is_unitary(self):
        t = 0.3
        approx = expm(sum(omegas_of(mg.magnus_terms(two_segment(t), t), LAT)))
        identity = approx.conj().T @ approx
        assert np.max(np.abs(identity - np.eye(8))) < 1e-10

    def test_range_error(self):
        with pytest.raises(cs.ScheduleRangeError):
            mg.magnus_terms(two_segment(0.1), 0.2)

    @given(
        st.sampled_from(["replace", "augment"]),
        st.lists(st.tuples(st.floats(1e-6, 1e3), st.floats(-10.0, 10.0)), min_size=1, max_size=6),
        st.booleans(),
    )
    def test_range_error_is_the_schedules(self, mode, segments, late):
        # t just outside [-1e-12, T + 1e-9]: the closed form, the 2^N
        # propagator and the Magnus series refuse it with one message
        sched = cs.DriveSchedule(mode, tuple(segments), 1.0)
        t = sched.total_duration * (1.0 + 1e-12) + 2e-9 if late else -2e-12
        closed_form = lambda t: cs.analytic_energy_mean(cs.SpinSector(3, 1.5, 0.5), sched, t)  # noqa: E731
        for call in (closed_form, lambda t: xl.propagator(LAT, sched, t), lambda t: mg.magnus_terms(sched, t)):
            with pytest.raises(cs.ScheduleRangeError) as info:
                call(t)
            assert str(info.value) == f"t = {t} outside schedule span [0, {sched.total_duration}]"

    def test_anti_hermiticity_validated(self):
        # real scalars on Hermitian H_0 and F give anti-Hermitian generators
        # by construction, which is why the terms check only finiteness
        terms = mg.magnus_terms(two_segment(0.3), 0.3)
        for omega in omegas_of(terms, xl.LatticeSpec.complete(4, -0.7, 1.3)):
            assert np.max(np.abs(omega + omega.conj().T)) <= 1e-14

    def test_non_finite_scalars_refused(self):
        for name in ("tau", "beta", "c"):
            fields = {"tau": 1.0, "beta": 0.5, "c": 0.1, name: math.nan}
            with pytest.raises(ValueError, match=f"Magnus scalar {name} must be finite, got nan"):
                mg.MagnusTerms(**fields)
        # every turn angle is finite (the schedule refuses one that is not), but
        # the second segment's pair term 1e200 * 2e200 is not
        with pytest.raises(ValueError, match="Magnus scalar c must be finite, got -inf"):
            mg.magnus_terms(cs.DriveSchedule("augment", ((1e200, 1.0), (1e200, -1.0)), 1.0), 2e200)

    def test_selftest_closed_form_check_fails_on_a_wrong_c(self, monkeypatch):
        # the selftest checks c on the single-site generators g_0 = -B_z s^z
        # and f = -s^y, which do not commute, so a c of the wrong sign fails
        def omega2_ok():
            return {check["name"]: check["ok"] for check in oracles.magnus_suite()}["omega2-closed-form"]

        assert omega2_ok()
        magnus_terms = mg.magnus_terms

        def flipped(schedule, t):
            terms = magnus_terms(schedule, t)
            return mg.MagnusTerms(terms.tau, terms.beta, -terms.c)

        monkeypatch.setattr(mg, "magnus_terms", flipped)
        assert not omega2_ok()


class TestMagnusError:
    def test_zero_time(self):
        assert mg.magnus_error(LAT, two_segment(0.1), 0.0) == 0.0

    def test_commuting_error_tiny(self):
        sched = cs.DriveSchedule("replace", ((0.2, 1.0), (0.3, -0.7)), 1.0)
        for t in (0.1, 0.3, 0.5):
            assert mg.magnus_error(LAT, sched, t) < 1e-12

    def test_slope_refuses_an_error_that_is_not_positive(self, monkeypatch):
        # with B_z = 0 every segment commutes: the errors are zero up to
        # rounding, and the first exact zero is named, not fitted
        errors = iter([3e-11, 0.0, 1e-16])
        monkeypatch.setattr(mg, "magnus_error", lambda *_: next(errors))
        with pytest.raises(ValueError, match=r"error at t = 0\.01 is 0\.0, not positive"):
            oracles.magnus_slope(LAT, [1e-3, 1e-2, 1e-1])


class TestVarianceExpansion:
    def test_static_drive_all_corrections_vanish(self):
        # H(t) = H_spin itself: augment mode with zero transverse field
        psi = xl.dicke_state(3, 0.5)
        sched = cs.DriveSchedule("augment", ((0.4, 0.0),), 1.0)
        expansion = mg.variance_expansion(psi, LAT, sched, 0.4)
        assert abs(expansion.first_bracket) < 1e-13
        assert abs(expansion.second_bracket) < 1e-13
        assert expansion.exact == pytest.approx(expansion.sigma2_initial, abs=1e-13)

    @pytest.mark.parametrize("state_kind", ["eigenstate", "random"])
    def test_residual_third_order(self, state_kind):
        if state_kind == "eigenstate":
            psi = xl.dicke_state(3, 0.5)
        else:
            rng = np.random.default_rng(5)
            vec = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi = xl.QuantumState(vec / np.linalg.norm(vec), 3)
        residuals = []
        for t in (0.02, 0.04, 0.08):
            expansion = mg.variance_expansion(psi, LAT, two_segment(t), t)
            residuals.append(abs(expansion.partial_sum - expansion.exact))
        # each doubling of t grows the residual by <= ~2^4, >= ~2^2.5 around t^3
        for small, large in zip(residuals, residuals[1:]):
            assert large / small < 18.0
        assert residuals[-1] / residuals[0] > 2**5

    def test_variances_never_negative(self):
        # the one-pass form <H^2> - <H>^2 falls below zero in 132 of these sectors
        for n in range(2, 9):
            for j in (0.3, 0.7, 1.0, 1.3):
                for b_z in (0.4, 1.0, 1.7):
                    lattice = xl.LatticeSpec.chain(n, j, b_z)
                    for k in range(n + 1):
                        psi = xl.dicke_state(n, -n / 2 + k)
                        expansion = mg.variance_expansion(psi, lattice, oracles.magnus_schedule(0.05, b_z), 0.05)
                        assert expansion.sigma2_initial >= 0.0 and expansion.exact >= 0.0, (n, j, b_z, k)

    def test_series_labels(self):
        psi = xl.dicke_state(3, 0.5)
        expansion = mg.variance_expansion(psi, LAT, two_segment(0.1), 0.1)
        labels = [name for name, _ in expansion.series()]
        assert labels == ["sigma2_initial", "first_bracket", "second_bracket", "partial_sum", "exact"]


class TestVarianceRate:
    def test_eigenstate_of_reference_is_static(self):
        ham = xl.build_spin_hamiltonian(LAT)
        psi = xl.dicke_state(3, 1.5)
        assert mg.variance_rate(psi, ham, ham) == pytest.approx(0.0, abs=1e-13)

    def test_zero_slope_at_start(self):
        # sigma^2 ~ sin^2(theta) has zero derivative at theta = 0
        ham = xl.build_spin_hamiltonian(LAT)
        drive = xl.build_transverse_field(3, 1.0)
        psi = xl.dicke_state(3, 0.5)
        assert mg.variance_rate(psi, drive, ham) == pytest.approx(0.0, abs=1e-13)

    def test_rate_integrates_to_variance_change(self):
        ham = xl.build_spin_hamiltonian(LAT)
        drive = xl.build_transverse_field(3, 1.0)
        psi = xl.dicke_state(3, 0.5)
        t_final = 1.1

        def rate_at(t):
            if t == 0.0:
                return mg.variance_rate(psi, drive, ham)
            state = xl.evolve_state(
                psi, LAT, cs.DriveSchedule("replace", ((t, 1.0),), 1.0)
            )[-1][1]
            return mg.variance_rate(state, drive, ham)

        integral, _ = quad(rate_at, 0.0, t_final, limit=100)
        final = xl.evolve_state(
            psi, LAT, cs.DriveSchedule("replace", ((t_final, 1.0),), 1.0)
        )[-1][1]
        change = xl.variance(final, ham) / 9.0 - xl.variance(psi, ham) / 9.0
        assert integral == pytest.approx(change, abs=1e-6)

    def test_scalar_commutator_shift(self):
        # (a) [H(t), H] = 0 (the only c-number commutator finite dimensions
        # admit): rate is exactly zero and the weights are frozen
        ham = xl.build_spin_hamiltonian(LAT)
        shifted = xl.MatrixOperator(ham.matrix + 2.5 * np.eye(8), 3)
        psi = xl.QuantumState(np.ones(8, dtype=complex) / math.sqrt(8.0), 3)
        assert mg.variance_rate(psi, shifted, ham) == 0.0
        eigvals, eigvecs = np.linalg.eigh(shifted.matrix)
        evolved = eigvecs @ (np.exp(-1j * eigvals * 0.8) * (eigvecs.conj().T @ psi.amplitudes))
        before = np.abs(eigvecs.conj().T @ psi.amplitudes) ** 2
        after = np.abs(eigvecs.conj().T @ evolved) ** 2
        assert np.max(np.abs(before - after)) < 1e-14

    def test_two_level_instantaneous_rigid_translation(self):
        # (b) sigma_z reference, sigma_y drive, equatorial state: {D, H} = 0
        # and <H> = 0 make the rate exactly zero while the mean moves at O(1)
        sigma_z = np.diag([1.0 + 0j, -1.0])
        sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
        h_ref = xl.MatrixOperator(sigma_z, 1)
        h_drive = xl.MatrixOperator(sigma_y, 1)
        equator = xl.QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0), 1)
        assert mg.variance_rate(equator, h_drive, h_ref) == pytest.approx(0.0, abs=1e-15)
        # mean moves at finite rate: d<H>/dt = i<[H_drive, H_ref]> != 0
        mean_rate = (
            1j
            * (
                np.vdot(equator.amplitudes, (sigma_y @ sigma_z - sigma_z @ sigma_y) @ equator.amplitudes)
            )
        ).real
        assert abs(mean_rate) == pytest.approx(2.0, abs=1e-13)
        # variance is stationary to O(h^2): rigid translation at this instant
        for h in (1e-3, 1e-4):
            u = expm(-1j * sigma_y * h)
            moved = xl.QuantumState(u @ equator.amplitudes, 1, norm_tol=1e-10)
            var0 = xl.variance(equator, h_ref)
            var1 = xl.variance(moved, h_ref)
            assert abs(var1 - var0) < 4.0 * h * h
            mean0 = xl.expectation(equator, h_ref)
            mean1 = xl.expectation(moved, h_ref)
            assert abs(mean1 - mean0) > h  # mean really moves at O(h)

    def test_dimension_mismatch(self):
        ham = xl.build_spin_hamiltonian(LAT)
        small = xl.MatrixOperator(np.eye(2, dtype=complex), 1)
        with pytest.raises(ValueError):
            mg.variance_rate(xl.dicke_state(3, 0.5), small, ham)
