"""Exp-log generators, truncation-error scaling, and variance-rate identities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from drivenfluct import collective_spin as cs
from drivenfluct import exact_lattice as xl
from drivenfluct import magnus as mg

LAT = xl.LatticeSpec.chain(3, 1.0, 1.0)


def two_segment(t):
    # asymmetric non-commuting pair so no accidental cancellations occur
    return cs.DriveSchedule("augment", ((t / 3.0, 1.0), (2.0 * t / 3.0, -0.5)), 1.0)


class TestMagnusTerms:
    def test_constant_hamiltonian(self):
        sched = cs.DriveSchedule("augment", ((0.7, 0.5),), 1.0)
        terms = mg.magnus_terms(LAT, sched, 0.7)
        (_, h) = mg.segment_hamiltonians(LAT, sched)[0]
        assert np.max(np.abs(terms.omega1 - (-1j * 0.7 * h))) < 1e-13
        assert np.max(np.abs(terms.omega2)) == 0.0

    def test_two_segment_closed_form(self):
        t = 0.4
        sched = two_segment(t)
        terms = mg.magnus_terms(LAT, sched, t)
        (dt1, h1), (dt2, h2) = mg.segment_hamiltonians(LAT, sched)
        expected = -0.5 * dt1 * dt2 * (h2 @ h1 - h1 @ h2)
        assert np.max(np.abs(terms.omega2 - expected)) < 1e-13

    def test_commuting_schedule_exact(self):
        sched = cs.DriveSchedule("replace", ((0.2, 1.0), (0.3, -0.7)), 1.0)
        terms = mg.magnus_terms(LAT, sched, 0.5)
        assert np.max(np.abs(terms.omega2)) < 1e-14
        exact = xl.propagator(LAT, sched, 0.5)
        assert np.max(np.abs(expm(terms.total) - exact)) < 1e-12

    def test_truncation_is_unitary(self):
        t = 0.3
        approx = expm(mg.magnus_terms(LAT, two_segment(t), t).total)
        identity = approx.conj().T @ approx
        assert np.max(np.abs(identity - np.eye(8))) < 1e-10

    def test_range_error(self):
        with pytest.raises(cs.ScheduleRangeError):
            mg.magnus_terms(LAT, two_segment(0.1), 0.2)

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
        for call in (sched.theta_at, lambda t: xl.propagator(LAT, sched, t), lambda t: mg.magnus_terms(LAT, sched, t)):
            with pytest.raises(cs.ScheduleRangeError) as info:
                call(t)
            assert str(info.value) == f"t = {t} outside schedule span [0, {sched.total_duration}]"

    def test_anti_hermiticity_validated(self):
        with pytest.raises(ValueError):
            mg.MagnusTerms(omega1=np.eye(2, dtype=complex), omega2=np.zeros((2, 2), dtype=complex))


class TestMagnusError:
    def test_zero_time(self):
        assert mg.magnus_error(LAT, two_segment(0.1), 0.0) == 0.0

    def test_commuting_error_tiny(self):
        sched = cs.DriveSchedule("replace", ((0.2, 1.0), (0.3, -0.7)), 1.0)
        for t in (0.1, 0.3, 0.5):
            assert mg.magnus_error(LAT, sched, t) < 1e-12


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
