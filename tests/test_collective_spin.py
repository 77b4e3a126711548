"""Closed-form spin statistics: worked values, ladder oracle, distribution law."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from drivenfluct import collective_spin as cs
from drivenfluct import ising_entangle as ie

PI = math.pi


def replace_schedule(theta, b_z=1.0):
    sign = 1.0 if theta >= 0 else -1.0
    return cs.DriveSchedule("replace", ((max(abs(theta), 1e-300), sign),), b_z)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

# (N, S) of a valid sector: S = N/2 - k for k = 0 .. N/2
SECTORS = st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n // 2).map(lambda k: n / 2 - k))
)


def _m_in(data, s):
    """A valid magnetization of total spin s."""
    return data.draw(st.integers(0, int(2 * s))) - s


def _off_half_integer(data, value):
    return value + data.draw(st.floats(0.01, 0.49))


def _s_above_half_n(data):
    n = data.draw(st.integers(1, 60))
    s = n / 2 + data.draw(st.integers(1, 5))
    return n, s, _m_in(data, s), "s_tot cannot exceed n_sites/2"


def _m_above_s(data):
    n, s = data.draw(SECTORS)
    m = data.draw(st.sampled_from([-1, 1])) * (s + data.draw(st.integers(1, 5)))
    return n, s, m, "|m| cannot exceed s_tot"


def _cogap_not_integer(data):
    n = data.draw(st.integers(1, 60))
    s = n / 2 - 0.5 - data.draw(st.integers(0, (n - 1) // 2))
    return n, s, _m_in(data, s), "n_sites/2 - s_tot must be an integer"


def _gap_not_integer(data):
    n, s = data.draw(SECTORS.filter(lambda sector: sector[1] > 0))
    m = data.draw(st.integers(0, int(2 * s) - 1)) + 0.5 - s
    return n, s, m, "s_tot - |m| must be an integer"


def _s_not_half_integer(data):
    n, s = data.draw(SECTORS)
    bad = _off_half_integer(data, s)
    return n, bad, _m_in(data, s), f"s_tot must be a half-integer, got {bad}"


def _m_not_half_integer(data):
    n, s = data.draw(SECTORS)
    bad = _off_half_integer(data, _m_in(data, s))
    return n, s, bad, f"m must be a half-integer, got {bad}"


def _s_non_finite(data):
    n, s = data.draw(SECTORS)
    bad = data.draw(NON_FINITE)
    return n, bad, _m_in(data, s), f"s_tot must be finite, got {bad}"


def _m_non_finite(data):
    n, s = data.draw(SECTORS)
    bad = data.draw(NON_FINITE)
    return n, s, bad, f"m must be finite, got {bad}"


# each draws an (N, S, m) with exactly one fault, and the message naming it
SECTOR_FAULTS = {
    "s above n/2": _s_above_half_n,
    "|m| above s": _m_above_s,
    "n/2 - s not integer": _cogap_not_integer,
    "s - |m| not integer": _gap_not_integer,
    "s not half-integer": _s_not_half_integer,
    "m not half-integer": _m_not_half_integer,
    "s non-finite": _s_non_finite,
    "m non-finite": _m_non_finite,
}
# the faults that involve N, and those that involve m
N_FAULTS = {"s above n/2", "n/2 - s not integer"}
M_FAULTS = {"|m| above s", "s - |m| not integer", "m not half-integer", "m non-finite"}


class TestSpinSector:
    def test_valid(self):
        sector = cs.SpinSector(4, 2, -1)
        assert sector.w == -0.5
        assert sector.dim == 5

    def test_half_integers(self):
        sector = cs.SpinSector(5, 2.5, 0.5)
        assert sector.w == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "n, s, m",
        [
            (4, 3, 0),      # s > n/2
            (4, 2, 2.5),    # |m| > s
            (4, 2, 0.5),    # s - |m| not integer
            (4, 1.25, 0),   # not half integer
            (5, 2, 0),      # n/2 - s not integer
            (0, 0, 0),      # no sites
        ],
    )
    def test_rejects(self, n, s, m):
        with pytest.raises(ValueError):
            cs.SpinSector(n, s, m)

    def test_w_undefined_for_singlet(self):
        with pytest.raises(cs.UndefinedSpinError):
            _ = cs.SpinSector(2, 0, 0).w

    @given(st.data())
    def test_every_valid_sector_constructs(self, data):
        n, s = data.draw(SECTORS)
        m = _m_in(data, s)
        sector = cs.SpinSector(n, s, m)
        assert (sector.n_sites, sector.s_tot, sector.m) == (n, s, m)
        assert sector.dim == int(2 * s) + 1

    @given(st.data(), st.sampled_from(sorted(SECTOR_FAULTS)))
    def test_invalid_sector_names_its_fault(self, data, fault):
        n, s, m, message = SECTOR_FAULTS[fault](data)
        with pytest.raises(ValueError, match=re.escape(message)):
            cs.SpinSector(n, s, m)
        # a route that takes (S, m) or (N, S) alone fails with the same message
        if fault not in N_FAULTS:
            with pytest.raises(cs.InvalidSectorError, match=re.escape(message)):
                cs.wigner_d_column(s, m, 0.3)
        if fault not in M_FAULTS:
            with pytest.raises(cs.InvalidSectorError, match=re.escape(message)):
                ie.spin_multiplicity(n, s)


class TestDriveSchedule:
    def test_theta_accumulation(self):
        sched = cs.DriveSchedule("replace", ((1.0, 0.5), (2.0, -0.25)), 1.0)
        assert sched.theta_at(1.0) == pytest.approx(0.5)
        assert sched.theta_at(3.0) == pytest.approx(0.0)
        assert sched.boundary_times() == [0.0, 1.0, 3.0]

    def test_rejects_bad_segments(self):
        with pytest.raises(ValueError):
            cs.DriveSchedule("replace", ((0.0, 1.0),), 1.0)
        with pytest.raises(ValueError):
            cs.DriveSchedule("sideways", ((1.0, 1.0),), 1.0)

    def test_range_error(self):
        # written so that NaN fails the range test too
        sched = replace_schedule(1.0)
        for t in (2.0, -1e-9, math.nan):
            with pytest.raises(cs.ScheduleRangeError, match="outside schedule span"):
                sched.theta_at(t)


FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
DURATIONS = st.floats(min_value=1e-6, max_value=1e3)
SEGMENTS = st.lists(st.tuples(DURATIONS, FINITE), min_size=1, max_size=6)


class TestDriveScheduleValidation:
    @given(st.sampled_from(["replace", "augment"]), SEGMENTS, FINITE)
    def test_finite_input_accepted(self, mode, segments, b_z):
        sched = cs.DriveSchedule(mode, tuple(segments), b_z)
        assert sched.segments == tuple((float(d), float(b)) for d, b in segments)
        assert sched.boundary_times()[-1] == pytest.approx(sched.total_duration)

    @given(SEGMENTS, FINITE, st.sampled_from(["duration", "b_y", "b_z"]), NON_FINITE, st.data())
    def test_non_finite_rejected_by_name(self, segments, b_z, field, bad, data):
        index = data.draw(st.integers(min_value=0, max_value=len(segments) - 1))
        if field == "b_z":
            b_z = bad
        else:
            duration, b_y = segments[index]
            segments[index] = (bad, b_y) if field == "duration" else (duration, bad)
        with pytest.raises(ValueError, match=f"{field} must be finite, got {bad!r}"):
            cs.DriveSchedule("replace", tuple(segments), b_z)

    @given(SEGMENTS, st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
    def test_non_positive_duration_rejected(self, segments, duration):
        segments[-1] = (duration, segments[-1][1])
        with pytest.raises(ValueError, match="strictly positive"):
            cs.DriveSchedule("replace", tuple(segments), 1.0)


class TestDrivePieces:
    @given(st.sampled_from(["replace", "augment"]), SEGMENTS, st.floats(0.0, 1.0))
    def test_pieces_cut_the_schedule_at_t(self, mode, segments, fraction):
        sched = cs.DriveSchedule(mode, tuple(segments), 1.0)
        t = fraction * sched.total_duration
        pieces = sched.pieces(t)
        steps = [step for step, _ in pieces]
        assert all(step > 0.0 for step in steps)
        assert [b_y for _, b_y in pieces] == [b_y for _, b_y in sched.segments[: len(pieces)]]
        assert all(step == duration for step, (duration, _) in zip(steps[:-1], sched.segments))
        assert math.fsum(steps) == pytest.approx(t, rel=1e-12, abs=0.0)
        theta = 0.0
        for step, b_y in pieces:
            theta += b_y * step
        assert sched.theta_at(t) == theta


class TestAnalyticSigma:
    def test_identity_rotation(self):
        sector = cs.SpinSector(6, 3, 1)
        assert cs.analytic_sigma(sector, replace_schedule(0.0), 0.0) == 0.0

    def test_product_state_scaling(self):
        # w = 1: the N-site product state keeps only the 1/sqrt(S) piece
        sector = cs.SpinSector(4, 2, 2)
        sigma = cs.analytic_sigma(sector, replace_schedule(PI / 2), PI / 2)
        assert sigma == pytest.approx(0.25, abs=1e-14)

    def test_vanishes_at_rotation_multiples(self):
        sector = cs.SpinSector(8, 4, 1)
        b_y = 0.7
        sched = cs.DriveSchedule("replace", ((20.0, b_y),), 1.0)
        for k in (1, 2, 3):
            assert cs.analytic_sigma(sector, sched, k * PI / b_y) < 1e-13

    def test_singlet_rejected(self):
        for s in (0, 1e-10, -1e-10):  # S = 0, also within the half-integer tolerance
            with pytest.raises(cs.UndefinedSpinError):
                cs.analytic_sigma(cs.SpinSector(2, s, 0), replace_schedule(1.0), 1.0)

    def test_tolerance_accepted_sector_is_exact(self):
        sched = replace_schedule(1.0)
        assert cs.analytic_sigma(cs.SpinSector(4, 2.0000000001, 1e-10), sched, 1.0) == cs.analytic_sigma(
            cs.SpinSector(4, 2, 0), sched, 1.0
        )

    def test_augment_multi_segment_rejected(self):
        sched = cs.DriveSchedule("augment", ((1.0, 1.0), (1.0, 0.5)), 1.0)
        with pytest.raises(cs.UnsupportedScheduleError):
            cs.analytic_sigma(cs.SpinSector(4, 2, 0), sched, 1.5)

    def test_augment_zero_field_is_zero(self):
        sched = cs.DriveSchedule("augment", ((1.0, 0.0),), 0.0)
        assert cs.analytic_sigma(cs.SpinSector(4, 2, 0), sched, 0.5) == 0.0


class TestEnergyMean:
    def test_initial_value(self):
        sector = cs.SpinSector(4, 2, 1)
        mean = cs.analytic_energy_mean(sector, replace_schedule(0.0), 0.0, e_symm=-0.75)
        assert mean == pytest.approx((-0.75 - 1.0) / 4.0)

    def test_half_rotation_change(self):
        # N=4, m=2, B_z=1, theta=pi: change per site is +1.0
        sector = cs.SpinSector(4, 2, 2)
        before = cs.analytic_energy_mean(sector, replace_schedule(PI), 0.0)
        after = cs.analytic_energy_mean(sector, replace_schedule(PI), PI)
        assert after - before == pytest.approx(1.0, abs=1e-14)

    def test_quarter_rotation_zero(self):
        sector = cs.SpinSector(4, 2, 1)
        assert cs.analytic_energy_mean(sector, replace_schedule(PI / 2), PI / 2) == pytest.approx(
            0.0, abs=1e-15
        )


class TestCentralMoments:
    def test_g1_matches_variance(self):
        sector = cs.SpinSector(4, 2, 0)
        sched = replace_schedule(PI / 2)
        sigma = cs.analytic_sigma(sector, sched, PI / 2)
        assert cs.central_moment(sector, sched, PI / 2, 1, "asymptotic") == pytest.approx(
            sigma**2, rel=1e-14
        )

    def test_g1_exact_identity_all_s(self):
        # the closed form is exact at order 2 for every S, not just large S
        for s2 in (1, 2, 5, 17, 120):
            sector = cs.SpinSector(2 * s2, s2, 0 if s2 % 2 == 0 else 1)
            sched = replace_schedule(1.1)
            exact = cs.central_moment(sector, sched, 1.1, 1, "exact")
            sigma = cs.analytic_sigma(sector, sched, 1.1)
            assert abs(exact - sigma**2) < 1e-12

    def test_g2_asymptotic_prefactor(self):
        sector = cs.SpinSector(4, 2, 0)
        sched = replace_schedule(0.8)
        sigma = cs.analytic_sigma(sector, sched, 0.8)
        assert cs.central_moment(sector, sched, 0.8, 2, "asymptotic") == pytest.approx(
            1.5 * sigma**4, rel=1e-14
        )

    def test_spin_one_ladder_values(self):
        # S=1, m=0 at quarter rotation: <S_x^2> = <S_x^4> = 1 in global units
        sector = cs.SpinSector(2, 1, 0)
        sched = replace_schedule(PI / 2)
        for g in (1, 2):
            density_moment = cs.central_moment(sector, sched, PI / 2, g, "exact")
            assert density_moment * 2 ** (2 * g) == pytest.approx(1.0, abs=1e-13)
        asymptotic = cs.central_moment(sector, sched, PI / 2, 2, "asymptotic")
        assert asymptotic * 16 == pytest.approx(1.5, abs=1e-13)

    def test_ratio_converges(self):
        deviations = []
        for s in (25, 100, 400, 1600):
            sector = cs.SpinSector(2 * s, s, 0)
            sched = replace_schedule(1.3)
            ratio = cs.central_moment(sector, sched, 1.3, 2, "exact") / cs.central_moment(
                sector, sched, 1.3, 2, "asymptotic"
            )
            deviations.append(abs(ratio - 1.0))
        assert deviations[-1] < 0.01
        assert deviations[-1] < deviations[0]

    def test_rejects(self):
        sector = cs.SpinSector(4, 2, 0)
        with pytest.raises(ValueError):
            cs.central_moment(sector, replace_schedule(1.0), 1.0, 0, "exact")
        aug = cs.DriveSchedule("augment", ((1.0, 1.0), (1.0, 0.5)), 1.0)
        with pytest.raises(cs.UnsupportedScheduleError):
            cs.central_moment(sector, aug, 1.0, 1, "exact")


class TestCharacteristic:
    def test_at_zero(self):
        assert cs.characteristic_value(0.0, 2.7) == 1.0

    def test_small_q_series(self):
        sigma = 0.8
        for q in (1e-3, 1e-2):
            assert cs.characteristic_value(q, sigma) == pytest.approx(
                1.0 - q * q * sigma * sigma / 2.0, abs=q**4
            )

    def test_first_root(self):
        from drivenfluct.special import bessel_j0_first_zero

        root = bessel_j0_first_zero()
        sigma = 1.7
        q = root / (sigma * math.sqrt(2.0))
        assert abs(cs.characteristic_value(q, sigma)) < 1e-10


class TestArcsine:
    def test_center_value(self):
        assert cs.arcsine_density(0.0, 0.0, 1.0) == pytest.approx(
            0.22507907903927651, abs=1e-15
        )

    def test_outside_support(self):
        assert cs.arcsine_density(1.5, 0.0, 1.0) == 0.0
        assert cs.arcsine_density(-3.0, -1.0, 1.0) == 0.0

    def test_normalization(self):
        # smooth substitution delta = sigma sqrt(2) sin(u) removes the endpoint
        # singularities, giving an independent quadrature check
        sigma, center = 0.7, 0.3
        integral, _ = quad(
            lambda u: cs.arcsine_density(center + sigma * math.sqrt(2) * math.sin(u), center, sigma)
            * sigma
            * math.sqrt(2)
            * math.cos(u),
            -PI / 2,
            PI / 2,
        )
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_cdf(self):
        sigma = 1.3
        lo, hi = -sigma * math.sqrt(2), sigma * math.sqrt(2)
        assert cs.arcsine_cdf(lo - 1, 0.0, sigma) == 0.0
        assert cs.arcsine_cdf(hi + 1, 0.0, sigma) == 1.0
        assert cs.arcsine_cdf(0.0, 0.0, sigma) == pytest.approx(0.5)
        mid = 0.4
        derivative = (
            cs.arcsine_cdf(mid + 1e-6, 0.0, sigma) - cs.arcsine_cdf(mid - 1e-6, 0.0, sigma)
        ) / 2e-6
        assert derivative == pytest.approx(cs.arcsine_density(mid, 0.0, sigma), rel=1e-6)

    def test_degenerate(self):
        with pytest.raises(cs.DegenerateDistributionError):
            cs.arcsine_density(0.0, 0.0, 0.0)


class TestWignerColumn:
    def test_half_spin(self):
        column = cs.wigner_d_column(0.5, 0.5, 1.1)
        assert column[1] == pytest.approx(math.cos(0.55), abs=1e-14)
        assert abs(column[0]) == pytest.approx(abs(math.sin(0.55)), abs=1e-14)

    def test_against_dense_exponential(self):
        # small-S oracle: scaling-and-squaring of the same generator
        for s in (1.0, 3.5, 7.0):
            dim = int(2 * s) + 1
            m_values = np.arange(dim) - s
            c = np.sqrt(s * (s + 1) - m_values[:-1] * (m_values[:-1] + 1))
            generator = np.zeros((dim, dim))
            for k in range(dim - 1):
                generator[k, k + 1] = c[k] / 2
                generator[k + 1, k] = -c[k] / 2
            for theta in (0.4, 1.6, 3.0):
                dense = expm(theta * generator)
                for m in (-s, 0.5 if dim % 2 == 0 else 0.0, s):
                    column = cs.wigner_d_column(s, m, theta)
                    reference = dense[:, int(m + s)]
                    assert np.max(np.abs(column - reference)) < 1e-12

    @pytest.mark.parametrize(
        "s, m, message",
        [
            (1.0, -3.0, "|m| cannot exceed s_tot"),
            (1.0, 2.0, "|m| cannot exceed s_tot"),
            (1.0, 0.5, "s_tot - |m| must be an integer"),
            (1.5, 1.0, "s_tot - |m| must be an integer"),
        ],
    )
    def test_invalid_column_names_its_fault(self, s, m, message):
        # a wrapped or rounded index would return some other column instead
        with pytest.raises(cs.InvalidSectorError, match=re.escape(message)):
            cs.wigner_d_column(s, m, 0.3)


class TestEigenweights:
    def test_identity_rotation_point_mass(self):
        dist = cs.eigenweight_distribution(cs.SpinSector(6, 3, 1), 0.0)
        weights = {v: w for v, w in dist.points}
        assert max(weights.values()) == pytest.approx(1.0, abs=1e-14)

    def test_half_spin_quarter_rotation(self):
        dist = cs.eigenweight_distribution(cs.SpinSector(1, 0.5, 0.5), PI / 2)
        assert [w for _, w in dist.points] == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_mean_matches_analytic(self):
        sector = cs.SpinSector(14, 7, 2)
        theta = 0.9
        dist = cs.eigenweight_distribution(sector, theta, b_z=1.3, e_symm=0.4)
        sched = cs.DriveSchedule("replace", ((theta, 1.0),), 1.3)
        assert dist.mean() == pytest.approx(
            cs.analytic_energy_mean(sector, sched, theta, 0.4), abs=1e-12
        )

    @pytest.mark.parametrize("s,m", [(10, 0), (50, 10), (200, -60), (200, 0)])
    def test_sigma_matches_analytic(self, s, m):
        sector = cs.SpinSector(2 * s, s, m)
        for theta in (0.3, 1.2, 2.8):
            dist = cs.eigenweight_distribution(sector, theta)
            sched = replace_schedule(theta)
            assert abs(dist.std() - cs.analytic_sigma(sector, sched, theta)) < 1e-10

    def test_odd_moments_vanish_for_balanced_sector(self):
        # at m = 0 the weights are exactly symmetric about the mean
        dist = cs.eigenweight_distribution(cs.SpinSector(60, 30, 0), 1.0)
        for order in (1, 3, 5):
            assert abs(dist.central_moment(order)) < 1e-12

    def test_odd_moments_decay_for_polarized_sector(self):
        # a finite-S polarized sector is genuinely skewed (S=1/2 rotated to
        # cos^2/sin^2 weights is the extreme case); the skew dies ~ 1/S^2
        skews = []
        for s in (15, 60, 240):
            dist = cs.eigenweight_distribution(cs.SpinSector(2 * s, s, s // 3), 1.0)
            skews.append(abs(dist.central_moment(3)) / dist.std() ** 3)
        assert skews[0] > 1e-4
        assert skews[2] < skews[1] < skews[0]
        assert skews[2] < 1e-5

    def test_ks_decreases_with_spin(self):
        distances = []
        for s in (20, 40, 80, 160):
            sector = cs.SpinSector(2 * s, s, 0)
            dist = cs.eigenweight_distribution(sector, 1.0)
            sched = replace_schedule(1.0)
            sigma = cs.analytic_sigma(sector, sched, 1.0)
            mean = cs.analytic_energy_mean(sector, sched, 1.0)
            distances.append(cs.ks_distance_to_arcsine(dist, mean, sigma))
        assert all(b < a for a, b in zip(distances, distances[1:]))


class TestSerialization:
    def test_empirical_round_trip(self):
        dist = cs.eigenweight_distribution(cs.SpinSector(4, 2, 1), 0.7)
        record = dist.to_json_dict()
        assert record["type"] == "empirical"
        back = cs.EmpiricalDistribution(points=tuple((p["value"], p["weight"]) for p in record["points"]))
        assert back.points == dist.points

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            cs.EmpiricalDistribution(points=((0.0, 0.6), (1.0, 0.6)))
