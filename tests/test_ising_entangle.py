"""Domain-wall correlators, chain thermodynamics, Dicke entropy, multiplicities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from drivenfluct import collective_spin as cs
from drivenfluct import ising_entangle as ie


class TestDomainWallCorrelator:
    def test_three_site_one_wall(self):
        # the four one-wall states give 0 at d=1 and -1 at d=2, while the
        # independent-bond limit gives 0 for both: the closed form is a
        # large-L statement
        ensemble = ie.DomainWallEnsemble(3, 1)
        assert ie.domain_wall_correlator(ensemble, 1, "enumeration") == 0.0
        assert ie.domain_wall_correlator(ensemble, 2, "enumeration") == -1.0
        assert ie.domain_wall_correlator(ensemble, 1, "asymptotic") == 0.0
        assert ie.domain_wall_correlator(ensemble, 2, "asymptotic") == 0.0

    def test_large_chain_values(self):
        ensemble = ie.DomainWallEnsemble(100, 30)
        assert ie.domain_wall_correlator(ensemble, 2, "asymptotic") == pytest.approx(
            (39.0 / 99.0) ** 2, abs=1e-15
        )
        gap = abs(
            ie.domain_wall_correlator(ensemble, 2, "hypergeometric")
            - ie.domain_wall_correlator(ensemble, 2, "asymptotic")
        )
        assert 0.0 < gap < 3.0 / 99.0  # an O(1/L) discrepancy

    def test_site_independence(self):
        ensemble = ie.DomainWallEnsemble(9, 3)
        values = {
            ie.correlator_fraction(ensemble, 2, "enumeration", site=r) for r in range(0, 6)
        }
        assert len(values) == 1

    def test_enumeration_equals_closed_form(self):
        for length in range(2, 13):
            bonds = length - 1
            for walls in range(bonds + 1):
                ensemble = ie.DomainWallEnsemble(length, walls)
                for distance in range(1, bonds + 1):
                    closed = ie.correlator_fraction(ensemble, distance, "hypergeometric")
                    for site in range(bonds - distance + 1):
                        assert ie.correlator_fraction(ensemble, distance, "enumeration", site=site) == closed
        # the enumeration cap, at the distances the benchmark asks for
        ensemble = ie.DomainWallEnsemble(20, 6)
        for distance in range(1, 20, 3):
            assert ie.correlator_fraction(ensemble, distance, "enumeration") == ie.correlator_fraction(
                ensemble, distance, "hypergeometric"
            )

    def test_gap_halves_when_length_doubles(self):
        # fixed wall density 0.3 and d = 2; closed form of the gap is
        # (1 - base^2)/(B - 1), so doubling B halves it
        gaps = []
        for bonds in (40, 80, 160, 320):
            ensemble = ie.DomainWallEnsemble(bonds + 1, int(0.3 * bonds))
            gap = abs(
                ie.domain_wall_correlator(ensemble, 2, "hypergeometric")
                - ie.domain_wall_correlator(ensemble, 2, "asymptotic")
            )
            gaps.append(gap)
        for first, second in zip(gaps, gaps[1:]):
            assert second / first == pytest.approx(0.5, abs=0.15)

    def test_thermal_matches_asymptotic_with_chain_map(self):
        for length, walls in ((40, 10), (160, 60), (320, 50)):
            ensemble = ie.DomainWallEnsemble(length, walls, coupling=1.7)
            beta = ie.temperature_energy_maps(length, 1.7, energy=ensemble.energy).beta
            for distance in (1, 3, 6):
                thermal = ie.domain_wall_correlator(ensemble, distance, "thermal", beta=beta)
                asym = ie.domain_wall_correlator(ensemble, distance, "asymptotic")
                assert thermal == pytest.approx(asym, abs=1e-12)  # identical by the map
                assert abs(thermal - asym) < 1.0 / length  # a fortiori the 1/L band

    def test_rejects(self):
        ensemble = ie.DomainWallEnsemble(5, 2)
        with pytest.raises(ValueError):
            ie.domain_wall_correlator(ensemble, 5, "enumeration")  # d > L-1
        with pytest.raises(ValueError):
            ie.domain_wall_correlator(ensemble, 1, "thermal")  # missing beta
        with pytest.raises(ValueError):
            ie.correlator_fraction(ie.DomainWallEnsemble(21, 2), 1, "enumeration")
        with pytest.raises(ValueError):
            ie.DomainWallEnsemble(4, 4)  # k > bonds


class TestTemperatureEnergyMaps:
    def test_zero_energy_is_infinite_temperature(self):
        point = ie.temperature_energy_maps(20, 1.0, energy=0.0)
        assert point.beta == 0.0

    def test_ground_state_limit(self):
        point = ie.temperature_energy_maps(20, 1.0, beta=40.0)
        assert point.energy == pytest.approx(-19.0, abs=1e-10)
        edge = ie.temperature_energy_maps(20, 1.0, energy=-19.0)
        assert edge.beta == math.inf

    def test_round_trip(self):
        for energy in np.linspace(-18.9, 18.9, 100):
            point = ie.temperature_energy_maps(20, 1.0, energy=float(energy))
            back = ie.temperature_energy_maps(20, 1.0, beta=point.beta)
            assert back.energy == pytest.approx(float(energy), abs=1e-12)

    def test_heat_capacity_formula(self):
        length, coupling, beta = 30, 1.2, 0.55
        point = ie.temperature_energy_maps(length, coupling, beta=beta)
        expected = length * ((beta * coupling) ** 2 - (beta * point.energy / length) ** 2)
        assert point.heat_capacity == pytest.approx(expected, rel=1e-14)

    def test_unphysical_energy(self):
        with pytest.raises(ie.UnphysicalEnergyError):
            ie.temperature_energy_maps(10, 1.0, energy=-10.0)
        with pytest.raises(ValueError):
            ie.temperature_energy_maps(10, 1.0)


class TestDickeEntanglement:
    def test_schmidt_weights_are_the_rounded_fractions(self):
        # one int/int division rounds as float(Fraction) does, for every split
        # up to 40 sites and the half split of 1200
        splits = [
            ie.DickeSplit(n, k - n / 2, left)
            for n in range(2, 41)
            for k in range(n + 1)
            for left in range(1, n)
        ]
        for split in splits + [ie.DickeSplit(1200, 0, 600)]:
            n_up, left, right = split.n_up, split.left_size, split.right_size
            expected = [
                float(Fraction(math.comb(left, k) * math.comb(right, n_up - k), math.comb(split.n_sites, n_up)))
                for k in range(max(0, n_up - right), min(left, n_up) + 1)
            ]
            assert ie._schmidt_weights(split) == expected

    def test_symmetries(self):
        for n, m, left in ((10, 2, 3), (9, 1.5, 4), (12, -3, 5)):
            forward = ie.dicke_entanglement(ie.DickeSplit(n, m, left))
            swapped = ie.dicke_entanglement(ie.DickeSplit(n, m, n - left))
            flipped = ie.dicke_entanglement(ie.DickeSplit(n, -m, left))
            assert forward == pytest.approx(swapped, abs=1e-14)
            assert forward == pytest.approx(flipped, abs=1e-14)

    def test_log_scaling_slope(self):
        sizes = [2**k for k in range(4, 11)]
        entropies = [
            ie.dicke_entanglement(ie.DickeSplit(n, 0, n // 2)) for n in sizes
        ]
        slope = np.polyfit(np.log(sizes), entropies, 1)[0]
        assert slope == pytest.approx(0.5, abs=0.1)

    def test_exact_past_weight_underflow(self):
        # from n ~ 1100 on, the smallest Schmidt weights underflow to 0.0 as
        # floats; they add w ln w -> 0, and the entropy keeps the saddle's trend
        exact = {n: ie.dicke_entanglement(ie.DickeSplit(n, 0, n // 2)) for n in (600, 1200)}
        saddle = {n: ie.dicke_entanglement(ie.DickeSplit(n, 0, n // 2), "saddle") for n in (600, 1200)}
        assert math.isfinite(exact[1200])
        assert exact[1200] - exact[600] == pytest.approx(saddle[1200] - saddle[600], abs=2e-3)

    def test_saddle_formula_and_agreement(self):
        split = ie.DickeSplit(64, 0, 32)
        width = ie.dicke_split_sigma_sq(split)
        assert width == pytest.approx(0.25 * 32 * 32 / 64)
        saddle = ie.dicke_entanglement(split, "saddle")
        assert saddle == pytest.approx(ie.saddle_entropy(width))
        exact = ie.dicke_entanglement(split, "exact")
        # reported agreement: the saddle tracks the exact value at large N
        assert abs(saddle - exact) < 0.5

    def test_ising_split_width(self):
        sigma_sq = ie.ising_split_sigma_sq(80, 30, beta=0.6, coupling=1.0)
        assert sigma_sq > 0.0
        left = ie.temperature_energy_maps(30, 1.0, beta=0.6).heat_capacity
        right = ie.temperature_energy_maps(50, 1.0, beta=0.6).heat_capacity
        assert sigma_sq == pytest.approx(
            (left * right / (left + right)) / 0.6**2, rel=1e-12
        )

    def test_rejects(self):
        with pytest.raises(ValueError):
            ie.DickeSplit(4, 0, 0)
        with pytest.raises(ValueError):
            ie.DickeSplit(4, 0.5, 2)


class TestSpinMultiplicity:
    def test_small_tables(self):
        assert [ie.spin_multiplicity(4, s) for s in (2, 1, 0)] == [1, 3, 2]
        assert [ie.spin_multiplicity(3, s) for s in (1.5, 0.5)] == [1, 2]
        assert [ie.spin_multiplicity(2, s) for s in (1, 0)] == [1, 1]
        assert ie.spin_multiplicity(0, 0) == 1

    def test_ballot_identity(self):
        # independent route: M(N, S) = C(N, N/2 - S) - C(N, N/2 - S - 1),
        # against both the one-sector count and the all-sector sweep
        for n in (*range(65), 1500, 1501):
            expected = []
            for doubled in range(n % 2, n + 1, 2):
                j = (n - doubled) // 2
                expected.append(math.comb(n, j) - (math.comb(n, j - 1) if j >= 1 else 0))
            assert ie.spin_multiplicities(n) == expected
            assert [ie.spin_multiplicity(n, d / 2.0) for d in range(n % 2, n + 1, 2)] == expected

    def test_parity_rejected(self):
        assert ie.InvalidSectorError is cs.InvalidSectorError
        with pytest.raises(ie.InvalidSectorError):
            ie.spin_multiplicity(4, 1.5)
        with pytest.raises(ie.InvalidSectorError):
            ie.spin_multiplicity(4, 3)

    def test_negative_site_count_rejected_by_name(self):
        for count in (lambda: ie.spin_multiplicity(-4, 0), lambda: ie.spin_multiplicities(-3)):
            with pytest.raises(ie.InvalidSectorError, match="n_sites must be non-negative"):
                count()

    def test_gaussian_ratio_at_large_n(self):
        n = 10**4
        for s in (50, 100, 200):
            ratio = math.exp(
                ie.spin_multiplicity_log(n, s, "gaussian")
                - ie.spin_multiplicity_log(n, s, "exact")
            )
            assert ratio == pytest.approx(1.0, abs=0.05)

    def test_gaussian_overflow_guard(self):
        assert ie.spin_multiplicity(4, 1, "gaussian") == pytest.approx(3.87, abs=0.1)
        assert ie.spin_multiplicity(10**4, 100, "gaussian") == math.inf
