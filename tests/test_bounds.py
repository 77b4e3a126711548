"""Uncertainty-product reports and the equilibrium rate threshold."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drivenfluct import bounds as bd
from drivenfluct import collective_spin as cs
from drivenfluct import exact_lattice as xl
from drivenfluct import oracles

PI = math.pi


@st.composite
def robertson_inputs(draw):
    """Two complex square matrices and a normalisable complex state, dimension 2..16."""
    dim = draw(st.integers(2, 16))

    def complex_array(shape):
        real, imag = (draw(hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0))) for _ in range(2))
        return real + 1j * imag

    h_a, h_b, vec = complex_array((dim, dim)), complex_array((dim, dim)), complex_array(dim)
    assume(np.linalg.norm(vec) > 1e-3)
    return h_a, h_b, vec


class TestUncertaintyCheck:
    def test_commuting_pair_trivially_satisfied(self):
        lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
        ham = xl.build_spin_hamiltonian(lat)
        scaled = xl.MatrixOperator(2.0 * ham.matrix, 3, tuple(2.0 * t.toarray() for t in ham.terms))
        state = xl.evolve_state(
            xl.dicke_state(3, 0.5), lat, cs.DriveSchedule("replace", ((0.7, 1.0),), 1.0)
        )[-1][1]
        robertson, rate, _ = bd.uncertainty_check(state, ham, scaled, 3)
        assert robertson.rhs == pytest.approx(0.0, abs=1e-12)
        assert rate.rhs == pytest.approx(0.0, abs=1e-12)
        assert robertson.satisfied

    def test_worked_collective_case(self):
        # N=4, S=2, m=1, B_z = B_y = 1, quarter rotation: (lhs, rhs) = (5/8, 1/8)
        lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
        state = xl.evolve_state(
            xl.dicke_state(4, 1), lat, cs.DriveSchedule("replace", ((PI / 2, 1.0),), 1.0)
        )[-1][1]
        reports = bd.uncertainty_check(
            state, xl.build_spin_hamiltonian(lat), xl.build_transverse_field(4, 1.0), 4
        )
        for report in reports[:2]:
            assert report.lhs == pytest.approx(0.625, abs=1e-6)
            assert report.rhs == pytest.approx(0.125, abs=1e-6)
            assert report.satisfied
        # components: sigma_eps from the closed form; sigma of the drive
        assert reports[0].lhs == pytest.approx(0.3952847075210474 * 1.5811388300841898, abs=1e-10)
        assert reports[2].satisfied

    def test_frozen_sector_rate_vanishes(self):
        # m = 0: the energy density never moves, rhs = 0 while lhs > 0
        lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
        for theta in (0.5, 1.2, 2.4):
            state = xl.evolve_state(
                xl.dicke_state(4, 0), lat, cs.DriveSchedule("replace", ((theta, 1.0),), 1.0)
            )[-1][1]
            robertson, rate, _ = bd.uncertainty_check(
                state, xl.build_spin_hamiltonian(lat), xl.build_transverse_field(4, 1.0), 4
            )
            assert rate.rhs == pytest.approx(0.0, abs=1e-12)
            assert robertson.lhs > 0.1

    def test_rhs_forms_coincide_for_static_generator(self):
        lat = xl.LatticeSpec.chain(4, 0.7, 1.2)
        state = xl.evolve_state(
            xl.dicke_state(4, 1), lat, cs.DriveSchedule("replace", ((0.9, 0.8),), 1.2)
        )[-1][1]
        robertson, rate, _ = bd.uncertainty_check(
            state, xl.build_spin_hamiltonian(lat), xl.build_transverse_field(4, 0.8), 4
        )
        assert abs(robertson.rhs - rate.rhs) < 1e-12

    def test_robertson_fuzz(self):
        slacks = oracles.robertson_fuzz(np.random.default_rng(424242), 300, 64)
        assert len(slacks) == 300
        assert min(slacks) >= -1e-12
        assert min(slacks) == 0.007779406472138539  # frozen

    @pytest.mark.parametrize("dim", range(2, 18))
    def test_robertson_report_matches_padded_operator_route(self, dim):
        # reference: the pair and state padded with zeros to 2^n and checked
        # by uncertainty_check as validated MatrixOperators
        rng = np.random.default_rng([31, dim])
        for _ in range(5):
            h_a, h_b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            n_sites = max(1, (dim - 1).bit_length())
            pad = 1 << n_sites
            amplitudes = np.zeros(pad, dtype=complex)
            amplitudes[:dim] = vec / np.linalg.norm(vec)
            operators = []
            for h in (h_a, h_b):
                padded = np.zeros((pad, pad), dtype=complex)
                padded[:dim, :dim] = (h + h.conj().T) / 2
                operators.append(xl.MatrixOperator(padded, n_sites, (padded,)))
            reference = bd.uncertainty_check(xl.QuantumState(amplitudes, n_sites), *operators, 4)[0]
            report = oracles.robertson_report(h_a, h_b, vec)
            assert report.label == reference.label
            assert report.lhs == pytest.approx(reference.lhs, rel=1e-13)
            assert report.rhs == pytest.approx(reference.rhs, rel=1e-13)

    def test_selftest_fuzz_worst_slack_frozen(self):
        # the worst slack that the bounds selftest reports
        assert min(oracles.robertson_fuzz(np.random.default_rng(77), 100, 16)) == 0.02640997609145984

    def test_robertson_report_refuses_a_null_state(self):
        with pytest.raises(ValueError, match="positive finite norm"):
            oracles.robertson_report(np.eye(3), np.eye(3), np.zeros(3))

    @given(robertson_inputs())
    def test_robertson_bound_holds(self, inputs):
        report = oracles.robertson_report(*inputs)
        assert report.satisfied, report.slack

    def test_augment_generator_width_is_static(self):
        # the augment drive conserves its own moments, so sigma(H_total) must
        # not move with theta; measured, not assumed
        lat = xl.LatticeSpec.chain(4, 1.0, 1.0)
        spin = xl.build_spin_hamiltonian(lat, with_decomposition=False)
        total = xl.MatrixOperator(
            spin.matrix + xl.build_transverse_field(4, 0.9).matrix, 4
        )
        psi = xl.dicke_state(4, 1)
        widths = []
        for t in (0.0, 0.4, 1.3, 2.6):
            if t == 0.0:
                state = psi
            else:
                state = xl.evolve_state(
                    psi, lat, cs.DriveSchedule("augment", ((t, 0.9),), 1.0)
                )[-1][1]
            widths.append(math.sqrt(xl.variance(state, total)))
        assert max(widths) - min(widths) < 1e-10

    def test_dimension_mismatch(self):
        lat = xl.LatticeSpec.chain(3, 1.0, 1.0)
        small = xl.MatrixOperator(np.eye(2, dtype=complex), 1)
        with pytest.raises(ValueError):
            bd.uncertainty_check(xl.dicke_state(3, 0.5), xl.build_spin_hamiltonian(lat), small, 3)


class TestRateThreshold:
    def test_zero_capacity(self):
        assert bd.equilibrium_rate_threshold(5.0, 0.0, 3.0) == 0.0
        assert bd.equilibrium_rate_threshold(5.0, 3.0, 0.0) == 0.0

    def test_quadratic_in_temperature(self):
        base = bd.equilibrium_rate_threshold(1.0, 0.8, 0.2)
        assert bd.equilibrium_rate_threshold(2.0, 0.8, 0.2) / base == pytest.approx(
            4.0, abs=1e-12
        )

    def test_rejects(self):
        for args, name in (
            ((0.0, 1.0, 1.0), "temperature"),
            ((math.nan, 1.0, 1.0), "temperature"),
            ((math.inf, 1.0, 1.0), "temperature"),
            ((1.0, -1.0, 1.0), "cv_total"),
            ((1.0, math.inf, 1.0), "cv_total"),
            ((1.0, 1.0, math.nan), "cv_subsystem"),
        ):
            with pytest.raises(ValueError, match=name):
                bd.equilibrium_rate_threshold(*args)


class TestBoundReport:
    def test_slack_and_json(self):
        report = bd.BoundReport("demo", lhs=1.0, rhs=0.25)
        assert report.slack == 0.75
        assert report.satisfied
        record = report.to_json_dict()
        assert set(record) == {"label", "lhs", "rhs", "slack", "satisfied"}

    def test_tolerance_edge(self):
        assert bd.BoundReport("edge", lhs=0.0, rhs=5e-13).satisfied
        assert not bd.BoundReport("edge", lhs=0.0, rhs=1e-11).satisfied
