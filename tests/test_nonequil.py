"""Kernel averaging, viscosity law and collapse fits, smeared spectra, moments."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from drivenfluct import nonequil_observables as no
from drivenfluct.special import erfc


def synthetic_record(liquid_id, abar, t_liquidus, eta_liquidus, temps, rng=None, noise=0.0):
    rows = []
    for t in temps:
        eta = no.viscosity_predict(float(t), t_liquidus, abar, eta_liquidus)
        if noise > 0.0:
            eta *= math.exp(noise * rng.normal())
        rows.append((float(t), eta))
    return no.ViscosityRecord(liquid_id, tuple(rows), t_liquidus, eta_liquidus)


class TestKernelAverage:
    def test_delta_exact(self):
        assert no.DeltaKernel(1.7) == no.EmpiricalKernel(points=((1.7, 1.0),))
        assert no.kernel_average(no.DeltaKernel(1.7), lambda q: q**3) == 1.7**3

    def test_empirical_sum(self):
        kernel = no.EmpiricalKernel(points=((0.0, 0.25), (2.0, 0.75)))
        assert no.kernel_average(kernel, lambda q: q) == pytest.approx(1.5)

    def test_linearity_in_curve_and_kernel_mixture(self):
        gauss = no.GaussianKernel(1.0, 0.3)
        f = lambda q: math.sin(q)
        g = lambda q: q * q
        combined = no.kernel_average(gauss, lambda q: 2.0 * f(q) - 3.0 * g(q))
        separate = 2.0 * no.kernel_average(gauss, f) - 3.0 * no.kernel_average(gauss, g)
        assert combined == pytest.approx(separate, abs=1e-9)
        # two-point mixture of delta kernels equals the weighted average
        mix = no.EmpiricalKernel(points=((0.5, 0.4), (1.5, 0.6)))
        assert no.kernel_average(mix, f) == pytest.approx(
            0.4 * f(0.5) + 0.6 * f(1.5), abs=1e-14
        )

    def test_domain_error_from_tabulated_curve(self):
        curve = no.tabulated_curve([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(no.KernelDomainError):
            no.kernel_average(no.DeltaKernel(3.0), curve)


class TestGlassSigma:
    def test_linear_energy_density_cancellation(self):
        # eps(T) = eps_melt - c (T_melt - T) makes sigma = A c T identically
        c, t_melt, eps_melt, abar = 0.7, 1000.0, 2.0, 0.1
        eps = lambda t: eps_melt - c * (t_melt - t)
        for t in (200.0, 500.0, 800.0):
            assert no.glass_sigma(t, eps, t_melt, eps_melt, abar) == pytest.approx(
                abar * c * t, rel=1e-12
            )

    def test_worked_value(self):
        eps = lambda t: 2.0 - 1.0 * (1000.0 - t)
        assert no.glass_sigma(800.0, eps, 1000.0, 2.0, 0.1) == pytest.approx(80.0)

    def test_vanishes_with_abar(self):
        eps = lambda t: -t
        assert no.glass_sigma(500.0, eps, 1000.0, -200.0, 0.0) == 0.0

    def test_range_error(self):
        with pytest.raises(ValueError):
            no.glass_sigma(1000.0, lambda t: t, 1000.0, 1.0, 0.1)


class TestViscosityPredict:
    def test_at_melting(self):
        assert no.viscosity_predict(750.0, 750.0, 0.08, 3.3) == 3.3

    def test_two_thirds_melting(self):
        # x = 1/(0.08 * 2/3 * sqrt(2) * 3) ... = 4.419417...; frozen
        # high-precision value of 1/erfc(x) = 2.4363e9 (1% tolerance)
        t_melt = 900.0
        eta = no.viscosity_predict(600.0, t_melt, 0.08, 1.0)
        x = no.collapse_abscissa(600.0, t_melt, 0.08)
        assert x == pytest.approx(4.419417382415922, abs=1e-10)
        assert eta == pytest.approx(2.4363344e9, rel=0.01)

    def test_strictly_decreasing(self):
        temps = np.linspace(300.0, 1000.0, 40)
        values = [no.log10_viscosity_predict(float(t), 1000.0, 0.07, 1.0) for t in temps]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_log_form_consistent(self):
        eta = no.viscosity_predict(700.0, 1000.0, 0.09, 2.0)
        assert math.log10(eta) == pytest.approx(
            no.log10_viscosity_predict(700.0, 1000.0, 0.09, 2.0), abs=1e-12
        )

    def test_deep_supercooling_stays_finite_in_log(self):
        value = no.log10_viscosity_predict(100.0, 1000.0, 0.05, 1.0)
        assert math.isfinite(value) and value > 700.0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            no.viscosity_predict(1100.0, 1000.0, 0.08, 1.0)
        with pytest.raises(ValueError):
            no.viscosity_predict(500.0, 1000.0, -0.1, 1.0)


class TestCollapseFit:
    def test_noiseless_round_trip(self):
        record = synthetic_record("a", 0.085, 1100.0, 2.4, np.linspace(660.0, 1100.0, 14))
        fit = no.fit_collapse(no.ViscosityDataset((record,)))[0]
        assert fit.abar == pytest.approx(0.085, abs=1e-6)
        assert fit.residual_rms < 1e-9
        assert not fit.at_boundary

    def test_noisy_recovery_within_five_percent(self):
        rng = np.random.default_rng(321)
        for abar in np.linspace(0.05, 0.12, 8):
            record = synthetic_record(
                "n", float(abar), 1000.0, 1.9, np.linspace(600.0, 1000.0, 16), rng, 0.02
            )
            fit = no.fit_collapse(no.ViscosityDataset((record,)))[0]
            assert abs(fit.abar - abar) / abar < 0.05

    def test_two_liquids_share_master_curve(self):
        rng = np.random.default_rng(99)
        noise = 0.02
        records = tuple(
            synthetic_record(name, abar, t_l, 1.0, np.linspace(0.62 * t_l, t_l, 15), rng, noise)
            for name, abar, t_l in (("li-a", 0.06, 900.0), ("li-b", 0.11, 1400.0))
        )
        fits = no.fit_collapse(no.ViscosityDataset(records))
        residuals = []
        for fit in fits:
            for x, y in fit.points:
                residuals.append(math.log10(y) - math.log10(no.master_curve(x)))
        rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
        assert rms < noise / math.log(10.0)  # below the injected noise level

    def test_above_liquidus_rows_flagged_and_excluded(self):
        record = no.ViscosityRecord(
            "hot",
            ((800.0, 100.0), (900.0, 10.0), (1000.0, 2.0), (1100.0, 1.0), (1200.0, 0.5)),
            1000.0,
            2.0,
        )
        assert record.flagged_rows == (3, 4)
        assert len(record.retained_rows) == 3

    def test_insufficient_rows(self):
        record = no.ViscosityRecord("tiny", ((900.0, 5.0), (950.0, 3.0)), 1000.0, 2.0)
        with pytest.raises(no.InsufficientDataError):
            no.fit_collapse(no.ViscosityDataset((record,)))

    def test_boundary_flag(self):
        # data generated outside the search bounds pins the fit at the edge
        record = synthetic_record("edge", 0.3, 1000.0, 1.0, np.linspace(700.0, 1000.0, 10))
        fit = no.fit_collapse(no.ViscosityDataset((record,)), abar_bounds=(0.001, 0.1))[0]
        assert fit.at_boundary

    def test_boundary_flag_lower_edge(self):
        # data narrower than the lower bound pins the fit at that edge
        record = synthetic_record("low", 0.0005, 1000.0, 1.0, np.linspace(990.0, 1000.0, 10))
        fit = no.fit_collapse(no.ViscosityDataset((record,)), abar_bounds=(0.001, 0.1))[0]
        assert fit.at_boundary

    @pytest.mark.parametrize("hi", [1e5, 1e100], ids=["1e5", "1e100"])
    def test_wide_bracket(self, hi):
        # the flag measures the distance to the nearer bound against abar, so
        # an interior fit on a wide bracket is not pinned; the objective is
        # flat for abar above ~1e16, and the minimiser must still find 0.085
        record = synthetic_record("a", 0.085, 1100.0, 2.4, np.linspace(660.0, 1100.0, 14))
        fit = no.fit_collapse(no.ViscosityDataset((record,)), abar_bounds=(0.001, hi))[0]
        assert fit.abar == pytest.approx(0.085, abs=1e-6)
        assert not fit.at_boundary

    def test_bounds_validated(self):
        record = synthetic_record("a", 0.085, 1100.0, 2.4, np.linspace(660.0, 1100.0, 14))
        dataset = no.ViscosityDataset((record,))
        for bounds, name in (((0.001, math.inf), "hi = inf"), ((0.0, 1.0), "lo = 0.0"),
                             ((math.nan, 1.0), "lo = nan"), ((0.5, 0.1), "hi = 0.1")):
            with pytest.raises(ValueError, match=f"0 < lo < hi < inf, got .*{name}"):
                no.fit_collapse(dataset, bounds)

    def test_golden_section_quadratic(self):
        # with an O(1) offset the objective plateaus to rounding within
        # sqrt(eps) of the minimum; localization is limited accordingly
        x, fx = no.golden_section_minimize(lambda u: (u - 0.37) ** 2 + 1.0, 0.0, 1.0)
        assert x == pytest.approx(0.37, abs=5e-8)
        assert fx == pytest.approx(1.0, abs=1e-15)
        # with a zero-offset objective the bracket tolerance is attainable
        x, _ = no.golden_section_minimize(lambda u: (u - 0.37) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.37, abs=2e-10)


class TestSmearedGreen:
    def test_delta_kernel_is_lorentzian(self):
        tau, z, mu = 4.0, 0.8, 0.3
        result = no.smeared_green([0.0, 0.7], 1.0, no.DeltaKernel(mu), z, tau)
        for omega, value in zip(result.omega, result.values):
            expected = z / complex(omega - 1.0 + mu, 1.0 / tau)
            assert value == pytest.approx(expected, abs=1e-14)
        peak = no.smeared_green([1.0 - mu], 1.0, no.DeltaKernel(mu), z, tau)
        assert peak.spectral[0] == pytest.approx(z * tau / math.pi, abs=1e-12)

    def test_sum_rule_all_kernels(self):
        for kernel in (
            no.DeltaKernel(0.2),
            no.GaussianKernel(0.1, 0.6),
            no.EmpiricalKernel(points=((-0.4, 0.3), (0.5, 0.7))),
        ):
            weight = no.spectral_weight(1.0, kernel, 0.65, 3.0, -1e9, 1e9)
            assert weight == pytest.approx(0.65, abs=1e-6)

    def test_closed_form_matches_direct_quadrature(self):
        kernel = no.GaussianKernel(0.0, 0.5)

        def spectral(omega):
            return no.smeared_green([omega], 1.0, kernel, 0.7, 2.0).spectral[0]

        direct, _ = quad(spectral, -8.0, 8.0, limit=300)
        closed = no.spectral_weight(1.0, kernel, 0.7, 2.0, -8.0, 8.0)
        assert direct == pytest.approx(closed, abs=1e-8)

    @staticmethod
    def _line_quadrature(omega, eps_k, kernel, z_weight, lifetime):
        # independent of the Voigt form: Gaussian times Lorentzian integrated
        # over the whole line, split at the resonance and at the kernel mean
        def part(component, lo, hi):
            value, _ = quad(
                lambda mu: kernel.density(mu)
                * component(z_weight / complex(omega - eps_k + mu, 1.0 / lifetime)),
                lo,
                hi,
                epsabs=0.0,
                epsrel=1e-12,
                limit=400,
            )
            return value

        cuts = [-math.inf, *sorted({eps_k - omega, kernel.mean}), math.inf]
        return complex(
            sum(part(lambda g: g.real, lo, hi) for lo, hi in zip(cuts, cuts[1:])),
            sum(part(lambda g: g.imag, lo, hi) for lo, hi in zip(cuts, cuts[1:])),
        )

    def test_voigt_matches_line_quadrature(self):
        rng = np.random.default_rng(20240611)
        cases = [
            # the resonance eps_k - omega sits on the +12 sigma edge at omega = -2.9
            (no.GaussianKernel(-0.4, 0.2), -0.9, 0.55, 2.0, [-2.9, -0.5, 0.0, 1.3]),
            (no.GaussianKernel(0.0, 0.05), 0.0, 1.0, 1000.0, [-0.6, -0.05, 0.0, 0.3]),
        ]
        for _ in range(5):
            kernel = no.GaussianKernel(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.8))
            omegas = sorted(rng.uniform(-4.0, 4.0, 4))
            cases.append((kernel, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.0), rng.uniform(2.0, 50.0), omegas))
        for kernel, eps_k, z, tau, omegas in cases:
            result = no.smeared_green(omegas, eps_k, kernel, z, tau)
            for omega, value in zip(omegas, result.values):
                reference = self._line_quadrature(omega, eps_k, kernel, z, tau)
                assert abs(value - reference) <= 1e-8 * abs(reference), (kernel, omega)

    def test_gaussian_dominated_width(self):
        # sigma >> 1/tau: spectral peak FWHM ~ 2.355 sigma
        sigma, tau = 2.0, 50.0
        kernel = no.GaussianKernel(0.0, sigma)
        grid = np.linspace(-8.0, 8.0, 1601)
        result = no.smeared_green(grid, 0.0, kernel, 1.0, tau)
        spectral = result.spectral
        half = spectral.max() / 2.0
        above = grid[spectral >= half]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(2.3548 * sigma, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            no.smeared_green([0.0], 0.0, no.DeltaKernel(0.0), 1.5, 1.0)
        with pytest.raises(ValueError):
            no.smeared_green([0.0], 0.0, no.DeltaKernel(0.0), 0.5, -1.0)
        with pytest.raises(ValueError):
            no.smeared_green([1.0, 0.0], 0.0, no.DeltaKernel(0.0), 0.5, 1.0)


class TestSmearedPlanck:
    def test_monotone_under_dominance_shift(self):
        nu = 2.0
        cold = no.EmpiricalKernel(points=((0.8, 0.5), (1.0, 0.5)))
        warm = no.EmpiricalKernel(points=((0.9, 0.5), (1.2, 0.5)))
        assert no.smeared_planck(nu, warm) > no.smeared_planck(nu, cold)

    def test_ptei_term(self):
        nu, T = 1.5, 1.1
        base = no.smeared_planck(nu, no.DeltaKernel(T))
        with_window = no.smeared_planck(nu, no.DeltaKernel(T), 0.3, T)
        assert with_window == pytest.approx(base * 1.3, rel=1e-14)
        with pytest.raises(ValueError):
            no.smeared_planck(nu, no.DeltaKernel(T), 0.3, None)

    def test_support_validation(self):
        with pytest.raises(no.KernelDomainError):
            no.smeared_planck(1.0, no.DeltaKernel(-1.0))
        with pytest.raises(no.KernelDomainError, match="temperature kernel has points at T <= 0"):
            no.smeared_planck(1.0, no.DeltaKernel(0.0))
        with pytest.raises(no.KernelDomainError):
            no.smeared_planck(1.0, no.GaussianKernel(0.5, 0.2))  # reaches T <= 0
        with pytest.raises(no.KernelDomainError):
            no.smeared_planck(1.0, no.EmpiricalKernel(points=((-0.1, 0.5), (1.0, 0.5))))


class TestMomentCompare:
    def test_second_order_agreement(self):
        for sigma in (0.4, 1.0, 2.3):
            arcsine, gaussian = no.moment_compare(1, sigma)
            assert arcsine == pytest.approx(sigma**2, rel=1e-15)
            assert gaussian == pytest.approx(sigma**2, rel=1e-15)

    def test_large_order_small_sigma(self):
        # (2g)! alone overflows a float from g = 86, the moment itself does not
        arcsine, gaussian = no.moment_compare(86, 0.1)
        log_gaussian = math.lgamma(173) - math.lgamma(87) + 86 * math.log(0.5 * 0.1**2)
        assert gaussian == pytest.approx(math.exp(log_gaussian), rel=1e-12)
        assert 1.1e-17 < gaussian < 1.2e-17
        assert gaussian / arcsine == pytest.approx(math.factorial(86), rel=1e-14)
        # at sigma = 1 the moment is (2g - 1)!!: below the float maximum at g = 150, above it at 151
        assert math.lgamma(301) - math.lgamma(151) - 150 * math.log(2.0) < math.log(sys.float_info.max)
        assert math.lgamma(303) - math.lgamma(152) - 151 * math.log(2.0) > math.log(sys.float_info.max)
        assert math.isfinite(no.moment_compare(150, 1.0)[1])
        with pytest.raises(ArithmeticError, match="g = 151: the Gaussian moment overflows"):
            no.moment_compare(151, 1.0)

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_quadrature_oracle(self, g):
        sigma = 0.9
        # arcsine moments via the smooth angle substitution
        span = sigma * math.sqrt(2.0)
        arcsine_quad, _ = quad(
            lambda u: (span * math.sin(u)) ** (2 * g) / math.pi, -math.pi / 2, math.pi / 2
        )
        gaussian_quad, _ = quad(
            lambda x: x ** (2 * g)
            * math.exp(-0.5 * (x / sigma) ** 2)
            / (sigma * math.sqrt(2 * math.pi)),
            -12 * sigma,
            12 * sigma,
        )
        arcsine, gaussian = no.moment_compare(g, sigma)
        assert arcsine == pytest.approx(arcsine_quad, rel=1e-8)
        assert gaussian == pytest.approx(gaussian_quad, rel=1e-8)

    def test_master_curve_definition(self):
        for x in (0.0, 1.0, 3.5):
            assert no.master_curve(x) * erfc(x) == pytest.approx(1.0, rel=1e-13)
