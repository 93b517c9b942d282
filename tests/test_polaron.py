import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import linregress

from oracles import norm_squared
from qrabi import polaron
from qrabi.model import ModelParams, derived_scales, transition_bias


def params(Omega=0.01, gbar1=0.0, gbar2=0.0, epsilon=0.0, omega=1.0):
    return ModelParams.from_dimensionless(omega, Omega, gbar1, gbar2, epsilon)


class TestOverlapS:
    def test_uncoupled_is_half_Omega(self):
        assert polaron.overlap_S(params(Omega=0.4)) == pytest.approx(0.2, rel=1e-14)

    def test_printed_squeezing_only_form(self):
        # S^2 = w2^(1/2) Omega^2 / (4 wbar) at g1 = 0
        p = params(Omega=0.01, gbar2=0.7)
        sc = derived_scales(p)
        assert polaron.overlap_S(p) ** 2 == pytest.approx(
            math.sqrt(sc.w2) * p.Omega ** 2 / (4.0 * sc.w_bar), rel=1e-12)

    def test_quadrature_oracle(self):
        p = params(Omega=0.01, gbar1=1.0, gbar2=0.9)
        sc = derived_scales(p)

        def phi(xi, m):
            return lambda x: (xi ** 0.25 * math.exp(-0.5 * xi * (x - m) ** 2)
                              / math.pi ** 0.25)

        integral, err = quad(
            lambda x: phi(sc.varpi_plus, -sc.b_plus)(x)
            * phi(sc.varpi_minus, sc.b_minus)(x), -60, 60,
            limit=800, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        assert polaron.overlap_S(p) == pytest.approx(
            0.5 * p.Omega * integral, abs=1e-11)

    def test_bounded_by_half_Omega(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = params(Omega=rng.uniform(0.001, 1.0),
                       gbar1=rng.uniform(0, 2), gbar2=rng.uniform(0, 0.99),
                       epsilon=rng.uniform(-0.5, 0.5))
            s = polaron.overlap_S(p)
            assert 0.0 < s <= 0.5 * p.Omega + 1e-15


class TestTwoLevelReduce:
    def test_degenerate_uncoupled_point(self):
        red = polaron.two_level_reduce(params(Omega=0.3))
        assert red.e_minus == pytest.approx(0.0, abs=1e-15)
        assert red.gap == pytest.approx(0.3, rel=1e-12)
        assert red.c_plus ** 2 == pytest.approx(0.5, rel=1e-12)
        assert red.c_minus ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_equal_weights_at_transition(self):
        p = params(Omega=0.01, gbar1=0.4, gbar2=0.8)
        p = p.replace(epsilon=transition_bias(p))
        red = polaron.two_level_reduce(p)
        assert red.c_plus ** 2 == pytest.approx(0.5, rel=1e-9)

    def test_weight_normalization_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = params(Omega=rng.uniform(1e-4, 1.0), gbar1=rng.uniform(0, 1.5),
                       gbar2=rng.uniform(0, 0.995),
                       epsilon=rng.uniform(-0.6, 0.6))
            red = polaron.two_level_reduce(p)
            assert red.c_plus ** 2 + red.c_minus ** 2 == pytest.approx(1.0, rel=1e-10)

    def test_e_minus_matches_branch_energies(self):
        p = params(Omega=0.05, gbar1=0.7, gbar2=0.6, epsilon=0.21)
        eps_p, eps_m = polaron.single_particle_energies(p)
        red = polaron.two_level_reduce(p)
        assert red.e_minus == pytest.approx(0.5 * (eps_p - eps_m), rel=1e-12)
        assert red.e_plus == pytest.approx(0.5 * (eps_p + eps_m), rel=1e-12)

    def test_gap_reduction_vs_ed_across_sweep(self):
        # Omega = 0.01, eps = 0.33, g1 = 0.1 gs: within 5% before/after transition
        from qrabi.fockspace import default_cutoff, gap_ed
        for gbar2 in (0.4, 0.8, 0.97):
            p = params(Omega=0.01, gbar1=0.1, gbar2=gbar2, epsilon=0.33)
            assert polaron.gap_analytic(p) == pytest.approx(
                gap_ed(p, default_cutoff(p)), rel=0.05)


class TestAdiabaticAnsatz:
    def test_packets_follow_potentials(self):
        p = params(Omega=0.01, gbar1=0.8, gbar2=0.5)
        sc = derived_scales(p)
        a = polaron.adiabatic_ansatz(p)
        assert a.n_p == 1
        assert a.packets_plus[0].xi == pytest.approx(sc.varpi_plus)
        assert a.packets_plus[0].center == pytest.approx(-sc.b_plus)
        assert a.packets_minus[0].xi == pytest.approx(sc.varpi_minus)
        assert a.packets_minus[0].center == pytest.approx(sc.b_minus)

    def test_normalized(self):
        a = polaron.adiabatic_ansatz(params(Omega=0.05, gbar1=0.3, gbar2=0.7,
                                            epsilon=0.1))
        assert norm_squared(a) == pytest.approx(1.0, rel=1e-10)


class TestDerivativeChain:
    @pytest.mark.parametrize("gbar1,gbar2,eps", [
        (0.0, 0.3, 0.0), (0.8, 0.85, 0.2), (1.5, 0.6, -0.1), (0.3, 0.97, 0.33),
    ])
    def test_closed_forms_match_numerical(self, gbar1, gbar2, eps):
        h = 1e-6

        def at(g):
            return params(Omega=0.01, gbar1=gbar1, gbar2=g, epsilon=eps)

        p = at(gbar2)
        num_e = (polaron.two_level_reduce(at(gbar2 + h)).e_minus
                 - polaron.two_level_reduce(at(gbar2 - h)).e_minus) / (2 * h)
        num_s = (polaron.overlap_S(at(gbar2 + h))
                 - polaron.overlap_S(at(gbar2 - h))) / (2 * h)
        assert polaron._e_minus_prime_bar(p) == pytest.approx(num_e, rel=1e-8)
        assert polaron._s_omega_prime_bar(p) == pytest.approx(num_s, rel=1e-7)


class TestQfiAnalytic:
    def test_degeneracy_lifting_limits(self):
        # at gbar2 = 0, g1 = eps = 0: F_xi = 1/(8 gT^2), F_rho = omega^2/(4 Omega^2 gT^2)
        p = params(Omega=0.01)
        br = polaron.qfi_analytic(p)
        gt2 = 0.0625
        assert br.components["xi"] == pytest.approx(1.0 / (8.0 * gt2), rel=1e-12)
        assert br.components["rho"] == pytest.approx(1.0 / (4.0 * 1e-4 * gt2),
                                                     rel=1e-12)
        assert br.components["x"] == 0.0

    def test_total_is_component_sum_with_zero_mixed(self):
        br = polaron.qfi_analytic(params(Omega=0.005, gbar1=0.6, gbar2=0.8,
                                         epsilon=0.1))
        assert br.method == "analytic"
        assert br.components["xi_x"] == 0.0
        assert br.components["xi_rho"] == 0.0
        assert br.components["x_rho"] == 0.0
        assert br.total == br.components["xi"] + br.components["x"] + \
            br.components["rho"]

    def test_leading_order_squeeze_displace_form(self):
        # eps = 0, c_minus ~ 1: total ~ [1/(8(1-g)^2) + gbar1^2 (Om/om)/(1-g)^(7/2)]/gT^2
        p = params(Omega=0.001, gbar1=0.5, gbar2=0.9)
        sc = derived_scales(p)
        expect = (1.0 / (8.0 * (1 - 0.9) ** 2)
                  + 0.25 * p.Omega / (1 - 0.9) ** 3.5) / sc.gT ** 2
        assert polaron.qfi_analytic(p).total == pytest.approx(expect, rel=1e-4)

    def test_rho_equals_compact_form(self):
        # 4 (B+' B- - B+ B-')^2 / (B+^2+B-^2)^2 == (e' S - e S')^2 / R^4
        for gbar2, eps in ((0.5, 0.1), (0.9, 0.0), (0.95, 0.3)):
            p = params(Omega=0.01, gbar1=0.7, gbar2=gbar2, epsilon=eps)
            sc = derived_scales(p)
            red = polaron.two_level_reduce(p)
            ds = polaron._s_omega_prime_bar(p) / sc.gT
            de = polaron._e_minus_prime_bar(p) / sc.gT
            r2 = red.e_minus ** 2 + red.s_omega ** 2
            compact = (de * red.s_omega - red.e_minus * ds) ** 2 / r2 ** 2
            assert polaron.qfi_analytic(p).components["rho"] == pytest.approx(
                compact, rel=1e-10)

    def test_universality_of_log_qfi(self):
        # ln F_Q at g1 = eps = 0 coincides across Omega within 3% on [0.6, 0.99]
        grid = np.linspace(0.6, 0.99, 25)
        curves = np.array([
            [math.log(polaron.qfi_analytic(params(Omega=om, gbar2=g)).total)
             for g in grid]
            for om in (1e-4, 1e-3, 1e-2)])
        mean = curves.mean(axis=0)
        assert np.max(np.abs(curves - mean) / np.abs(mean)) < 0.03


class TestPeakComponents:
    def test_matches_qfi_analytic_at_located_transition(self):
        p = params(Omega=0.001, gbar1=0.5, gbar2=0.99)
        peaks = polaron.qfi_peak_components(p)
        at_peak = polaron.qfi_analytic(p.replace(epsilon=transition_bias(p)))
        assert peaks.f_xi_max == pytest.approx(at_peak.components["xi"], rel=1e-6)
        assert peaks.f_x_max == pytest.approx(at_peak.components["x"], rel=1e-6)
        assert peaks.f_rho_max == pytest.approx(at_peak.components["rho"], rel=1e-6)

    def test_squeezing_transition_special_case(self):
        # gbar1 = 0: F_rho_max = wbar^3 omega^2 / (4 (1-g^2)^(5/4) Omega^2 gT^2)
        p = params(Omega=0.01, gbar2=0.9)
        sc = derived_scales(p)
        peaks = polaron.qfi_peak_components(p)
        expect = (sc.w_bar ** 3 / (4.0 * (1 - 0.81) ** 1.25 * p.Omega ** 2)
                  / sc.gT ** 2)
        assert peaks.f_rho_max == pytest.approx(expect, rel=1e-12)

    def test_zero_coupling_limit(self):
        peaks = polaron.qfi_peak_components(params(Omega=0.01, gbar2=1e-9))
        assert peaks.f_xi_max == pytest.approx(1.0 / (8.0 * 0.0625), rel=1e-6)

    def test_requires_finite_Omega(self):
        with pytest.raises(ValueError):
            polaron.qfi_peak_components(ModelParams(omega=1.0, g2=0.1))


class TestExponentFit:
    def test_synthetic_power_law_is_exact(self):
        g = np.linspace(0.9, 0.99, 15)
        fit = polaron.fit_critical_exponent(g, (1 - g) ** -2.0)
        assert fit.gamma == pytest.approx(2.0, abs=1e-12)
        assert fit.stderr < 1e-12

    def test_squeezing_exponent(self):
        g = polaron.exponent_samples((0.9, 0.99), 20)
        f = [polaron.qfi_analytic(params(Omega=0.001, gbar2=x)).components["xi"]
             for x in g]
        fit = polaron.fit_critical_exponent(g, f)
        assert abs(fit.gamma - 2.0) < 0.1

    def test_displacement_exponent(self):
        g = polaron.exponent_samples((0.9, 0.99), 20)
        f = [polaron.qfi_analytic(params(Omega=0.001, gbar1=0.5, gbar2=x))
             .components["x"] for x in g]
        fit = polaron.fit_critical_exponent(g, f)
        assert abs(fit.gamma - 3.5) < 0.1

    def test_weight_transfer_exponent_approaches_7_4(self):
        # gamma_rho carries strong subleading corrections; the fit approaches
        # 7/4 only deep in the critical window
        fits = []
        for window in ((0.99, 0.999), (0.999, 0.9999)):
            g = polaron.exponent_samples(window, 20)
            f = [polaron.qfi_analytic(params(Omega=1e-4, gbar2=x)).components["rho"]
                 for x in g]
            fits.append(polaron.fit_critical_exponent(g, f, window).gamma)
        assert abs(fits[-1] - 1.75) < 0.05
        assert abs(fits[-1] - 1.75) < abs(fits[0] - 1.75)

    def test_matches_linregress_oracle_bitwise(self):
        rng = np.random.default_rng(41)
        samples = []
        for _ in range(200):
            g = np.sort(rng.uniform(0.9, 0.99, int(rng.integers(8, 41))))
            noise = rng.normal(scale=10.0 ** rng.uniform(-8.0, 0.0), size=g.size)
            samples.append((g, rng.uniform(0.1, 10.0) * (1 - g) ** -rng.uniform(0.5, 4.0)
                            * np.exp(noise)))
        g = polaron.exponent_samples()
        samples.append((g, (1 - g) ** -1.75))
        for g, f in samples:
            fit = polaron.fit_critical_exponent(g, f)
            ref = linregress(np.log(1.0 - g), np.log(f))
            assert np.float64(fit.gamma).tobytes() == np.float64(-ref.slope).tobytes()
            assert np.float64(fit.stderr).tobytes() == np.float64(ref.stderr).tobytes()

    def test_constant_values_match_linregress(self):
        g = polaron.exponent_samples()
        f = np.ones(g.size)     # ln F = 0 exactly: zero variance, undefined r
        fit = polaron.fit_critical_exponent(g, f)
        ref = linregress(np.log(1.0 - g), np.log(f))
        assert fit.gamma == -ref.slope == 0.0
        assert math.isnan(fit.stderr) and math.isnan(ref.stderr)

    def test_identical_gbar2_rejected_like_linregress(self):
        g = np.full(12, 0.95)
        f = (1 - g) ** -2.0
        with pytest.raises(ValueError):
            linregress(np.log(1.0 - g), np.log(f))
        with pytest.raises(ValueError):
            polaron.fit_critical_exponent(g, f)

    def test_rejects_sparse_window(self):
        g = np.linspace(0.9, 0.99, 5)
        with pytest.raises(ValueError):
            polaron.fit_critical_exponent(g, (1 - g) ** -2.0)

    def test_rejects_nonpositive_values(self):
        g = np.linspace(0.9, 0.99, 12)
        vals = (1 - g) ** -2.0
        vals[3] = 0.0
        with pytest.raises(ValueError):
            polaron.fit_critical_exponent(g, vals)

    def test_rejects_bad_window(self):
        g = np.linspace(0.9, 0.99, 12)
        with pytest.raises(ValueError):
            polaron.fit_critical_exponent(g, (1 - g) ** -2.0, window=(0.99, 0.9))
