
import math
import warnings

import numpy as np
import pytest

from oracles import hermite_functions
from qrabi import wigner as wg
from qrabi.fockspace import SpinorFockVector, default_cutoff, ground_state
from qrabi.model import ModelParams, derived_scales


def vacuum_vector(cutoff=20):
    plus = np.zeros(cutoff + 1)
    plus[0] = 1.0
    return SpinorFockVector(plus, np.zeros(cutoff + 1), cutoff)


class TestHermite:
    def test_orthonormal_on_fine_grid(self):
        x = np.linspace(-12, 12, 4001)
        h = hermite_functions(12, x)
        gram = np.trapezoid(h[:, None, :] * h[None, :, :], x, axis=2)
        assert np.max(np.abs(gram - np.eye(13))) < 1e-8

    def test_vacuum_profile(self):
        x = np.linspace(-5, 5, 101)
        h = hermite_functions(0, x)
        np.testing.assert_allclose(
            h[0], math.pi ** -0.25 * np.exp(-0.5 * x ** 2), atol=1e-14)

    def test_streaming_sum_matches_materialized_functions(self):
        # the package sums c_n h_n(x) without storing every h_n
        coeff = np.random.default_rng(4).normal(size=(2, 31))
        x = np.linspace(-12, 12, 301)
        psi = wg.position_wavefunction(SpinorFockVector(coeff[0], coeff[1], 30), x)
        np.testing.assert_allclose(psi, coeff @ hermite_functions(30, x), rtol=0, atol=1e-12)


class TestPositionWavefunction:
    def test_vacuum(self):
        x = np.linspace(-6, 6, 201)
        psi_p, psi_m = wg.position_wavefunction(vacuum_vector(), x)
        np.testing.assert_allclose(
            psi_p, math.pi ** -0.25 * np.exp(-0.5 * x ** 2), atol=1e-12)
        assert np.all(psi_m == 0.0)

    def test_norm_on_grid(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.3, 0.8, 0.1)
        _, v = ground_state(p, default_cutoff(p))
        x = np.linspace(-15, 15, 1501)
        psi_p, psi_m = wg.position_wavefunction(v, x)
        norm = np.trapezoid(psi_p ** 2 + psi_m ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def _component_width(p, spin, x):
        _, v = ground_state(p, default_cutoff(p))
        psi = wg.position_wavefunction(v, x)[0 if spin > 0 else 1]
        w = psi ** 2 / np.trapezoid(psi ** 2, x)
        return math.sqrt(np.trapezoid(w * x ** 2, x))

    def test_squeezing_narrows_plus_and_widens_minus(self):
        # measured on the spin component that carries the weight: plus-dominant
        # below the biased transition, minus-dominant in the unbiased case
        x = np.linspace(-25, 25, 3001)
        plus = [self._component_width(
            ModelParams.from_dimensionless(1.0, 0.01, 0.0, g, 0.4), +1, x)
            for g in (0.5, 0.99)]
        assert plus[1] < plus[0]
        minus = [self._component_width(
            ModelParams.from_dimensionless(1.0, 0.01, 0.0, g, 0.0), -1, x)
            for g in (0.5, 0.99)]
        assert minus[1] > minus[0]

    def test_warns_when_grid_misses_support(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.0, 0.9, 0.0)
        _, v = ground_state(p, default_cutoff(p))
        with pytest.warns(UserWarning, match="support"):
            wg.position_wavefunction(v, np.linspace(-1.5, 1.5, 31))


class TestWigner:
    def test_vacuum_gaussian(self):
        x = np.linspace(-6, 6, 128)
        grid = wg.wigner(vacuum_vector(), x, x)
        expect = np.exp(-x[:, None] ** 2 - x[None, :] ** 2) / math.pi
        assert np.max(np.abs(grid.values_plus - expect)) < 1e-8
        assert np.max(np.abs(grid.values_minus)) == 0.0
        assert grid.total_norm() == pytest.approx(1.0, abs=1e-3)

    def test_squeezed_displaced_oracle(self):
        # Omega = 0, spin-minus branch: W = exp(-vpm (x-b)^2 - p^2/vpm)/pi
        p = ModelParams(omega=1.0, Omega=0.0, g1=0.3, g2=0.9 * 0.25)
        sc = derived_scales(p)
        _, v = ground_state(p, default_cutoff(p))
        x, pax = wg.default_grid(p, 192)
        grid = wg.wigner(v, x, pax, params=p)
        oracle = np.exp(-sc.varpi_minus * (x[:, None] - sc.b_minus) ** 2
                        - pax[None, :] ** 2 / sc.varpi_minus) / math.pi
        assert np.max(np.abs(grid.values_minus - oracle)) < 1e-6
        assert np.max(np.abs(grid.values_plus)) < 1e-12

    def test_normalization_and_marginals(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.2, 0.9, 0.0)
        _, v = ground_state(p, default_cutoff(p))
        x, pax = wg.default_grid(p, 192)
        grid = wg.wigner(v, x, pax, params=p)
        assert grid.total_norm() == pytest.approx(1.0, abs=1e-3)
        psi_p, psi_m = wg.position_wavefunction(v, x)
        assert np.max(np.abs(grid.marginal_x(+1) - psi_p ** 2)) < 1e-3
        assert np.max(np.abs(grid.marginal_x(-1) - psi_m ** 2)) < 1e-3

    def test_parity_symmetry_unbiased(self):
        # g1 = eps = 0: W(x, p) = W(-x, -p)
        p = ModelParams.from_dimensionless(1.0, 0.5, 0.0, 0.8, 0.0)
        _, v = ground_state(p, default_cutoff(p))
        x = np.linspace(-8, 8, 96)
        grid = wg.wigner(v, x, x, params=p)
        for w in (grid.values_plus, grid.values_minus):
            assert np.max(np.abs(w - w[::-1, ::-1])) < 1e-8

    def test_interference_fringes_near_finite_Omega_transition(self):
        # strongly mixed squeezed state shows Wigner negativity
        p = ModelParams(omega=1.0, Omega=1.0, g2=0.9942 * 0.25)
        _, v = ground_state(p, default_cutoff(p))
        x, pax = wg.default_grid(p, 128)
        grid = wg.wigner(v, x, pax, params=p)
        assert grid.values_minus.min() < -1e-3 * grid.values_minus.max()

    def test_quadrature_convergence_error_on_truncated_grid(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.0, 0.99, 0.0)
        _, v = ground_state(p, default_cutoff(p))
        x = np.linspace(-2.0, 2.0, 64)  # far too small for 1/sqrt(0.1) spread
        with pytest.raises(wg.QuadratureError):
            wg.wigner(v, x, x)

    def test_grid_note_recorded_when_support_missed(self):
        # reported once, as a note, and not also as a warning
        p = ModelParams(omega=1.0, Omega=1.0)
        _, v = ground_state(p, default_cutoff(p))
        x = np.linspace(-3.0, 3.0, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = wg.wigner(v, x, x)
        assert grid.notes == ("x grid does not cover the wavefunction support",)

    def test_rejects_degenerate_axes(self):
        with pytest.raises(ValueError):
            wg.wigner(vacuum_vector(), np.array([0.0]), np.array([0.0, 1.0]))


def test_amplitude_scaled_display_transform():
    w = np.array([[-16.0, 0.0], [1.0, 81.0]])
    out = wg.amplitude_scaled(w)
    np.testing.assert_allclose(out, [[-2.0, 0.0], [1.0, 3.0]])


def test_default_grid_covers_displacement():
    p = ModelParams(omega=1.0, Omega=0.01, g1=0.3, g2=0.9 * 0.25)
    sc = derived_scales(p)
    x, pax = wg.default_grid(p)
    assert x[-1] >= 2 * sc.b_minus
    assert len(x) == wg.DEFAULT_POINTS
