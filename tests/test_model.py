import math

import numpy as np
import pytest

from oracles import effective_potential_direct
from qrabi.model import (CollapseBoundError, ModelParams, NoTransitionError,
                         derived_scales, effective_potential, low_freq_boundary,
                         transition_bias, transition_g1)


def test_uncoupled_scales():
    sc = derived_scales(ModelParams(omega=1.0, Omega=0.01))
    assert sc.gT == 0.25
    assert sc.gs == 0.05
    assert sc.varpi_plus == 1.0 and sc.varpi_minus == 1.0
    assert sc.b_plus == 0.0 and sc.b_minus == 0.0
    assert sc.d_plus == 0.0 and sc.d_minus == 0.0


def test_squeezed_branch_frequency():
    p = ModelParams(omega=1.0, Omega=0.01, g2=0.9 * 0.25)
    sc = derived_scales(p)
    assert sc.varpi_minus == pytest.approx(math.sqrt(0.1), rel=1e-12)


def test_gbar1_convention():
    # omega=1, Omega=0.01, g1=0.05 = gs: gbar1 = 1 and g1' = sqrt(2)*0.05
    sc = derived_scales(ModelParams(omega=1.0, Omega=0.01, g1=0.05))
    assert sc.gbar1 == pytest.approx(1.0, rel=1e-12)
    assert sc.g1prime == pytest.approx(math.sqrt(2.0) * 0.05, rel=1e-12)


def test_gbar1_matches_energy_shift():
    # completing the square: d_pm must equal -gbar1^2 Omega / (4 (1 pm gbar2))
    p = ModelParams(omega=1.3, Omega=0.2, g1=0.11, g2=0.07)
    sc = derived_scales(p)
    for sign, d in ((+1, sc.d_plus), (-1, sc.d_minus)):
        assert d == pytest.approx(
            -sc.gbar1 ** 2 * p.Omega / (4.0 * (1.0 + sign * sc.gbar2)), rel=1e-12)


@pytest.mark.parametrize("spin", [+1, -1])
def test_potential_forms_agree(spin):
    rng = np.random.default_rng(7)
    for _ in range(5):
        omega = rng.uniform(0.5, 2.0)
        p = ModelParams(omega=omega, Omega=rng.uniform(0.0, 1.0),
                        g1=rng.uniform(-0.5, 0.5),
                        g2=rng.uniform(0.0, 0.99) * omega / 4.0,
                        epsilon=rng.uniform(-0.5, 0.5))
        x = rng.uniform(-8.0, 8.0, size=100)
        a = effective_potential(p, spin, x)
        b = effective_potential_direct(p, spin, x)
        scale = np.max(np.abs(b)) + 1.0
        assert np.max(np.abs(a - b)) < 1e-12 * scale


def test_potential_trivial_values():
    p = ModelParams(omega=1.0, Omega=0.0)
    assert effective_potential(p, +1, 0.0) == pytest.approx(-0.5)
    p = ModelParams(omega=1.0, Omega=0.0, g2=0.9 * 0.25)
    assert effective_potential(p, -1, 1.0) == pytest.approx(0.5 * 0.1 - 0.5)


@pytest.mark.parametrize("bad", [
    dict(omega=0.0), dict(omega=-1.0), dict(omega=1.0, Omega=-0.1),
    dict(omega=1.0, g2=math.nan),
])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        ModelParams(**bad)


@pytest.mark.parametrize("g2", [0.25, 0.3, -0.01])
def test_collapse_bound(g2):
    with pytest.raises(CollapseBoundError):
        ModelParams(omega=1.0, g2=g2)


def test_from_dimensionless_round_trip():
    p = ModelParams.from_dimensionless(1.0, 0.04, gbar1=0.7, gbar2=0.6,
                                       epsilon=0.2)
    sc = derived_scales(p)
    assert sc.gbar1 == pytest.approx(0.7, rel=1e-12)
    assert sc.gbar2 == pytest.approx(0.6, rel=1e-12)


class TestTransitionBias:
    def test_exact_square_roots(self):
        # gbar2 = 0.96: sqrt(1.96) - sqrt(0.04) = 1.4 - 0.2
        p = ModelParams.from_dimensionless(1.0, 0.5, 0.0, 0.96)
        assert transition_bias(p) == pytest.approx(0.25 * 1.2, rel=1e-12)

    def test_vanishes_at_zero_coupling(self):
        p = ModelParams(omega=1.0, Omega=0.5)
        assert transition_bias(p) == 0.0

    def test_monotone_in_gbar2(self):
        values = [transition_bias(ModelParams.from_dimensionless(1.0, 0.1, 0.4, g))
                  for g in np.linspace(0.05, 0.95, 40)]
        assert np.all(np.diff(values) > 0)

    def test_ignores_stored_bias(self):
        a = ModelParams.from_dimensionless(1.0, 0.1, 0.4, 0.5, epsilon=0.0)
        b = ModelParams.from_dimensionless(1.0, 0.1, 0.4, 0.5, epsilon=0.3)
        assert transition_bias(a) == transition_bias(b)


class TestTransitionG1:
    def test_inverse_of_transition_bias(self):
        p = ModelParams.from_dimensionless(1.0, 0.05, 0.7, 0.8)
        eps = transition_bias(p)
        back = transition_g1(p.replace(epsilon=eps))
        assert back == pytest.approx(0.7, rel=1e-12)

    def test_round_trip_over_bias_domain(self):
        base = ModelParams.from_dimensionless(1.0, 0.02, 0.0, 0.85)
        threshold = transition_bias(base)
        for eps in np.linspace(threshold, threshold + 0.4, 17):
            gbar1 = transition_g1(base.replace(epsilon=float(eps)))
            forward = transition_bias(
                ModelParams.from_dimensionless(1.0, 0.02, gbar1, 0.85))
            assert forward == pytest.approx(eps, rel=1e-12)

    def test_below_threshold_is_error(self):
        base = ModelParams.from_dimensionless(1.0, 0.02, 0.0, 0.85)
        eps = transition_bias(base) - 1e-3
        with pytest.raises(NoTransitionError):
            transition_g1(base.replace(epsilon=eps))

    def test_requires_finite_omega_qubit(self):
        with pytest.raises(NoTransitionError):
            transition_g1(ModelParams(omega=1.0, Omega=0.0, g2=0.1,
                                      epsilon=0.4))


class TestLowFreqBoundary:
    def test_zero_bias(self):
        assert low_freq_boundary(0.6, 0.0, 1.0) == pytest.approx(0.8)

    def test_closes_at_collapse(self):
        assert low_freq_boundary(1.0 - 1e-12, 0.33, 1.0) == pytest.approx(
            0.0, abs=1e-5)

    def test_singular_at_zero_coupling(self):
        with pytest.raises(ValueError):
            low_freq_boundary(0.0, 0.1, 1.0)
