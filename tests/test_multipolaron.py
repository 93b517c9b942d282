import dataclasses

import numpy as np
import pytest

from qrabi import multipolaron as mp
from qrabi import polaron
from qrabi.fockspace import default_cutoff, ground_state
from qrabi.model import ModelParams


# The benchmark's 4 x 4 variational grid at seed 0 (gbar1 = 0.5, epsilon = 0).
GRID = [(Omega, gbar2) for Omega in (0.1, 0.3, 1.0, 3.0)
        for gbar2 in np.linspace(0.1, 0.9, 4)]


def grid_point(Omega, gbar2):
    return ModelParams.from_dimensionless(1.0, Omega, 0.5, gbar2, 0.0)


def stencil_qfi(p, h):
    """Test-only oracle: central differences of the re-optimized ansatz at g2 +- h.

    Each side is minimized from the optimum at g2, then taken to round-off by
    plain Newton steps: along the flattest directions (curvature 2e-7 at
    Omega = 3, gbar2 = 0.1) any gradient left over moves the optimum by more
    than h times its response allows. xi, centers and weights are differenced
    and fed to the same closed-form brackets. Callers tighten GRAD_TOL_FACTOR.
    Returns the total and the six components.
    """
    theta0 = mp._ansatz_theta(mp.variational_ground(p).ansatz)
    v0 = mp._expand(theta0, p).weights
    sides = []
    for sgn in (-1.0, 1.0):
        q = p.replace(g2=p.g2 + sgn * h)
        theta, point = mp._minimize(q, theta0.copy())
        assert mp._relative_grad_norm(point) <= mp.GRAD_TOL_FACTOR * p.omega
        for _ in range(2):
            theta = theta - np.linalg.solve(point.hess[:8, :8], point.grad[:8])
            point = mp._expand(theta, q)
        sides.append((theta, point.weights))
    (theta_m, v_m), (theta_p, v_p) = sides
    dxi = (np.exp(theta_p[0::2]) - np.exp(theta_m[0::2])) / (2 * h)
    dm = (theta_p[1::2] - theta_m[1::2]) / (2 * h)
    brackets, _ = mp._brackets(mp._unpack(theta0), v0, dxi, dm, (v_p - v_m) / (2 * h))
    components = {a if a == b else f"{a}_{b}": (4.0 if a == b else 8.0) * v
                  for (a, b), v in brackets.items()}
    return sum(components.values()), components


def gradient_difference(theta, p, h=1e-5):
    """Central differences of the analytic shape gradient: d2E/dtheta2 oracle."""
    rows = []
    for i in range(8):
        step = np.zeros(8)
        step[i] = h
        rows.append((mp._expand(theta + step, p).grad[:8]
                     - mp._expand(theta - step, p).grad[:8]) / (2 * h))
    return np.array(rows)


def crossover_point():
    """Omega = omega crossover regime: both spins populated, packets visible."""
    return ModelParams(omega=1.0, Omega=1.0, g1=0.1, g2=0.95 * 0.25,
                       epsilon=0.33)


class TestVariationalGround:
    def test_zero_tunneling_reduces_to_adiabatic(self):
        p = ModelParams(omega=1.0, Omega=0.0, g1=0.1, g2=0.15, epsilon=0.05)
        res = mp.variational_ground(p)
        eps_p, eps_m = polaron.single_particle_energies(p)
        assert res.energy == pytest.approx(min(eps_p, eps_m), abs=1e-12)
        weights = np.abs([pk.weight for pk in
                          (*res.ansatz.packets_plus, *res.ansatz.packets_minus)])
        dominant = np.argmax(weights)
        assert weights[dominant] == pytest.approx(1.0, abs=1e-10)
        assert np.sum(np.delete(weights, dominant) ** 2) < 1e-12

    def test_small_Omega_energy_close_to_ed(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.5, 0.9, 0.2)
        res = mp.variational_ground(p)
        e_ed, _ = ground_state(p, default_cutoff(p))
        assert res.energy - e_ed >= -1e-10          # variational bound
        assert abs(res.energy - e_ed) < 1e-4 * p.omega

    def test_finite_Omega_energy_within_one_percent(self):
        p = crossover_point()
        res = mp.variational_ground(p)
        e_ed, _ = ground_state(p, default_cutoff(p))
        assert res.energy >= e_ed - 1e-10
        assert abs(res.energy - e_ed) / abs(e_ed) < 0.01

    def test_two_visible_packets_per_spin(self):
        res = mp.variational_ground(crossover_point())
        for packets in (res.ansatz.packets_plus, res.ansatz.packets_minus):
            assert len(packets) == 2
            assert all(abs(pk.weight) > 0.01 for pk in packets)
            # distinct shapes: no collapse
            assert (abs(packets[0].center - packets[1].center) > 1e-3
                    or abs(packets[0].xi - packets[1].xi) > 1e-3)

    def test_variational_bound_across_regimes(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            p = ModelParams(omega=1.0, Omega=rng.uniform(0.2, 1.2),
                            g1=rng.uniform(0.0, 0.15),
                            g2=rng.uniform(0.1, 0.9) * 0.25,
                            epsilon=rng.uniform(0.0, 0.4))
            res = mp.variational_ground(p)
            e_ed, _ = ground_state(p, default_cutoff(p))
            assert res.energy >= e_ed - 1e-10

    def test_anti_polaron_weight_smaller_at_finite_displacement(self):
        # polarized displaced regime: minus-spin polaron dominates its anti-polaron
        p = ModelParams.from_dimensionless(1.0, 1.0, 1.0, 0.9, 0.0)
        res = mp.variational_ground(p)
        minus = sorted(res.ansatz.packets_minus, key=lambda pk: pk.center)
        # the packet nearer the minus potential bottom (positive x) is the polaron
        anti_pk, polaron_pk = minus[0], minus[-1]
        assert abs(anti_pk.weight) < abs(polaron_pk.weight)

    def test_nonconvergence_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(mp, "GRAD_TOL_FACTOR", 1e-18)
        with pytest.raises(mp.VariationalError, match="gradient norm"):
            mp.variational_ground(crossover_point())

    def test_normalization_and_gradient(self):
        res = mp.variational_ground(crossover_point())
        assert res.ansatz.norm_squared() == pytest.approx(1.0, abs=1e-10)
        assert res.grad_norm < 1e-9

    def test_deterministic(self):
        p = crossover_point()
        a = mp.variational_ground(p)
        b = mp.variational_ground(p)
        assert a.energy == b.energy


class TestQfiDecomposeMulti:
    def test_small_Omega_limit_matches_polaron(self):
        # xi, x and the vanishing mixed terms reduce to the n_p = 1 analytic
        # values. rho, ~1e-6 of the total, has an n_p = 2 limit of its own,
        # 4.5 % below the n_p = 1 value: the minority spin's second packet
        # carries a fifth of that spin's amplitude at every small Omega.
        # Reaching the same limit at three Omega tests that the nearly empty
        # spin's packets are converged.
        ratios = []
        for Omega in (1e-3, 1e-4, 1e-5):
            p = ModelParams.from_dimensionless(1.0, Omega, 0.5, 0.9, 0.0)
            bd = mp.qfi_decompose_multi(p)
            an = polaron.qfi_analytic(p)
            mixed = (abs(bd.components["xi_x"]) + abs(bd.components["xi_rho"])
                     + abs(bd.components["x_rho"]))
            assert mixed / bd.total < 1e-6
            assert bd.components["xi"] == pytest.approx(an.components["xi"], rel=0.01)
            assert bd.components["x"] == pytest.approx(an.components["x"], rel=0.01)
            ratios.append(bd.components["rho"] / an.components["rho"])
        assert max(ratios) - min(ratios) < 2e-3
        assert 0.95 < ratios[0] < 0.96

    def test_total_is_sum_of_six(self):
        bd = mp.qfi_decompose_multi(crossover_point())
        assert bd.method == "multipolaron"
        assert bd.total == pytest.approx(sum(bd.components.values()), rel=1e-12)
        assert set(bd.components) == {"xi", "x", "rho", "xi_x", "xi_rho", "x_rho"}

    def test_tracks_ed_after_finite_Omega_transition(self):
        # Omega = omega, eps = 0.33, g1 = 0.1: past the sigma_z crossover
        from qrabi.qfi_ed import qfi_ed
        for gbar2 in (0.97, 0.98):
            p = ModelParams(omega=1.0, Omega=1.0, g1=0.1, g2=gbar2 * 0.25,
                            epsilon=0.33)
            bd = mp.qfi_decompose_multi(p)
            fe = qfi_ed(p, lam="g2").total
            assert abs(bd.total - fe) / fe < 0.10

    def test_intra_polaron_mixed_integrals_vanish(self):
        # same-packet <dphi/dxi|dphi/dm>, <dphi/dxi|phi>, <dphi/dm|phi> are exact zeros
        from qrabi import gaussians
        res = mp.variational_ground(crossover_point())
        for packets in (res.ansatz.packets_plus, res.ansatz.packets_minus):
            for pk in packets:
                assert gaussians.braket_dxi_dm(pk.xi, pk.center, pk.xi, pk.center) == 0.0
                assert gaussians.braket_dxi_phi(pk.xi, pk.center, pk.xi, pk.center) == 0.0
                assert gaussians.braket_dm_phi(pk.xi, pk.center, pk.xi, pk.center) == 0.0

    def test_intra_terms_lead(self):
        bd, split = mp.qfi_decompose_multi(crossover_point(), return_split=True)
        for key in ("xi", "x", "rho"):
            assert abs(split[key]["intra"]) >= abs(split[key]["inter"])
            assert split[key]["intra"] + split[key]["inter"] == pytest.approx(
                bd.components[key], rel=1e-9)


class TestExactDerivatives:
    @pytest.mark.parametrize("Omega,gbar2", GRID[::5])
    def test_gradient_matches_energy_differences(self, Omega, gbar2):
        # the stencil oracle's optimum is where this gradient vanishes
        p = grid_point(Omega, gbar2)
        theta = (mp._ansatz_theta(mp.variational_ground(p).ansatz)
                 + np.random.default_rng(3).normal(scale=0.05, size=8))
        grad = mp._expand(theta, p).grad[:8]
        h = 1e-3
        energy = [[mp._expand(theta + k * h * e, p).energy for k in (-2, -1, 1, 2)]
                  for e in np.eye(8)]
        diff = [(em2 - 8 * em1 + 8 * ep1 - ep2) / (12 * h) for em2, em1, ep1, ep2 in energy]
        assert np.abs(grad - diff).max() < 1e-7 * np.abs(grad).max()

    @pytest.mark.parametrize("Omega,gbar2", GRID[::5] + [(0.3, 0.1)])
    def test_hessian_matches_gradient_differences(self, Omega, gbar2):
        p = grid_point(Omega, gbar2)
        theta0 = mp._ansatz_theta(mp.variational_ground(p).ansatz)
        rng = np.random.default_rng(int(100 * Omega + 10 * gbar2))
        for _ in range(2):
            theta = theta0 + rng.normal(scale=0.05, size=8)
            hess = mp._expand(theta, p).hess[:8, :8]
            oracle = gradient_difference(theta, p)
            assert np.abs(hess - oracle).max() < 1e-7 * np.abs(hess).max()

    @pytest.mark.parametrize("Omega,gbar2", GRID[::5])
    def test_g2_derivatives_match_differences(self, Omega, gbar2):
        # dE/dg2, d(grad E)/dg2 and the weight response, all at fixed theta
        p = grid_point(Omega, gbar2)
        theta = (mp._ansatz_theta(mp.variational_ground(p).ansatz)
                 + np.random.default_rng(5).normal(scale=0.05, size=8))
        point = mp._expand(theta, p)
        h = 1e-6
        plus = mp._expand(theta, p.replace(g2=p.g2 + h))
        minus = mp._expand(theta, p.replace(g2=p.g2 - h))
        assert point.grad[8] == pytest.approx((plus.energy - minus.energy) / (2 * h),
                                              rel=1e-7)
        assert np.abs(point.hess[:8, 8] - (plus.grad[:8] - minus.grad[:8]) / (2 * h)).max() \
            < 1e-6 * np.abs(point.hess[:8, 8]).max()
        assert np.abs(point.response[8] - (plus.weights - minus.weights) / (2 * h)).max() \
            < 1e-6 * np.abs(point.response[8]).max()

    def test_weight_response_matches_differences(self):
        p = crossover_point()
        theta = mp._ansatz_theta(mp.variational_ground(p).ansatz) + 0.02
        point = mp._expand(theta, p)
        h = 1e-6
        for i in range(8):
            step = np.zeros(8)
            step[i] = h
            diff = (mp._expand(theta + step, p).weights
                    - mp._expand(theta - step, p).weights) / (2 * h)
            assert np.abs(point.response[i] - diff).max() < 1e-7

    def test_flat_direction_that_moves_psi_raises(self):
        point = mp._expand(mp._seed_theta(crossover_point()), crossover_point())
        hess = point.hess.copy()
        hess[:8, :8] = np.diag([0.0] + [1.0] * 7)  # theta[0] flat, and it moves psi
        with pytest.raises(mp.VariationalError, match="not isolated"):
            mp._shape_response(dataclasses.replace(point, hess=hess))

    def test_gauge_direction_is_left_out(self):
        # a flat direction along which psi does not move gets no response
        point = mp._expand(mp._seed_theta(crossover_point()), crossover_point())
        hess = point.hess.copy()
        hess[:8, :8] = np.diag([0.0] + [1.0] * 7)
        hess[:8, 8] = 1.0
        metric = point.metric.copy()
        metric[0, :] = metric[:, 0] = 0.0
        dtheta = mp._shape_response(dataclasses.replace(point, hess=hess, metric=metric))
        assert dtheta[0] == 0.0
        assert np.allclose(dtheta[1:], -1.0)


class TestQfiOracle:
    @pytest.mark.parametrize("p", [grid_point(*pt) for pt in GRID] + [crossover_point()],
                             ids=[f"Omega={o}-gbar2={g:.4f}" for o, g in GRID] + ["crossover"])
    def test_matches_stencil_oracle(self, p, monkeypatch):
        # each component within 1e-3 of the total, the benchmark's tolerance;
        # at Omega = 3, gbar2 = 0.1 the x, rho and x_rho components are 9, 5
        # and 13 times the total, so the split is a stiff test of dtheta and dc
        bd = mp.qfi_decompose_multi(p)
        monkeypatch.setattr(mp, "GRAD_TOL_FACTOR", 1e-11)
        total, components = stencil_qfi(p, 1e-4 * 0.25)
        assert bd.total == pytest.approx(total, rel=1e-4)
        for name, value in components.items():
            assert abs(bd.components[name] - value) <= 1e-3 * total, name

    def test_seed12_point_converges(self):
        # gbar2 shifted by a fraction of a grid step: the optimizer this replaced
        # stopped at gradient norm 1.6e-9 here
        p = ModelParams.from_dimensionless(omega=1.0, Omega=3.0, gbar1=0.5,
                                           gbar2=0.10074079671420333, epsilon=0.0)
        assert mp.variational_ground(p).grad_norm <= 1e-9 * p.omega
        assert np.isfinite(mp.qfi_decompose_multi(p).total)

    def test_residual_above_roundoff_raises(self, monkeypatch):
        brackets = mp._brackets
        monkeypatch.setattr(mp, "_brackets",
                            lambda *a: (brackets(*a)[0], 1e-6))
        with pytest.raises(mp.VariationalError, match="residual"):
            mp.qfi_decompose_multi(crossover_point())
