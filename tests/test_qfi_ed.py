
import numpy as np
import pytest
import scipy.linalg

from oracles import fidelity
from qrabi import cli, polaron
from qrabi import fockspace as fs
from qrabi.fockspace import (EigensolverError, _band_matvec, _banded_derivative,
                             _banded_hamiltonian, default_cutoff, spectrum)
from qrabi.model import ModelParams, transition_bias
from qrabi.qfi_ed import BiasPeak, DegenerateGroundError, qfi_ed, qfi_peak_over_bias
from qrabi.sweep import Axis, SweepSpec, run_sweep


def central_difference_qfi(p: ModelParams, lam: str, step: float,
                           cutoff: int) -> float:
    """Oracle: F_Q from central differences of sign-aligned ground vectors."""
    value = getattr(p, lam)
    v0, vm, vp = (spectrum(p.replace(**{lam: value + d}), cutoff, k=1)
                  .vectors[0].interleaved() for d in (0.0, -step, step))
    vm = vm * np.sign(vm @ v0)
    vp = vp * np.sign(vp @ v0)
    dc = (vp - vm) / (2.0 * step)
    return 4.0 * float(dc @ dc - (dc @ v0) ** 2)


def vector_solve_qfi(p: ModelParams, lam: str, cutoff: int) -> float:
    """Oracle: linear-response F_Q with E0, E1 and psi0 from LAPACK eigenvectors."""
    sl = spectrum(p, cutoff, k=2)
    e0 = float(sl.energies[0])
    gap = float(sl.energies[1]) - e0
    psi = sl.vectors[0].interleaved()
    dh_psi = _band_matvec(_banded_derivative(lam, cutoff), psi)
    rhs = psi * (psi @ dh_psi) - dh_psi
    singular = _banded_hamiltonian(p, cutoff)
    singular[0] -= e0
    shifted = singular.copy()
    shifted[0] += 1e-3 * gap
    factor = scipy.linalg.cholesky_banded(shifted, lower=True)
    x = np.zeros_like(rhs)
    for _ in range(5):
        x += scipy.linalg.cho_solve_banded((factor, True), rhs - _band_matvec(singular, x))
        x -= psi * (psi @ x)
    return 4.0 * float(x @ x)


def two_level_qfi_epsilon(Omega: float, epsilon: float) -> float:
    """Exact F_Q(lambda=epsilon) at g1 = g2 = 0: spin sector decouples."""
    return Omega ** 2 / (4.0 * (epsilon ** 2 + Omega ** 2 / 4.0) ** 2)


def degeneracy_lifting_qfi(omega: float, Omega: float) -> float:
    """Exact F_Q(lambda=g2) at g1 = g2 = eps = 0 by perturbation theory."""
    return 4.0 * (1.0 / Omega ** 2 + 2.0 / (2.0 * omega + Omega) ** 2)


class TestQfiEd:
    def test_degeneracy_lifting_value(self):
        p = ModelParams(omega=1.0, Omega=0.01)
        br = qfi_ed(p, lam="g2")
        assert br.total == pytest.approx(degeneracy_lifting_qfi(1.0, 0.01),
                                         rel=1e-3)
        # and the small-Omega closed form within 2%
        assert br.total == pytest.approx((0.125 + 1.0 / 4e-4) / 0.0625, rel=0.02)

    def test_epsilon_qfi_against_exact_two_level(self):
        p = ModelParams(omega=1.0, Omega=0.8, epsilon=0.25)
        br = qfi_ed(p, lam="epsilon")
        assert br.total == pytest.approx(two_level_qfi_epsilon(0.8, 0.25),
                                         rel=1e-6)

    def test_epsilon_symmetry(self):
        p = ModelParams(omega=1.0, Omega=1.0, epsilon=0.3)
        m = ModelParams(omega=1.0, Omega=1.0, epsilon=-0.3)
        assert qfi_ed(p, lam="epsilon").total == pytest.approx(
            qfi_ed(m, lam="epsilon").total, rel=1e-9)

    def test_matches_analytic_small_Omega(self):
        p = ModelParams.from_dimensionless(1.0, 0.001, 0.5, 0.9, 0.33)
        assert qfi_ed(p, lam="g2").total == pytest.approx(
            polaron.qfi_analytic(p).total, rel=0.01)

    def test_deterministic(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.1, 0.6, 0.05)
        assert qfi_ed(p, lam="g2").total == qfi_ed(p, lam="g2").total

    def test_nonnegative_on_random_points(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            p = ModelParams(omega=1.0, Omega=rng.uniform(0.01, 1.0),
                            g1=rng.uniform(-0.2, 0.2),
                            g2=rng.uniform(0.05, 0.9) * 0.25,
                            epsilon=rng.uniform(-0.4, 0.4))
            lam = ("g2", "g1", "epsilon")[rng.integers(0, 3)]
            br = qfi_ed(p, lam=lam)
            assert br.total >= 0.0
            assert br.total == pytest.approx(
                central_difference_qfi(p, lam, 1e-6, br.cutoff), rel=1e-5)

    def test_exact_at_g2_domain_edge(self):
        p = ModelParams(omega=1.0, epsilon=0.1)  # g2 = 0, Omega = 0
        br = qfi_ed(p, lam="g2")
        assert br.total == pytest.approx(2.0, rel=1e-12)
        assert br.lambda_value == 0.0
        assert qfi_ed(p, lam="epsilon").total == pytest.approx(0.0, abs=1e-12)

    def test_matches_difference_oracle_at_crossing(self):
        # at the bias-driven crossing the ground vector turns over a tiny
        # coupling range: a stencil with step 1e-5 gT is ~10 % low here
        p = ModelParams.from_dimensionless(1.0, 1e-4, 0.5, 0.99)
        p = p.replace(epsilon=transition_bias(p))
        br = qfi_ed(p, lam="g2")
        assert br.total == pytest.approx(
            central_difference_qfi(p, "g2", 2.5e-9, br.cutoff), rel=1e-4)

    def test_degenerate_ground_raises(self):
        with pytest.raises(DegenerateGroundError):
            qfi_ed(ModelParams(omega=1.0), lam="epsilon")

    def test_rejects_unknown_lambda(self):
        with pytest.raises(ValueError):
            qfi_ed(ModelParams(omega=1.0, Omega=0.1), lam="g3")

    def test_gauge_invariance_under_global_sign_flips(self, monkeypatch):
        # negating the ground vector qfi_ed solves with must not change the QFI
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.2, 0.7, 0.1)
        reference = qfi_ed(p, lam="g2").total
        original = fs._inverse_iteration
        calls = []

        def flipped(*args):
            calls.append(args)
            return -original(*args)

        monkeypatch.setattr(fs, "_inverse_iteration", flipped)
        assert qfi_ed(p, lam="g2").total == pytest.approx(reference, rel=1e-12)
        assert len(calls) == 1

    def test_requests_no_eigenvectors(self, monkeypatch, tmp_path):
        requests = []
        solve = scipy.linalg.eig_banded

        def spy(*args, **kwargs):
            requests.append(kwargs.get("eigvals_only", False))
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig_banded", spy)
        for lam in ("g2", "g1", "epsilon"):
            qfi_ed(ModelParams(omega=1.0, Omega=0.3, g1=0.2, g2=0.1), lam=lam, cutoff=32)
        assert requests == [True, True, True]

        # every other ground-state path; parameters no other test uses, so the
        # cutoff caches start cold and the convergence solves run here
        base = ModelParams(omega=1.0, Omega=0.37, epsilon=0.013)
        paths = {
            "converge_cutoff": lambda: fs.converge_cutoff(base.replace(g1=0.21)),
            "ground_state": lambda: fs.ground_state(base.replace(g2=0.07), 48),
            "sigma_z sweep": lambda: run_sweep(SweepSpec(
                axes=(Axis("gbar2", 0.1, 0.2, 2),), base=base, quantity="sigma_z")),
            "energy sweep": lambda: run_sweep(SweepSpec(
                axes=(Axis("gbar2", 0.3, 0.4, 2),), base=base, quantity="energy")),
            "wigner command": lambda: cli.main(
                ["wigner", "--Omega", "0.37", "--g2", "0.55gT", "--epsilon", "0.013",
                 "--points", "8", "-o", str(tmp_path / "w.csv")]),
        }
        for name, run in paths.items():
            requests.clear()
            run()
            assert requests and all(requests), name

    def test_matches_vector_solve_oracle(self):
        rng = np.random.default_rng(47)
        points = []
        for _ in range(120):
            p = ModelParams.from_dimensionless(
                rng.choice([1.0, 0.01]), 10.0 ** rng.uniform(-4.0, 0.5),
                rng.uniform(0.0, 1.6), rng.uniform(0.0, 0.97), 0.0)
            p = p.replace(epsilon=transition_bias(p) * rng.uniform(0.5, 1.5))
            points.append((p, ("g2", "g1", "epsilon")[rng.integers(0, 3)],
                           int(rng.choice([8, 32, 128, 256]))))
        crossing = ModelParams.from_dimensionless(1.0, 1e-4, 0.5, 0.99)
        crossing = crossing.replace(epsilon=transition_bias(crossing))
        points.append((crossing, "g2", default_cutoff(crossing)))
        for p, lam, n in points:
            assert qfi_ed(p, lam=lam, cutoff=n).total == pytest.approx(
                vector_solve_qfi(p, lam, n), rel=1e-10), (p, lam, n)

    def test_unconverged_ground_vector_raises(self, monkeypatch):
        # E0 one micro-omega low: inverse iteration still converges to psi0,
        # but ||(H - E0) psi|| settles far above round-off
        original = fs._eig_banded

        def low(*args, **kwargs):
            return original(*args, **kwargs) - 1e-6

        monkeypatch.setattr(fs, "_eig_banded", low)
        with pytest.raises(EigensolverError, match="round-off"):
            qfi_ed(ModelParams.from_dimensionless(1.0, 0.01, 0.2, 0.7, 0.1),
                   lam="g2", cutoff=64)


class TestFidelity:
    def test_zero_displacement(self):
        p = ModelParams(omega=1.0, Omega=0.2, g2=0.05)
        assert fidelity(p, "g2", 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_susceptibility_matches_qfi(self):
        # 2 (1 - F)/delta^2 -> F_Q/4 with Richardson consistency at delta, delta/2
        p = ModelParams.from_dimensionless(1.0, 0.05, 0.3, 0.6, 0.1)
        n = default_cutoff(p)
        fq = qfi_ed(p, lam="g2", cutoff=n).total
        delta = 2e-4 * 0.25
        chi = [2.0 * (1.0 - fidelity(p, "g2", d, cutoff=n)) / d ** 2
               for d in (delta, delta / 2)]
        assert chi[0] == pytest.approx(fq / 4.0, rel=0.02)
        assert chi[1] == pytest.approx(fq / 4.0, rel=0.02)

    def test_dips_across_transition(self):
        p = ModelParams.from_dimensionless(1.0, 0.001, 0.1, 0.95, 0.0)
        eps_star = transition_bias(p)
        delta = 0.002 * 0.25
        away = fidelity(p.replace(epsilon=eps_star - 0.05), "g2", delta)
        at = fidelity(p.replace(epsilon=eps_star), "g2", delta)
        assert at < away


class TestBiasPeak:
    def test_peak_tracks_transition_formula(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.5, 0.9, 0.0)
        eps_max = transition_bias(p)
        grid = eps_max + np.linspace(-0.01, 0.01, 21)
        peak = qfi_peak_over_bias(p, grid)
        assert isinstance(peak, BiasPeak)
        assert not peak.boundary_warning
        assert abs(peak.eps_star - eps_max) <= 0.001 + 1e-12

    def test_envelope_beats_unbiased_curve(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.5, 0.9, 0.0)
        grid = transition_bias(p) + np.linspace(-0.005, 0.005, 11)
        peak = qfi_peak_over_bias(p, grid)
        assert peak.f_max > qfi_ed(p, lam="g2").total

    def test_boundary_argmax_flagged(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.5, 0.9, 0.0)
        grid = transition_bias(p) + np.linspace(-0.02, -0.01, 5)
        assert qfi_peak_over_bias(p, grid).boundary_warning

    def test_rejects_degenerate_grid(self):
        p = ModelParams(omega=1.0, Omega=0.1, g2=0.1)
        with pytest.raises(ValueError):
            qfi_peak_over_bias(p, [0.1])
