import math

import numpy as np
import pytest
import scipy.linalg

from oracles import dense_hamiltonian
from qrabi import fockspace as fs
from qrabi.model import ModelParams
from qrabi.qfi_ed import qfi_ed
from qrabi.sweep import Axis, SweepSpec, apply_axis


def kron_hamiltonian(p: ModelParams, cutoff: int) -> np.ndarray:
    """Independent construction from operator matrices (oracle path).

    (a^dag + a)^2 is squared one level above the cutoff and then truncated, so
    its last diagonal element is 2 cutoff + 1 as in the Fock basis. Rows and
    columns are interleaved as in the package: 2n for |n, +>, 2n + 1 for |n, ->.
    """
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 2)), 1)
    x_op = (a + a.T)[:-1, :-1]
    x2_op = ((a + a.T) @ (a + a.T))[:-1, :-1]
    number = (a.T @ a)[:-1, :-1]
    eye = np.eye(cutoff + 1)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = (p.omega * np.kron(np.eye(2), number)
         + 0.5 * p.Omega * np.kron(sx, eye)
         + p.g1 * np.kron(sz, x_op)
         + p.g2 * np.kron(sz, x2_op)
         - p.epsilon * np.kron(sz, eye))
    order = np.arange(2 * (cutoff + 1)).reshape(2, cutoff + 1).T.ravel()
    return h[np.ix_(order, order)]


def test_uncoupled_eigenvalues():
    p = ModelParams(omega=1.0, Omega=0.3)
    h = dense_hamiltonian(p, 1)
    np.testing.assert_allclose(np.linalg.eigvalsh(h),
                               [-0.15, 0.15, 0.85, 1.15], atol=1e-14)


def test_ladder_matrix_elements():
    # (a^dag + a)^2: diagonal 2n+1, second off-diagonal sqrt((n+1)(n+2))
    p = ModelParams(omega=0.0 + 1.0, Omega=0.0, g2=0.2)
    h = dense_hamiltonian(p, 5)
    plus = h[0::2, 0::2]
    for n in range(6):
        assert plus[n, n] == pytest.approx(1.0 * n + 0.2 * (2 * n + 1))
        if n <= 3:
            assert plus[n, n + 2] == pytest.approx(
                0.2 * math.sqrt((n + 1) * (n + 2)))


def test_matrix_exactly_symmetric():
    p = ModelParams(omega=1.0, Omega=0.7, g1=0.2, g2=0.12, epsilon=0.3)
    h = dense_hamiltonian(p, 30)
    assert np.array_equal(h, h.T)
    np.testing.assert_allclose(h, kron_hamiltonian(p, 30), rtol=0, atol=1e-13)


def test_banded_matches_dense():
    p = ModelParams(omega=1.0, Omega=0.05, g1=0.1, g2=0.2, epsilon=0.07)
    dense = np.linalg.eigvalsh(dense_hamiltonian(p, 40))[:4]
    sl = fs.spectrum(p, 40, k=4)
    np.testing.assert_allclose(sl.energies, dense, atol=1e-12)


@pytest.mark.parametrize("lam", ["g2", "g1", "epsilon"])
def test_banded_derivative_matches_dense_difference(lam):
    # H is linear in each coupling, so dH/d lam = H(lam = 1) - H(lam = 0)
    p = ModelParams(omega=1.0, Omega=0.05, g1=0.1, g2=0.2, epsilon=0.07)
    dense = (kron_hamiltonian(p.replace(**{lam: 0.2}), 12)
             - kron_hamiltonian(p.replace(**{lam: 0.0}), 12)) / 0.2
    x = np.random.default_rng(5).standard_normal(dense.shape[0])
    np.testing.assert_allclose(
        fs._band_matvec(fs._banded_derivative(lam, 12), x), dense @ x,
        rtol=1e-12, atol=1e-12)


def test_matches_independent_kron_oracle():
    p = ModelParams(omega=1.0, Omega=0.01, g2=0.5 * 0.25)
    e60 = fs.spectrum(p, 60, k=1).energies[0]
    e200 = np.linalg.eigvalsh(kron_hamiltonian(p, 200))[0]
    assert e60 == pytest.approx(e200, abs=1e-11)


def test_ground_energy_variational_in_cutoff():
    p = ModelParams(omega=1.0, Omega=0.4, g1=0.15, g2=0.22, epsilon=0.1)
    energies = [fs.spectrum(p, n, k=1).energies[0] for n in (16, 32, 64, 128)]
    assert all(e2 <= e1 + 1e-14 for e1, e2 in zip(energies, energies[1:]))


def test_orthonormal_eigenvectors():
    p = ModelParams(omega=1.0, Omega=0.2, g1=0.1, g2=0.18, epsilon=0.05)
    sl = fs.spectrum(p, 50, k=4)
    mats = np.array([v.interleaved() for v in sl.vectors])
    gram = mats @ mats.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_parity_of_unbiased_nonlinear_ground():
    # epsilon = g1 = 0 conserves photon parity: even-n support only
    p = ModelParams(omega=1.0, Omega=0.4, g2=0.2)
    _, v = fs.ground_state(p, 80)
    odd = max(np.max(np.abs(v.coeff_plus[1::2])),
              np.max(np.abs(v.coeff_minus[1::2])))
    assert odd < 1e-10


def test_vector_normalization_and_split():
    p = ModelParams(omega=1.0, Omega=0.9, g1=0.2, g2=0.1, epsilon=0.4)
    _, v = fs.ground_state(p, 60)
    assert v.norm() == pytest.approx(1.0, abs=1e-12)
    recon = fs.SpinorFockVector.from_interleaved(v.interleaved(), v.cutoff)
    np.testing.assert_array_equal(recon.coeff_plus, v.coeff_plus)


def test_gauge_fix_sign():
    p = ModelParams(omega=1.0, Omega=0.2, g1=0.05, g2=0.11, epsilon=0.02)
    vec = fs.spectrum(p, 40, k=1).vectors[0].interleaved()
    assert vec[np.argmax(np.abs(vec))] > 0


def test_degenerate_tie_break_prefers_spin_plus():
    # Omega = 0, uncoupled: ground doubly degenerate; spin-plus weight first
    p = ModelParams(omega=1.0, Omega=0.0)
    sl = fs.spectrum(p, 10, k=2)
    w0 = float(np.dot(sl.vectors[0].coeff_plus, sl.vectors[0].coeff_plus))
    w1 = float(np.dot(sl.vectors[1].coeff_plus, sl.vectors[1].coeff_plus))
    assert w0 >= w1


class TestSigmaZ:
    def test_pure_spin_plus(self):
        v = fs.SpinorFockVector(np.array([1.0, 0.0]), np.zeros(2), 1)
        assert fs.sigma_z(v) == pytest.approx(1.0)

    def test_equal_weights(self):
        v = fs.SpinorFockVector(np.array([math.sqrt(0.5)]),
                                np.array([math.sqrt(0.5)]), 0)
        assert fs.sigma_z(v) == pytest.approx(0.0)

    def test_bounded_on_random_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            p = ModelParams(omega=1.0, Omega=rng.uniform(0, 2),
                            g1=rng.uniform(-0.3, 0.3),
                            g2=rng.uniform(0, 0.9) * 0.25,
                            epsilon=rng.uniform(-0.5, 0.5))
            _, v = fs.ground_state(p, 64)
            assert -1.0 <= fs.sigma_z(v) <= 1.0

    def test_spin_minus_dominates_past_transition(self):
        # reversed-energy regime: eps=0.33, g1=0.1 gs, g2=0.998 gT, Omega=0.01
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.1, 0.998, 0.33)
        _, v = fs.ground_state(p, 256)
        assert fs.sigma_z(v) < -0.9


# The 4 x 3 slice of the README low-frequency phase diagram that the benchmark
# runs (gbar1 0.85-1.6, gbar2 0.35-0.55, converged cutoffs up to 512) and the
# README wigner point.
LOW_FREQUENCY_BASE = ModelParams(omega=0.01, Omega=1.0, epsilon=0.0033)
INVERSE_ITERATION_POINTS = [
    apply_axis(apply_axis(LOW_FREQUENCY_BASE, "gbar1", float(x)), "gbar2", float(y))
    for x in np.linspace(0.85, 1.6, 4) for y in np.linspace(0.35, 0.55, 3)
] + [ModelParams.from_dimensionless(1.0, 1.0, 0.0, 0.9942)]


class TestGroundState:
    @pytest.mark.parametrize("p", INVERSE_ITERATION_POINTS)
    def test_matches_lapack_vector(self, p):
        n = fs.default_cutoff(p)
        e0, v = fs.ground_state(p, n)
        sl = fs.spectrum(p, n, k=1)
        assert e0 == pytest.approx(float(sl.energies[0]), rel=1e-15, abs=0.0)
        assert np.max(np.abs(v.interleaved() - sl.vectors[0].interleaved())) < 1e-12
        assert fs.sigma_z(v) == pytest.approx(fs.sigma_z(sl.vectors[0]), abs=1e-12)
        assert v.cutoff == n

    @pytest.mark.parametrize("gbar1", [1.3, 1.45, 1.6])
    def test_degenerate_ground_raises(self, gbar1):
        # linear model at omega/Omega = 0.01 without bias: the two wells are
        # mirror images and E1 - E0 ~ 2e-16, below the 1e-14 floor
        p = ModelParams.from_dimensionless(0.01, 1.0, gbar1, 0.0, 0.0)
        with pytest.raises(fs.DegenerateGroundError, match="degenerate ground state"):
            fs.ground_state(p, fs.default_cutoff(p))

    def test_failed_factor_is_typed(self, monkeypatch):
        # E0 above the true ground energy leaves H - E0 + shift indefinite
        original = fs._eig_banded

        def high(*args, **kwargs):
            return original(*args, **kwargs) + 1e-3

        monkeypatch.setattr(fs, "_eig_banded", high)
        with pytest.raises(fs.EigensolverError, match="not positive definite"):
            fs.ground_state(ModelParams(omega=1.0, Omega=0.3, g1=0.2), 32)


class TestGap:
    def test_uncoupled_gap_is_qubit_splitting(self):
        p = ModelParams(omega=1.0, Omega=0.3)
        assert fs.gap_ed(p, 16) == pytest.approx(0.3, abs=1e-12)

    def test_linear_low_frequency_gap_shrinks_near_critical(self):
        # omega/Omega = 0.01: gap at gbar1 = 1 far below the gbar1 = 0 value
        p0 = ModelParams.from_dimensionless(0.01, 1.0, 0.0, 0.0)
        p1 = ModelParams.from_dimensionless(0.01, 1.0, 1.0, 0.0)
        g0 = fs.gap_ed(p0, 64)
        g1 = fs.gap_ed(p1, 128)
        assert g0 == pytest.approx(0.01, abs=1e-10)
        assert g1 < 0.3 * g0

    def test_mixed_gap_stays_order_omega(self):
        # Omega/omega = 1 mixed couplings: gap remains a finite fraction of omega
        for gbar2 in (0.3, 0.6, 0.9):
            p = ModelParams.from_dimensionless(1.0, 1.0, 0.2, gbar2, 0.33)
            assert fs.gap_ed(p) > 0.1


class TestValuesOnlyEigensolve:
    def test_gap_equals_spectrum_energies(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            p = ModelParams.from_dimensionless(
                rng.uniform(0.2, 2.0), rng.uniform(0.01, 3.0), rng.uniform(0.0, 1.5),
                rng.uniform(0.0, 0.95), rng.uniform(-0.5, 0.5))
            n = int(rng.integers(4, 128))
            energies = fs.spectrum(p, n, k=2).energies
            assert fs.gap_ed(p, n) == float(energies[1] - energies[0])

    def test_gap_requests_no_eigenvectors(self, monkeypatch):
        requests = []
        solve = scipy.linalg.eig_banded

        def spy(*args, **kwargs):
            requests.append(kwargs.get("eigvals_only", False))
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig_banded", spy)
        fs.gap_ed(ModelParams(omega=1.0, Omega=0.3, g1=0.2), 32)
        assert requests == [True]

    @pytest.mark.parametrize("solve", [fs.gap_ed, fs.spectrum])
    def test_solver_failure_is_typed(self, monkeypatch, solve):
        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(scipy.linalg, "eig_banded", fail)
        with pytest.raises(fs.EigensolverError, match="cutoff 32"):
            solve(ModelParams(omega=1.0, Omega=0.3), 32)


class TestConvergeCutoff:
    def test_decoupled_converges_immediately(self):
        p = ModelParams(omega=1.0, Omega=0.3)
        assert fs.converge_cutoff(p, tol=1e-10) == 16

    def test_deterministic(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.0, 0.9)
        n1 = fs.converge_cutoff(p, tol=1e-10)
        n2 = fs.converge_cutoff(p, tol=1e-10)
        assert n1 == n2

    def test_stronger_squeezing_needs_larger_cutoff(self):
        n_soft = fs.converge_cutoff(
            ModelParams.from_dimensionless(1.0, 0.01, 0.0, 0.9), tol=1e-10)
        n_hard = fs.converge_cutoff(
            ModelParams.from_dimensionless(1.0, 0.01, 0.0, 0.999), tol=1e-10)
        assert n_hard > n_soft

    def test_near_collapse_reports_failure(self):
        p = ModelParams.from_dimensionless(1.0, 1.0, 1.0, 0.99999, 0.33)
        with pytest.raises(fs.CutoffConvergenceError):
            fs.converge_cutoff(p, tol=1e-10, ceiling=128)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            fs.converge_cutoff(ModelParams(omega=1.0), tol=0.0)


def test_spectrum_validates_k():
    p = ModelParams(omega=1.0)
    with pytest.raises(ValueError):
        fs.spectrum(p, 4, k=0)
    with pytest.raises(ValueError):
        fs.spectrum(p, 4, k=11)


def test_cutoff_below_one_rejected():
    # a plain ValueError, not an EigensolverError blamed on LAPACK
    p = ModelParams(omega=1.0, Omega=0.3)
    for cutoff in (0, -3):
        for solve in (fs.spectrum, fs.gap_ed, qfi_ed):
            with pytest.raises(ValueError, match="cutoff must be >= 1"):
                solve(p, cutoff=cutoff)
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            SweepSpec(axes=(Axis("g1", 0.0, 0.1, 2),), base=p, quantity="gap",
                      cutoff=cutoff)
