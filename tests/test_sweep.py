import itertools
import math

import numpy as np
import pytest

from qrabi import fockspace as fs
from qrabi import sweep as sw
from qrabi.fockspace import default_cutoff, ground_state, sigma_z, spectrum
from qrabi.model import ModelParams, low_freq_boundary, transition_bias
from qrabi.qfi_ed import qfi_ed


class TestAxis:
    def test_linear_values(self):
        np.testing.assert_allclose(sw.Axis("g1", 0.0, 1.0, 5).values(),
                                   [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log_values(self):
        vals = sw.Axis("Omega", 1e-3, 1e-1, 3, spacing="log").values()
        np.testing.assert_allclose(vals, [1e-3, 1e-2, 1e-1], rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(name="bogus", start=0, stop=1, count=3),
        dict(name="g1", start=0, stop=1, count=1),
        dict(name="g1", start=-1, stop=1, count=3, spacing="log"),
        dict(name="g1", start=0, stop=1, count=3, spacing="cubic"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            sw.Axis(**kwargs)


class TestRunSweep:
    def test_trivial_grid_reproduces_single_points(self):
        base = ModelParams(omega=1.0, Omega=0.1, epsilon=0.05)
        spec = sw.SweepSpec(axes=(sw.Axis("gbar2", 0.2, 0.4, 2),), base=base,
                            quantity="sigma_z")
        grid = sw.run_sweep(spec)
        for g, value in zip((0.2, 0.4), grid.values):
            p = sw.apply_axis(base, "gbar2", g)
            _, v = ground_state(p, default_cutoff(p))
            assert value == sigma_z(v)

    def test_bit_identical_reruns_and_threading(self):
        base = ModelParams(omega=1.0, Omega=0.05, epsilon=0.2)
        axes = (sw.Axis("gbar1", 0.1, 0.9, 3), sw.Axis("gbar2", 0.1, 0.8, 3))
        a = sw.run_sweep(sw.SweepSpec(axes=axes, base=base, quantity="gap"))
        b = sw.run_sweep(sw.SweepSpec(axes=axes, base=base, quantity="gap"))
        c = sw.run_sweep(sw.SweepSpec(axes=axes, base=base, quantity="gap",
                                      threads=4))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)

    def test_energy_equals_spectrum_energy(self):
        rng = np.random.default_rng(37)
        for _ in range(6):
            base = ModelParams(omega=rng.uniform(0.2, 2.0), Omega=rng.uniform(0.01, 3.0),
                               epsilon=rng.uniform(-0.5, 0.5))
            n = int(rng.integers(4, 128))
            axes = (sw.Axis("gbar1", *np.sort(rng.uniform(0.0, 1.5, 2)), 3),
                    sw.Axis("gbar2", *np.sort(rng.uniform(0.0, 0.95, 2)), 3))
            grid = sw.run_sweep(sw.SweepSpec(axes=axes, base=base, quantity="energy",
                                             cutoff=n))
            for (i, x), (j, y) in itertools.product(enumerate(axes[0].values()),
                                                    enumerate(axes[1].values())):
                p = sw.apply_axis(sw.apply_axis(base, "gbar1", x), "gbar2", y)
                assert grid.values[i, j] == spectrum(p, n, k=1).energies[0]

    def test_failures_recorded_not_raised(self):
        base = ModelParams(omega=1.0, Omega=0.2, epsilon=0.1)
        spec = sw.SweepSpec(axes=(sw.Axis("gbar2", 0.5, 0.99999, 3),),
                            base=base, quantity="energy", cutoff_ceiling=64)
        grid = sw.run_sweep(spec)
        assert math.isfinite(grid.values[0])
        assert (2,) in grid.failures
        assert math.isnan(grid.values[2])
        assert "converge" in grid.failures[(2,)].lower()

    def test_degenerate_ground_recorded(self):
        # epsilon = 0 leaves the uncoupled spin doublet exactly degenerate
        spec = sw.SweepSpec(axes=(sw.Axis("epsilon", 0.0, 0.1, 2),),
                            base=ModelParams(omega=1.0), quantity="qfi_ed",
                            lam="epsilon")
        grid = sw.run_sweep(spec)
        assert math.isnan(grid.values[0])
        assert grid.failures[(0,)].startswith("DegenerateGroundError")
        assert grid.values[1] == pytest.approx(0.0, abs=1e-12)
        assert (1,) not in grid.failures

    def test_degenerate_sigma_z_recorded(self):
        # unbiased linear model at omega/Omega = 0.01 past gbar1 = 1: the two
        # wells are mirror images, so <sigma_z> of "the" ground state is undefined
        spec = sw.SweepSpec(axes=(sw.Axis("gbar1", 1.3, 1.6, 3),),
                            base=ModelParams(omega=0.01, Omega=1.0), quantity="sigma_z")
        grid = sw.run_sweep(spec)
        assert np.isnan(grid.values).all()
        assert sorted(grid.failures) == [(0,), (1,), (2,)]
        assert all(f.startswith("DegenerateGroundError: ") for f in grid.failures.values())

    def test_axis_domain_validated_up_front(self):
        base = ModelParams(omega=1.0, Omega=0.2)
        with pytest.raises(ValueError):
            sw.SweepSpec(axes=(sw.Axis("gbar2", 0.5, 1.2, 3),), base=base,
                         quantity="energy")

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError):
            sw.SweepSpec(axes=(sw.Axis("g1", 0, 0.1, 2),),
                         base=ModelParams(omega=1.0), quantity="bogus")

    def test_low_freq_phase_boundary_matches_sigma_z_jump(self):
        # omega/Omega = 0.01: the sharp sigma_z drop sits on the gbar1c line
        base = ModelParams(omega=0.01, Omega=1.0, epsilon=0.33 * 0.01)
        gbar2 = 0.5
        expected = low_freq_boundary(gbar2, base.epsilon, base.Omega)
        grid = sw.run_sweep(sw.SweepSpec(
            axes=(sw.Axis("gbar1", expected - 0.02, expected + 0.02, 2),),
            base=sw.apply_axis(base, "gbar2", gbar2), quantity="sigma_z"))
        before, after = grid.values
        assert before > -0.1       # near-symmetric Omega-dominated state
        assert after < -0.7        # displaced spin-minus state


def test_default_threads_env_var(monkeypatch):
    monkeypatch.setenv("QRABI_THREADS", "3")
    assert sw.default_threads() == 3
    monkeypatch.setenv("QRABI_THREADS", "junk")
    assert sw.default_threads() == 1
    monkeypatch.delenv("QRABI_THREADS")
    assert sw.default_threads() == 1


def test_bias_family_gives_peaked_qfi_curves():
    # each bias value produces a QFI(gbar2) curve peaked at its own transition
    base = ModelParams.from_dimensionless(1.0, 0.001, 0.1, 0.0, 0.0)
    for eps in (0.28, 0.30):
        p = base.replace(epsilon=eps)
        from scipy.optimize import brentq
        g_star = brentq(lambda g: transition_bias(
            sw.apply_axis(p, "gbar2", g)) - eps, 0.5, 0.999)
        spec = sw.SweepSpec(
            axes=(sw.Axis("gbar2", g_star - 0.004, g_star + 0.004, 9),),
            base=p, quantity="qfi_ed")
        curve = sw.run_sweep(spec).values
        k = int(np.argmax(curve))
        assert 0 < k < 8                      # interior maximum
        assert curve[k] > 10 * min(curve[0], curve[-1])


class TestEnvelope:
    def make_env(self):
        base = ModelParams.from_dimensionless(1.0, 0.01, 0.5, 0.0, 0.0)
        eps_mid = transition_bias(sw.apply_axis(base, "gbar2", 0.9))
        spec = sw.SweepSpec(
            axes=(sw.Axis("gbar2", 0.88, 0.92, 3),
                  sw.Axis("epsilon", eps_mid - 0.02, eps_mid + 0.02, 21)),
            base=base, quantity="qfi_ed")
        return base, sw.qfi_envelope(spec)

    def test_envelope_dominates_member_curves(self):
        base, env = self.make_env()
        assert np.all(env.f_max >= np.nanmax(env.grid.values, axis=1) - 1e-12)
        for i, g in enumerate(env.g2_values):
            p = sw.apply_axis(base, "gbar2", float(g))
            assert env.f_max[i] >= qfi_ed(p, lam="g2").total

    def test_argmax_tracks_transition_bias(self):
        base, env = self.make_env()
        spacing = 0.04 / 20
        for g, eps_star in zip(env.g2_values, env.eps_star):
            expect = transition_bias(sw.apply_axis(base, "gbar2", float(g)))
            assert abs(eps_star - expect) <= spacing + 1e-12

    def test_envelopes_ordered_by_linear_coupling(self):
        # larger gbar1 lifts the envelope at fixed gbar2 (Omega = 0.01, gbar2 = 0.9)
        peaks = []
        for gbar1 in (0.1, 0.5, 1.0):
            base = ModelParams.from_dimensionless(1.0, 0.01, gbar1, 0.9, 0.0)
            eps_mid = transition_bias(base)
            spec = sw.SweepSpec(
                axes=(sw.Axis("gbar2", 0.899, 0.901, 2),
                      sw.Axis("epsilon", eps_mid - 0.004, eps_mid + 0.004, 17)),
                base=base, quantity="qfi_ed")
            peaks.append(sw.qfi_envelope(spec).f_max.max())
        assert peaks[0] < peaks[1] < peaks[2]

    def test_requires_epsilon_axis(self):
        base = ModelParams(omega=1.0, Omega=0.1)
        spec = sw.SweepSpec(axes=(sw.Axis("gbar2", 0.1, 0.5, 2),
                                  sw.Axis("gbar1", 0.0, 0.5, 2)),
                            base=base, quantity="qfi_ed")
        with pytest.raises(ValueError):
            sw.qfi_envelope(spec)


class TestPtps:
    def test_constant_gap_synthetic(self):
        p = ModelParams(omega=1.0, Omega=0.1)
        r = sw.ptps(p, coupling="g2", gbar_max=0.8, gap_fn=lambda g: 0.25)
        assert r.T == pytest.approx(0.8 / 0.25, rel=1e-12)
        assert not r.diverged

    def test_refinement_converges(self):
        # sharp synthetic dip: halving rel_tol moves T by < 0.5%
        p = ModelParams(omega=1.0, Omega=0.1)
        gap = lambda g: 0.02 + (g - 0.6) ** 2
        t1 = sw.ptps(p, coupling="g2", gbar_max=0.9, gap_fn=gap, rel_tol=2e-3).T
        t2 = sw.ptps(p, coupling="g2", gbar_max=0.9, gap_fn=gap, rel_tol=1e-3).T
        exact = math.atan(0.3 / math.sqrt(0.02)) / math.sqrt(0.02) \
            + math.atan(0.6 / math.sqrt(0.02)) / math.sqrt(0.02)
        assert abs(t1 - t2) / t2 < 0.005
        assert t2 == pytest.approx(exact, rel=0.005)

    def test_lower_bound_by_max_gap(self):
        p = ModelParams(omega=1.0, Omega=0.1)
        gap = lambda g: 0.3 + 0.2 * g
        r = sw.ptps(p, coupling="g2", gbar_max=0.5, gap_fn=gap)
        assert r.T >= 0.5 / 0.5

    def test_divergent_gap_flagged_not_raised(self):
        p = ModelParams(omega=1.0, Omega=0.1)
        r = sw.ptps(p, coupling="g2", gbar_max=0.8,
                    gap_fn=lambda g: abs(g - 0.4) * 1e-3)
        assert r.diverged
        assert math.isinf(r.T)
        assert r.diverged_at is not None

    def test_mixed_model_single_digit(self):
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.1, 0.0, 0.33)
        r = sw.ptps(p, coupling="g2")
        assert not r.diverged
        assert 1.0 < r.T < 10.0
        assert abs(r.gbar_max - 0.9907) < 0.02  # QFI peak at the transition

    def test_samples_sorted_and_bounded(self):
        p = ModelParams(omega=1.0, Omega=0.1)
        r = sw.ptps(p, coupling="g2", gbar_max=0.6, gap_fn=lambda g: 0.5 + g)
        assert np.all(np.diff(r.samples[:, 0]) > 0)
        assert r.samples[:, 0].min() >= 0.0
        assert r.samples[:, 0].max() <= 0.6 + 1e-12

    def test_rejects_bad_coupling(self):
        with pytest.raises(ValueError):
            sw.ptps(ModelParams(omega=1.0, Omega=0.1), coupling="epsilon",
                    gbar_max=0.5, gap_fn=lambda g: 1.0)

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_rel_tol(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            sw.ptps(ModelParams(omega=1.0, Omega=0.1), coupling="g2", gbar_max=0.5,
                    gap_fn=lambda g: 1.0, rel_tol=rel_tol)

    def test_exhausted_budget_raises(self):
        # the sharp dip of test_refinement_converges at a tolerance out of reach
        gaps = []

        def gap(g):
            gaps.append(g)
            return 0.02 + (g - 0.6) ** 2

        with pytest.raises(sw.PtpsBudgetError,
                           match=f"budget of {sw.PTPS_MAX_EVALS} gap evaluations"):
            sw.ptps(ModelParams(omega=1.0, Omega=0.1), coupling="g2", gbar_max=0.9,
                    gap_fn=gap, rel_tol=1e-13)
        assert len(gaps) == sw.PTPS_MAX_EVALS
        assert issubclass(sw.PtpsBudgetError, RuntimeError)  # the CLI exits 1


def per_point_peak(p, coupling, scan, points=25, refinements=2):
    """Oracle: the peak scan with each point at its own default_cutoff."""
    lo, hi = scan
    for _ in range(refinements + 1):
        grid = np.linspace(lo, hi, points)
        vals = []
        for g in grid:
            q = sw._coupling_params(p, coupling, float(g))
            try:
                vals.append(qfi_ed(q, lam=coupling, cutoff=default_cutoff(q)).total)
            except sw.POINT_ERRORS:
                vals.append(-math.inf)
        k = int(np.argmax(vals))
        best = float(grid[k])
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]
    return best


class TestLocateQfiPeak:
    @pytest.mark.parametrize("p, coupling, scan, expect", [
        # README ptps example
        (ModelParams.from_dimensionless(1.0, 0.01, 0.1, 0.0, 0.33), "g2",
         (0.05, 0.995), 0.99103515625),
        # acceptance criterion 7, linear model
        (ModelParams(omega=0.01, Omega=1.0), "g1", (0.8, 1.3), None),
    ])
    def test_one_cutoff_matches_per_point_policy(self, monkeypatch, p, coupling,
                                                 scan, expect):
        converged, evaluated = [], []
        converge, evaluate = sw.converge_cutoff, sw.qfi_ed

        def counted_converge(*args, **kwargs):
            converged.append(args)
            return converge(*args, **kwargs)

        def recorded_qfi(q, lam, cutoff):
            evaluated.append((q, cutoff))
            return evaluate(q, lam=lam, cutoff=cutoff)

        monkeypatch.setattr(sw, "converge_cutoff", counted_converge)
        monkeypatch.setattr(sw, "qfi_ed", recorded_qfi)
        best = sw.locate_qfi_peak(p, coupling, scan)
        monkeypatch.undo()
        assert len(converged) == 1
        cutoffs = {n for _, n in evaluated}
        assert len(cutoffs) == 1
        (cutoff,) = cutoffs
        assert all(cutoff >= default_cutoff(q) for q, _ in evaluated)
        # each gbar is evaluated once, though refinements revisit bracket points
        assert len({q for q, _ in evaluated}) == len(evaluated) < 75
        assert best == per_point_peak(p, coupling, scan)
        if expect is not None:
            assert best == expect

    def test_unconverged_top_point_raises(self, monkeypatch):
        original = fs._ground_energy

        def energy(q, n):  # never converges above the peak (gbar2 0.99104): at the scan top
            return float(n) if q.g2 > 0.992 * q.omega / 4.0 else original(q, n)

        monkeypatch.setattr(fs, "_ground_energy", energy)
        p = ModelParams.from_dimensionless(1.0, 0.01, 0.1, 0.0, 0.33)
        with pytest.raises(sw.CutoffConvergenceError, match="cutoff ceiling 4096"):
            sw.locate_qfi_peak(p, "g2", (0.05, 0.995))


class TestAnalyticCompare:
    def test_columns_and_small_deviation(self):
        base = ModelParams.from_dimensionless(1.0, 0.001, 0.5, 0.0, 0.33)
        grid = sw.analytic_compare(base, np.linspace(0.5, 0.9, 3))
        assert grid.meta["columns"] == ("f_ed", "f_analytic", "rel_err")
        assert grid.values.shape == (3, 3)
        assert np.nanmax(grid.values[:, 2]) < 0.05
