"""Acceptance suite: one test per desk-scale reproduction target.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s` or in
the captured output of failures) and asserts the stated tolerance. Run with

    pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

import oracles
from qrabi import multipolaron, polaron
from qrabi import wigner as wg
from qrabi.fockspace import default_cutoff, gap_ed, ground_state
from qrabi.model import ModelParams, derived_scales, transition_bias
from qrabi.qfi_ed import qfi_ed, qfi_peak_over_bias
from qrabi.sweep import ptps


def report(number: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({detail})")
    assert ok, f"criterion {number}: {label}: {detail}"


def dimensionless(Omega, gbar1=0.0, gbar2=0.0, epsilon=0.0):
    return ModelParams.from_dimensionless(1.0, Omega, gbar1, gbar2, epsilon)


def test_criterion_1_analytic_ed_agreement():
    # omega=1, Omega=0.001, eps=0.33, g1=0.5 gs, 40 points on gbar2 in [0.5, 0.99]
    worst = 0.0
    for gbar2 in np.linspace(0.5, 0.99, 40):
        p = dimensionless(0.001, 0.5, float(gbar2), 0.33)
        f_ed = qfi_ed(p, lam="g2").total
        f_an = polaron.qfi_analytic(p).total
        worst = max(worst, abs(f_an - f_ed) / abs(f_ed))
    report(1, "analytic vs ED QFI within 5%", worst < 0.05,
           f"max rel dev {worst:.4f}")


def test_criterion_2_critical_exponents():
    window = (0.9, 0.99)
    gbar2 = polaron.exponent_samples(window, 20)

    f_xi = [polaron.qfi_analytic(dimensionless(0.001, 0.0, g)).components["xi"]
            for g in gbar2]
    fit_xi = polaron.fit_critical_exponent(gbar2, f_xi, window)

    f_x = [polaron.qfi_analytic(dimensionless(0.001, 0.5, g)).components["x"]
           for g in gbar2]
    fit_x = polaron.fit_critical_exponent(gbar2, f_x, window)

    f_ed = [qfi_ed(dimensionless(0.01, 0.0, g), lam="g2").total for g in gbar2]
    fit_ed = polaron.fit_critical_exponent(gbar2, f_ed, window)

    ok = (abs(fit_xi.gamma - 2.0) < 0.1 and abs(fit_x.gamma - 3.5) < 0.1
          and abs(fit_ed.gamma - 2.0) < 0.15)
    report(2, "critical exponents gamma_xi=2, gamma_x=7/2, ED total=2", ok,
           f"gamma_xi={fit_xi.gamma:.3f}, gamma_x={fit_x.gamma:.3f}, "
           f"gamma_ed={fit_ed.gamma:.3f}")


def test_criterion_3_degeneracy_lifting_limits():
    details = []
    ok = True
    for Omega in (0.01, 0.001):
        p = dimensionless(Omega)
        f_ed = qfi_ed(p, lam="g2").total
        expect = (0.125 + 1.0 / (4.0 * Omega ** 2)) / 0.25 ** 2
        rel = abs(f_ed - expect) / expect
        details.append(f"Omega={Omega}: rel {rel:.2e}")
        ok = ok and rel < 0.02
    report(3, "ED QFI at gbar2=0 equals (1/8 + omega^2/(4 Omega^2))/gT^2 "
           "within 2%", ok, "; ".join(details))


def test_criterion_4_universality_of_log_qfi():
    grid = np.linspace(0.6, 0.99, 40)
    curves = np.array([
        [math.log(polaron.qfi_analytic(dimensionless(Om, 0.0, float(g))).total)
         for g in grid]
        for Om in (1e-4, 1e-3, 1e-2)])
    mean = curves.mean(axis=0)
    spread = float(np.max(np.abs(curves - mean) / np.abs(mean)))
    report(4, "ln F_Q coincides across Omega/omega in {1e-4,1e-3,1e-2} "
           "within 3%", spread < 0.03, f"max spread {spread:.4f}")


def test_criterion_5_peak_position_oracle():
    d_eps = 0.001
    ok = True
    details = []
    for gbar2 in (0.9, 0.95, 0.99):
        for gbar1 in (0.1, 0.5):
            p = dimensionless(0.01, gbar1, gbar2)
            eps_max = transition_bias(p)
            grid = eps_max + d_eps * np.arange(-12, 13)
            peak = qfi_peak_over_bias(p, grid)
            diff = abs(peak.eps_star - eps_max)
            ok = ok and not peak.boundary_warning and diff <= d_eps + 1e-12
            details.append(f"({gbar2},{gbar1}): {diff / d_eps:.2f} steps")
    report(5, "ED QFI-peak bias matches transition_bias within one grid step",
           ok, "; ".join(details))


def test_criterion_6_resource_combination_ordering():
    p_squeeze = dimensionless(0.01, 0.0, 0.99)
    f_squeeze = qfi_ed(p_squeeze, lam="g2").total
    p = dimensionless(0.01, 1.0, 0.99)
    eps_max = transition_bias(p)
    grid = eps_max + np.linspace(-0.002, 0.002, 25)
    peak = qfi_peak_over_bias(p, grid)
    ratio = peak.f_max / f_squeeze
    report(6, "bias envelope at gbar1=1 exceeds squeezing-only QFI by >= 1e3",
           ratio >= 1e3 and not peak.boundary_warning,
           f"ratio {ratio:.3e}")


def test_criterion_7_gap_and_ptps_contrast():
    # linear-only at omega/Omega = 0.01 (units Omega = 1)
    linear = ptps(ModelParams(omega=0.01, Omega=1.0), coupling="g1",
                  peak_scan=(0.8, 1.3))
    # mixed couplings at Omega/omega = 0.01, eps = 0.33, g1 = 0.1 gs
    mixed = ptps(dimensionless(0.01, 0.1, 0.0, 0.33), coupling="g2")
    ok = (not linear.diverged and not mixed.diverged
          and mixed.T < 10.0 and linear.T >= 10.0 * mixed.T)
    report(7, "linear-model PTPS >= 10x mixed-model PTPS; mixed < 10", ok,
           f"T_linear={linear.T:.1f}, T_mixed={mixed.T:.2f}, "
           f"ratio={linear.T / mixed.T:.1f}")


def test_criterion_8_two_level_gap_check():
    worst = 0.0
    for gbar2 in np.linspace(0.3, 0.99, 24):
        p = dimensionless(0.01, 0.1, float(gbar2), 0.33)
        delta_an = polaron.gap_analytic(p)
        delta_ed = gap_ed(p, default_cutoff(p))
        worst = max(worst, abs(delta_an - delta_ed) / delta_ed)
    report(8, "two-level gap vs ED gap within 5% across gbar2 in [0.3, 0.99]",
           worst < 0.05, f"max rel dev {worst:.4f}")


def test_criterion_9_wigner_properties():
    # vacuum oracle
    from qrabi.fockspace import SpinorFockVector
    plus = np.zeros(21)
    plus[0] = 1.0
    x = np.linspace(-6.0, 6.0, 128)
    grid = wg.wigner(SpinorFockVector(plus, np.zeros(21), 20), x, x)
    vac_err = float(np.max(np.abs(
        grid.values_plus - np.exp(-x[:, None] ** 2 - x[None, :] ** 2) / math.pi)))

    # squeezed-displaced closed form at Omega = 0
    p = ModelParams(omega=1.0, Omega=0.0, g1=0.3, g2=0.9 * 0.25)
    sc = derived_scales(p)
    _, vec = ground_state(p, default_cutoff(p))
    xg, pg = wg.default_grid(p, 192)
    sd = wg.wigner(vec, xg, pg, params=p)
    oracle = np.exp(-sc.varpi_minus * (xg[:, None] - sc.b_minus) ** 2
                    - pg[None, :] ** 2 / sc.varpi_minus) / math.pi
    sd_err = float(np.max(np.abs(sd.values_minus - oracle)))

    # normalization at the strongly mixed squeezed point (256^2 grid)
    p7 = ModelParams(omega=1.0, Omega=1.0, g2=0.9942 * 0.25)
    _, vec7 = ground_state(p7, default_cutoff(p7))
    x7, p7g = wg.default_grid(p7, 256)
    grid7 = wg.wigner(vec7, x7, p7g, params=p7)
    norm_err = abs(grid7.total_norm() - 1.0)

    ok = vac_err < 1e-8 and sd_err < 1e-6 and norm_err < 1e-3
    report(9, "Wigner: vacuum 1e-8, squeezed-displaced 1e-6, norm 1e-3", ok,
           f"vac {vac_err:.1e}, oracle {sd_err:.1e}, norm {norm_err:.1e}")


def test_criterion_10_property_suites():
    checks = {}

    # Hamiltonian symmetry and photon parity at eps = g1 = 0
    p = dimensionless(0.4, 0.0, 0.8)
    h = oracles.dense_hamiltonian(p, 40)
    checks["symmetry"] = bool(np.array_equal(h, h.T))
    _, v = ground_state(p, 80)
    checks["parity"] = float(max(np.max(np.abs(v.coeff_plus[1::2])),
                                 np.max(np.abs(v.coeff_minus[1::2])))) < 1e-10

    # variational bound
    pv = ModelParams(omega=1.0, Omega=1.0, g1=0.1, g2=0.95 * 0.25, epsilon=0.33)
    res = multipolaron.variational_ground(pv)
    e_ed, _ = ground_state(pv, default_cutoff(pv))
    checks["variational_bound"] = res.energy >= e_ed - 1e-10

    # QFI non-negative
    pq = dimensionless(0.05, 0.3, 0.6, 0.1)
    checks["qfi_nonnegative"] = qfi_ed(pq, lam="g2").total >= 0.0

    # fidelity susceptibility chi_F = F_Q/4 within 2%
    n = default_cutoff(pq)
    fq = qfi_ed(pq, lam="g2", cutoff=n).total
    delta = 2e-4 * 0.25
    chi = 2.0 * (1.0 - oracles.fidelity(pq, "g2", delta, cutoff=n)) / delta ** 2
    checks["chi_f"] = abs(4.0 * chi - fq) / fq < 0.02

    # mixed-term exact zeros at n_p = 1 (same-packet Gaussian integrals)
    a = polaron.adiabatic_ansatz(pq)
    zero = 0.0
    for pk in (*a.packets_plus, *a.packets_minus):
        zero += abs(oracles.braket_dxi_dm(pk.xi, pk.center, pk.xi, pk.center))
        zero += abs(oracles.braket_dxi_phi(pk.xi, pk.center, pk.xi, pk.center))
        zero += abs(oracles.braket_dm_phi(pk.xi, pk.center, pk.xi, pk.center))
    checks["np1_mixed_zero"] = zero == 0.0

    # intra-polaron mixed integrals zero at n_p = 2
    zero2 = 0.0
    for pk in (*res.ansatz.packets_plus, *res.ansatz.packets_minus):
        zero2 += abs(oracles.braket_dxi_dm(pk.xi, pk.center, pk.xi, pk.center))
        zero2 += abs(oracles.braket_dxi_phi(pk.xi, pk.center, pk.xi, pk.center))
        zero2 += abs(oracles.braket_dm_phi(pk.xi, pk.center, pk.xi, pk.center))
    checks["np2_intra_mixed_zero"] = zero2 == 0.0

    ok = all(checks.values())
    report(10, "property suites (symmetry, parity, bounds, chi_F, exact zeros)",
           ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
