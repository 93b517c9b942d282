import math

import numpy as np
import pytest
from scipy.integrate import quad

from qrabi import gaussians as gs

import oracles
from oracles import moment


def phi(xi, m):
    return lambda x: xi ** 0.25 * math.exp(-0.5 * xi * (x - m) ** 2) / math.pi ** 0.25


def dphi_dxi(xi, m):
    f = phi(xi, m)
    return lambda x: (1.0 / (4.0 * xi) - 0.5 * (x - m) ** 2) * f(x)


def dphi_dm(xi, m):
    f = phi(xi, m)
    return lambda x: xi * (x - m) * f(x)


def quad_product(f, g, lim=40.0):
    val, err = quad(lambda x: f(x) * g(x), -lim, lim, limit=800,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return val


PAIRS = [
    (1.0, 0.0, 1.0, 0.0),
    (0.3, -1.2, 1.7, 0.8),
    (2.5, 0.4, 0.1, -2.0),
    (0.05, 3.0, 0.06, -3.0),
]


@pytest.mark.parametrize("xa,ma,xb,mb", PAIRS)
def test_overlap_matches_quadrature(xa, ma, xb, mb):
    expect = quad_product(phi(xa, ma), phi(xb, mb))
    assert gs.overlap(xa, ma, xb, mb) == pytest.approx(expect, abs=1e-10)


def test_overlap_of_identical_packets_is_one():
    assert gs.overlap(0.7, 1.3, 0.7, 1.3) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("xi", [0.1, 0.5, 1.0, 4.0])
def test_same_packet_derivative_norms(xi):
    # <dphi/dxi|dphi/dxi> = 1/(8 xi^2) and <dphi/dm|dphi/dm> = xi/2
    m = 0.37
    assert oracles.braket_dxi_dxi(xi, m, xi, m) == pytest.approx(
        1.0 / (8.0 * xi * xi), rel=1e-12)
    assert oracles.braket_dm_dm(xi, m, xi, m) == pytest.approx(xi / 2.0, rel=1e-12)
    # against quadrature to 1e-10
    assert quad_product(dphi_dxi(xi, m), dphi_dxi(xi, m)) == pytest.approx(
        1.0 / (8.0 * xi * xi), abs=1e-10)
    assert quad_product(dphi_dm(xi, m), dphi_dm(xi, m)) == pytest.approx(
        xi / 2.0, abs=1e-10)


@pytest.mark.parametrize("xi,m", [(0.4, -0.7), (1.0, 0.0), (3.0, 1.1)])
def test_same_packet_mixed_integrals_vanish_exactly(xi, m):
    # odd-parity integrands: exact zeros from the closed form
    assert oracles.braket_dxi_dm(xi, m, xi, m) == 0.0
    assert oracles.braket_dxi_phi(xi, m, xi, m) == 0.0
    assert oracles.braket_dm_phi(xi, m, xi, m) == 0.0
    # and numerically zero by quadrature
    assert abs(quad_product(dphi_dxi(xi, m), dphi_dm(xi, m))) < 1e-12
    assert abs(quad_product(dphi_dxi(xi, m), phi(xi, m))) < 1e-12
    assert abs(quad_product(dphi_dm(xi, m), phi(xi, m))) < 1e-12


@pytest.mark.parametrize("xa,ma,xb,mb", PAIRS)
def test_cross_derivative_elements_match_quadrature(xa, ma, xb, mb):
    cases = [
        (oracles.braket_dxi_dxi, dphi_dxi(xa, ma), dphi_dxi(xb, mb)),
        (oracles.braket_dm_dm, dphi_dm(xa, ma), dphi_dm(xb, mb)),
        (oracles.braket_dxi_dm, dphi_dxi(xa, ma), dphi_dm(xb, mb)),
        (oracles.braket_dxi_phi, dphi_dxi(xa, ma), phi(xb, mb)),
        (oracles.braket_dm_phi, dphi_dm(xa, ma), phi(xb, mb)),
    ]
    for func, bra, ket in cases:
        assert func(xa, ma, xb, mb) == pytest.approx(
            quad_product(bra, ket), abs=1e-10)


@pytest.mark.parametrize("xa,ma,xb,mb", PAIRS)
def test_kinetic_element_matches_quadrature(xa, ma, xb, mb):
    f = phi(xb, mb)
    d2 = lambda x: (xb ** 2 * (x - mb) ** 2 - xb) * f(x)  # phi''
    expect = -quad_product(phi(xa, ma), d2)
    assert oracles.p2_element(xa, ma, xb, mb) == pytest.approx(expect, abs=1e-10)
    # hermiticity
    assert oracles.p2_element(xa, ma, xb, mb) == pytest.approx(
        oracles.p2_element(xb, mb, xa, ma), rel=1e-12)


@pytest.mark.parametrize("center", [0.0, -1.5, 2.3])
def test_x2_element_matches_quadrature(center):
    xa, ma, xb, mb = 0.8, -0.4, 1.9, 0.9
    expect = quad_product(phi(xa, ma),
                          lambda x: (x - center) ** 2 * phi(xb, mb)(x))
    assert oracles.x2_element(xa, ma, xb, mb, center) == pytest.approx(expect, abs=1e-10)


def test_kinetic_of_ground_state():
    # <p^2>/2 = xi/4 for the oscillator ground state
    assert oracles.p2_element(1.7, 0.0, 1.7, 0.0) == pytest.approx(1.7 / 2.0, rel=1e-12)


def test_positive_width_required():
    with pytest.raises(ValueError):
        gs.overlap(-1.0, 0.0, 1.0, 0.0)


def test_packet_values_normalized():
    x = np.linspace(-30, 30, 20001)
    vals = oracles.packet_values(0.23, 1.1, x)
    norm = np.trapezoid(vals ** 2, x)
    assert norm == pytest.approx(1.0, abs=1e-9)


def d2phi_dxi2(xi, m):
    f = phi(xi, m)
    return lambda x: (0.25 * (x - m) ** 4 - (x - m) ** 2 / (4.0 * xi)
                      - 3.0 / (16.0 * xi * xi)) * f(x)


def d2phi_dxi_dm(xi, m):
    f = phi(xi, m)
    return lambda x: (1.25 * (x - m) - 0.5 * xi * (x - m) ** 3) * f(x)


def d2phi_dm2(xi, m):
    f = phi(xi, m)
    return lambda x: (xi * xi * (x - m) ** 2 - xi) * f(x)


def ddx(f, h=1e-3):
    """Five-point central difference in x."""
    return lambda x: (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


@pytest.mark.parametrize("xi,m", [(0.4, -0.7), (1.3, 0.2)])
def test_second_derivative_oracles_match_differences(xi, m):
    # the expanded oracles above against central differences of phi itself
    h = 1e-4
    for x in (-1.1, 0.3, 2.0):
        d_xx = (phi(xi + h, m)(x) - 2 * phi(xi, m)(x) + phi(xi - h, m)(x)) / h ** 2
        d_mm = (phi(xi, m + h)(x) - 2 * phi(xi, m)(x) + phi(xi, m - h)(x)) / h ** 2
        d_xm = (phi(xi + h, m + h)(x) - phi(xi + h, m - h)(x)
                - phi(xi - h, m + h)(x) + phi(xi - h, m - h)(x)) / (4 * h * h)
        assert d2phi_dxi2(xi, m)(x) == pytest.approx(d_xx, rel=1e-5, abs=1e-7)
        assert d2phi_dm2(xi, m)(x) == pytest.approx(d_mm, rel=1e-5, abs=1e-7)
        assert d2phi_dxi_dm(xi, m)(x) == pytest.approx(d_xm, rel=1e-5, abs=1e-7)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("xa,ma,xb,mb", PAIRS)
def test_second_derivative_polynomials_match_quadrature(xa, ma, xb, mb):
    pair = gs.GaussPair(xa, ma, xb, mb)
    firsts = {"dxi": (pair.dxi_poly, dphi_dxi), "dm": (pair.dm_poly, dphi_dm)}
    seconds = [(pair.dxi2_poly, d2phi_dxi2), (pair.dxi_dm_poly, d2phi_dxi_dm),
               (pair.dm2_poly, d2phi_dm2)]
    for poly, func in seconds:
        assert moment(pair, poly("a")) == pytest.approx(
            quad_product(func(xa, ma), phi(xb, mb)), abs=1e-10)
        for ket_poly, ket_func in firsts.values():
            assert moment(pair, gs.poly_mul(poly("a"), ket_poly("b"))) == pytest.approx(
                quad_product(func(xa, ma), ket_func(xb, mb)), abs=1e-10)
        assert moment(pair, gs.poly_mul(pair.dxi_poly("a"), poly("b"))) == pytest.approx(
            quad_product(dphi_dxi(xa, ma), func(xb, mb)), abs=1e-10)


@pytest.mark.parametrize("xa,ma,xb,mb", PAIRS)
def test_kinetic_between_derivatives_matches_quadrature(xa, ma, xb, mb):
    # <P phi_a| p^2 |Q phi_b> = <(P phi_a)'|(Q phi_b)'>, with (P phi)' from ddx_poly
    pair = gs.GaussPair(xa, ma, xb, mb)
    cases = [(np.ones(1), phi(xa, ma), pair.dm2_poly("b"), d2phi_dm2(xb, mb)),
             (pair.dxi_poly("a"), dphi_dxi(xa, ma), pair.dm_poly("b"), dphi_dm(xb, mb)),
             (pair.dxi2_poly("a"), d2phi_dxi2(xa, ma), pair.dxi_dm_poly("b"),
              d2phi_dxi_dm(xb, mb))]
    for bra_poly, bra, ket_poly, ket in cases:
        closed = moment(pair, gs.poly_mul(pair.ddx_poly(bra_poly, "a"),
                                          pair.ddx_poly(ket_poly, "b")))
        assert closed == pytest.approx(quad_product(ddx(bra), ddx(ket)), abs=1e-9)
    # the plain kinetic element agrees with p2_poly
    assert moment(pair, gs.poly_mul(pair.ddx_poly(np.ones(1), "a"),
                                    pair.ddx_poly(np.ones(1), "b"))) == pytest.approx(
        oracles.p2_element(xa, ma, xb, mb), rel=1e-12, abs=1e-15)


def test_gram_and_frame_shift_match_moments():
    pair = gs.GaussPair(0.6, -0.8, 2.1, 0.5)
    rng = np.random.default_rng(3)
    own_a, own_b = rng.normal(size=(3, 4)), rng.normal(size=(2, 3))
    rows_a, rows_b = pair.in_frame(own_a, -0.8), pair.in_frame(own_b, 0.5)
    # a row in (x - m) and its shifted form agree as functions of x
    x = np.array([-1.0, 0.2, 1.7])
    for own, shifted, m in ((own_a, rows_a, -0.8), (own_b, rows_b, 0.5)):
        for r_own, r_u in zip(own, shifted):
            assert np.polyval(r_u[::-1], x - pair.mu) == pytest.approx(
                np.polyval(r_own[::-1], x - m), rel=1e-12)
    weight = np.array([0.3, -1.0, 0.5])
    gram = pair.gram(rows_a, rows_b, weight)
    for i, ra in enumerate(rows_a):
        for j, rb in enumerate(rows_b):
            assert gram[i, j] == pytest.approx(
                moment(pair, gs.poly_mul(gs.poly_mul(ra, weight), rb)), rel=1e-12, abs=1e-14)
