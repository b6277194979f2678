"""Tests of the benchmark's references against exact identities.

    python3 -m pytest perfbench/check_reference.py

The file is named outside pytest's ``test_*`` pattern so the package's
own suite does not collect it; pass it explicitly as above.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import reference as ref  # noqa: E402

#: spectral points: off the axis (the workloads' a = i) and inside the gap
POINTS = [(1j, 1.0), (0.5, 1.0), (0.3 + 0.2j, 1.3)]
SPINOR = np.array([1.0, 0.5, -0.25j, 0.3])


def _inside(w, rho, r):
    return rho * np.exp(-w * rho) * np.sinh(w * r) / (w * r)


def _outside(w, rho, r):
    return rho * np.sinh(w * rho) * np.exp(-w * r) / (w * r)


@pytest.mark.parametrize("a,m", POINTS)
@pytest.mark.parametrize("rho", [0.5, 1.0, 1.3])
def test_layer_even_part_is_continuous_and_its_derivative_jumps_by_minus_one(a, m, rho):
    w = ref.branch(a, m)
    s, d_in, d_out = ref.layer_profile(w, rho, rho)
    assert abs(_inside(w, rho, rho) - s) < 1e-14
    assert abs(_outside(w, rho, rho) - s) < 1e-14
    assert abs((d_out - d_in) - (-1.0)) < 1e-14
    h = 1e-5
    for r, form, pick in ((0.6 * rho, _inside, 1), (1.7 * rho, _outside, 2)):
        fd = (form(w, rho, r + h) - form(w, rho, r - h)) / (2 * h)
        got = ref.layer_profile(w, rho, r)
        assert abs(got[0] - form(w, rho, r)) < 1e-14
        assert abs(got[pick] - fd) < 1e-8


def _sphere_quadrature(rho, n_theta=80, n_phi=160):
    """Gauss-Legendre in cos(theta) times the trapezoid rule in phi."""
    x, wx = leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(1.0 - x * x)
    pts = rho * np.stack([np.outer(sin_t, np.cos(phi)), np.outer(sin_t, np.sin(phi)),
                          np.outer(x, np.ones(n_phi))], axis=-1).reshape(-1, 3)
    wts = (rho * rho * np.outer(wx, np.full(n_phi, 2.0 * np.pi / n_phi))).ravel()
    return pts, wts


@pytest.mark.parametrize("a,m", POINTS)
@pytest.mark.parametrize("r", [0.5, 2.0])
def test_layer_matches_quadrature_of_phi_a_off_the_sheet(a, m, r):
    from deltashell.dirac_algebra import SpectralParameter, phi_a

    rho = 1.0
    direction = np.array([0.36, -0.48, 0.8])
    x = r * direction
    pts, wts = _sphere_quadrature(rho)
    blocks = phi_a(SpectralParameter(a, m), x[None, :] - pts)
    quad = np.einsum("j,jab,b->a", wts, blocks, SPINOR)
    got = ref.sphere_layer(a, m, rho, r, direction[None, :], SPINOR)[0]
    assert np.max(np.abs(got - quad)) < 1e-12


@pytest.mark.parametrize("a,m", POINTS)
def test_kernel_sums_match_phi_a(a, m):
    from deltashell.dirac_algebra import SpectralParameter, phi_a

    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(5, 3)), rng.normal(size=(7, 3)) + 3.0
    coeff = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    blocks = phi_a(SpectralParameter(a, m), (x[:, None] - y[None]).reshape(-1, 3))
    want = np.einsum("ijab,jb->ia", blocks.reshape(5, 7, 4, 4), coeff)
    got = ref.kernel_apply(a, m, x, y, coeff)
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("kappa", [-2, -1, 1, 2])
@pytest.mark.parametrize("a", [-0.6, 0.3])
@pytest.mark.parametrize("solution", [ref.free_inner, ref.free_outer])
def test_bessel_solutions_satisfy_the_free_radial_system(kappa, a, solution):
    m, h = 1.0, 1e-4
    for r in (0.5, 1.0, 2.0):
        # fourth-order central difference
        deriv = (-solution(kappa, m, a, r + 2 * h) + 8 * solution(kappa, m, a, r + h)
                 - 8 * solution(kappa, m, a, r - h)
                 + solution(kappa, m, a, r - 2 * h)) / (12 * h)
        rhs = ref.radial_rhs(kappa, m, a, r, solution(kappa, m, a, r))
        scale = np.max(np.abs(solution(kappa, m, a, r)))
        assert np.max(np.abs(deriv - rhs)) < 1e-9 * max(scale, 1.0)


@pytest.mark.parametrize("kappa", [-1, 1, 2])
@pytest.mark.parametrize("kind", ["electrostatic", "scalar"])
def test_zero_well_reproduces_free_propagation(kappa, kind):
    m, a, r0, r1 = 1.0, -0.4, 0.8, 1.2
    for solution in (ref.free_inner, ref.free_outer):
        start, want = solution(kappa, m, a, r0), solution(kappa, m, a, r1)
        got = ref.through_well(kappa, m, a, r0, r1, start, lambda r: 0.0, kind)
        # same solution up to the starting scale
        got = got * np.max(np.abs(start))
        assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("kind,gen", [("electrostatic", [[0, -1], [1, 0]]),
                                      ("scalar", [[0, 1], [1, 0]])])
@pytest.mark.parametrize("lam", [-1.0, 0.4, 1.0926])
def test_shell_matrix_is_the_cayley_transform(kind, gen, lam):
    half = 0.5 * lam * np.array(gen, dtype=float)
    want = np.linalg.solve(np.eye(2) - half, np.eye(2) + half)
    assert np.max(np.abs(ref.shell_matrix(lam, kind) - want)) < 1e-14


def test_shell_root_of_the_unit_well_is_stable_under_the_scan():
    det = ref.shell_det(-1, 1.0, 1.0, 2.0 * math.tan(0.5), "electrostatic")
    roots = ref.scan_roots(det, -0.9999, 0.9999)
    assert len(roots) == 1
    assert abs(ref.root_near(det, roots[0] + 1e-3) - roots[0]) < 1e-14


def test_committed_table_matches_the_kinked_profile():
    with open(ref.KINKED_TABLE, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert tuple(doc["ts"]) == ref.KINKED_TS
    assert tuple(doc["vs"]) == ref.KINKED_VS
    assert abs(ref.kinked_integral() - 1.236) < 1e-15
