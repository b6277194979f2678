import cmath

import numpy as np
import pytest

from deltashell.dirac_algebra import (
    ALPHA,
    BETA,
    I4,
    SpectralParameter,
    alpha_dot,
    kernel_fields,
    phi_a,
    spinor_blocks,
)

RNG = np.random.default_rng(7)


def test_clifford_relations_exact():
    for i in range(3):
        for j in range(3):
            anti = ALPHA[i] @ ALPHA[j] + ALPHA[j] @ ALPHA[i]
            want = 2.0 * I4 if i == j else np.zeros((4, 4))
            assert np.array_equal(anti, want)
        assert np.array_equal(ALPHA[i] @ BETA + BETA @ ALPHA[i], np.zeros((4, 4)))
        assert np.array_equal(ALPHA[i], ALPHA[i].conj().T)
    assert np.array_equal(BETA @ BETA, I4)
    assert np.array_equal(BETA, BETA.conj().T)


def test_branch_selection_and_rejections():
    assert SpectralParameter(0.5, 1.0).branch == pytest.approx(np.sqrt(0.75))
    assert SpectralParameter(2.0 + 1.0j, 1.0).branch.real > 0
    assert SpectralParameter(-3.0j, 0.0).branch.real > 0
    # degenerate massless threshold is admitted with w = 0
    assert SpectralParameter(0.0, 0.0).branch == 0.0
    for bad_a, m in [(1.5, 1.0), (1.0, 1.0), (-1.0, 1.0), (0.3, 0.0)]:
        with pytest.raises(ValueError):
            SpectralParameter(bad_a, m)
    with pytest.raises(ValueError):
        SpectralParameter(0.5, -1.0)
    # a non-finite a or m is refused by name, not carried into the kernel
    for bad_a in (np.nan, complex(np.nan, 1.0), complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="a must be finite"):
            SpectralParameter(bad_a, 1.0)
    for bad_m in (np.nan, np.inf):
        with pytest.raises(ValueError, match="m must be finite"):
            SpectralParameter(0.5j, bad_m)


def test_phi_known_entry():
    # at a=0, m=1, x=e1: diagonal carries e^{-1}/(4 pi)
    sp = SpectralParameter(0.0, 1.0)
    val = phi_a(sp, np.array([1.0, 0.0, 0.0]))
    assert val[0, 0] == pytest.approx(0.029274915762159584, abs=1e-15)
    assert val[3, 3] == pytest.approx(-0.029274915762159584, abs=1e-15)


def test_phi_solves_dirac_equation():
    sp = SpectralParameter(0.4 + 0.2j, 1.0)
    h = 1e-4
    for x in ([0.7, -0.3, 0.5], [1.2, 0.1, -0.4], [-0.2, 0.9, 0.33]):
        x = np.array(x)
        grad = []
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            grad.append((phi_a(sp, x + e) - phi_a(sp, x - e)) / (2 * h))
        residual = (
            -1j * sum(ALPHA[k] @ grad[k] for k in range(3))
            + sp.m * (BETA @ phi_a(sp, x))
            - sp.a * phi_a(sp, x)
        )
        assert np.max(np.abs(residual)) < 1e-6


def test_conjugation_symmetry():
    sp = SpectralParameter(0.5 + 0.3j, 1.0)
    xs = RNG.normal(size=(10, 3))
    lhs = np.conj(np.swapaxes(phi_a(sp, xs), -1, -2))
    rhs = phi_a(SpectralParameter(np.conj(sp.a), sp.m), -xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_massless_threshold_kernel_is_odd():
    sp = SpectralParameter(0.0, 0.0)
    xs = RNG.normal(size=(10, 3))
    r = np.linalg.norm(xs, axis=1)
    odd = 1j * alpha_dot(xs) / (4.0 * np.pi * r[:, None, None] ** 3)
    assert np.max(np.abs(phi_a(sp, xs) - odd)) < 1e-15
    assert np.max(np.abs(phi_a(sp, xs) + phi_a(sp, -xs))) < 1e-15


def test_singularity_guard():
    sp = SpectralParameter(0.0, 1.0)
    for bad in (np.zeros(3), np.array([1e-13, 0, 0])):
        with pytest.raises(ValueError):
            phi_a(sp, bad)


def test_exponential_decay_rate():
    sp = SpectralParameter(0.6, 1.0)
    w = sp.branch.real
    e = np.array([1.0, 2.0, 2.0]) / 3.0
    ts = np.array([2.0, 4.0, 8.0, 16.0])
    norms = np.array([np.linalg.norm(phi_a(sp, t * e), 2) for t in ts])
    # r * e^{w r} * |phi| should stay bounded and roughly constant
    scaled = ts * np.exp(w * ts) * norms
    assert np.all(scaled < 1.0)
    assert scaled.max() / scaled.min() < 1.5


def test_alpha_dot_square_is_norm():
    xs = RNG.normal(size=(8, 3))
    ad = alpha_dot(xs)
    sq = np.einsum("nij,njk->nik", ad, ad)
    r2 = np.sum(xs * xs, axis=1)
    assert np.max(np.abs(sq - r2[:, None, None] * I4)) < 1e-14


def _phi_a_by_outer_products(sp, xs):
    """phi_a summed from dense 4x4 stacks by five multiply.outer passes."""
    pref, odd = kernel_fields(sp, xs)
    even = np.multiply.outer(pref, sp.a * I4 + sp.m * BETA)
    return even + odd[:, None, None] * (1j * alpha_dot(xs))


@pytest.mark.parametrize("a, m", [(0.4 + 0.2j, 1.0), (1j, 1.0), (-0.5, 1.0),
                                  (-3j, 0.0), (0.0, 0.0)])
def test_fields_compose_the_closed_form(a, m):
    # phi_a = pref (a + m beta) + odd i alpha.x, point by point with cmath
    sp = SpectralParameter(a, m)
    xs = RNG.normal(size=(12, 3)) * RNG.uniform(0.05, 3.0, size=(12, 1))
    want = []
    for x in xs:
        r = float(np.sqrt(x @ x))
        decay = cmath.exp(-sp.branch * r) / (4.0 * np.pi * r)
        want.append(decay * (sp.a * I4 + sp.m * BETA + (1.0 + sp.branch * r)
                             * 1j * sum(x[c] * ALPHA[c] for c in range(3))
                             / r**2))
    want = np.array(want)
    composed = _phi_a_by_outer_products(sp, xs)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(composed - want)) <= 1e-14 * scale
    assert np.max(np.abs(phi_a(sp, xs) - want)) <= 1e-14 * scale


def test_fields_keep_the_batch_shape_and_the_guard():
    sp = SpectralParameter(0.5, 1.0)
    xs = RNG.normal(size=(2, 5, 3))
    pref, odd = kernel_fields(sp, xs)
    assert pref.shape == odd.shape == (2, 5)
    assert np.array_equal(phi_a(sp, xs), phi_a(sp, xs.reshape(-1, 3)).reshape(
        2, 5, 4, 4))
    assert kernel_fields(sp, xs[0, 0])[0].shape == (1,)
    for bad in (np.zeros((4, 3)), np.array([[1.0, 0.0, 0.0], [0.0, 1e-13, 0.0]])):
        with pytest.raises(ValueError, match="singular point"):
            kernel_fields(sp, bad)
    with pytest.raises(ValueError, match="3-vectors"):
        kernel_fields(sp, np.ones((4, 2)))


@pytest.mark.parametrize("a, exact", [(1j, True), (-0.5, True),
                                      (0.3 + 0.2j, False)])
def test_phi_a_entries_match_the_outer_product_sum(a, exact):
    # where the fields are real (a imaginary or in the gap) the entries
    # are the same products, so the same bits; complex fields may round
    # differently in a complex product
    sp = SpectralParameter(a, 1.0)
    xs = RNG.normal(size=(500, 3)) * RNG.uniform(0.05, 3.0, size=(500, 1))
    got, want = phi_a(sp, xs), _phi_a_by_outer_products(sp, xs)
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    # a + m beta is diagonal and i alpha.x off-block-diagonal, so the
    # off-diagonal entries of the diagonal 2x2 blocks are exactly zero
    rows, cols = (0, 1, 2, 3), (1, 0, 3, 2)
    assert np.all(got[:, rows, cols] == 0)
    assert np.count_nonzero(got) == 12 * len(xs)


@pytest.mark.parametrize("a", [1j, 0.3 + 0.2j])
@pytest.mark.parametrize("dtype", [float, complex])
def test_spinor_blocks_match_the_alpha_dot_sum(a, dtype):
    # the 12 written entries are the products of the dense sum, bit for
    # bit, for real fields and for the complex ones of the cell rule
    sp = SpectralParameter(a, 1.0)
    even = RNG.normal(size=(6, 5)).astype(dtype)
    vec = RNG.normal(size=(6, 5, 3)).astype(dtype)
    if dtype is complex:
        even += 1j * RNG.normal(size=even.shape)
        vec += 1j * RNG.normal(size=vec.shape)
    want = (even[..., None, None] * (sp.a * I4 + sp.m * BETA)
            + 1j * alpha_dot(vec))
    got = spinor_blocks(sp, even, vec)
    assert got.shape == (6, 5, 4, 4)
    assert np.array_equal(got, want)
