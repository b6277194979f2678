import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltashell.potential import (
    factorize,
    from_table,
    is_delta_eta_small,
    profile_from_json,
    square_well,
    squeeze,
    truncated_gaussian,
)

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(200)


def l2_norm_sq(f):
    return float(np.sum(GL_WEIGHTS * np.abs(f(GL_NODES)) ** 2))


def test_square_well_shape():
    p = square_well(1.0, 0.1)
    assert p(0.0) == 0.5
    assert p(0.099) == 0.5
    assert p(0.11) == 0.0
    assert p.integral() == pytest.approx(0.1)
    assert p.sup_norm() == 0.5


def test_smallness_examples():
    assert is_delta_eta_small(square_well(1.0, 0.1), 0.1) is True
    assert is_delta_eta_small(square_well(30.0, 0.1), 0.1) is False


@settings(max_examples=60, deadline=None)
@given(
    tau=st.floats(-20, 20),
    eta=st.floats(0.01, 2.0),
    delta=st.floats(1e-3, 5.0),
)
def test_smallness_implies_l1_bound(tau, eta, delta):
    p = square_well(tau, eta)
    if is_delta_eta_small(p, delta):
        assert p.l1_norm() <= 2.0 * delta + 1e-12


def test_factorize_zero_potential():
    p = from_table((-0.5, 0.0, 0.5), (0.0, 0.0, 0.0), eta=0.5)
    f = factorize(p)
    t = np.linspace(-1.5, 1.5, 101)
    assert np.all(f.u(t) == 0.0)
    assert np.all(f.v(t) == 0.0)


def test_factorize_square_well_values():
    p = square_well(2.0, 0.3)
    f = factorize(p)
    want = np.sqrt(0.3 * 2.0 / 2.0)
    assert f.u(0.2) == pytest.approx(want)
    assert f.v(0.2) == pytest.approx(want)
    assert f.u(1.2) == 0.0
    # attractive well flips v only
    g = factorize(square_well(-2.0, 0.3))
    assert g.u(0.2) == pytest.approx(want)
    assert g.v(0.2) == pytest.approx(-want)


@settings(max_examples=40, deadline=None)
@given(
    amp=st.floats(-10, 10),
    sigma=st.floats(0.05, 3.0),
    eta=st.floats(0.05, 2.0),
)
def test_factorization_identities(amp, sigma, eta):
    p = truncated_gaussian(amp, sigma, eta)
    f = factorize(p)
    t = np.linspace(-1, 1, 401)
    assert np.max(np.abs(f.u(t) * f.v(t) - eta * p(eta * t))) < 1e-12
    l1 = p.l1_norm()
    assert l2_norm_sq(f.u) == pytest.approx(l1, abs=1e-10, rel=1e-9)
    assert l2_norm_sq(f.v) == pytest.approx(l1, abs=1e-10, rel=1e-9)


def test_norm_product_equals_l1():
    p = square_well(3.0, 0.4)
    f = factorize(p)
    prod = np.sqrt(l2_norm_sq(f.u)) * np.sqrt(l2_norm_sq(f.v))
    assert prod == pytest.approx(p.l1_norm(), abs=1e-10)


def test_squeeze_square_well():
    p = square_well(1.0, 0.1)
    fam = squeeze(p, 0.01)
    assert fam(0.0) == pytest.approx(5.0)
    assert fam(0.02) == 0.0
    assert fam.integral() == pytest.approx(0.1)
    # quadrature integral agrees with the declared invariant
    t = np.linspace(-0.01, 0.01, 200_001)
    assert np.trapezoid(fam(t), t) == pytest.approx(0.1, rel=1e-4)


def test_squeeze_identity_and_invariance():
    p = truncated_gaussian(2.0, 0.05, 0.1)
    t = np.linspace(-0.2, 0.2, 301)
    assert np.max(np.abs(squeeze(p, p.eta)(t) - p(t))) < 1e-14
    base = p.integral()
    for eps in (p.eta, p.eta / 2, p.eta / 10):
        assert squeeze(p, eps).integral() == pytest.approx(base, abs=1e-12)
        s = np.linspace(-2 * eps, 2 * eps, 501)
        assert np.all(squeeze(p, eps)(s)[np.abs(s) > eps] == 0.0)


def test_squeeze_rejects_widening():
    with pytest.raises(ValueError):
        squeeze(square_well(1.0, 0.1), 0.2)
    with pytest.raises(ValueError):
        squeeze(square_well(1.0, 0.1), 0.0)


def test_json_round_trip():
    p = square_well(1.5, 0.2)
    q = profile_from_json(p.to_json())
    assert q == p
    tab = from_table((-0.1, 0.0, 0.1), (1.0, -2.0, 0.5), eta=0.1)
    back = profile_from_json(tab.to_json())
    assert back.ts == tab.ts and back.vs == tab.vs and back.eta == tab.eta
    assert back(0.05) == pytest.approx(-0.75)
    # documents of the older "pwlinear" kind read as the same table
    older = tab.to_json().replace('"table"', '"pwlinear"')
    assert profile_from_json(older) == tab


@pytest.mark.parametrize("doc, named", [
    ('{"x": [0.0, 1.0], "v": [1.0, 1.0]}', "'kind'"),
    ('{"kind": "table", "ts": [-0.1, 0.1], "eta": 0.1}', "'vs'"),
    ('{"kind": "pwlinear", "ts": [-0.1, 0.1], "vs": [1.0, 1.0]}', "'eta'"),
    ("[1, 2]", "JSON object"),
], ids=["no-kind", "no-vs", "no-eta", "list"])
def test_malformed_json_profile_names_what_is_missing(doc, named):
    with pytest.raises(ValueError, match=named):
        profile_from_json(doc)


def test_table_keeps_node_signs():
    tab = from_table((-1.0, -0.5, 0.0, 0.5, 1.0), (1.0, 0.0, -3.0, 0.0, 2.0), eta=1.0)
    f = factorize(tab)
    assert np.sign(f.v(-1.0)) == 1.0
    assert f.v(-0.5) == 0.0
    assert np.sign(f.v(0.0)) == -1.0
    assert np.sign(f.v(1.0)) == 1.0


def test_pwlinear_l1_with_sign_change():
    p = from_table((-1.0, 1.0), (-2.0, 2.0))
    assert p.integral() == pytest.approx(0.0)
    assert p.l1_norm() == pytest.approx(2.0)


def test_gaussian_integral_matches_quadrature():
    p = truncated_gaussian(1.3, 0.4, 0.9)
    t = np.linspace(-0.9, 0.9, 400_001)
    assert p.integral() == pytest.approx(np.trapezoid(p(t), t), rel=1e-8)


def test_bad_constructions():
    with pytest.raises(ValueError):
        square_well(1.0, -0.1)
    with pytest.raises(ValueError):
        from_table((0.0,), (1.0,), eta=1.0)
    with pytest.raises(ValueError):
        from_table((0.0, -0.5), (1.0, 1.0), eta=1.0)
    with pytest.raises(ValueError):
        from_table((-2.0, 2.0), (1.0, 1.0), eta=1.0)
