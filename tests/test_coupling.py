import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltashell.coupling import (
    KVOperator,
    NonContractive,
    build_kv,
    effective_coupling,
    lambda_electrostatic,
    lambda_neumann,
)
from deltashell.potential import (
    factorize,
    from_table,
    square_well,
    truncated_gaussian,
)


def kv_for_square(tau, eta, n=128):
    return build_kv(factorize(square_well(tau, eta)), n)


def table_l1_norm(ts, vs):
    """Exact int |V| of a table: |linear| per segment, split at a sign change."""
    total = 0.0
    for t0, t1, v0, v1 in zip(ts[:-1], ts[1:], vs[:-1], vs[1:]):
        h = t1 - t0
        if v0 * v1 >= 0:
            total += 0.5 * h * (abs(v0) + abs(v1))
        else:
            tc = h * abs(v0) / (abs(v0) + abs(v1))
            total += 0.5 * (tc * abs(v0) + (h - tc) * abs(v1))
    return total


def test_zero_potential_gives_zero_matrix():
    p = from_table((-0.5, 0.5), (0.0, 0.0), eta=0.5)
    kv = build_kv(factorize(p), 64)
    assert np.all(kv.matrix == 0.0)
    assert kv.hs_norm == 0.0
    res = lambda_electrostatic(kv)
    assert res.lambda_e == 0.0 and res.lambda_s == 0.0


def test_node_count_guard():
    with pytest.raises(ValueError):
        build_kv(factorize(square_well(1.0, 0.1)), 7)


def test_hs_norm_square_well():
    # tau*eta = 0.2, so the kernel HS norm is half the L1 norm: 0.1
    kv = kv_for_square(2.0, 0.1)
    assert kv.hs_norm == pytest.approx(0.1, abs=1e-10)


def test_matrix_is_real_j():
    kv = kv_for_square(1.3, 0.7)
    assert kv.matrix.dtype == np.float64


def test_weighted_frobenius_tracks_hs():
    kv = kv_for_square(1.0, 1.0)
    frob = np.sqrt(np.sum(kv.weights[:, None] * np.abs(kv.matrix) ** 2 / kv.weights[None, :]))
    assert frob == pytest.approx(kv.hs_norm, rel=0.1)


def test_apply_to_constant_matches_analytic():
    # J[1](t) = (eta tau / 2) t for the square well, K_V = iJ
    tau, eta = 1.7, 0.9
    kv = kv_for_square(tau, eta)
    got = kv.matrix @ np.ones_like(kv.nodes)
    want = (eta * tau / 2.0) * kv.nodes
    assert np.max(np.abs(got - want)) < 1e-12


def test_first_order_oddness():
    kv = kv_for_square(1.1, 0.6)
    k = 1j * kv.matrix
    first = np.sum(kv.weights * kv.v_vals * (k @ kv.u_vals.astype(complex)))
    assert abs(first) < 1e-12


def test_lambda_electrostatic_closed_form():
    eta = np.pi / 2
    res = lambda_electrostatic(kv_for_square(1.0, eta))
    assert res.lambda_e == pytest.approx(2.0, abs=1e-9)


def test_lambda_scalar_closed_form():
    res = lambda_electrostatic(kv_for_square(1.0, 1.0))
    assert res.lambda_s == pytest.approx(2.0 * np.tanh(0.5), abs=1e-9)
    assert res.lambda_s == pytest.approx(0.9242343145, abs=1e-9)


def test_weak_coupling_is_linear():
    theta = 1e-4
    res = lambda_electrostatic(kv_for_square(theta, 1.0))
    assert abs(res.lambda_e - theta) <= 1e-11


def test_electro_scalar_agree_at_weak_coupling():
    theta = 1e-3
    res = lambda_electrostatic(kv_for_square(theta, 1.0))
    assert abs(res.lambda_e - res.lambda_s) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(0.05, 1.9))
def test_direct_matches_closed_form(theta):
    res = lambda_electrostatic(kv_for_square(theta, 1.0))
    tan_val = effective_coupling(theta, "electrostatic")
    tanh_val = effective_coupling(theta, "scalar")
    assert res.lambda_e == pytest.approx(tan_val, abs=1e-9)
    assert res.lambda_s == pytest.approx(tanh_val, abs=1e-9)


def test_neumann_zeroth_term_is_integral():
    f = factorize(square_well(1.3, 0.4))
    kv = build_kv(f, 64)
    res = lambda_neumann(kv, 0)
    for got in (res.lambda_e, res.lambda_s):
        assert got == pytest.approx(1.3 * 0.4, abs=1e-13)


def test_neumann_agrees_with_direct():
    f = factorize(square_well(0.5, 1.0))
    kv = build_kv(f, 128)
    direct = lambda_electrostatic(kv)
    neu = lambda_neumann(kv, 20)
    assert abs(neu.lambda_e - direct.lambda_e) < 1e-12
    assert abs(neu.lambda_s - direct.lambda_s) < 1e-12


def test_neumann_error_bound_holds_on_random_profiles():
    rng = np.random.default_rng(42)
    for _ in range(100):
        eta = rng.uniform(0.1, 1.5)
        m = rng.integers(3, 9)
        ts = np.sort(rng.uniform(-eta, eta, size=m))
        ts[0], ts[-1] = -eta, eta
        vs = rng.uniform(-1.0, 1.0, size=m)
        l1 = table_l1_norm(ts, vs)
        if l1 < 1e-3:
            continue
        scale = rng.uniform(0.2, 1.5) / l1
        p = from_table(tuple(ts), tuple(scale * vs), eta=eta)
        f = factorize(p)
        kv = build_kv(f, 64)
        direct = lambda_electrostatic(kv)
        terms = int(rng.integers(1, 6))
        neu = lambda_neumann(kv, terms)
        for name in ("lambda_e", "lambda_s"):
            actual = abs(getattr(neu, name) - getattr(direct, name))
            assert actual <= neu.residuals["error_bound"] + 1e-14


def test_neumann_rejects_noncontractive():
    f = factorize(square_well(2.5, 1.0))
    kv = build_kv(f, 64)
    assert kv.hs_norm == pytest.approx(1.25, abs=1e-10)
    with pytest.raises(NonContractive):
        lambda_neumann(kv, 5)


def test_direct_survives_hs_above_one():
    # hs = 1.25 but the solve is still well conditioned; value matches tan
    theta = 2.5
    res = lambda_electrostatic(kv_for_square(theta, 1.0))
    assert res.lambda_e == pytest.approx(2.0 * np.tan(theta / 2.0), abs=1e-8)


def test_direct_raises_at_near_singular_coupling():
    # place tau*eta a hair below the discrete pole of (1 - K^2)
    f1 = factorize(square_well(1.0, 1.0))
    kv1 = build_kv(f1, 128)
    rho = np.max(np.abs(np.linalg.eigvals(kv1.matrix))).real
    theta_star = 1.0 / rho
    f = factorize(square_well(theta_star * (1.0 - 1e-14), 1.0))
    kv = build_kv(f, 128)
    with pytest.raises(NonContractive):
        lambda_electrostatic(kv)


def test_direct_raises_on_exactly_singular_system():
    # J = I gives I - J^2 = 0: the LU has a zero pivot, the estimate
    # reads infinite and the guard names it, with no LinAlgWarning
    n = 16
    ones = np.ones(n)
    kv = KVOperator(nodes=np.linspace(-1.0, 1.0, n), weights=ones / 8.0,
                    matrix=np.eye(n), hs_norm=1.0, u_vals=ones,
                    v_vals=ones)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonContractive,
                           match=r"condition estimate inf > ILL_CONDITIONED"):
            lambda_electrostatic(kv)


@pytest.mark.parametrize("tau", [1.0, 2.5])
def test_direct_condition_estimate_and_values_match_complex_solve(tau):
    kv = kv_for_square(tau, 1.0, 64)
    res = lambda_electrostatic(kv)
    k = 1j * kv.matrix
    ksq = k @ k
    eye = np.eye(len(kv.nodes))
    for name, op in (("lambda_e", eye - ksq), ("lambda_s", eye + ksq)):
        exact = np.linalg.cond(op, 1)
        assert exact / 10 <= res.residuals[f"cond1_{name}"] <= exact * (1 + 1e-12)
        x = np.linalg.solve(op, kv.u_vals.astype(complex))
        want = np.sum(kv.weights * kv.v_vals * x)
        assert abs(getattr(res, name) - want) <= 1e-13


def test_oddness_identity_all_profiles():
    profiles = [
        square_well(1.0, 1.0),
        square_well(-1.7, 0.3),
        truncated_gaussian(2.0, 0.4, 0.9),
        # deliberately asymmetric sign-changing table
        from_table((-0.5, -0.2, 0.1, 0.35, 0.5), (0.8, -0.3, 1.1, 0.0, -0.6), eta=0.5),
    ]
    for p in profiles:
        kv = build_kv(factorize(p), 96)
        # int v (1 - K^2)^{-1} K u vanishes in exact arithmetic
        k = 1j * kv.matrix
        x = np.linalg.solve(np.eye(len(kv.nodes)) - k @ k,
                            k @ kv.u_vals.astype(complex))
        assert abs(np.sum(kv.weights * kv.v_vals * x)) < 1e-10


def test_nonlinearity_witness():
    # the effective coupling visibly outruns the naive one at moderate strength
    for theta in np.arange(0.5, 1.4001, 0.1):
        res = lambda_electrostatic(kv_for_square(theta, 1.0))
        assert abs(res.lambda_e - theta) >= theta**3 / 20.0


def test_grid_refinement_order():
    p = truncated_gaussian(1.5, 0.45, 0.8)
    f = factorize(p)
    lam = {n: lambda_electrostatic(build_kv(f, n)).lambda_e for n in (16, 32, 64)}
    d1 = abs(lam[16] - lam[32])
    d2 = abs(lam[32] - lam[64])
    assert d1 / max(d2, 1e-16) >= 4.0


def test_table_sampled_square_well_near_closed_form():
    # dense linear-interpolation sampling of a square well: 1e-4 floor
    tau, eta = 1.0, 0.5
    ts = np.linspace(-eta, eta, 4001)
    vs = np.where(np.abs(ts) < eta, tau / 2.0, tau / 2.0)
    p = from_table(tuple(ts), tuple(vs), eta=eta)
    f = factorize(p)
    res = lambda_electrostatic(build_kv(f, 128))
    tan_val = effective_coupling(tau * eta, "electrostatic")
    assert res.lambda_e == pytest.approx(tan_val, abs=1e-4)


def test_closed_form_guard():
    with pytest.raises(ValueError):
        effective_coupling(np.pi, "electrostatic")


def test_effective_coupling_is_the_klein_law():
    assert effective_coupling(1.0, "electrostatic") == 2.0 * math.tan(0.5)
    # tanh is finite everywhere: only the electrostatic law has a domain
    assert effective_coupling(-4.0, "scalar") == 2.0 * math.tanh(-2.0)
    with pytest.raises(ValueError, match=r"-4 outside \(-pi, pi\)"):
        effective_coupling(-4.0, "electrostatic")
    with pytest.raises(ValueError,
                       match="kind must be 'electrostatic' or 'scalar'"):
        effective_coupling(1.0, "vector")
