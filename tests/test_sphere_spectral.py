import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from deltashell.cli import main
from deltashell.potential import square_well, squeeze, truncated_gaussian
from deltashell.sphere_spectral import (
    BOOST_GENERATOR,
    ChannelSystem,
    CriticalCoupling,
    find_gap_eigenvalues,
    inner_solution,
    klein_convergence_study,
    outer_solution,
    rotation,
    shell_matching,
    transfer_through_squeezed,
)

RNG = np.random.default_rng(31)

# gap eigenvalue of the kappa = -1 channel (m = R = 1) behind a shell
# of coupling lambda_e = 1, root of the Bessel matching determinant;
# frozen before the build from a 50-digit independent solve
SHELL_ROOT_LIN = -0.6526579385650109
# same channel at the effective coupling lambda_e = 2 tan(1/2)
SHELL_ROOT_NL = -0.5648834674188178
# squeezed square wells, integral 1, half-width eps, 400 sub-panels;
# frozen before the build from the same independent integrator
SQUEEZED_ROOTS = {
    0.2: -0.7245631858,
    0.1: -0.6558129847,
    0.05: -0.6137477331,
    0.025: -0.5902667975,
}


# ---------------------------------------------------------------------------
# transmission matrices


def test_zero_coupling_is_identity():
    for kind in ("electrostatic", "scalar"):
        assert np.array_equal(shell_matching(0.0, kind), np.eye(2))


def test_electrostatic_matching_is_rotation():
    lam = 2.0 * math.tan(0.4)
    tm = shell_matching(lam, "electrostatic")
    c, s = math.cos(0.8), math.sin(0.8)
    expected = np.array([[c, -s], [s, c]])
    assert np.allclose(tm, expected, rtol=0.0, atol=1e-15)
    assert np.allclose(tm, rotation(0.8), rtol=0.0, atol=1e-15)


def test_scalar_matching_is_boost():
    lam = 1.2
    theta = 2.0 * math.atanh(lam / 2.0)
    ch, sh = math.cosh(theta), math.sinh(theta)
    tm = shell_matching(lam, "scalar")
    assert tm == pytest.approx(np.array([[ch, sh], [sh, ch]]), abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(-1.9, 1.9), kind=st.sampled_from(["electrostatic", "scalar"]))
def test_matching_is_unimodular_and_cayley_inverse(lam, kind):
    m_pos = shell_matching(lam, kind)
    m_neg = shell_matching(-lam, kind)
    assert np.linalg.det(m_pos) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(m_neg @ m_pos, np.eye(2), atol=1e-12)


def test_unimodular_at_random_couplings():
    for lam in RNG.uniform(-1.99, 1.99, size=100):
        for kind in ("electrostatic", "scalar"):
            tm = shell_matching(float(lam), kind)
            assert abs(np.linalg.det(tm) - 1.0) < 1e-12


def test_klein_angle_identity():
    # 2 tan(c/2) run through the Cayley form lands back on rotation(c)
    for c in (0.1, 0.5, 1.0, math.pi / 2 - 0.1):
        tm = shell_matching(2.0 * math.tan(0.5 * c), "electrostatic")
        assert np.max(np.abs(tm - rotation(c))) < 1e-14


def test_rotation_composes():
    assert np.allclose(rotation(0.3) @ rotation(0.9), rotation(1.2), atol=1e-15)
    assert np.allclose(rotation(0.7).T @ rotation(0.7), np.eye(2), atol=1e-15)


def test_critical_couplings_raise():
    for lam in (2.0, -2.0):
        for kind in ("electrostatic", "scalar"):
            with pytest.raises(CriticalCoupling):
                shell_matching(lam, kind)
    shell_matching(1.999999, "scalar")


def test_kind_validation():
    with pytest.raises(ValueError):
        shell_matching(1.0, "vector")


def test_matching_shape_guard():
    ch = ChannelSystem(-1)
    for bad in (np.eye(3), np.ones(2)):
        with pytest.raises(ValueError, match="2x2"):
            find_gap_eigenvalues(ch, bad, scan=(-0.5, 0.5, 3))


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelSystem(0)
    with pytest.raises(ValueError):
        ChannelSystem(-1, m=0.0)
    with pytest.raises(ValueError):
        ChannelSystem(-1, R=-1.0)
    with pytest.raises(ValueError, match="^m must be positive"):
        ChannelSystem(-1, m=float("nan"))
    with pytest.raises(ValueError, match="^R must be positive"):
        ChannelSystem(-1, R=float("nan"))
    ChannelSystem(2, m=0.5, R=2.0)
    with pytest.raises(ValueError, match=r"outside the spectral gap \(-0.5, 0.5\)"):
        inner_solution(ChannelSystem(2, m=0.5, R=2.0), 0.5, 1.0)


# ---------------------------------------------------------------------------
# channel solutions


def test_solutions_are_independent_off_eigenvalue():
    ch = ChannelSystem(-1)
    for a in (-0.9, 0.0, 0.7):
        pin = inner_solution(ch, a, 1.0)
        pout = outer_solution(ch, a, 1.0)
        wron = pin[0] * pout[1] - pin[1] * pout[0]
        assert abs(wron) > 1e-3


# Series oracle for the Bessel closed forms: the free channel system
# integrated by DOP853, from a power-series seed near the origin for the
# inner solution and from the asymptotic seed far out for the outer one.

#: seed radius as a fraction of the shell radius
SEED_RADIUS_FACTOR = 0.1
#: power-series seed order (exponent range at the origin)
SEED_ORDER = 6
#: outer start, in units of the decay length 1/k past R
DECAY_LENGTHS = 30.0


def _integrate_free(ch, a, psi0, r_from, r_to):
    kap, m = ch.kappa, ch.m

    def rhs(r, y):
        return (kap / r * y[0] + (a + m) * y[1],
                -kap / r * y[1] - (a - m) * y[0])

    sol = solve_ivp(rhs, (r_from, r_to), psi0,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[:, -1]


def _series_seed(ch, a, r0):
    """Power-series values (G, F)(r0) of the regular solution."""
    sigma = abs(ch.kappa)
    g = np.zeros(SEED_ORDER + 1)
    f = np.zeros(SEED_ORDER + 1)
    if ch.kappa > 0:
        g[0] = 1.0
    else:
        f[0] = 1.0
    for j in range(1, SEED_ORDER + 1):
        g[j] = (a + ch.m) * f[j - 1] / (sigma + j - ch.kappa)
        f[j] = -(a - ch.m) * g[j - 1] / (sigma + j + ch.kappa)
    powers = r0 ** (sigma + np.arange(SEED_ORDER + 1))
    return np.array([np.dot(g, powers), np.dot(f, powers)])


def series_inner(ch, a, r):
    r0 = min(SEED_RADIUS_FACTOR * ch.R, 0.5 * r)
    seed = _series_seed(ch, a, r0)
    psi = _integrate_free(ch, a, seed / np.linalg.norm(seed), r0, r)
    return psi / np.linalg.norm(psi)


def series_outer(ch, a, r):
    k = math.sqrt(ch.m * ch.m - a * a)
    r_max = max(r, ch.R) + DECAY_LENGTHS / k
    seed = np.array([1.0, -k / (a + ch.m)])
    # backward integration damps whatever growing component the
    # asymptotic seed carries, by e^{-2 k (r_max - r)}
    psi = _integrate_free(ch, a, seed / np.linalg.norm(seed), r_max, r)
    return psi / np.linalg.norm(psi)


def test_series_basis_matches_bessel_pointwise():
    ch = ChannelSystem(2, m=1.0, R=1.0)
    for r in (0.6, 1.0, 1.4):
        for a, side in ((-0.3, "in"), (0.55, "out")):
            if side == "in":
                pb, ps = inner_solution(ch, a, r), series_inner(ch, a, r)
            else:
                pb, ps = outer_solution(ch, a, r), series_outer(ch, a, r)
            ps = ps if pb @ ps > 0 else -ps
            assert np.max(np.abs(pb - ps)) < 1e-9


# ---------------------------------------------------------------------------
# gap eigenvalues of the shell


def test_shell_eigenvalue_matches_frozen_value():
    ch = ChannelSystem(-1)
    res = find_gap_eigenvalues(ch, shell_matching(1.0, "electrostatic"))
    assert len(res) == 1
    assert res.eigenvalues[0] == pytest.approx(SHELL_ROOT_LIN, abs=1e-10)
    assert res.residuals[0] < 1e-10
    lo, hi = res.brackets[0]
    assert lo <= res.eigenvalues[0] <= hi


def test_effective_coupling_eigenvalue():
    ch = ChannelSystem(-1)
    lam = 2.0 * math.tan(0.5)
    res = find_gap_eigenvalues(ch, shell_matching(lam, "electrostatic"))
    assert res.eigenvalues == pytest.approx((SHELL_ROOT_NL,), abs=1e-10)


def test_series_basis_reproduces_eigenvalue():
    # the oracle's matching determinant changes sign across the Bessel
    # root +- 1e-8, so its own root lies within 1e-8 of it
    ch = ChannelSystem(-1)
    tm = shell_matching(1.0, "electrostatic")
    root = find_gap_eigenvalues(ch, tm).eigenvalues[0]

    def det(a):
        pin, pout = series_inner(ch, a, ch.R), series_outer(ch, a, ch.R)
        mp = tm @ pin
        return pout[0] * mp[1] - pout[1] * mp[0]

    assert det(root - 1e-8) * det(root + 1e-8) < 0.0


def test_zero_coupling_has_empty_spectrum():
    ch = ChannelSystem(-1)
    res = find_gap_eigenvalues(ch, shell_matching(0.0, "electrostatic"))
    assert len(res) == 0
    assert res.eigenvalues == () and res.brackets == ()


def test_weak_shell_does_not_bind():
    # this channel has a binding threshold near lambda = 0.47; below it
    # the matching determinant keeps one sign across the whole gap
    ch = ChannelSystem(-1)
    weak = find_gap_eigenvalues(ch, shell_matching(0.4, "electrostatic"))
    strong = find_gap_eigenvalues(ch, shell_matching(0.6, "electrostatic"))
    assert len(weak) == 0
    assert len(strong) == 1


def test_mirror_symmetry_of_the_spectrum():
    # flipping the coupling and the channel index mirrors the spectrum:
    # (lam, kappa, a) <-> (-lam, -kappa, -a) for electrostatic shells
    res = find_gap_eigenvalues(
        ChannelSystem(1), shell_matching(-1.0, "electrostatic"))
    assert res.eigenvalues == pytest.approx((-SHELL_ROOT_LIN,), abs=1e-9)


def test_scalar_mirror_keeps_coupling():
    # scalar shells couple to the mass and see both channels the same
    # way up to a -> -a; the coupling sign does not flip
    lam = -1.2
    up = find_gap_eigenvalues(ChannelSystem(1), shell_matching(lam, "scalar"))
    dn = find_gap_eigenvalues(ChannelSystem(-1), shell_matching(lam, "scalar"))
    assert len(up) == 1 and len(dn) == 1
    assert up.eigenvalues[0] == pytest.approx(-dn.eigenvalues[0], abs=1e-9)


def test_scalar_binding_needs_attraction():
    # a positive scalar shell raises the local mass and repels
    res = find_gap_eigenvalues(
        ChannelSystem(1), shell_matching(0.9, "scalar"))
    assert len(res) == 0


def test_scan_window_guards():
    ch = ChannelSystem(-1)
    tm = shell_matching(1.0, "electrostatic")
    with pytest.raises(ValueError):
        find_gap_eigenvalues(ch, tm, scan=(-1.5, 0.5, 41))
    with pytest.raises(ValueError):
        find_gap_eigenvalues(ch, tm, scan=(0.5, -0.5, 41))
    with pytest.raises(ValueError):
        find_gap_eigenvalues(ch, tm, scan=(-0.5, 0.5, 1))


def test_narrow_scan_still_brackets():
    ch = ChannelSystem(-1)
    tm = shell_matching(1.0, "electrostatic")
    res = find_gap_eigenvalues(ch, tm, scan=(-0.7, -0.6, 11))
    assert res.eigenvalues[0] == pytest.approx(SHELL_ROOT_LIN, abs=1e-12)


# ---------------------------------------------------------------------------
# squeezed transfer matrices


def test_transfer_of_zero_well_is_free_propagation():
    ch = ChannelSystem(-1)
    t0 = transfer_through_squeezed(
        ch, 0.3, squeeze(square_well(0.0, 1.0), 0.3), "electrostatic")
    prop = t0 @ inner_solution(ch, 0.3, 0.7)
    prop = prop / np.linalg.norm(prop)
    ref = inner_solution(ch, 0.3, 1.3)
    assert abs(prop[0] * ref[1] - prop[1] * ref[0]) < 1e-6


def test_transfer_is_unimodular():
    ch = ChannelSystem(-1)
    fam = squeeze(square_well(1.0, 1.0), 0.1)
    for kind in ("electrostatic", "scalar"):
        t = transfer_through_squeezed(ch, -0.4, fam, kind)
        assert np.linalg.det(t) == pytest.approx(1.0, abs=1e-12)


def test_transfer_tends_to_the_klein_rotation():
    # T_eps -> rotation(strength) as the well squeezes, at first order
    strength = 0.8
    eps_seq = (1e-1, 1e-2, 1e-3, 1e-4)
    errs = []
    ch = ChannelSystem(-1)
    for eps in eps_seq:
        fam = squeeze(square_well(strength, 1.0), eps)
        t = transfer_through_squeezed(ch, 0.0, fam, "electrostatic")
        errs.append(np.linalg.norm(t - rotation(strength), 2))
    slope = np.polyfit(np.log(eps_seq), np.log(errs), 1)[0]
    assert slope > 0.8
    assert errs[-1] < 5e-4


def test_transfer_panel_refinement_is_converged():
    ch = ChannelSystem(-1)
    fam = squeeze(square_well(1.0, 1.0), 0.1)

    def root(panels):
        def squeezed(a):
            return transfer_through_squeezed(ch, a, fam, "electrostatic", panels)
        res = find_gap_eigenvalues(ch, squeezed, half_width=0.1)
        return res.eigenvalues[0]

    assert abs(root(400) - root(800)) < 5e-8


def test_transfer_guards():
    fam = squeeze(square_well(1.0, 1.0), 0.1)
    with pytest.raises(ValueError):
        transfer_through_squeezed(
            ChannelSystem(-1), 0.0, fam, "electrostatic", sub_panels=8)
    wide = squeeze(square_well(1.0, 1.0), 0.6)
    with pytest.raises(ValueError):
        transfer_through_squeezed(
            ChannelSystem(-1, R=0.5), 0.0, wide, "electrostatic")


# ---------------------------------------------------------------------------
# Klein convergence study


@pytest.fixture(scope="module")
def electro_study():
    return klein_convergence_study(
        square_well(1.0, 1.0), [0.2, 0.1, 0.05, 0.025])


def test_study_matches_frozen_squeezed_roots(electro_study):
    st = electro_study
    assert st.strength == pytest.approx(1.0, abs=1e-14)
    assert st.coupling_effective == pytest.approx(2.0 * math.tan(0.5), abs=1e-14)
    assert st.coupling_linear == 1.0
    assert st.a_nonlinear == pytest.approx(SHELL_ROOT_NL, abs=1e-10)
    assert st.a_linear == pytest.approx(SHELL_ROOT_LIN, abs=1e-10)
    for eps, a_eps, gap in st.rows:
        assert a_eps == pytest.approx(SQUEEZED_ROOTS[eps], abs=1e-9)
        assert gap == pytest.approx(abs(a_eps - st.a_nonlinear), abs=1e-15)


def test_study_error_decays_toward_effective_coupling(electro_study):
    st = electro_study
    gaps = [gap for _, _, gap in st.rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert 0.8 < st.slope < 1.3
    assert st.monotone_path is True


def test_study_rejects_the_naive_coupling(electro_study):
    # the squeezed eigenvalues settle an order of magnitude closer to
    # the tan-renormalized shell than the couplings are to each other
    st = electro_study
    separation = abs(st.a_nonlinear - st.a_linear)
    assert separation == pytest.approx(0.0877744711461932, abs=1e-9)
    assert st.rows[-1][2] < 0.3 * separation


def test_study_csv_shape(electro_study):
    text = electro_study.csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,a_eps,a_nonlinear,a_linear,gap"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.2
    assert float(first[1]) == pytest.approx(SQUEEZED_ROOTS[0.2], abs=1e-9)


def test_study_json_summary(electro_study, tmp_path):
    # klein --json-out writes the study's summary as one sorted document
    jout = tmp_path / "summary.json"
    assert main(["klein", "--tau", "1.0", "--eta", "1.0",
                 "--eps", "0.2,0.1,0.05,0.025", "--out", str(tmp_path / "k.csv"),
                 "--json-out", str(jout)]) == 0
    doc = json.loads(jout.read_text())
    assert doc["kind"] == "electrostatic"
    assert doc["epsilons"] == [0.2, 0.1, 0.05, 0.025]
    assert doc["separation"] == pytest.approx(0.0877744711461932, abs=1e-9)
    assert doc["monotone_path"] is True
    assert sorted(doc) == list(doc)
    assert doc["gaps"] == [gap for _, _, gap in electro_study.rows]
    assert {k: doc[k] for k in electro_study.summary()} == electro_study.summary()


def test_scalar_study_tracks_tanh_coupling():
    # attractive scalar wells bind in the kappa = +1 channel; the
    # squeezed eigenvalues settle on the tanh-renormalized shell value
    st = klein_convergence_study(
        square_well(-1.0, 1.0), [0.2, 0.1, 0.05], kappa=1, kind="scalar")
    assert st.coupling_effective == pytest.approx(2.0 * math.tanh(-0.5), abs=1e-14)
    shell = find_gap_eigenvalues(
        ChannelSystem(1), shell_matching(st.coupling_effective, "scalar"))
    assert st.a_nonlinear == pytest.approx(shell.eigenvalues[0], abs=1e-12)
    gaps = [gap for _, _, gap in st.rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.2 * abs(st.a_nonlinear - st.a_linear)


def test_gaussian_profile_study_smoke():
    st = klein_convergence_study(
        truncated_gaussian(1.4, 0.5, 1.0), [0.1, 0.05])
    gaps = [gap for _, _, gap in st.rows]
    assert gaps[1] < gaps[0]
    assert abs(st.strength - 2.0 * math.atan(st.coupling_effective / 2.0)) < 1e-12


def test_study_input_guards():
    well = square_well(1.0, 1.0)
    with pytest.raises(ValueError):
        klein_convergence_study(well, [])
    with pytest.raises(ValueError):
        klein_convergence_study(well, [0.05, 0.1])
    with pytest.raises(ValueError):
        klein_convergence_study(well, [1.5, 0.5])
    with pytest.raises(ValueError):
        klein_convergence_study(square_well(0.0, 1.0), [0.1])
    with pytest.raises(ValueError):
        klein_convergence_study(square_well(3.2, 1.0), [0.1])


def test_boost_generator_squares_to_identity():
    assert np.array_equal(BOOST_GENERATOR @ BOOST_GENERATOR, np.eye(2))
