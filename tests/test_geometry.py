import numpy as np
import pytest

from deltashell.geometry import (
    OffSurfaceError,
    admissible_node_count,
    build_mesh,
    coarea_integrate,
    curvatures,
    ellipsoid,
    measure_growth_audit,
    sphere,
    tubular_map,
    weingarten,
)

RNG = np.random.default_rng(11)

PROLATE_211_AREA = 21.478435327883737  # closed form, frozen before the build


def random_sphere_point(radius=1.0):
    v = RNG.normal(size=3)
    return radius * v / np.linalg.norm(v)


def test_sphere_curvatures():
    for radius in (1.0, 2.5):
        x = random_sphere_point(radius)
        l1, l2 = curvatures(sphere(radius), x)
        assert l1 == pytest.approx(-1.0 / radius, abs=1e-12)
        assert l2 == pytest.approx(-1.0 / radius, abs=1e-12)


def test_weingarten_matrix_properties():
    s = ellipsoid(2.0, 1.0, 1.0)
    x = np.array([0.0, 1.0, 0.0])
    W = weingarten(s, x)
    assert W.shape == (2, 2)
    assert np.allclose(W, W.T)
    # det(1 - t W) at t = 0 is trivially 1
    assert np.linalg.det(np.eye(2)) == 1.0


def test_weingarten_ellipsoid_tip():
    # frozen from the finite-difference normal-derivative oracle
    l1, l2 = curvatures(ellipsoid(2.0, 1.0, 1.0), np.array([2.0, 0.0, 0.0]))
    assert l1 == pytest.approx(-2.0, abs=1e-10)
    assert l2 == pytest.approx(-2.0, abs=1e-10)


def test_weingarten_rejects_off_surface():
    with pytest.raises(OffSurfaceError):
        weingarten(sphere(1.0), np.array([1.0 + 1e-6, 0.0, 0.0]))
    # within chart tolerance passes
    weingarten(sphere(1.0), np.array([1.0 + 1e-10, 0.0, 0.0]))


def test_node_count_rounds_up():
    assert admissible_node_count(20) == 20
    assert admissible_node_count(21) == 80
    assert admissible_node_count(2048) == 5120
    assert len(build_mesh(sphere(1.0), 2048)) == 5120


def test_sphere_mesh_exact_area_and_normals():
    m = build_mesh(sphere(2.0), 320)
    assert m.area() == pytest.approx(16.0 * np.pi, abs=1e-11)
    assert np.all(m.weights > 0)
    assert np.max(np.abs(np.linalg.norm(m.normals, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(m.lam1 + 0.5)) < 1e-12
    assert np.max(np.abs(m.lam2 + 0.5)) < 1e-12
    # det(1 - tW) = (1 + t/R)^2 at every node
    t = 0.3
    det = (1.0 - t * m.lam1) * (1.0 - t * m.lam2)
    assert np.max(np.abs(det - (1.0 + t / 2.0) ** 2)) < 1e-12


def test_ellipsoid_mesh_area_converges():
    e = ellipsoid(2.0, 1.0, 1.0)
    assert e.area() == pytest.approx(PROLATE_211_AREA, abs=1e-12)
    m = build_mesh(e, 1280)
    assert m.area() == pytest.approx(PROLATE_211_AREA, rel=1e-5)


def test_tubular_eta_budget():
    m = build_mesh(sphere(1.0), 80)
    tm = tubular_map(m)
    assert tm.eta == pytest.approx(0.25)
    with pytest.raises(ValueError):
        tubular_map(m, eta=0.5)  # exceeds 0.4 * curvature radius
    with pytest.raises(ValueError):
        tm.images(0.3)


def test_coarea_shell_volume():
    tm = tubular_map(build_mesh(sphere(1.0), 2048))
    got = coarea_integrate(tm, lambda x: np.ones(len(x)), 0.1, 16)
    exact = 4.0 * np.pi / 3.0 * (1.1**3 - 0.9**3)
    assert got == pytest.approx(exact, rel=1e-6)


def test_coarea_thin_shell_gives_area():
    tm = tubular_map(build_mesh(sphere(1.0), 320))
    eps = 1e-4
    got = coarea_integrate(tm, lambda x: np.ones(len(x)), eps, 4)
    assert got / (2 * eps) == pytest.approx(4.0 * np.pi, rel=1e-6)


def test_coarea_radial_moment():
    tm = tubular_map(build_mesh(sphere(1.0), 2048))
    got = coarea_integrate(tm, lambda x: np.sum(x * x, axis=1), 0.1, 16)
    exact = 4.0 * np.pi * (1.1**5 - 0.9**5) / 5.0
    assert got == pytest.approx(exact, rel=1e-6)


def test_coarea_ellipsoid_collar_volume():
    # collar volume = 2 eps Area + (8 pi / 3) eps^3 by Gauss-Bonnet
    e = ellipsoid(2.0, 1.0, 1.0)
    tm = tubular_map(build_mesh(e, 1280))
    eps = 0.05
    got = coarea_integrate(tm, lambda x: np.ones(len(x)), eps, 8)
    exact = 2.0 * eps * e.area() + (8.0 * np.pi / 3.0) * eps**3
    assert got == pytest.approx(exact, rel=1e-5)


def test_coarea_rejects_eps_beyond_eta():
    tm = tubular_map(build_mesh(sphere(1.0), 80))
    with pytest.raises(ValueError):
        coarea_integrate(tm, lambda x: np.ones(len(x)), 0.3, 4)


def test_sigma_t_matches_independent_mesh():
    # offset sphere integral vs a fresh mesh of the sphere with radius R + t
    t = 0.2
    tm = tubular_map(build_mesh(sphere(1.0), 5120))

    def f(x):
        return np.exp(x[:, 0]) * (1.0 + x[:, 1] ** 2)

    via_tube = float(np.sum(tm.weights_t(t) * f(tm.images(t))))
    fresh = build_mesh(sphere(1.2), 5120)
    via_fresh = float(np.sum(fresh.weights * f(fresh.nodes)))
    assert via_tube == pytest.approx(via_fresh, rel=1e-4)


def test_measure_growth_sphere_window():
    tm = tubular_map(build_mesh(sphere(1.0), 5120))
    for t in (-0.25, 0.0, 0.25):
        rep = measure_growth_audit(tm, t, [0.3, 0.5, 1.0])
        for r, flagged, lo, hi in rep.rows:
            assert not flagged
            assert 2.9 <= lo <= hi <= 3.3


def test_measure_growth_flags_small_radius():
    tm = tubular_map(build_mesh(sphere(1.0), 320))
    rep = measure_growth_audit(tm, 0.0, [0.01, 1.0])
    assert rep.rows[0][1] is True
    assert rep.rows[1][1] is False


def test_measure_growth_full_area_beyond_diameter():
    tm = tubular_map(build_mesh(sphere(1.0), 1280))
    t = 0.1
    r = 5.0  # beyond the diameter: every ball holds the full surface
    rep = measure_growth_audit(tm, t, [r])
    _, flagged, lo, hi = rep.rows[0]
    assert not flagged
    area = 4.0 * np.pi * (1.0 + t) ** 2
    assert lo * r**2 == pytest.approx(area, rel=1e-9)
    assert hi * r**2 == pytest.approx(area, rel=1e-9)


def test_measure_growth_stable_across_t():
    tm = tubular_map(build_mesh(sphere(1.0), 5120))
    mids = []
    for t in (-tm.eta, 0.0, tm.eta):
        rep = measure_growth_audit(tm, t, [0.5])
        _, _, lo, hi = rep.rows[0]
        mids.append(0.5 * (lo + hi))
    assert max(mids) / min(mids) < 1.2


def test_measure_growth_ellipsoid_widened_window():
    tm = tubular_map(build_mesh(ellipsoid(2.0, 1.0, 1.0), 1280))
    rep = measure_growth_audit(tm, 0.0, [0.5, 1.0])
    assert rep.c1 == pytest.approx(6.6)
    assert rep.c2 == pytest.approx(1.45)
    for _, flagged, lo, hi in rep.rows:
        assert not flagged and rep.c2 <= lo <= hi <= rep.c1


def test_surface_constructor_guards():
    with pytest.raises(ValueError):
        sphere(-1.0)
    with pytest.raises(ValueError):
        ellipsoid(1.0, 0.0, 1.0)
