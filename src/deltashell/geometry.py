"""C2 surface machinery: spheres and ellipsoids, meshes, tubular coordinates.

Surfaces are origin-centered spheres and ellipsoids. The Weingarten map is
W = -d(nu), so the sphere with outward normal has both eigenvalues -1/R and
the coarea factor det(1 - t W) = (1 + t/R)^2 grows with t, matching the area
of the offset surface. Meshes are geodesic icosahedral refinements (node =
projected face centroid, weight = exact spherical triangle area, mapped with
the linear-image Jacobian for ellipsoids), so admissible node counts are
20 * 4^k; a requested count rounds up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ellipeinc, ellipkinc

from . import CheckFailed

OFF_SURFACE_TOL = 1e-9
#: empirical two-sided bounds for sigma_t(B_r)/r^2 on the sphere, where the
#: exact cap value is pi; ellipsoid windows widen by the axis ratio
C1_GROWTH = 3.3
C2_GROWTH = 2.9


class OffSurfaceError(ValueError):
    """Point is not on the surface to within the chart tolerance."""


@dataclass(frozen=True)
class Surface:
    kind: str
    axes: tuple

    def implicit(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a = np.asarray(self.axes)
        return np.sum((x / a) ** 2, axis=-1) - 1.0

    def _check_on_surface(self, x):
        if np.any(np.abs(self.implicit(x)) > OFF_SURFACE_TOL):
            raise OffSurfaceError(f"point not on {self.kind} within {OFF_SURFACE_TOL}")

    def normal(self, x) -> np.ndarray:
        """Outward unit normal; x of shape (3,) or (n, 3), on the surface."""
        x = np.asarray(x, dtype=float)
        g = x / np.asarray(self.axes) ** 2
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    def area(self) -> float:
        """Closed form; Legendre elliptic integrals for the triaxial case."""
        a, b, c = sorted(self.axes, reverse=True)
        if a - c < 1e-12 * a:
            return 4.0 * np.pi * a * a
        phi = np.arccos(c / a)
        m = (a * a * (b * b - c * c)) / (b * b * (a * a - c * c))
        s = np.sin(phi)
        return 2.0 * np.pi * c * c + (2.0 * np.pi * a * b / s) * (
            ellipeinc(phi, m) * s * s + ellipkinc(phi, m) * np.cos(phi) ** 2
        )

    def max_abs_curvature(self) -> float:
        # principal curvature extremes sit at the axis endpoints
        a = self.axes
        return max(a[i] / a[j] ** 2 for i in range(3) for j in range(3) if i != j)

    def injectivity_budget(self) -> float:
        """Largest collar half-width whose normal segments stay apart."""
        return 0.4 / self.max_abs_curvature()


def sphere(radius: float) -> Surface:
    if radius <= 0:
        raise ValueError("radius must be positive")
    return Surface(kind="sphere", axes=(radius, radius, radius))


def ellipsoid(a: float, b: float, c: float) -> Surface:
    if min(a, b, c) <= 0:
        raise ValueError("semi-axes must be positive")
    return Surface(kind="ellipsoid", axes=(a, b, c))


def _tangent_basis(nu: np.ndarray) -> np.ndarray:
    """Orthonormal (n, 3, 2) tangent frames for unit normals (n, 3)."""
    nu = np.atleast_2d(nu)
    ref = np.zeros_like(nu)
    ref[np.arange(len(nu)), np.argmin(np.abs(nu), axis=1)] = 1.0
    t1 = np.cross(nu, ref)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(nu, t1)
    return np.stack([t1, t2], axis=-1)


def weingarten(s: Surface, x) -> np.ndarray:
    """2x2 matrix of W = -d(nu) in an orthonormal tangent basis at x.

    x of shape (3,) gives one (2, 2) matrix, (n, 3) gives (n, 2, 2).
    """
    x = np.asarray(x, dtype=float)
    s._check_on_surface(x)
    a = np.asarray(s.axes)
    pts = np.atleast_2d(x)
    gn = np.linalg.norm(pts / a**2, axis=1)
    E = _tangent_basis(s.normal(pts))
    ME = np.einsum("ij,njk->nik", np.diag(1.0 / a**2), E)
    W = -np.einsum("nji,njk->nik", E, ME) / gn[:, None, None]
    W = 0.5 * (W + np.swapaxes(W, 1, 2))
    return W if x.ndim == 2 else W[0]


def curvatures(s: Surface, x) -> tuple[float, float]:
    """Principal curvatures (eigenvalues of W), ascending."""
    lam = np.linalg.eigvalsh(weingarten(s, x))
    return float(lam[0]), float(lam[1])


@lru_cache(maxsize=None)
def _icosphere_faces(level: int):
    """Unit icosphere after `level` midpoint subdivisions; face vertex triples."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(level):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for (i, j, k) in faces:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [(i, ij, ki), (ij, j, jk), (ki, jk, k), (ij, jk, ki)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=int)


def _spherical_triangle_areas(v0, v1, v2) -> np.ndarray:
    """Exact unit-sphere triangle areas (van Oosterom-Strackee)."""
    num = np.abs(np.einsum("ij,ij->i", v0, np.cross(v1, v2)))
    den = 1.0 + np.einsum("ij,ij->i", v0, v1) + np.einsum("ij,ij->i", v1, v2) + np.einsum(
        "ij,ij->i", v2, v0
    )
    return 2.0 * np.arctan2(num, den)


@dataclass(frozen=True)
class SurfaceMesh:
    """Quadrature mesh: nodes, weights ~ dsigma, unit normals, curvatures."""

    surface: Surface
    nodes: np.ndarray
    weights: np.ndarray
    normals: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

    def area(self) -> float:
        return float(np.sum(self.weights))

    def coarea(self, t) -> np.ndarray:
        """det(1 - t W) per node, (N,); t of shape (M,) gives (N, M)."""
        return ((1.0 - np.multiply.outer(self.lam1, t))
                * (1.0 - np.multiply.outer(self.lam2, t)))


def admissible_node_count(n: int) -> int:
    """Smallest 20 * 4^k that is >= n."""
    if n < 1:
        raise ValueError("node count must be positive")
    count = 20
    while count < n:
        count *= 4
    return count


def build_mesh(s: Surface, n: int) -> SurfaceMesh:
    """Icosahedral mesh with at least n nodes (rounded up to 20 * 4^k)."""
    count = admissible_node_count(n)
    level = round(np.log(count / 20) / np.log(4))
    verts, faces = _icosphere_faces(level)
    v0, v1, v2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    centroids = v0 + v1 + v2
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    sph_w = _spherical_triangle_areas(v0, v1, v2)

    a = np.asarray(s.axes)
    nodes = centroids * a
    normals = s.normal(nodes)
    # linear-image area element: |det A| * |A^{-T} n_sph|
    weights = sph_w * np.prod(a) * np.linalg.norm(centroids / a, axis=1)

    lam = np.linalg.eigvalsh(weingarten(s, nodes))
    lam1, lam2 = lam[:, 0], lam[:, 1]
    return SurfaceMesh(
        surface=s, nodes=nodes, weights=weights, normals=normals, lam1=lam1, lam2=lam2
    )


@dataclass(frozen=True)
class TubularMap:
    """x + t nu(x) collar coordinates over a mesh, valid for |t| <= eta."""

    mesh: SurfaceMesh
    eta: float

    def __post_init__(self):
        bound = self.mesh.surface.injectivity_budget()
        if not 0 < self.eta <= bound:
            raise ValueError(
                f"eta={self.eta} outside the injectivity budget (0, {bound:.6g}]"
            )

    def images(self, t: float) -> np.ndarray:
        self._check_t(t)
        return self.mesh.nodes + t * self.mesh.normals

    def weights_t(self, t: float) -> np.ndarray:
        """Quadrature weights on the offset surface: w * det(1 - t W)."""
        self._check_t(t)
        return self.mesh.weights * self.mesh.coarea(t)

    def _check_t(self, t: float):
        if abs(t) > self.eta:
            raise ValueError(f"|t|={abs(t)} exceeds eta={self.eta}")


def tubular_map(mesh: SurfaceMesh, eta: float | None = None) -> TubularMap:
    """Default eta is a quarter of the curvature radius budget."""
    if eta is None:
        eta = 0.25 / mesh.surface.max_abs_curvature()
    return TubularMap(mesh=mesh, eta=eta)


def coarea_integrate(tm: TubularMap, f, eps: float, t_nodes: int = 16) -> float:
    """Integral of f over the collar {x + t nu : |t| < eps} by coarea.

    Gauss-Legendre in t, mesh sum with weight det(1 - t W) in space. f must
    accept an (n, 3) array of points and return (n,) values.  Raises
    ``ValueError`` unless 0 < eps <= eta.
    """
    if not eps > 0.0:
        raise ValueError(f"eps={eps} must be positive")
    if eps > tm.eta:
        raise ValueError(f"eps={eps} exceeds eta={tm.eta}")
    xi, w = np.polynomial.legendre.leggauss(t_nodes)
    total = 0.0
    for t_ref, wt in zip(xi, w):
        t = eps * t_ref
        vals = np.asarray(f(tm.images(t)), dtype=float)
        total += eps * wt * float(np.sum(tm.weights_t(t) * vals))
    return total


@dataclass(frozen=True)
class GrowthReport:
    t: float
    resolution: float
    diameter: float
    rows: tuple  # (radius, flagged, min_ratio, max_ratio)
    c1: float
    c2: float


def measure_growth_audit(
    tm: TubularMap, t: float, radii, max_centers: int = 256
) -> GrowthReport:
    """Check sigma_t(B_r(x)) / r^2 stays inside the empirical [c2, c1] window.

    Balls are Euclidean, centered at offset-mesh nodes. A radius below the
    mesh resolution is flagged and skipped; radii beyond the diameter are
    reported but not held to the window (the lemma's bounds live below
    diameter scale). The window is the sphere's [c2, c1] widened by the
    surface's axis ratio, since eccentricity genuinely spreads the density
    ratio. A radius <= 0 or ``max_centers < 1`` raises ``ValueError``; a
    window violation raises :class:`CheckFailed`.
    """
    if max_centers < 1:
        raise ValueError(f"max_centers must be >= 1, got {max_centers}")
    if any(r <= 0 for r in radii):
        raise ValueError(f"growth audit radii must be > 0, got {list(radii)}")
    axes = tm.mesh.surface.axes
    ecc = max(axes) / min(axes)
    c1, c2 = C1_GROWTH * ecc, C2_GROWTH / ecc
    pts = tm.images(t)
    w_t = tm.weights_t(t)
    resolution = 2.0 * float(np.sqrt(np.max(w_t)))
    diameter = 2.0 * float(np.max(np.linalg.norm(pts, axis=1)))
    stride = max(1, len(pts) // max_centers)
    centers = pts[::stride]
    tree = cKDTree(pts)

    rows = []
    for r in radii:
        if r < resolution:
            rows.append((float(r), True, float("nan"), float("nan")))
            continue
        ratios = np.array(
            [np.sum(w_t[idx]) / r**2 for idx in tree.query_ball_point(centers, r)]
        )
        lo, hi = float(ratios.min()), float(ratios.max())
        rows.append((float(r), False, lo, hi))
        if r <= diameter and (hi > c1 or lo < c2):
            raise CheckFailed(
                f"measure growth outside [{c2:.3f}, {c1:.3f}] at r={r}: [{lo:.4f}, {hi:.4f}]"
            )
    return GrowthReport(
        t=t, resolution=resolution, diameter=diameter, rows=tuple(rows),
        c1=c1, c2=c2,
    )
