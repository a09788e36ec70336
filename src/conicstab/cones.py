"""Proper convex cones: membership, duals, interior sampling, products.

Stability of a polynomial is always judged relative to a cone ``K`` that
is full-dimensional, closed and pointed.  This module supplies the four
concrete families used throughout the package — the nonnegative orthant,
finitely generated (polyhedral) cones, the positive semidefinite cone on
flattened symmetric matrices, and finite products of those — behind one
small interface:

* ``interior_margin(p)`` — how far ``p`` lies inside ``K`` (> 0 exactly
  on the interior); ``contains_interior(p, tol)`` tests it against ``tol``.
* ``interior_margin_batch(P, t)`` — the keep-mask ``interior_margin(row)
  >= t`` over the rows of ``P``, a screen every cone answers.
* ``dual_minimizer(a)`` — ``(margin, p)``: the minimum of ``<a, p>``
  over a compact slice of ``K`` (unit vectors e_k, unit generators
  divided by ``|a|``, unit-trace rank-one matrices) and a point ``p`` of
  ``K`` attaining it; ``dual_margin(a)`` is the margin alone, ``>= 0``
  exactly when the functional ``z -> <a, z>`` lies in the dual cone ``K*``.
* ``interior_from_normals(u)`` — the deterministic map from rows of
  standard-normal draws to interior points.
* ``descriptor()`` — a JSON-ready dict that ``cone_from_descriptor`` reads.

Points are plain real numpy vectors whose length matches ``cone.dim``;
for the semidefinite cone a point stores the upper triangle of a
symmetric matrix row-major and unscaled (see
:class:`~conicstab.poly.MatrixVarIndex`).  Because the flat storage is
unscaled, the flat inner product is not the trace pairing: a functional
vector ``a`` acts on a matrix point as ``tr(A Z)`` where ``A`` has
diagonal ``a_ii`` and off-diagonal ``a_ij / 2``.  Dual tests reconstruct
that halved matrix explicitly.

Polyhedral cones validate at construction time that no generator is zero
relative to the largest, that the generators span (full-dimensional) and
that no unit generator's negation lies in the cone of the unit generators
(pointedness), the latter via the module's self-contained two-phase
simplex solver; no test depends on the generators' scale.  Interior
membership uses the extreme rays of the dual cone when the ambient
dimension is at most 6 and a small LP otherwise.

Cone values are immutable; sampling maps the caller's normal draws, so
parallel use is per-thread RNG streams and nothing else.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import hermitian_eigenvalues, hermitian_eigh, min_eig_at_least
from .poly import MatrixVarIndex
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "Cone",
    "Orthant",
    "Polyhedral",
    "PSD",
    "Product",
    "product",
    "cone_from_descriptor",
]

_DUAL_RAY_MAX_DIM = 6


# ---------------------------------------------------------------------------
# Self-contained dense simplex (Bland's rule, two phases)
# ---------------------------------------------------------------------------


def _pivot(T, row_costs, basis, i, j):
    T[i] = T[i] / T[i, j]
    for k in range(T.shape[0]):
        if k != i and T[k, j] != 0.0:
            T[k] = T[k] - T[k, j] * T[i]
    row_costs -= row_costs[j] * T[i]
    basis[i] = j


def _run_phase(T, row, basis, ncols, tol, max_pivots):
    """Pivot until no reduced cost is negative; Bland's rule throughout."""
    for _ in range(max_pivots):
        enter = -1
        for j in range(ncols):
            if row[j] < -tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        ratios = np.full(T.shape[0], np.inf)
        pos = T[:, enter] > tol
        ratios[pos] = T[pos, -1] / T[pos, enter]
        best = np.min(ratios)
        if not np.isfinite(best):
            return "unbounded"
        # Among the tied rows, leave on the smallest basis index.
        tied = [i for i in range(T.shape[0]) if ratios[i] <= best + tol]
        leave = min(tied, key=lambda i: basis[i])
        _pivot(T, row, basis, leave, enter)
    raise ArithmeticError("simplex did not terminate; Bland's rule bound exceeded")


def simplex_solve(A, b, c, tol: float = 1e-9):
    """Solve min c.x subject to A x = b, x >= 0 (dense two-phase simplex).

    Returns ``(status, x, objective)`` with status one of ``"optimal"``,
    ``"infeasible"``, ``"unbounded"``.  Intended for the small geometry
    LPs in this module (tens of rows); exact enough for membership
    decisions at tolerance ``tol``.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    T = np.zeros((m, n + m + 1))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    basis = list(range(n, n + m))
    max_pivots = 200 * (n + m + 1)

    # Phase 1: reduced costs of "minimize the artificial sum".
    row = np.zeros(n + m + 1)
    row[n : n + m] = 1.0
    row -= T.sum(axis=0)
    status = _run_phase(T, row, basis, n + m, tol, max_pivots)
    if status != "optimal" or -row[-1] > tol:
        return "infeasible", None, None

    # Pivot surviving artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if abs(T[i, j]) > tol:
                    _pivot(T, row, basis, i, j)
                    break
        if basis[i] < n:
            keep.append(i)
    if len(keep) < m:
        T = T[keep]
        basis = [basis[i] for i in keep]

    # Phase 2 on the original columns only.
    T2 = np.concatenate([T[:, :n], T[:, -1:]], axis=1)
    row2 = np.zeros(n + 1)
    row2[:n] = c
    for i, bi in enumerate(basis):
        row2 -= c[bi] * T2[i]
    status = _run_phase(T2, row2, basis, n, tol, max_pivots)
    if status != "optimal":
        return "unbounded", None, None
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T2[i, -1]
    return "optimal", x, float(c @ x)


# ---------------------------------------------------------------------------
# Cone variants
# ---------------------------------------------------------------------------


class Cone:
    """Interface shared by all cone variants; see the module docstring."""

    dim: int
    draw_dim: int

    def _check_point(self, p) -> np.ndarray:
        v = np.asarray(p, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"point of shape {v.shape} does not fit cone of dim {self.dim}")
        return v

    def interior_margin(self, p) -> float:
        raise NotImplementedError

    def interior_margin_batch(self, P, at_least: float) -> np.ndarray:
        """Keep-mask ``interior_margin(row) >= at_least`` for the rows of ``P``.

        A screen: the cone answers the yes/no question without computing
        the margins where it can (the PSD cone factors Y - at_least I
        instead of finding its eigenvalues), so a row within rounding of
        the threshold may fall either way, and decisions on individual
        points re-check with ``interior_margin``.  A polyhedral cone above
        the dual-ray dimension has no vectorized test and keeps every row.
        """
        raise NotImplementedError

    def contains_interior(self, p, tol: float = DEFAULT_TOL.interior_tol) -> bool:
        return self.interior_margin(p) > tol

    def dual_minimizer(self, a) -> tuple[float, np.ndarray]:
        """``(margin, p)`` with ``p`` in ``K`` and ``<a, p> = margin``.

        ``margin >= 0`` exactly when ``a`` lies in ``K*``; the module
        docstring lists the slice of ``K`` each variant minimizes over.
        """
        raise NotImplementedError

    def dual_margin(self, a) -> float:
        return self.dual_minimizer(a)[0]

    def interior_from_normals(self, u, margin: float = DEFAULT_TOL.sample_margin) -> np.ndarray:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


class Orthant(Cone):
    """Nonnegative orthant in R^n."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("orthant dimension must be positive")
        self.n = int(n)
        self.dim = self.n
        self.draw_dim = self.n

    def __repr__(self):
        return f"Orthant({self.n})"

    def __eq__(self, other):
        return isinstance(other, Orthant) and other.n == self.n

    def interior_margin(self, p) -> float:
        return float(np.min(self._check_point(p)))

    def interior_margin_batch(self, P, at_least: float) -> np.ndarray:
        return np.min(np.asarray(P, dtype=float), axis=1) >= at_least

    def dual_minimizer(self, a) -> tuple[float, np.ndarray]:
        # The orthant is self-dual in the flat inner product.
        a = self._check_point(a)
        k = int(np.argmin(a))
        return float(a[k]), (np.arange(self.n) == k).astype(float)

    def interior_from_normals(self, u, margin: float = DEFAULT_TOL.sample_margin) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.abs(u) + margin

    def descriptor(self) -> dict:
        return {"type": "orthant", "n": self.n}


class Polyhedral(Cone):
    """Finitely generated cone {sum_j lambda_j v_j : lambda >= 0} in R^n.

    Construction rejects non-finite generators first, then generator sets
    that fail the proper-cone requirements: all generators nonzero
    (``tol.negligible`` of each norm over the largest), spanning R^n, and
    no generator's negation inside the cone (pointedness, decided by the
    membership LP on the unit generators).  Each test is invariant under scaling the generators;
    ``generators``, the draws and the descriptor keep them as given.
    """

    def __init__(self, generators, tol: ToleranceProfile = DEFAULT_TOL):
        V = np.asarray(generators, dtype=float)
        if V.ndim != 2 or V.shape[0] == 0:
            raise ValueError("generators must be a nonempty sequence of equal-length vectors")
        if not np.isfinite(V).all():
            raise ValueError("generators must be finite")
        norms = np.linalg.norm(V, axis=1)
        if not norms.max() or np.any(tol.negligible(norms / norms.max())):
            raise ValueError("zero generator")
        if np.linalg.matrix_rank(V) < V.shape[1]:
            raise ValueError("generators must span the ambient space (cone not full-dimensional)")
        self.generators = V
        self.m, self.dim = V.shape
        self.draw_dim = self.m
        self._unit_gens = V / norms[:, None]
        for k, u in enumerate(self._unit_gens):
            if simplex_solve(self._unit_gens.T, -u, np.zeros(self.m), tol.interior_tol)[0] == "optimal":
                raise ValueError(f"generator set is not pointed: -v_{k} lies in the cone")
        self._dual_rays = self._enumerate_dual_rays() if self.dim <= _DUAL_RAY_MAX_DIM else None
        # Direction used by the interior LP: an explicit interior point.
        self._center = self._unit_gens.sum(axis=0)

    def __repr__(self):
        return f"Polyhedral({self.m} generators in R^{self.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, Polyhedral)
            and other.generators.shape == self.generators.shape
            and np.array_equal(other.generators, self.generators)
        )

    def _enumerate_dual_rays(self) -> np.ndarray:
        """Unit normals of all supporting hyperplanes from (n-1)-subsets.

        Every facet of the cone is spanned by n-1 independent generators,
        so its normal shows up among the null directions enumerated here;
        extra (non-facet) supporting normals are harmless for the
        interior test since any dual vector is positive on the interior.
        """
        n = self.dim
        rays = []
        if n == 1:
            rays.append(np.array([1.0]) if self._unit_gens[0, 0] > 0 else np.array([-1.0]))
        for subset in combinations(range(self.m), n - 1):
            if n == 1:
                break
            sub = self.generators[list(subset)]
            _, s, vh = np.linalg.svd(sub)
            if s.size and s[-1] <= 1e-10 * s[0]:
                continue  # rank-deficient subset: null space not a line
            u = vh[-1]
            inner = self._unit_gens @ u
            if np.all(inner >= -1e-12):
                rays.append(u)
            elif np.all(inner <= 1e-12):
                rays.append(-u)
        if not rays:
            raise ValueError("degenerate generator set: no supporting hyperplanes found")
        # Deduplicate directions.
        out = []
        for r in rays:
            if not any(np.linalg.norm(r - q) < 1e-9 for q in out):
                out.append(r)
        return np.array(out)

    def interior_margin(self, p) -> float:
        p = self._check_point(p)
        if self._dual_rays is not None:
            return float(np.min(self._dual_rays @ p))
        # max s with p - s*center in the cone; s > 0 iff p is interior.
        A = np.concatenate([self.generators.T, self._center[:, None]], axis=1)
        c = np.zeros(self.m + 1)
        c[-1] = -1.0
        status, x, _ = simplex_solve(A, p, c)
        if status != "optimal":
            return -np.inf
        return float(x[-1])

    def interior_margin_batch(self, P, at_least: float) -> np.ndarray:
        if self._dual_rays is None:
            return np.ones(np.shape(P)[0], dtype=bool)  # LP-only cone: the scalar margin decides
        return np.min(np.asarray(P, dtype=float) @ self._dual_rays.T, axis=1) >= at_least

    def dual_minimizer(self, a) -> tuple[float, np.ndarray]:
        a = self._check_point(a)
        scale = np.linalg.norm(a) or 1.0
        vals = self._unit_gens @ (a / scale)
        k = int(np.argmin(vals))
        return float(vals[k]), self._unit_gens[k] / scale

    def interior_from_normals(self, u, margin: float = DEFAULT_TOL.sample_margin) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        weights = np.abs(u) + margin
        return weights @ self.generators

    def descriptor(self) -> dict:
        return {"type": "polyhedral", "generators": self.generators.tolist()}


class PSD(Cone):
    """Positive semidefinite matrices of side n, as flat upper triangles."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("matrix side must be positive")
        self.n = int(n)
        self.index = MatrixVarIndex(self.n)
        self.dim = self.index.dim
        self.draw_dim = self.n * self.n
        pairs = np.array(self.index.pairs)
        self._rows, self._cols = pairs[:, 0], pairs[:, 1]

    def __repr__(self):
        return f"PSD({self.n})"

    def __eq__(self, other):
        return isinstance(other, PSD) and other.n == self.n

    def interior_margin(self, p) -> float:
        mat = self.index.mat_from_flat(self._check_point(p))
        return float(hermitian_eigenvalues(mat)[0])

    def interior_margin_batch(self, P, at_least: float) -> np.ndarray:
        # lambda_min(Y) >= at_least, decided from the pivots of Y - at_least I
        P = np.asarray(P, dtype=float)
        A = np.empty((self.n, self.n, P.shape[0]))
        A[self._rows, self._cols] = P.T
        A[self._cols, self._rows] = P.T
        return min_eig_at_least(A, at_least)

    def _dual_matrix(self, a) -> np.ndarray:
        # <a, z>_flat = tr(A Z) when A carries half the off-diagonal
        # coefficients (the flat storage is unscaled).
        mat = self.index.mat_from_flat(self._check_point(a))
        half = (mat + np.diag(np.diag(mat))) / 2.0
        return half

    def dual_minimizer(self, a) -> tuple[float, np.ndarray]:
        w, v = hermitian_eigh(self._dual_matrix(a))
        return float(w[0]), self.index.flat_from_mat(np.outer(v[:, 0], v[:, 0].conj()).real)

    def interior_from_normals(self, u, margin: float = DEFAULT_TOL.sample_margin) -> np.ndarray:
        # Draws-last: (G G^T)_ik = sum_j G_ij G_kj, summed in j order as
        # n outer products of the (n, B) columns of the Gram factors G; a
        # loop over the flat entries instead is slow for a single draw.
        u = np.asarray(u, dtype=float)
        G = np.ascontiguousarray(u.T).reshape(self.n, self.n, u.shape[0])
        S = G[:, None, 0] * G[None, :, 0]
        for j in range(1, self.n):
            S += G[:, None, j] * G[None, :, j]
        diag = np.arange(self.n)
        S[diag, diag] += margin
        return np.ascontiguousarray(S[self._rows, self._cols].T)

    def descriptor(self) -> dict:
        return {"type": "psd", "n": self.n}


class Product(Cone):
    """Finite product of cones, acting on concatenated coordinates."""

    def __init__(self, factors):
        flat: list[Cone] = []
        for f in factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            elif isinstance(f, Cone):
                flat.append(f)
            else:
                raise TypeError(f"not a cone: {f!r}")
        if not flat:
            raise ValueError("product of no cones")
        self.factors = tuple(flat)
        self.dim = sum(f.dim for f in flat)
        self.draw_dim = sum(f.draw_dim for f in flat)
        ends = np.cumsum([f.dim for f in flat])
        self._slices = [slice(int(e - f.dim), int(e)) for f, e in zip(flat, ends)]
        dends = np.cumsum([f.draw_dim for f in flat])
        self._draw_slices = [slice(int(e - f.draw_dim), int(e)) for f, e in zip(flat, dends)]

    def __repr__(self):
        return "Product(" + ", ".join(repr(f) for f in self.factors) + ")"

    def __eq__(self, other):
        return isinstance(other, Product) and other.factors == self.factors

    def interior_margin(self, p) -> float:
        p = self._check_point(p)
        return min(f.interior_margin(p[s]) for f, s in zip(self.factors, self._slices))

    def interior_margin_batch(self, P, at_least: float) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        keep = np.ones(P.shape[0], dtype=bool)
        for f, s in zip(self.factors, self._slices):
            keep &= f.interior_margin_batch(P[:, s], at_least)
        return keep

    def dual_minimizer(self, a) -> tuple[float, np.ndarray]:
        a = self._check_point(a)
        parts = [f.dual_minimizer(a[s]) for f, s in zip(self.factors, self._slices)]
        k = int(np.argmin([m for m, _ in parts]))
        p = np.zeros(self.dim)
        p[self._slices[k]] = parts[k][1]
        return parts[k][0], p

    def interior_from_normals(self, u, margin: float = DEFAULT_TOL.sample_margin) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        parts = [
            f.interior_from_normals(u[:, s], margin)
            for f, s in zip(self.factors, self._draw_slices)
        ]
        return np.concatenate(parts, axis=1)

    def descriptor(self) -> dict:
        return {"type": "product", "factors": [f.descriptor() for f in self.factors]}


def product(k1: Cone, k2: Cone) -> Product:
    """Product cone on concatenated coordinates; nested factors flatten."""
    return Product([k1, k2])


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def cone_from_descriptor(data: dict) -> Cone:
    kind = data.get("type")
    if kind == "orthant":
        return Orthant(int(data["n"]))
    if kind == "psd":
        return PSD(int(data["n"]))
    if kind == "polyhedral":
        return Polyhedral(np.asarray(data["generators"], dtype=float))
    if kind == "product":
        return Product([cone_from_descriptor(f) for f in data["factors"]])
    raise ValueError(f"unknown cone descriptor type: {kind!r}")
