"""Univariate root location: stability, real-rootedness, interlacing.

Everything downstream reduces multivariate questions to polynomials in one
variable, so this module carries the numerical workhorses: the root
engine, the half-plane stability test (no root with positive imaginary
part; the zero polynomial counts as unstable by convention), real-rooted
detection, the interlacing test for two real-rooted polynomials (roots
that alternate are proper in one of two orientations, so the kinds are
proper, reversed, identical roots and none), and the nonpositivity test
for the Wronskian ``f' g - g' f``, read at its critical points.

The root engine has one path per shape of input.  A single polynomial
(:func:`roots`) is solved in closed form up to degree 2 and from
companion-matrix eigenvalues (LAPACK, via ``np.roots``) above that.  A
batch of same-degree polynomials (the samplers' line restrictions and
fibers) is solved in closed form up to degree 2 and by Aberth–Ehrlich
simultaneous iteration above that, vectorized across the batch: started
from the closed-form (Cardano) roots at degree 3, which are kept where
their residuals verify at rounding level and polished where not, and on
the Cauchy-bound circle from degree 4.  Both paths fall back to one
helper, companion eigenvalues polished by Aberth–Ehrlich iteration, for a
polynomial the first attempt does not solve to tolerance.

Stability, real-rootedness and interlacing are decided without roots.  By
Hermite's theorem (the Hermite–Biehler base of the conic theory) the
inertia of the Bezoutian Bez(P, Q) counts the roots of P + iQ in the two
open half-planes, and Bez(P, P') >= 0 iff the real P is real-rooted.  One
builder (``_bezoutian``) forms the normalized Bez of each row, draws-last.
The predicates read its eigenvalues (``_bezout_eigs``) and test
semidefiniteness within rounding and ``tol.eig_tol`` (multiple roots need
no slack).  The samplers' screen (``_clears_lower``) reads its pivots
instead: one LDL^T elimination of Bez - tau I per row decides whether
lambda_min reaches the band tau, and a row of degree >= 3 that passes is
not solved at all.

A :class:`UniPoly` stores coefficients in ascending degree order and is
canonicalized on construction: trailing coefficients that
``ToleranceProfile.negligible`` holds are dropped, so the zero polynomial
has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .linalg import min_eig_at_least
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "UniPoly",
    "InterlaceReport",
    "roots",
    "is_stable_univariate",
    "is_real_rooted",
    "interlacing",
    "wronskian_uni",
    "wronskian_sign_leq0",
]

# Interlacing kinds reported by :func:`interlacing`.
KIND_PROPER = "proper"
KIND_PROPER_REVERSED = "proper_reversed"
KIND_NONE = "none"
KIND_IDENTICAL = "identical_roots"


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial with ascending complex coefficients.

    ``UniPoly((c0, c1, c2))`` is ``c0 + c1 t + c2 t^2``.  The public
    constructor canonicalizes: trailing coefficients are trimmed by
    ``tol.negligible`` (absolute), so ``degree`` of the zero
    polynomial is -1 and ``bool(p)`` tells whether p is nonzero.
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs, tol: ToleranceProfile = DEFAULT_TOL):
        cs = [complex(c) for c in coeffs]
        while cs and tol.negligible(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_real(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        return all(tol.negligible(c.imag) for c in self.coeffs)

    @property
    def lead(self) -> complex:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly(())
        return UniPoly(np.convolve(self.coeffs, other.coeffs))

    def scale(self, factor: complex) -> "UniPoly":
        return UniPoly([factor * c for c in self.coeffs])

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, t):
        """Evaluate by Horner's rule; accepts scalars or arrays."""
        t = np.asarray(t, dtype=complex)
        val = np.zeros_like(t)
        for c in reversed(self.coeffs):
            val = val * t + c
        return val if val.ndim else complex(val)

    @staticmethod
    def from_roots(root_list, lead: complex = 1.0) -> "UniPoly":
        coeffs = np.array([lead], dtype=complex)
        for r in root_list:
            coeffs = np.convolve(coeffs, [-r, 1.0])
        return UniPoly(coeffs)


@dataclass(frozen=True)
class InterlaceReport:
    """Outcome of :func:`interlacing`.

    ``kind`` is one of ``proper``, ``proper_reversed``,
    ``identical_roots`` or ``none``, read from the inertia of a Bezoutian
    without computing roots.  Plain alternation has no kind of its own: it
    always holds in one of the two proper orientations.
    """

    kind: str


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def _horner_batch(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Values at ``z`` (m, B) of the ascending coefficient columns ``coeffs`` (d+1, B).

    Draws-last: column i of ``z`` holds the points of polynomial i, and each
    Horner step is one operation on whole rows of B draws.
    """
    val = np.zeros_like(z)
    for c in coeffs[::-1]:
        val = val * z + c
    return val


def _batch_quadratic(c: np.ndarray) -> np.ndarray:
    """Roots of c0 + c1 t + c2 t^2 rows, cancellation-safe."""
    c0, c1, c2 = np.ascontiguousarray(c.T)
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = np.sqrt(disc.astype(complex))
    # pick the sign that enlarges |c1 + sq| to avoid cancellation
    flip = np.real(np.conj(c1) * sq) < 0.0
    sq = np.where(flip, -sq, sq)
    q = -0.5 * (c1 + sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(q != 0, q / c2, 0.0)
        r2 = np.where(q != 0, c0 / q, 0.0)
    return np.stack([r1, r2]).T


def _batch_cubic(c: np.ndarray) -> np.ndarray:
    """Cardano roots of c0 + c1 t + c2 t^2 + c3 t^3 rows, shape (B, 3).

    With t = s - a/3 the monic row is s^3 + p s + q, whose roots are
    ``u w^k - p / (3 u w^k)`` for the cube roots of unity w^k and u^3 =
    -q/2 + sqrt(q^2/4 + p^3/27).  The sign of the square root is the one
    that enlarges |u^3|, so u is not lost to cancellation; u = 0 only for
    the triple root s = 0.  Any cube root u serves, since all three u w^k
    are formed and each pairs with its own -p / (3 u w^k): u is the real
    cube root of |u^3| turned by a third of its angle, which costs less
    than a complex power.  Computed draws-last; the (B, 3) result is a
    view of a (3, B) array.
    """
    ct = np.ascontiguousarray(c.T)
    a, b, c0 = (ct[j] / ct[3] for j in (2, 1, 0))
    p = b - a * a / 3.0
    q = c0 - a * b / 3.0 + 2.0 * a * a * a / 27.0
    sq = np.sqrt(0.25 * q * q + p * p * p / 27.0)
    sq = np.where(np.real(np.conj(q) * sq) > 0.0, -sq, sq)
    u3 = sq - 0.5 * q
    u = np.cbrt(np.abs(u3)) * np.exp(1j / 3.0 * np.angle(u3))
    v = np.divide(-p, 3.0 * u, out=np.zeros_like(u), where=u != 0)
    w = np.exp(2j * np.pi * np.arange(3) / 3)[:, np.newaxis]
    return (u * w + v * w.conj() - a / 3.0).T


# Aberth starts within rounding of each other (eps times the row's largest
# start) are moved _START_GAP times that apart before the iteration, since
# 1 / (z_j - z_k) is infinite for coincident starts.  Cardano starts of an
# exact multiple root coincide; sqrt(eps) is as far as a double root is
# resolved anyway.  The row's scale is floored at eps, where the iteration's
# step and residual tests stop being relative, so the starts of t^d move to
# points those tests already accept.
_START_GAP = 2.0**-26


def _separated(z: np.ndarray) -> np.ndarray:
    """Starts ``z`` (d, B), draws-last, with coincident starts of a row
    moved apart (see _START_GAP)."""
    d = z.shape[0]
    if d < 2:
        return z
    eps = np.finfo(float).eps
    scale = np.maximum(np.max(np.abs(z), axis=0), eps)
    gap = np.full(z.shape[1], np.inf)
    for j in range(d):
        for k in range(j + 1, d):
            np.minimum(gap, np.abs(z[j] - z[k]), out=gap)
    close = gap <= eps * scale
    if close.any():
        spread = np.exp(1j * (2.0 * np.pi * (np.arange(d) + 0.5) / d + 0.43))
        z[:, close] += _START_GAP * scale[close] * spread[:, np.newaxis]
    return z


def _rounding_level(pv: np.ndarray, sv: np.ndarray, k: float) -> np.ndarray:
    """Where the residual ``|pv| <= k eps max(sv, eps)``, sv the mass sum |c_j| |z|^j."""
    eps = np.finfo(float).eps
    return np.abs(pv) <= k * eps * np.maximum(sv, eps)


# The most sweeps one Aberth–Ehrlich iteration runs, on the batch and on
# the companion retry alike; rows still moving then fail the final residual
# test (a batch row goes to the retry).
_ABERTH_SWEEPS = 80


def _aberth_batch(coeffs: np.ndarray, start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Aberth–Ehrlich iteration on a batch of same-degree polynomials.

    Parameters
    ----------
    coeffs : ndarray, shape (B, d+1)
        Ascending coefficients, last column nonzero.
    start : ndarray, optional
        Initial root guesses, shape (B, d): the closed-form cubic roots
        (degree 3) or companion eigenvalues (the retry).  Coincident
        guesses of a row are moved apart first (``_separated``).  Defaults
        to points on the per-row Cauchy-bound circle with an angular
        offset.

    Returns
    -------
    (z, converged) : tuple
        Root estimates, shape (B, d), and a per-row convergence flag based
        on a backward-stable residual test.

    Given starts are verified before any sweep: a row whose every start
    already has a rounding-level residual (16 eps of its mass, the test
    under which a sweep leaves a root in place) is returned as it is and
    converged, and only the other rows are swept, at most ``_ABERTH_SWEEPS``
    times.  A sweep would never have moved such a row, so every row gets
    the bits of the full iteration.  The iteration runs draws-last, on (d,
    B) arrays, so each operation spans the whole batch.  The Aberth sum over
    the other starts is accumulated start by start in a fixed order, so a
    row's roots do not depend on its batch-mates.
    """
    b, d1 = coeffs.shape
    d = d1 - 1
    ct = np.ascontiguousarray(coeffs.T)
    monic = ct / ct[-1]
    dcoeffs = monic[1:] * np.arange(1, d + 1)[:, np.newaxis]
    moduli = np.abs(monic)

    if start is None:
        radius = 1.0 + np.max(np.abs(monic[:-1]), axis=0)
        angles = 2.0 * np.pi * (np.arange(d) + 0.5) / d + 0.43
        z = radius * np.exp(1j * angles)[:, np.newaxis]
        active = np.ones(b, dtype=bool)
    else:
        z = _separated(np.array(start.T, dtype=complex, order="C"))
        settled = _rounding_level(_horner_batch(monic, z), _horner_batch(moduli, np.abs(z)), 16.0)
        active = ~np.all(settled, axis=0)

    eps = np.finfo(float).eps
    swept = active.copy()
    for _ in range(_ABERTH_SWEEPS):
        if not active.any():
            break
        cols = slice(None) if active.all() else active
        za = z[:, cols]
        pv = _horner_batch(monic[:, cols], za)
        dv = _horner_batch(dcoeffs[:, cols], za)
        # residual scale: sum |c_j| |z|^j, evaluated by Horner on moduli
        sv = _horner_batch(moduli[:, cols], np.abs(za))
        tiny = dv == 0
        if np.any(tiny):
            dv = np.where(tiny, eps, dv)
        w = pv / dv
        # s_j = sum over k != j of 1 / (z_j - z_k), in increasing k
        s = np.zeros_like(za)
        for j in range(d):
            for k in range(j + 1, d):
                r = 1.0 / (za[j] - za[k])
                s[j] += r
                s[k] -= r
        denom = 1.0 - w * s
        small = np.abs(denom) < 1e-290
        denom = np.where(small, 1.0, denom)
        step = w / denom
        # A root whose residual is rounding noise stays put: near a
        # multiple root a step built from that noise can throw it far off.
        settled = _rounding_level(pv, sv, 16.0)
        done_rows = np.all(settled | (np.abs(step) <= 4.0 * eps * (1.0 + np.abs(za))), axis=0)
        z[:, cols] = np.where(settled, za, za - step)
        still = np.flatnonzero(active)
        active[still[done_rows]] = False

    # final residual verdict per swept row
    converged = ~swept
    if swept.any():
        cols = slice(None) if swept.all() else swept
        zs = z[:, cols]
        pv = _horner_batch(monic[:, cols], zs)
        sv = _horner_batch(moduli[:, cols], np.abs(zs))
        converged[cols] = np.all(_rounding_level(pv, sv, 1e6), axis=0)
    return z.T, converged


def _closed_form(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of degree-1 or degree-2 rows, shape (B, d)."""
    if coeffs.shape[1] == 2:
        return -coeffs[:, :1] / coeffs[:, 1:]
    return _batch_quadratic(coeffs)


def _companion_polished(c: np.ndarray) -> np.ndarray:
    """Roots of one ascending coefficient row, shape (d,).

    Companion-matrix eigenvalues (``np.roots``) are the start of an
    Aberth–Ehrlich polish, which keeps them as they are when every residual
    is already at rounding level.  No ordering guarantee.  A row whose monic
    form overflows has roots beyond the float range and gets NaN roots.
    """
    with np.errstate(all="ignore"):
        if not np.isfinite(c / c[-1]).all():
            return np.full(c.size - 1, np.nan, dtype=complex)
    start = np.roots(c[::-1])
    z, _ = _aberth_batch(c[np.newaxis, :].astype(complex), start=start[np.newaxis, :])
    return z[0]


def _roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """All roots for a batch of same-degree polynomials, shape (B, d).

    Degrees 1 and 2 use closed forms.  At degree 3 the closed-form
    (Cardano) roots are verified by their residuals and kept where every
    one is at rounding level; Aberth–Ehrlich iteration polishes the other
    rows.  From degree 4 Aberth starts on the Cauchy-bound circle.  Rows
    that resist it are retried by :func:`_companion_polished`.  A row
    whose leading coefficient is exactly zero gets the roots of the row
    with that coefficient dropped, padded with NaN; from degree 3 a row
    whose constant coefficient is exactly zero gets the exact root 0 and
    the roots of the row with it dropped (Aberth crawls toward a multiple
    root at 0).  No ordering guarantee inside a row.
    """
    b, d1 = coeffs.shape
    d = d1 - 1
    if d <= 0 or b == 0:
        return np.zeros((b, max(d, 0)), dtype=complex)
    lead = coeffs[:, -1] != 0
    low = lead & (coeffs[:, 0] == 0) & (d >= 3)
    if not lead.all() or low.any():
        z = np.full((b, d), np.nan, dtype=complex)
        z[lead & ~low] = _roots_batch(coeffs[lead & ~low])
        z[low, 0] = 0.0
        z[low, 1:] = _roots_batch(coeffs[low, 1:])
        for row in np.flatnonzero(~lead):
            z[row, :-1] = _roots_batch(coeffs[row : row + 1, :-1])[0]
        return z
    if d <= 2:
        return _closed_form(coeffs.astype(complex))
    c = coeffs.astype(complex)
    z, converged = _aberth_batch(c, start=_batch_cubic(c) if d == 3 else None)
    for row in np.flatnonzero(~converged):
        z[row] = _companion_polished(coeffs[row])
    return z


# The Bezoutian screen clears a row only when its smallest eigenvalue
# reaches this multiple of m * max(m, M) (see :func:`_bezoutian`);
# forming Bez errs by about 1e-16 of it.
_BEZOUT_BAND = 1e-8

# A few eps: the relative rounding of an input coefficient or of the shift
_ROUNDING = 4 * np.finfo(float).eps


@lru_cache(maxsize=None)
def _bezout_tables(d: int) -> tuple[np.ndarray, ...]:
    """Per-degree tables of :func:`_bezoutian`, read-only.

    Index pairs a > b and the 0/1 map from p_a q_b - p_b q_a to Bez entries
    (``(P(s)Q(t) - P(t)Q(s)) / (s - t)`` collects ``s^b t^b (s^(a-b) -
    t^(a-b)) / (s - t)`` per pair: monomials ``s^(b+k) t^(a-1-k)``, k < a - b);
    the shift's binomials C(j, k), powers max(j - k, 0) and j; and 1 / (d - j).
    """
    hi, lo = np.tril_indices(d + 1, -1)
    T = np.zeros((hi.size, d, d))
    for n, (a, b) in enumerate(zip(hi, lo)):
        k = np.arange(a - b)
        T[n, b + k, a - 1 - k] = 1.0
    j = np.arange(d + 1)
    C = np.array([[comb(a, b) for b in j] for a in j], dtype=float)
    tables = (hi, lo, T.reshape(hi.size, d * d), C, np.maximum(j[:, np.newaxis] - j, 0), j, 1.0 / (d - j[:-1]))
    for arr in tables:
        arr.flags.writeable = False  # cached: every caller gets these arrays
    return tables


def _radius(c: np.ndarray, h: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root radius rho of the shifted monic rows ``c`` (d+1, B), and |h|."""
    # max_j |c_j|^(1/(d-j)) lies between half and d times the largest |root|
    rho = (np.abs(c[:-1]) ** inv[:, np.newaxis]).max(axis=0)
    # below the shift's rounding, or where rho^-d overflows, a radius is noise
    ah = np.abs(h)
    return np.maximum(np.maximum(rho, np.finfo(float).eps * ah), np.finfo(float).tiny ** inv[0]), ah


def _bezoutian(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row's normalized Bezoutian, draws-last, two masses and a validity mask.

    Row p = P + iQ of ``coeffs`` (B, d+1), ascending, d >= 1.  Bez(P, Q) has
    one positive (negative) eigenvalue per root of p / gcd(P, Q) in the
    open lower (upper) half-plane (Hermite).  Each row is made monic,
    shifted by its real root centroid h and scaled by its root radius rho,
    which keeps the inertia.  Returns the real symmetric Bez as a fresh (d,
    d, B) array, the coefficient mass ``m`` of the transformed row, ``M =
    sum_j |c_j| (|h| + rho)^j / rho^d``, that of the monic row at the
    shifted radius, which bounds the shift's rounding, and ``ok``, False on
    rows with a zero leading coefficient or a non-finite entry (built from
    a row of ones).  Bez is bilinear in the row, so by Weyl a relative
    perturbation e of the monic row's coefficients moves each eigenvalue by
    about e * m * max(m, M).

    Up to 8 rows (the univariate predicates' calls) the shift is one
    binomial product and the powers of rho come from ``**``; a batch (the
    samplers' screen) shifts row by row and takes the powers as running
    products, M by Horner's rule, since ``**`` costs more than the rest of
    the transformation.  So the bits of a row's Bez depend on the batch
    size, far inside the bound above, and a row's decision does not.
    """
    # a view of the caller's array where coeffs.T is contiguous (one row): not written to
    c = np.ascontiguousarray(np.asarray(coeffs, dtype=complex).T)
    d1, b = c.shape
    d = d1 - 1
    hi, lo, T, C, gap, j, inv = _bezout_tables(d)
    ok = np.isfinite(c).all(axis=0) & (c[-1] != 0)
    if not ok.all():
        c = np.where(ok, c, 1.0)
    if b <= 8:  # the predicates' arithmetic, bit for bit
        c = c / c[-1]
        moduli, h = np.abs(c), -c[d - 1].real / d
        c = (c[:, np.newaxis] * (C[:, :, np.newaxis] * (h ** j[:, np.newaxis])[gap])).sum(axis=0)
        rho, ah = _radius(c, h, inv)
        c *= rho ** (j - d)[:, np.newaxis]
        # sums over rows of (B, d+1) copies: NumPy adds 9 or more terms pairwise
        M = (moduli * (ah + rho) ** j[:, np.newaxis]).T.copy().sum(axis=1) / rho**d
        m = np.abs(c).T.copy().sum(axis=1)
    else:  # the screen's: fewer passes over the batch
        # in place: the transpose of C-ordered (B, d+1) rows, B > 8, was copied above
        c *= 1.0 / c[-1]
        moduli, h = np.abs(c), -c[d - 1].real / d
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                c[k] += h * c[k + 1]
        rho, ah = _radius(c, h, inv)
        s = 1.0 / rho
        scale = s.copy()  # rho^(k - d) at row k
        for k in range(d - 1, -1, -1):
            c[k] *= scale
            if k:
                scale *= s
        M, R = moduli[d].copy(), ah + rho
        for k in range(d - 1, -1, -1):
            M *= R
            M += moduli[k]
        M *= scale
        m = np.abs(c).sum(axis=0)
    P, Q = c.real, c.imag
    pairs = P[hi] * Q[lo] - P[lo] * Q[hi]
    # callers take max(m, M): M < m only by rounding, or by underflow of rho^d
    return np.ascontiguousarray((pairs.T @ T).T).reshape(d, d, b), m, M, ok


def _bezout_eigs(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenvalues (B, d) of each row's :func:`_bezoutian`, and its masses m, M.

    The univariate predicates read inertia from these; rows that are not
    ``ok`` get NaN eigenvalues.
    """
    bez, m, M, ok = _bezoutian(coeffs)
    eigs = np.linalg.eigvalsh(bez.transpose(2, 0, 1))
    if not ok.all():
        eigs[~ok] = np.nan
    return eigs, m, M


def _clears_lower(coeffs: np.ndarray) -> np.ndarray:
    """Root-free test that every root of a row lies strictly below the real axis.

    A row is cleared iff ``lambda_min(Bez) >= tau = _BEZOUT_BAND * m *
    max(m, M)`` (:func:`_bezoutian`), decided by the pivots of Bez - tau I
    (:func:`~conicstab.linalg.min_eig_at_least`), not by an eigensolve.
    Since tau > 0, Bez(P, Q) is then definite, also under perturbations
    well below the band.  A row that is not ``ok`` is never cleared.  Nor is
    a row with Im(c_{d-1} / c_d) <= 0, and its Bezoutian is not built: that
    is minus the sum of the roots' imaginary parts, and rho times Bez's
    last diagonal entry up to rounding, which has to reach tau > 0.
    """
    maybe = (coeffs[:, -2] * np.conj(coeffs[:, -1])).imag > 0  # the sign of Im(c_{d-1} / c_d)
    cleared = np.zeros(coeffs.shape[0], dtype=bool)
    if maybe.any():
        bez, m, M, ok = _bezoutian(coeffs if maybe.all() else coeffs[maybe])
        cleared[maybe] = ok & min_eig_at_least(bez, _BEZOUT_BAND * m * np.maximum(m, M))
    return cleared


def _with_derivative(c):
    """Rows p + i p' of real rows p (None unless every row is real).

    Bez(p, p') is positive semidefinite exactly when p is real-rooted, and
    definite when the roots are also simple (Hermite–Kakeya–Obreschkoff).
    """
    if np.iscomplexobj(c) and c.imag.any():
        return None
    rows = c.astype(complex)
    rows.imag[:, :-1] = c.real[:, 1:] * np.arange(1, c.shape[1])
    return rows


def _coeff_scale(mass: float, degree: int, z: np.ndarray):
    """Residual scale sum|coeff| * max(1,|z|)^deg of a point or of each row."""
    grow = np.maximum(1.0, np.max(np.abs(z), axis=-1, initial=0.0))
    return mass * grow ** max(degree, 0)


def _within_bound(p: UniPoly, z: np.ndarray, tol: ToleranceProfile) -> bool:
    """Every ``|p(r)| <= tol.root_tol * _coeff_scale(||p||_1, deg, r)``; NaN fails."""
    bound = tol.root_tol * _coeff_scale(sum(abs(c) for c in p.coeffs), p.degree, z[:, np.newaxis])
    return bool(np.all(np.abs(p(z)) <= bound))


def roots(p: UniPoly, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """All complex roots of ``p`` with multiplicity, deterministically ordered.

    Degrees 1 and 2 use closed forms (the quadratic one cancellation-safe);
    higher degrees use companion-matrix eigenvalues from LAPACK
    (``np.roots``).  Each accepted root satisfies
    ``|p(r)| <= tol.root_tol * ||p||_1 * max(1, |r|)^deg``.  A root list
    that misses this bound is retried once from companion eigenvalues
    polished by Aberth–Ehrlich iteration.  Roots are sorted by (real,
    imaginary).

    Raises
    ------
    ValueError
        If ``p`` is the zero polynomial (its root set is all of C).
    ArithmeticError
        If ``p`` is nonconstant with a non-finite coefficient, or a
        residual is still above the bound (or NaN) after the retry.
    """
    if not p:
        raise ValueError("the zero polynomial does not have a root list")
    if p.degree == 0:
        return np.zeros(0, dtype=complex)
    c = np.array(p.coeffs, dtype=complex)
    if not np.all(np.isfinite(c)):
        raise ArithmeticError("polynomial has a non-finite coefficient")
    z = _closed_form(c[np.newaxis, :])[0] if p.degree <= 2 else np.roots(c[::-1])
    if not _within_bound(p, z, tol):
        z = _companion_polished(c)
        if not _within_bound(p, z, tol):
            raise ArithmeticError("root residual exceeds the acceptance bound")
    order = np.lexsort((z.imag, z.real))
    return z[order]


# ---------------------------------------------------------------------------
# Stability and real-rootedness
# ---------------------------------------------------------------------------


def _banded_eigs(rows: np.ndarray, tol: ToleranceProfile) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Bezoutian eigenvalues (:func:`_bezout_eigs`) and semidefinite band.

    The band is ``m * (tol.eig_tol * m + _ROUNDING * max(m, M))``: eig_tol
    of the transformed row's own scale, plus what rounding each coefficient
    moves an eigenvalue by.  Only the rounding term grows with M, so roots
    clustered far from 0 widen the band by their rounding, not by eig_tol.
    """
    eigs, m, M = _bezout_eigs(rows)
    return eigs, m * (tol.eig_tol * m + _ROUNDING * np.maximum(m, M))


def _semidefinite(rows: np.ndarray, tol: ToleranceProfile) -> tuple[np.ndarray, np.ndarray]:
    """Per row, whether Bez >= 0 and whether Bez <= 0 within :func:`_banded_eigs`'s band."""
    eigs, band = _banded_eigs(rows, tol)
    return eigs[:, 0] >= -band, eigs[:, -1] <= band


def _row(p: UniPoly, width: int) -> np.ndarray:
    """p's coefficients as a zero-padded (1, width) row; ArithmeticError if one is not finite."""
    c = np.zeros((1, width), dtype=complex)
    c[0, : len(p.coeffs)] = p.coeffs
    if not np.isfinite(c).all():
        raise ArithmeticError("polynomial has a non-finite coefficient")
    return c


def is_stable_univariate(p: UniPoly, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff ``p`` is nonzero and no root lies above the real axis.

    With p / lead = P + iQ: Bez(P, Q) >= 0 (no root off gcd(P, Q) lies
    above the axis) and Bez(P, P') >= 0 (P, hence gcd(P, Q), is
    real-rooted), both within :func:`_semidefinite`'s band, so real and
    multiple roots need no slack.  Bez(P, P') is formed only when Bez(P, Q)
    lies in the band: beyond it, a definite Bez(P, Q) already has every
    root below the axis (gcd(P, Q) = 1) and an indefinite one a root above
    it.  The zero polynomial is *not* stable, by convention.  Raises
    ``ArithmeticError`` for a non-finite coefficient.
    """
    if not p:
        return False
    if p.degree == 0:
        return True
    c = _row(p, p.degree + 1) / p.lead
    if c.imag.any():
        eigs, band = _banded_eigs(c, tol)
        if abs(eigs[0, 0]) > band[0]:
            return bool(eigs[0, 0] > 0)
    return bool(_semidefinite(_with_derivative(c.real), tol)[0][0])


def is_real_rooted(p: UniPoly, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff every root of ``p`` is real.

    With p / lead = P + iQ: Q is at most ``tol.eig_tol`` of the coefficient
    mass and Bez(P, P') >= 0 within :func:`_semidefinite`'s band.  Nonzero
    constants are vacuously real-rooted; the zero polynomial is not.
    Raises ``ArithmeticError`` for a non-finite coefficient.
    """
    if not p:
        return False
    if p.degree == 0:
        return True
    c = _row(p, p.degree + 1) / p.lead
    if np.abs(c.imag).sum() > tol.eig_tol * np.abs(c).sum():
        return False
    return bool(_semidefinite(_with_derivative(c.real), tol)[0][0])


# ---------------------------------------------------------------------------
# Interlacing
# ---------------------------------------------------------------------------


def interlacing(
    f: UniPoly,
    g: UniPoly,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> InterlaceReport:
    """Classify the root pattern of two real, real-rooted polynomials.

    ``kind`` is ``none`` when either input is zero or not real, the degrees
    differ by more than one, or the pair is not real-rooted.  Otherwise the
    sign of Bez(g, f) decides (Hermite–Biehler): ``identical_roots`` when
    it vanishes at equal degree, ``proper`` when it is >= 0 (g + i f is
    stable), ``proper_reversed`` when it is <= 0 (f + i g is), else
    ``none``; coincident roots need no slack.  Only the input of higher
    degree (g at equal degree) is tested for real-rootedness: the common
    roots are then real, so a stable combination makes the other one
    real-rooted too.
    """
    if not f or not g or not f.is_real(tol) or not g.is_real(tol):
        return InterlaceReport(KIND_NONE)
    if abs(f.degree - g.degree) > 1:
        return InterlaceReport(KIND_NONE)
    d = max(f.degree, g.degree)
    if d == 0:
        return InterlaceReport(KIND_IDENTICAL)
    pair = np.concatenate([_row(g, d + 1), _row(f, d + 1)]).real
    top = pair[:1] if g.degree == d else pair[1:]
    psd, nsd = _semidefinite(np.concatenate([_with_derivative(top), pair[:1] + 1j * pair[1:]]), tol)
    if not psd[0]:
        return InterlaceReport(KIND_NONE)
    if psd[1] and nsd[1] and f.degree == g.degree:
        return InterlaceReport(KIND_IDENTICAL)
    if psd[1] or nsd[1]:
        return InterlaceReport(KIND_PROPER if psd[1] else KIND_PROPER_REVERSED)
    return InterlaceReport(KIND_NONE)


# ---------------------------------------------------------------------------
# Wronskian
# ---------------------------------------------------------------------------


def wronskian_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """The univariate Wronskian ``f' g - g' f``."""
    return f.derivative() * g - g.derivative() * f


def wronskian_sign_leq0(f: UniPoly, g: UniPoly, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Decide whether ``W = f' g - g' f <= 0`` holds on all of R.

    The tails are read off the leading coefficient exactly: an odd degree
    or a positive leading coefficient makes W positive somewhere.
    Otherwise W tends to -inf both ways, so its largest value is at a real
    root of W'; W is evaluated at Re r for every root r of W', which also
    reads a real critical point that rounding moved off the axis.  Values
    are accepted while ``W(x) <= tol.sign_tol * sum_j |w_j| max(1, |x|)^j``,
    a band that scales with W, with no floor.  Raises ``ValueError`` for
    complex input, and passes on the ``ArithmeticError`` of :func:`roots`.
    """
    if not f.is_real(tol) or not g.is_real(tol):
        raise ValueError("Wronskian sign test expects real polynomials")
    w = wronskian_uni(f, g)
    if not w:
        return True
    if w.degree % 2 == 1 or w.lead.real > 0:
        return False
    if w.degree == 0:
        return True
    xs = roots(w.derivative(), tol).real
    ax = np.maximum(1.0, np.abs(xs))
    scale = sum(abs(c) * ax**j for j, c in enumerate(w.coeffs))
    return bool(np.all(w(xs).real <= tol.sign_tol * scale))
