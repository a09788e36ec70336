"""Univariate root location: stability, real-rootedness, interlacing.

Everything downstream reduces multivariate questions to polynomials in one
variable, so this module carries the numerical workhorses: the root
engine, the half-plane stability test (no root with positive imaginary
part; the zero polynomial counts as unstable by convention), real-rooted
detection, the interlacing test for two real-rooted polynomials (roots
that alternate are proper in one of two orientations, so the kinds are
proper, reversed, identical roots and none), and a sampled nonpositivity
test for the Wronskian ``f' g - g' f``.

The root engine has one path per shape of input.  A single polynomial
(:func:`roots`) is solved in closed form up to degree 2 and from
companion-matrix eigenvalues (LAPACK, via ``np.roots``) above that.  A
batch of same-degree polynomials (the samplers' line restrictions and
fibers) is solved in closed form up to degree 2 and by Aberth–Ehrlich
simultaneous iteration above that, vectorized across the batch: started
from the closed-form (Cardano) roots at degree 3, so that it only polishes
them, and on the Cauchy-bound circle from degree 4.  Both paths fall back
to one helper, companion eigenvalues polished by Aberth–Ehrlich iteration,
for a polynomial the first attempt does not solve to tolerance.

Ahead of the batch solve of a row of degree 4 or more, the samplers ask
a root-free question: does every root lie strictly below the real axis?
By Hermite's theorem (the Hermite–Biehler base of the conic theory) the
inertia of the Bezoutian of P and Q counts the roots of P + iQ in each
half-plane, so a clearly positive definite Bezoutian answers yes without
solving.  The batch test (``_clears_lower``) errs only towards "not
cleared": a row it cannot clear goes to the batch solve as before.  Up to
degree 3 the closed forms cost less than the test, so no row is screened.

A :class:`UniPoly` stores coefficients in ascending degree order and is
canonicalized on construction: trailing coefficients with modulus at or
below ``coeff_zero_tol`` are dropped, so the zero polynomial has an empty
coefficient tuple and degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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
    constructor canonicalizes: trailing near-zero coefficients are trimmed
    at ``tol.coeff_zero_tol`` (absolute), so ``degree`` of the zero
    polynomial is -1 and ``bool(p)`` tells whether p is nonzero.
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs, tol: ToleranceProfile = DEFAULT_TOL):
        cs = [complex(c) for c in coeffs]
        while cs and abs(cs[-1]) <= tol.coeff_zero_tol:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_real(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        return all(abs(c.imag) <= tol.coeff_zero_tol for c in self.coeffs)

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
    ``identical_roots`` or ``none``; the root arrays are the (real parts
    of the) computed roots, sorted ascending.  Plain alternation has no
    kind of its own: it always holds in one of the two proper orientations.
    """

    kind: str
    roots_f: np.ndarray = field(repr=False)
    roots_g: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def _horner_batch(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    val = np.zeros_like(z)
    for j in range(coeffs.shape[1] - 1, -1, -1):
        val = val * z + coeffs[:, j : j + 1]
    return val


def _batch_quadratic(c: np.ndarray) -> np.ndarray:
    """Roots of c0 + c1 t + c2 t^2 rows, cancellation-safe."""
    c0, c1, c2 = c[:, 0], c[:, 1], c[:, 2]
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = np.sqrt(disc.astype(complex))
    # pick the sign that enlarges |c1 + sq| to avoid cancellation
    flip = np.real(np.conj(c1) * sq) < 0.0
    sq = np.where(flip, -sq, sq)
    q = -0.5 * (c1 + sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(q != 0, q / c2, 0.0)
        r2 = np.where(q != 0, c0 / q, 0.0)
    return np.stack([r1, r2], axis=1)


def _batch_cubic(c: np.ndarray) -> np.ndarray:
    """Cardano roots of c0 + c1 t + c2 t^2 + c3 t^3 rows, shape (B, 3).

    With t = s - a/3 the monic row is s^3 + p s + q, whose roots are
    ``u w^k - p / (3 u w^k)`` for the cube roots of unity w^k and u^3 =
    -q/2 + sqrt(q^2/4 + p^3/27).  The sign of the square root is the one
    that enlarges |u^3|, so u is not lost to cancellation; u = 0 only for
    the triple root s = 0.
    """
    a, b, c0 = (c[:, j] / c[:, 3] for j in (2, 1, 0))
    p = b - a * a / 3.0
    q = c0 - a * b / 3.0 + 2.0 * a * a * a / 27.0
    sq = np.sqrt(0.25 * q * q + p * p * p / 27.0)
    sq = np.where(np.real(np.conj(q) * sq) > 0.0, -sq, sq)
    u = (sq - 0.5 * q) ** (1.0 / 3.0)
    v = np.divide(-p, 3.0 * u, out=np.zeros_like(u), where=u != 0)
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    return u[:, np.newaxis] * w + v[:, np.newaxis] * w.conj() - a[:, np.newaxis] / 3.0


# Aberth starts within rounding of each other (eps times the row's largest
# start) are moved _START_GAP times that apart before the iteration, since
# 1 / (z_j - z_k) is infinite for coincident starts.  Cardano starts of an
# exact multiple root coincide; sqrt(eps) is as far as a double root is
# resolved anyway.  The row's scale is floored at eps, where the iteration's
# step and residual tests stop being relative, so the starts of t^d move to
# points those tests already accept.
_START_GAP = 2.0**-26


def _separated(z: np.ndarray) -> np.ndarray:
    """``z`` with coincident starts of a row moved apart (see _START_GAP)."""
    d = z.shape[1]
    if d < 2:
        return z
    eps = np.finfo(float).eps
    scale = np.maximum(np.max(np.abs(z), axis=1), eps)
    i, j = np.triu_indices(d, 1)
    close = np.min(np.abs(z[:, i] - z[:, j]), axis=1) <= eps * scale
    if close.any():
        spread = np.exp(1j * (2.0 * np.pi * (np.arange(d) + 0.5) / d + 0.43))
        z[close] += _START_GAP * scale[close, np.newaxis] * spread
    return z


def _aberth_batch(
    coeffs: np.ndarray,
    max_iter: int = 80,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
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
    """
    b, d1 = coeffs.shape
    d = d1 - 1
    monic = coeffs / coeffs[:, -1:]
    dcoeffs = monic[:, 1:] * np.arange(1, d + 1)[np.newaxis, :]

    if start is None:
        radius = 1.0 + np.max(np.abs(monic[:, :-1]), axis=1)
        angles = 2.0 * np.pi * (np.arange(d) + 0.5) / d + 0.43
        z = radius[:, np.newaxis] * np.exp(1j * angles)[np.newaxis, :]
    else:
        z = _separated(start.astype(complex))

    eps = np.finfo(float).eps
    active = np.ones(b, dtype=bool)
    for _ in range(max_iter):
        za = z[active]
        ca = monic[active]
        pv = _horner_batch(ca, za)
        dv = _horner_batch(dcoeffs[active], za)
        # residual scale: sum |c_j| |z|^j, evaluated by Horner on moduli
        sv = _horner_batch(np.abs(ca), np.abs(za).astype(complex)).real
        tiny = dv == 0
        if np.any(tiny):
            dv = np.where(tiny, eps, dv)
        w = pv / dv
        diff = za[:, :, np.newaxis] - za[:, np.newaxis, :]
        np.einsum("kii->ki", diff)[...] = 1.0
        s = np.sum(1.0 / diff, axis=2) - 1.0  # subtract the diagonal 1/1 terms
        denom = 1.0 - w * s
        small = np.abs(denom) < 1e-290
        denom = np.where(small, 1.0, denom)
        step = w / denom
        # A root whose residual is rounding noise stays put: near a
        # multiple root a step built from that noise can throw it far off.
        settled = np.abs(pv) <= 16.0 * eps * np.maximum(sv, eps)
        done_rows = np.all(settled | (np.abs(step) <= 4.0 * eps * (1.0 + np.abs(za))), axis=1)
        z[active] = np.where(settled, za, za - step)
        still = np.flatnonzero(active)
        active[still[done_rows]] = False
        if not active.any():
            break

    # final residual verdict per row
    pv = _horner_batch(monic, z)
    sv = _horner_batch(np.abs(monic), np.abs(z).astype(complex)).real
    converged = np.all(np.abs(pv) <= 1e6 * eps * np.maximum(sv, eps), axis=1)
    return z, converged


def _closed_form(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of degree-1 or degree-2 rows, shape (B, d)."""
    if coeffs.shape[1] == 2:
        return -coeffs[:, :1] / coeffs[:, 1:]
    return _batch_quadratic(coeffs)


def _companion_polished(c: np.ndarray) -> np.ndarray:
    """Roots of one ascending coefficient row, shape (d,).

    Companion-matrix eigenvalues (``np.roots``) are the start of an
    Aberth–Ehrlich polish.  No ordering guarantee.
    """
    start = np.roots(c[::-1])
    z, _ = _aberth_batch(
        c[np.newaxis, :].astype(complex), start=start[np.newaxis, :], max_iter=60
    )
    return z[0]


def _roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """All roots for a batch of same-degree polynomials, shape (B, d).

    Degrees 1 and 2 use closed forms.  Higher degrees use Aberth–Ehrlich
    iteration, started from the closed-form (Cardano) roots at degree 3,
    which it only polishes, and on the Cauchy-bound circle from degree 4;
    rows that resist it are retried by :func:`_companion_polished`.  A row
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
# exceeds this multiple of the product of the row's two coefficient masses
# (see :func:`_clears_lower`); forming Bez errs by about 1e-16 of it.
_BEZOUT_BAND = 1e-8


@lru_cache(maxsize=None)
def _bezout_pattern(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs a > b and the 0/1 map from p_a q_b - p_b q_a to Bez entries.

    ``(P(s)Q(t) - P(t)Q(s)) / (s - t)`` collects ``s^b t^b (s^(a-b) -
    t^(a-b)) / (s - t)`` for each pair, whose monomials are
    ``s^(b+k) t^(a-1-k)``, k < a - b.
    """
    hi, lo = np.tril_indices(d + 1, -1)
    T = np.zeros((hi.size, d, d))
    for n, (a, b) in enumerate(zip(hi, lo)):
        k = np.arange(a - b)
        T[n, b + k, a - 1 - k] = 1.0
    for arr in (hi, lo, T):
        arr.flags.writeable = False  # cached: every caller gets these arrays
    return hi, lo, T.reshape(hi.size, d * d)


def _clears_lower(coeffs: np.ndarray) -> np.ndarray:
    """Root-free test that every root of a row lies strictly below the real axis.

    ``coeffs`` has shape (B, d+1), ascending, d >= 1; row p = P + iQ with
    P, Q real.  By Hermite's theorem the inertia of the Bezoutian Bez(P, Q)
    counts the roots of p in the two half-planes, so Bez(P, Q) positive
    definite means every root lies in the open lower half-plane.  Each row
    is made monic, shifted by its real root centroid h and scaled by its
    root radius rho (neither moves a root across the axis), and cleared iff
    ``lambda_min(Bez) > _BEZOUT_BAND * m * max(m, M)``.  Here ``m`` is the
    coefficient mass of the transformed row and ``M = sum_j |c_j| (|h| +
    rho)^j / rho^d`` the mass of the monic row at the shifted radius,
    which bounds ``m`` and the rounding the shift makes (M = m when h = 0).
    Bez is bilinear in the row, so by Weyl's inequality a cleared row stays
    positive definite under any perturbation of relative size well below
    the band measured in ``M``.  Rows with a zero leading coefficient or a
    non-finite entry are never cleared.  Returns a boolean mask of shape (B,).
    """
    c = np.asarray(coeffs, dtype=complex)
    b, d1 = c.shape
    d = d1 - 1
    ok = np.all(np.isfinite(c), axis=1) & (c[:, -1] != 0)
    c = np.where(ok[:, np.newaxis], c, 1.0)
    c = c / c[:, -1:]
    moduli = np.abs(c)
    h = -c[:, d - 1].real / d
    for i in range(d):  # Taylor shift: c(t) -> c(t + h)
        for j in range(d - 1, i - 1, -1):
            c[:, j] += h * c[:, j + 1]
    # max_j |c_j|^(1/(d-j)) lies between half and d times the largest |root|
    rho = np.max(np.abs(c[:, :-1]) ** (1.0 / np.arange(d, 0, -1)), axis=1)
    rho = np.where(rho > 0, rho, 1.0)  # rho = 0: (t - h)^d, whose Bez is 0
    c *= rho[:, np.newaxis] ** np.arange(-d, 1)
    M = _horner_batch(moduli, (np.abs(h) + rho)[:, np.newaxis])[:, 0] / rho**d
    hi, lo, T = _bezout_pattern(d)
    P, Q = c.real, c.imag
    pairs = P[:, hi] * Q[:, lo] - P[:, lo] * Q[:, hi]
    # einsum, not matmul: a threaded BLAS call costs more than it saves here
    bez = np.einsum("bn,nk->bk", pairs, T).reshape(b, d, d)
    m = np.sum(np.abs(c), axis=1)
    # M < m only by rounding, or by underflow when rho^d leaves the float range
    return ok & (np.linalg.eigvalsh(bez)[:, 0] > _BEZOUT_BAND * m * np.maximum(m, M))


def _within_bound(p: UniPoly, z: np.ndarray, tol: ToleranceProfile) -> bool:
    """Every ``|p(r)| <= tol.root_tol * ||p||_1 * max(1, |r|)^deg``; NaN fails."""
    norm1 = sum(abs(c) for c in p.coeffs)
    resid = np.abs(p(z))
    bound = tol.root_tol * norm1 * np.maximum(1.0, np.abs(z)) ** p.degree
    return bool(np.all(resid <= bound))


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


def is_stable_univariate(
    p: UniPoly,
    tol: ToleranceProfile = DEFAULT_TOL,
    im_tol: float | None = None,
) -> bool:
    """True iff ``p`` is nonzero and no root lies above the real axis.

    A root ``r`` disproves stability only when ``Im(r) > im_tol`` (default
    ``tol.stability_im_tol``); the slack is one-sided so real roots
    computed with rounding noise never flip the verdict.  The zero
    polynomial is *not* stable, by convention.
    """
    if not p:
        return False
    if p.degree == 0:
        return True
    cut = tol.stability_im_tol if im_tol is None else im_tol
    return bool(np.all(roots(p, tol=tol).imag <= cut))


def is_real_rooted(
    p: UniPoly,
    tol: ToleranceProfile = DEFAULT_TOL,
    im_tol: float | None = None,
) -> bool:
    """True iff every root of ``p`` satisfies ``|Im(r)| <= im_tol``.

    Nonzero constants are vacuously real-rooted; the zero polynomial is
    not (it has no root list).
    """
    if not p:
        return False
    if p.degree == 0:
        return True
    cut = tol.real_root_im_tol if im_tol is None else im_tol
    return bool(np.all(np.abs(roots(p, tol=tol).imag) <= cut))


# ---------------------------------------------------------------------------
# Interlacing
# ---------------------------------------------------------------------------


def _chain(first: np.ndarray, second: np.ndarray, slack: float) -> bool:
    """Weak alternation first_1 <= second_1 <= first_2 <= ... within ``slack``.

    Sorted inputs only; ``first`` must hold as many roots as ``second`` or
    one more.
    """
    if len(first) - len(second) not in (0, 1):
        return False
    merged = np.empty(len(first) + len(second))
    merged[0::2] = first
    merged[1::2] = second
    return bool(np.all(np.diff(merged) >= -slack))


def _proper_pair(
    rf: np.ndarray, rg: np.ndarray, lead_f: float, lead_g: float, slack: float
) -> bool:
    """Sign-aware alternation making ``g + i f`` a stable combination.

    With agreeing leading signs the top root must belong to g and the
    descending chain alternates g-root, f-root, ...; with opposing signs
    the chain starts from f.  Both comparisons are within ``slack``.
    """
    # Negated and reversed, the descending chain is an ascending one.
    nf, ng = -rf[::-1], -rg[::-1]
    if lead_f * lead_g > 0:
        return _chain(ng, nf, slack)
    return _chain(nf, ng, slack)


def interlacing(
    f: UniPoly,
    g: UniPoly,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> InterlaceReport:
    """Classify the root pattern of two real, real-rooted polynomials.

    Returns an :class:`InterlaceReport` whose ``kind`` is ``none`` when
    either input is zero, not real, not real-rooted within tolerance, or
    the degrees differ by more than one; ``identical_roots`` when the
    sorted root lists agree within ``tol.root_merge_tol``; ``proper`` /
    ``proper_reversed`` for the sign-aware orientations (f into g,
    respectively g into f); otherwise ``none``.  The two orientations
    read the descending root chain from either start, so any alternation
    is proper one way or the other: no strict or non-strict kind is left
    over.  Roots closer than ``tol.root_merge_tol`` are treated as
    coincident throughout.
    """
    empty = np.zeros(0)
    if not f or not g or not f.is_real(tol) or not g.is_real(tol):
        return InterlaceReport(KIND_NONE, empty, empty)
    real_parts = []
    for p in (f, g):
        z = roots(p, tol)
        if not np.all(np.abs(z.imag) <= tol.real_root_im_tol):
            return InterlaceReport(KIND_NONE, empty, empty)
        real_parts.append(np.sort(z.real))
    rf, rg = real_parts
    if abs(f.degree - g.degree) > 1:
        return InterlaceReport(KIND_NONE, rf, rg)

    slack = tol.root_merge_tol
    if f.degree == g.degree and (
        f.degree == 0 or bool(np.all(np.abs(rf - rg) <= slack))
    ):
        return InterlaceReport(KIND_IDENTICAL, rf, rg)

    lead_f, lead_g = float(f.lead.real), float(g.lead.real)
    if _proper_pair(rf, rg, lead_f, lead_g, slack):
        return InterlaceReport(KIND_PROPER, rf, rg)
    if _proper_pair(rg, rf, lead_g, lead_f, slack):
        return InterlaceReport(KIND_PROPER_REVERSED, rf, rg)
    return InterlaceReport(KIND_NONE, rf, rg)


# ---------------------------------------------------------------------------
# Wronskian
# ---------------------------------------------------------------------------


def wronskian_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """The univariate Wronskian ``f' g - g' f``."""
    return f.derivative() * g - g.derivative() * f


def wronskian_sign_leq0(
    f: UniPoly,
    g: UniPoly,
    n_grid: int = 256,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> bool:
    """Decide (numerically) whether ``f' g - g' f <= 0`` holds on all of R.

    The tail behaviour is read off the leading coefficient exactly: an odd
    degree or a positive even-degree leading coefficient forces positive
    values.  The interior is sampled on Chebyshev nodes over ``[-R, R]``
    with ``R`` one plus the Wronskian's root bound, augmented with the
    real critical points (roots of the derivative), so an interior
    positive bump cannot hide between nodes.  Values are accepted while
    ``W(x) <= tol.sign_tol * scale(x)`` with the coefficient-mass scale
    ``sum_j |w_j| max(1, |x|)^j``: the band scales with W, with no floor.
    """
    if not f.is_real(tol) or not g.is_real(tol):
        raise ValueError("Wronskian sign test expects real polynomials")
    w = wronskian_uni(f, g)
    if not w:
        return True
    lead = w.lead.real
    if w.degree % 2 == 1 or lead > 0:
        return False
    if w.degree == 0:
        return True

    bound = 1.0 + max(abs(c) for c in w.coeffs[:-1]) / abs(lead)
    nodes = np.cos(np.pi * (np.arange(n_grid) + 0.5) / n_grid) * bound
    crit = roots(w.derivative(), tol)
    crit_real = crit[np.abs(crit.imag) <= tol.real_root_im_tol].real
    xs = np.concatenate([nodes, crit_real, [-bound, bound]])
    vals = w(xs).real
    scale = np.zeros_like(xs)
    ax = np.maximum(1.0, np.abs(xs))
    for j, c in enumerate(w.coeffs):
        scale += abs(c) * ax**j
    return bool(np.all(vals <= tol.sign_tol * scale))
