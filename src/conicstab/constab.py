"""Decision procedures for cone-relative stability of complex polynomials.

A polynomial f is stable relative to a proper convex cone K when f(z) is
never zero for Im(z) in the interior of K.  Exact decisions exist only in
special situations (degree at most one: `linear_k_stability`); everything
else here is a *falsifier*: it can prove instability by producing a zero
with interior imaginary part, or report that a sampling budget found
nothing.  The Verdict type keeps that asymmetry explicit — sampling never
returns "certified_stable".

One sampling engine serves both falsifiers.  Every draw (x, y), with x
Gaussian and y an interior sample of K, feeds two probes:

* line probe — the univariate restriction t -> f(x + t y);
* fiber probe — all variables but one fixed at a base point, the
  remaining univariate coordinate fiber solved exactly.  Its zeros have
  the imaginary part pinned off the solved coordinate, which lands on
  instability sets of measure zero (products of real linear forms,
  difference-of-squares factorizations, ...) that the line probe provably
  cannot hit: their line restrictions are real-rooted for every (x, y).

A probe mode says how roots are read.  Stability mode
(`falsify_k_stability`) solves fibers at x + i y and keeps roots in the
upper half-plane: a line root t gives the zero x + t y, a fiber root the
base point with one coordinate replaced.  Hyperbolicity mode
(`hyperbolicity_check`, homogeneous f) reads y as a direction e, keeps
non-real line roots t, giving ±(x + t e), and real fiber roots at the
real base point e, giving i e' for a real interior zero e'.
`imaginary_projection_sample` solves the same fibers at uniform complex
base points.

A search runs one family: basis polynomials and a weight matrix whose
rows are the members (a falsifier's f is the basis [f] at weight 1; the
pencil's members are weight rows on the monomials of f and g, never
built as polynomials).  Each block is drawn and the basis expanded once:
the line rows from `MultiPoly.restrict_line` on the whole block, the
fiber rows from the coefficients in the solved variable evaluated at the
base points.  Members whose rows share a probe and a degree are
contracted (one product with their weight rows) and solved together, in
stacked solves of at most one block of rows; each member then confirms
its own candidates.  Batch screening only selects candidates and can
never flip a verdict on its own.  It runs in three stages: a root-free
Bezoutian test clears rows of degree >= 4 that provably hold no root the
probe keeps (stability-mode lines and fibers read as (Re p, Im p): no
root above the axis; hyperbolicity-mode real lines read as (p, p'):
real, simple roots); the remaining rows, and every row of degree <= 3,
are solved by the batched root engine (closed forms, and closed-form
cubic roots kept where their residuals verify at rounding level,
polished where not); a vectorized yes/no margin test then filters the
fiber roots (margin at least half the floor; on the PSD cone a Cholesky
factorization, no eigensolver).  The candidate's coefficient row,
contracted again from its basis rows, is re-solved at scalar precision
and each kept root mapped to its zero as solved.  Every witness, the
exact linear route's and ``stab --verify``'s included, passes one
acceptance check (`_witness_residual`): Im(z) clears the interior margin
floor (half the sampling margin here), then |f(z)| <= residual_tol *
sum|coeff| * max(1,|z|)^deg.

Determinism: sampling operations take an integer seed (the ``rng``
argument).  Draw j is a pure function of (seed, j) — blocks of fixed size
are generated from per-block generators seeded by (seed, block index) —
so enlarging the budget replays the same prefix, parallel evaluation
cannot reorder draws, and the first confirmed witness (lowest draw index,
line probe before fiber probe, roots in lexicographic order) is the same
on every run.

The zero polynomial is unstable by convention everywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .cones import Cone, Orthant, Polyhedral, product
from .poly import MultiPoly, wronskian_v
from .tolerances import DEFAULT_TOL, ToleranceProfile
from .unistab import UniPoly, _clears_lower, _roots_batch, _with_derivative, roots

__all__ = [
    "CERTIFIED_STABLE",
    "CERTIFIED_UNSTABLE",
    "FALSIFIED",
    "NOT_FALSIFIED",
    "Verdict",
    "HbLiftReport",
    "PencilEntry",
    "PencilReport",
    "DirectionReport",
    "WronskianReport",
    "DecomposeReport",
    "linear_k_stability",
    "falsify_k_stability",
    "hyperbolicity_check",
    "hb_lift_check",
    "pencil_hko_check",
    "wronskian_certificate",
    "decompose_check",
    "imaginary_projection_sample",
    "specialize_stability_check",
]

CERTIFIED_STABLE = "certified_stable"
CERTIFIED_UNSTABLE = "certified_unstable"
FALSIFIED = "falsified"
NOT_FALSIFIED = "not_falsified"

_BLOCK = 2048
# Near-real slack of the hyperbolic fiber screen, relative to max(1, |r|).
# It only selects candidates for confirmation, which applies the tighter
# ``real_root_im_tol``; a generous screen keeps borderline roots in play.
_NEAR_REAL_SCREEN = 1e-4
_DIR_SALT = 0x5EED_D12  # sub-stream tags for derived generators
_PTS_SALT = 0x5EED_901
_LIN_SALT = 0x11EA_4


@dataclass(frozen=True)
class Verdict:
    """Outcome of a stability decision or falsification attempt.

    ``status`` is one of the four module constants.  ``witness`` (when
    present) is a complex vector with f(witness) ~ 0 and Im(witness)
    strictly interior to the cone; ``residual`` is |f(witness)|.
    ``samples`` counts the draws consumed (0 for exact routes), ``seed``
    echoes the root seed of sampling routes (None for exact ones).
    """

    status: str
    witness: np.ndarray | None = None
    certificate: str | None = None
    samples: int = 0
    seed: int | None = None
    residual: float | None = None

    @property
    def falsified(self) -> bool:
        return self.status in (FALSIFIED, CERTIFIED_UNSTABLE)


@dataclass(frozen=True)
class HbLiftReport:
    """Paired verdicts for g+if over K and g+wf over K x halfline."""

    direct: Verdict
    lifted: Verdict
    consistent: bool


@dataclass(frozen=True)
class PencilEntry:
    lam: float
    mu: float
    zero: bool
    verdict: Verdict | None


@dataclass(frozen=True)
class PencilReport:
    """Both sides of the pencil equivalence, for consistency analysis.

    ``pencil_clean`` — no nonzero member lam*f + mu*g was falsified;
    ``combo_clean`` — at least one of f+ig, g+if survived falsification.
    The theorem predicts the two flags agree; disagreements are listed
    (they can only ever be sampling misses, never hard counterexamples,
    since falsification is one-sided).
    """

    entries: tuple[PencilEntry, ...]
    f_plus_ig: Verdict
    g_plus_if: Verdict
    pencil_clean: bool
    combo_clean: bool
    inconsistencies: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.inconsistencies


@dataclass(frozen=True)
class DirectionReport:
    direction: np.ndarray
    holds: bool
    max_violation: float
    disproof_points: tuple[tuple[np.ndarray, float], ...]


@dataclass(frozen=True)
class WronskianReport:
    directions: tuple[DirectionReport, ...]

    @property
    def holds_all(self) -> bool:
        return all(d.holds for d in self.directions)


@dataclass(frozen=True)
class DecomposeReport:
    whole: Verdict
    real_part: Verdict | None
    imag_part: Verdict | None
    consistent: bool


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _as_seed(rng) -> int:
    if isinstance(rng, (bool, float)) or not isinstance(rng, (int, np.integer)):
        raise TypeError(
            "sampling routines take an integer seed (per-draw streams are "
            "derived from it); got " + type(rng).__name__
        )
    if rng < 0:
        raise ValueError("seed must be nonnegative")
    return int(rng)


def _check_fit(f: MultiPoly, K: Cone) -> None:
    if f.nvars != K.dim:
        raise ValueError(
            f"polynomial in {f.nvars} variables does not fit a cone of dimension {K.dim}"
        )


def _coeff_scale(mass: float, degree: int, z: np.ndarray):
    """Residual scale sum|coeff| * max(1,|z|)^deg of a point or of each row."""
    grow = np.maximum(1.0, np.max(np.abs(z), axis=-1, initial=0.0))
    return mass * grow ** max(degree, 0)


def _block_stream(seed: int, n_blocks: int):
    """Yield (start_index, generator) for blocks 0..n_blocks-1.

    Block bi draws from ``default_rng((seed, bi))`` alone.
    """
    for bi in range(n_blocks):
        yield bi * _BLOCK, np.random.default_rng((seed, bi))


def _blocks(seed: int, n: int, K: Cone, sigma: float, n_samples: int, margin: float):
    """Yield (start_index, x, y) blocks; content depends only on (seed, block).

    x is drawn for the whole block, so the interior normals always start at
    the same stream position; they are drawn, and mapped into K, only for
    the rows the budget takes (the leading rows of a full block's draw).
    """
    for lo, gen in _block_stream(seed, -(-n_samples // _BLOCK)):
        take = min(n_samples - lo, _BLOCK)
        x = gen.normal(0.0, sigma, (_BLOCK, n))[:take]
        u = gen.standard_normal((take, K.draw_dim))
        yield lo, x, K.interior_from_normals(u, margin)


def _witness_residual(K: Cone, z: np.ndarray, floor: float, member, mass: float,
                      degree: int, tol: ToleranceProfile) -> float | None:
    """|member(z)| when z is a witness, else None: the one acceptance rule.

    Im(z) must have interior margin >= ``floor`` (and > 0 at floor 0),
    tested before the member is evaluated; then |member(z)| <=
    residual_tol * mass * max(1,|z|)^degree.
    """
    margin = K.interior_margin(z.imag)
    if not (margin >= floor and margin > 0):
        return None
    res = abs(member(z))
    return float(res) if res <= tol.residual_tol * _coeff_scale(mass, degree, z) else None


def _screened_roots(coeffs: np.ndarray, pairs) -> np.ndarray:
    """``_roots_batch`` of the rows, NaN on the rows the Bezoutian screen clears.

    ``pairs`` maps the rows to the complex rows P + iQ that
    ``_clears_lower`` tests (None: no screen, or rows it cannot screen).
    Rows of degree <= 3 are always solved: their closed forms (the
    polished Cardano start at degree 3) cost less than the screen.
    """
    rows = None if pairs is None or coeffs.shape[1] < 5 else pairs(coeffs)
    if rows is None:
        return _roots_batch(coeffs)
    keep = ~_clears_lower(rows)
    z = np.full((coeffs.shape[0], coeffs.shape[1] - 1), np.nan, dtype=complex)
    if keep.any():
        z[keep] = _roots_batch(coeffs[keep])
    return z


def _fiber_rows(fibers: dict, active, lo: int, V: np.ndarray):
    """Coefficient rows of the coordinate fibers at one block of base points ``V``.

    ``fibers`` maps each coordinate k to the basis polynomials'
    coefficients in z_k; draw ``lo + row`` solves coordinate
    ``active[(lo + row) mod #active]``.  Yields ``(k, rows, F)``: ``F[j, i]``
    are the ascending coefficients of basis polynomial j's fiber at
    ``V[rows[i]]``.  The coefficients are evaluated on the base points'
    contiguous columns (draws-last), shared by every coefficient of k.
    """
    ks_local = (lo + np.arange(V.shape[0])) % len(active)
    Vt = np.ascontiguousarray(V.T)
    for ki, k in enumerate(active):
        rows = np.nonzero(ks_local == ki)[0]
        if rows.size == 0:
            continue
        W = np.ascontiguousarray(np.delete(Vt, k, axis=0)[:, rows]).T
        F = np.zeros((len(fibers[k]), rows.size, max(map(len, fibers[k]))), dtype=complex)
        for j, cs in enumerate(fibers[k]):
            for col, c in enumerate(cs):
                if c:
                    F[j, :, col] = c(W)
        yield k, rows, F


def _stacked(rows: np.ndarray, W: np.ndarray, members: list, width: int):
    """Yield (chunk, coefficient rows) of the ``members`` (rows of ``W``) on basis rows ``rows``.

    ``rows`` (nb, n, d) are the basis rows of one probe.  A chunk of
    members stacks each member's n rows of ``width`` columns in turn, at
    most ``_BLOCK`` rows (``_BLOCK // n`` members), so a stacked solve is
    no larger than a lone member's full block.  A chunk is one product
    ``np.dot(W[chunk], rows)``, the ``@`` operator's bits at a third of its
    cost on a one-polynomial basis.
    """
    nb, n, d = rows.shape
    per = max(1, _BLOCK // n)
    for c in range(0, len(members), per):
        chunk = members[c : c + per]
        stack = np.dot(W[chunk], rows.reshape(nb, -1)).reshape(-1, n, d)
        yield chunk, stack[..., :width].reshape(-1, width)


def _confirm(basis, w, mass, degree, K, p: UniPoly, ok, zero, tol, floor):
    """Re-solve ``p`` at scalar precision; return (witness, residual) or None.

    The member is ``w @ basis``, of coefficient mass ``mass`` and total
    degree ``degree``.  Roots are tried in lexicographic order; a root
    passing ``ok`` is mapped to a zero of the member by ``zero`` and
    accepted by ``_witness_residual`` at margin ``floor``.
    """
    if p.degree < 1:
        return None
    try:
        rts = roots(p, tol)
    except (ValueError, ArithmeticError):
        return None
    member = lambda z: w @ [b(z) for b in basis]  # noqa: E731
    for t in rts:
        if ok(t, tol):
            z = zero(t)
            res = _witness_residual(K, z, floor, member, mass, degree, tol)
            if res is not None:
                return z, res
    return None


# ---------------------------------------------------------------------------
# Exact route for degree <= 1
# ---------------------------------------------------------------------------


def _linear_witness(K: Cone, a: np.ndarray, b: complex, one_sided: bool) -> np.ndarray:
    """The closed-form zero of <a,z>+b from one interior point c.

    With ``target = -Im b`` and ``s = <a,c>``: when a or -a lies in K*
    (``one_sided``) and s has the sign of target, ``y = (target/s) c``;
    otherwise ``y = c + lam p`` with ``p`` the dual minimizer of ``a`` or
    ``-a``, a point of K where <a,.> has the sign of ``target - s``, and
    ``lam >= 0`` solving ``<a,y> = target``.  Adding a point of K keeps y
    interior.  At target 0 any positive multiple of y is a zero too, and y
    is scaled to unit norm.  x solves ``<a,x> = -Re b``.
    """
    target = -b.imag
    gen = np.random.default_rng((_LIN_SALT, K.dim, 1))
    c = K.interior_from_normals(gen.standard_normal((1, K.draw_dim)))[0]
    s = float(a @ c)
    if one_sided and target * s > 0:
        y = (target / s) * c
    else:
        _, p = K.dual_minimizer(a if target < s else -a)
        y = c + ((target - s) / float(a @ p)) * p
    if target == 0:
        y = y / np.linalg.norm(y)
    x = -(b.real / float(a @ a)) * a
    return x + 1j * y


def linear_k_stability(
    f: MultiPoly,
    K: Cone,
    allow_complex_constant: bool = False,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> Verdict:
    """Exact stability decision for polynomials of degree at most one.

    For f = <a, z> + b with a real, stability relative to K holds exactly
    when a or -a lies in the dual cone K* (minus the origin) — membership
    in the closed dual suffices: any nonzero dual functional is strictly
    positive on the interior, so the imaginary part of f cannot vanish
    there.  On the dual boundary the decision is exact but numerically
    fragile; the certificate says so.  The decision is made on f/||a||,
    which has the same zeros, so its bands do not depend on the scale of f;
    the checks that Im a and Im b vanish compare them with
    ``coeff_zero_tol * ||a||`` for the same reason.

    The constant term must be real unless ``allow_complex_constant`` is
    set; with the flag, stability additionally requires Im(b) to have the
    matching sign (Im(b) >= 0 for a in K*, <= 0 for -a in K*).

    Unstable inputs come back with a witness in closed form: an interior
    y with <a, y> = -Im(b), either a scaled interior point or an interior
    point shifted along the dual minimizer of a or -a (a point of K on
    which that functional is negative), of unit norm when Im(b) = 0, and x
    solving <a, x> = -Re(b).  The witness is accepted as the samplers' are
    (`_witness_residual` at floor 0): Im(z) interior and the residual bound
    met; otherwise ``ArithmeticError`` is raised.
    """
    _check_fit(f, K)
    if f.degree > 1:
        raise ValueError("linear_k_stability requires degree <= 1")
    if not f:
        return Verdict(CERTIFIED_UNSTABLE, certificate="zero polynomial")
    b = f.coefficient(tuple([0] * f.nvars))
    a_cplx = np.array(
        [f.coefficient(tuple(int(j == k) for j in range(f.nvars))) for k in range(f.nvars)]
    )
    band_im = tol.coeff_zero_tol * float(np.linalg.norm(a_cplx))
    if np.max(np.abs(a_cplx.imag), initial=0.0) > band_im:
        raise ValueError("linear part must have real coefficients")
    a = a_cplx.real.astype(float)
    if f.degree == 0:
        return Verdict(CERTIFIED_STABLE, certificate="nonvanishing constant")
    if abs(b.imag) > band_im and not allow_complex_constant:
        raise ValueError(
            "complex constant term: pass allow_complex_constant=True to use "
            "the sign-matched extension of the linear criterion"
        )

    norm = float(np.linalg.norm(a))
    a, b = a / norm, complex(b) / norm
    band = tol.interior_tol
    dm_pos = K.dual_margin(a)
    dm_neg = K.dual_margin(-a)
    side = None
    if dm_pos >= -band and (b.imag >= -tol.coeff_zero_tol):
        side = ("a", dm_pos)
    elif dm_neg >= -band and (b.imag <= tol.coeff_zero_tol):
        side = ("-a", dm_neg)
    if side is not None:
        name, margin = side
        if margin > band:
            cert = f"{name} ∈ int K*"
        else:
            cert = f"{name} ∈ ∂K* ∖ {{0}} (boundary of the dual: exact but fragile)"
        return Verdict(CERTIFIED_STABLE, certificate=cert)

    if dm_pos >= -band:
        cert = "a ∈ K* but Im b < 0"
    elif dm_neg >= -band:
        cert = "-a ∈ K* but Im b > 0"
    else:
        cert = "neither a nor -a lies in the dual cone"
    witness = _linear_witness(K, a, b, max(dm_pos, dm_neg) >= -band)
    res = _witness_residual(K, witness, 0.0, f, f.coeff_norm1(), f.degree, tol)
    if res is None:
        raise ArithmeticError("closed-form linear witness failed its margin or residual check")
    return Verdict(CERTIFIED_UNSTABLE, witness=witness, certificate=cert, residual=res)


# ---------------------------------------------------------------------------
# Sampling engine: one search, two probe modes
# ---------------------------------------------------------------------------


def _upper(t, tol):
    """Root lies strictly above the real axis (rows or a scalar)."""
    return np.isfinite(t) & (t.imag > tol.real_root_im_tol)


def _near_real(t, slack):
    """Root is within ``slack * max(1, |t|)`` of the real axis."""
    return np.isfinite(t) & (np.abs(t.imag) <= slack * np.maximum(1.0, np.abs(t)))


def _replace_coord(w, k, r):
    """The base point(s) w with coordinate k replaced by r."""
    z = w.copy()
    z[..., k] = r
    return z


def _imaginary_real_point(w, k, r):
    """i * e' with e' the real base point(s) w with coordinate k set to Re r."""
    e = w.real.copy()
    e[..., k] = np.real(r)
    return 1j * e.astype(complex)


def _signed_line_zero(x, e, t):
    """x + t e, negated when Im t < 0 (f(-z) = ±f(z) for homogeneous f)."""
    z = x + t * e.astype(complex)
    return -z if t.imag < 0 else z


@dataclass(frozen=True)
class _Probe:
    """How a search mode reads the roots of the shared line and fiber solves.

    ``base(x, y)`` gives the complex points whose coordinate fibers are
    solved.  ``line_ok``/``fiber_ok`` are the root predicates applied at
    confirmation (``line_ok`` also screens the batch); ``fiber_screen``
    selects batch fiber roots and may be more generous than ``fiber_ok``.
    ``line_zero(x, y, t)`` and ``fiber_zero(w, k, r)`` map a root to the
    zero of f it stands for; ``fiber_zero`` also works on rows.
    ``line_pairs``/``fiber_pairs`` map a block of coefficient rows to the
    rows P + iQ of ``_screened_roots``: a row cleared there has no root
    passing ``line_ok``, respectively ``fiber_screen``.  None screens
    nothing.
    """

    base: Callable
    line_ok: Callable
    fiber_screen: Callable
    fiber_ok: Callable
    line_zero: Callable
    fiber_zero: Callable
    line_cert: str
    fiber_cert: str
    line_pairs: Callable | None
    fiber_pairs: Callable | None


_STABILITY = _Probe(
    base=lambda x, y: x + 1j * y,
    line_ok=_upper,
    fiber_screen=_upper,
    fiber_ok=_upper,
    line_zero=lambda x, y, t: x + t * y.astype(complex),
    fiber_zero=_replace_coord,
    line_cert="zero on a sampled line with interior imaginary direction",
    fiber_cert="zero on the {var} coordinate fiber with interior imaginary part",
    # (Re p, Im p) clears p with every root below the axis.
    line_pairs=np.asarray,
    fiber_pairs=np.asarray,
)

_HYPERBOLICITY = _Probe(
    base=lambda x, e: e.astype(complex),
    line_ok=lambda t, tol: np.isfinite(t) & ~_near_real(t, tol.real_root_im_tol),
    fiber_screen=lambda t, tol: _near_real(t, _NEAR_REAL_SCREEN),
    fiber_ok=lambda t, tol: _near_real(t, tol.real_root_im_tol),
    line_zero=_signed_line_zero,
    fiber_zero=_imaginary_real_point,
    line_cert="restriction along an interior direction has a non-real root",
    fiber_cert="vanishes at a real interior point (not hyperbolic there)",
    line_pairs=_with_derivative,
    # A real fiber root is what this probe keeps, so no fiber is screened.
    fiber_pairs=None,
)


def _search(basis, W, K, n_samples, rng, tol, probe: _Probe) -> list[Verdict]:
    """Run both probes for each member ``W[m] @ basis`` over the draws of seed ``rng``.

    The members are rows of weights ``W`` on ``basis``, polynomials over one
    variable tuple: ``[f]`` at weight 1 for a falsifier, the monomials of the
    support for the pencil.  Each block is drawn, and the line and fiber
    rows of the basis expanded, once.  The live members are grouped by
    probe (the line, or the fiber of coordinate k over their active
    coordinates) and row degree; each group's rows are contracted and
    solved in stacked chunks (``_stacked``).  A member books its candidates
    as (draw row, k), k = -1 for the line probe (a row's fiber solves one
    coordinate), and confirms them in draw order, the line before the
    fiber, each row contracted again from its basis row, until its first
    witness, where it leaves the family.
    """
    bdeg = [[b.degree] + [b.degree_in(k) for k in range(K.dim)] for b in basis]
    # deg[m][1 + k]: member m's degree in z_k, its total degree at k = -1 (-1: zero member)
    deg = np.where((W != 0)[:, :, None], bdeg, -1).max(axis=1, initial=-1).tolist()
    mass = np.abs(W) @ [b.coeff_norm1() for b in basis]
    out = [Verdict(CERTIFIED_UNSTABLE, certificate="zero polynomial", seed=rng) if d < 0
           else Verdict(NOT_FALSIFIED, certificate="nonvanishing constant", seed=rng)
           if d == 0 else None for d, *_ in deg]
    live = [m for m, v in enumerate(out) if v is None]
    if not live:
        return out
    active = {m: tuple(k for k, d in enumerate(deg[m][1:]) if d >= 1) for m in live}
    fibers = {k: [b.as_univariate_in(k) for b in basis] for k in set().union(*active.values())}
    width = max(b.degree for b in basis) + 1
    floor = tol.sample_margin / 2

    for lo, x, y in _blocks(rng, K.dim, K, tol.sample_sigma, n_samples, tol.sample_margin):
        V = probe.base(x, y)
        lines = np.stack([np.pad(r, ((0, 0), (0, width - r.shape[1])))
                          for r in (b.restrict_line(x, y) for b in basis)])
        expanded = {(-1, ()): (np.arange(x.shape[0]), lines)}
        for a in {active[m] for m in live}:
            expanded.update({(k, a): (rows, F) for k, rows, F in _fiber_rows(fibers, a, lo, V)})
        groups = {}
        for m in live:
            groups.setdefault((-1, (), deg[m][0]), []).append(m)
            for k in active[m]:
                groups.setdefault((k, active[m], deg[m][1 + k]), []).append(m)
        # hits[m][row] holds the k of the row's line (-1) and fiber candidates, -2 for none
        hits = {m: np.full((x.shape[0], 2), -2) for m in live}
        for (k, a, d), members in groups.items():
            if (k, a) not in expanded:
                continue
            rows, basis_rows = expanded[k, a]
            n = rows.size
            for chunk, coeffs in _stacked(basis_rows, W, members, d + 1):
                r = _screened_roots(coeffs, probe.line_pairs if k < 0 else probe.fiber_pairs)
                if k < 0:
                    hit = np.nonzero(np.any(probe.line_ok(r, tol), axis=1))[0]
                else:
                    i, j = np.nonzero(probe.fiber_screen(r, tol))
                    comp = probe.fiber_zero(V[rows[i % n]], k, r[i, j]).imag
                    # generous: margin >= floor / 2; None (no batch path) keeps every point
                    keep = K.interior_margin_batch(comp, floor / 2) if i.size else None
                    hit = i if keep is None else i[keep]
                ends = np.searchsorted(hit, n * np.arange(len(chunk) + 1))
                for s, m in enumerate(chunk):
                    hits[m][rows[hit[ends[s] : ends[s + 1]] - s * n], int(k >= 0)] = k

        for m in live:
            # Row-major: draw order, the line before the fiber.
            for row, col in zip(*np.nonzero(hits[m] > -2)):
                k = int(hits[m][row, col])
                rows, basis_rows = expanded[k, active[m] if k >= 0 else ()]
                at = np.searchsorted(rows, row)
                if k < 0:
                    ok = probe.line_ok
                    zero, cert = partial(probe.line_zero, x[row], y[row]), probe.line_cert
                else:
                    ok = probe.fiber_ok
                    zero = partial(probe.fiber_zero, V[row], k)
                    cert = probe.fiber_cert.format(var=basis[0].var_names[k])
                p = UniPoly((W[m] @ basis_rows[:, at])[: deg[m][1 + k] + 1], tol=tol)
                got = _confirm(basis, W[m], mass[m], deg[m][0], K, p, ok, zero, tol, floor)
                if got is not None:
                    z, res = got
                    out[m] = Verdict(FALSIFIED, witness=z, certificate=cert,
                                     samples=lo + int(row) + 1, seed=rng, residual=res)
                    break
        live = [m for m in live if out[m] is None]
        if not live:
            break
    for m in live:
        out[m] = Verdict(NOT_FALSIFIED, samples=n_samples, seed=rng)
    return out


def falsify_k_stability(
    f: MultiPoly,
    K: Cone,
    n_samples: int = 10_000,
    rng: int = 0,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> Verdict:
    """Search for a zero of f with imaginary part interior to K.

    Runs the stability mode of the sampling engine (module docstring)
    over ``n_samples`` shared draws.  Returns ``falsified`` with a
    confirmed witness, or ``not_falsified`` after a clean budget.  The
    zero polynomial short-circuits to ``certified_unstable`` and nonzero
    constants to ``not_falsified``.
    """
    seed = _as_seed(rng)
    _check_fit(f, K)
    return _search([f], np.ones((1, 1)), K, n_samples, seed, tol, _STABILITY)[0]


def hyperbolicity_check(
    f: MultiPoly,
    K: Cone,
    n_samples: int = 10_000,
    rng: int = 0,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> Verdict:
    """Falsify "f is hyperbolic with respect to every interior direction".

    For homogeneous f this is equivalent to stability relative to K.  Runs
    the hyperbolicity mode of the sampling engine (module docstring): per
    draw (x, e) the restriction t -> f(x + t e) must be real-rooted and f
    must not vanish at a real interior point reached by a real coordinate
    fiber.  Either failure converts to a stability witness.
    """
    seed = _as_seed(rng)
    _check_fit(f, K)
    if not f.is_homogeneous():
        raise ValueError("hyperbolicity_check requires a homogeneous polynomial")
    return _search([f], np.ones((1, 1)), K, n_samples, seed, tol, _HYPERBOLICITY)[0]


# ---------------------------------------------------------------------------
# Structure theorems as experiments
# ---------------------------------------------------------------------------


def _require_real_pair(f: MultiPoly, g: MultiPoly, tol: ToleranceProfile) -> None:
    if f.var_names != g.var_names:
        raise ValueError("polynomials must share one variable tuple")
    if not f.is_real(tol) or not g.is_real(tol):
        raise ValueError("expected real polynomials")


def _append_variable(p: MultiPoly, name: str, power: int) -> MultiPoly:
    names = p.var_names + (name,)
    return MultiPoly(names, {e + (power,): c for e, c in p.terms.items()})


def hb_lift_check(
    f: MultiPoly,
    g: MultiPoly,
    K: Cone,
    n_samples: int = 10_000,
    rng: int = 0,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> HbLiftReport:
    """Compare stability of g + i f over K with g + w f over K x R>=0.

    The two are equivalent (the new variable w plays the role of the
    imaginary unit), so a falsification on exactly one side at equal
    budget and seed flags an implementation inconsistency.
    """
    _require_real_pair(f, g, tol)
    _check_fit(f, K)
    w_name = "w" if "w" not in f.var_names else "_w_lift"
    direct = falsify_k_stability(g + f.scale(1j), K, n_samples, rng, tol)
    lifted_poly = _append_variable(g, w_name, 0) + _append_variable(f, w_name, 1)
    lifted = falsify_k_stability(lifted_poly, product(K, Orthant(1)), n_samples, rng, tol)
    consistent = direct.falsified == lifted.falsified
    return HbLiftReport(direct=direct, lifted=lifted, consistent=consistent)


def _default_pencil_grid() -> list[tuple[float, float]]:
    # 32 directions through the upper half of the unit circle; includes
    # both axes (k = 0 and k = 16).
    return [
        (float(np.cos(np.pi * k / 32)), float(np.sin(np.pi * k / 32))) for k in range(32)
    ]


def pencil_hko_check(
    f: MultiPoly,
    g: MultiPoly,
    K: Cone,
    grid=None,
    n_samples: int = 2_000,
    rng: int = 0,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> PencilReport:
    """Probe the pencil equivalence on a grid of real combinations.

    Side one: every lam*f + mu*g on the grid is stable or identically
    zero.  Side two: f + i g or g + i f is stable.  Both sides are probed
    by falsification at the same budget and seed.  Member (lam, mu) is the
    weight row lam*F + mu*G on the monomials of supp f ∪ supp g (F, G the
    coefficients there), trimmed as ``f.scale(lam) + g.scale(mu)`` trims,
    never built as a polynomial.  The nonzero rows are one family of the
    sampling engine, so each block is drawn and expanded once for all of
    them, and members of one row degree share stacked, block-sized root
    solves.  The report records each verdict and the flags.
    """
    _require_real_pair(f, g, tol)
    _check_fit(f, K)
    if not f and not g:
        raise ValueError("pencil of two zero polynomials")
    pts = _default_pencil_grid() if grid is None else list(grid)
    support = sorted(set(f.terms) | set(g.terms))
    basis = [MultiPoly(f.var_names, {e: 1.0}) for e in support]
    lam, mu = np.array(pts, dtype=float).reshape(-1, 2).T[..., None]
    F, G = (np.array([p.coefficient(e) for e in support]) for p in (f, g))
    cut = DEFAULT_TOL.coeff_zero_tol  # MultiPoly's trim, of each scaled term and of the sum
    W = sum(np.where(np.abs(c) > cut, c, 0) for c in (lam * F, mu * G))
    W = np.where(np.abs(W) > cut, W, 0)
    zero = ~W.any(axis=1)
    found = iter(_search(basis, W[~zero], K, n_samples, _as_seed(rng), tol, _STABILITY))
    entries = [PencilEntry(lam=a, mu=b, zero=z, verdict=None if z else next(found))
               for (a, b), z in zip(pts, zero.tolist())]
    any_falsified = any(e.verdict.falsified for e in entries if e.verdict is not None)
    v_fg = falsify_k_stability(f + g.scale(1j), K, n_samples, rng, tol)
    v_gf = falsify_k_stability(g + f.scale(1j), K, n_samples, rng, tol)
    pencil_clean = not any_falsified
    combo_clean = (not v_fg.falsified) or (not v_gf.falsified)
    problems = []
    if pencil_clean and not combo_clean:
        problems.append(
            "all pencil members survived but both complex combinations were falsified"
        )
    if not pencil_clean and combo_clean:
        problems.append(
            "a pencil member was falsified but a complex combination survived"
        )
    return PencilReport(
        entries=tuple(entries),
        f_plus_ig=v_fg,
        g_plus_if=v_gf,
        pencil_clean=pencil_clean,
        combo_clean=combo_clean,
        inconsistencies=tuple(problems),
    )


def wronskian_certificate(
    f: MultiPoly,
    g: MultiPoly,
    K: Cone,
    n_points: int = 2_000,
    rng: int = 0,
    tol: ToleranceProfile = DEFAULT_TOL,
    n_directions: int = 8,
) -> WronskianReport:
    """Test the sign condition W_v(f, g) <= 0 on R^n along interior directions.

    For the orthant and finitely generated cones the directions are the
    generators themselves (checking them suffices, since W_v is linear in
    v); otherwise ``n_directions`` interior directions are sampled.  Each
    W_v is evaluated on ``n_points`` Gaussian sample points; positive
    values beyond the scaled sign tolerance are disproof witnesses and
    the worst few are recorded.  Falsification-only: a clean report is
    evidence, not proof, except in the finitely generated case where the
    direction set is complete (the sample points still make it a probe).
    """
    seed = _as_seed(rng)
    _require_real_pair(f, g, tol)
    _check_fit(f, K)
    n = f.nvars
    if isinstance(K, Orthant):
        dirs = [np.eye(n)[k] for k in range(n)]
    elif isinstance(K, Polyhedral):
        dirs = [row.copy() for row in K.generators]
    else:
        gen = np.random.default_rng((seed, _DIR_SALT))
        dirs = list(K.interior_from_normals(gen.standard_normal((n_directions, K.draw_dim))))
    pts = np.random.default_rng((seed, _PTS_SALT)).normal(0.0, tol.sample_sigma, (n_points, n))
    reports = []
    for v in dirs:
        w = wronskian_v(f, g, v)
        if not w:
            reports.append(
                DirectionReport(direction=v, holds=True, max_violation=0.0, disproof_points=())
            )
            continue
        vals = np.real(w(pts))
        excess = vals - tol.sign_tol * _coeff_scale(w.coeff_norm1(), w.degree, pts)
        bad = np.nonzero(excess > 0)[0]
        worst = bad[np.argsort(excess[bad])[::-1][:5]]
        reports.append(
            DirectionReport(
                direction=v,
                holds=bad.size == 0,
                max_violation=float(np.max(excess)) if bad.size else 0.0,
                disproof_points=tuple((pts[i].copy(), float(vals[i])) for i in worst),
            )
        )
    return WronskianReport(directions=tuple(reports))


def decompose_check(
    h: MultiPoly,
    K: Cone,
    n_samples: int = 10_000,
    rng: int = 0,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> DecomposeReport:
    """Check that the real and imaginary parts of a surviving h survive too.

    Writes h = g + i f with g, f real.  If h itself is falsified the
    parts are not probed (nothing is claimed about them).  If h survives
    its budget, each nonzero part must survive as well; a falsified part
    would disprove the implementation, not the underlying fact.
    """
    _check_fit(h, K)
    whole = falsify_k_stability(h, K, n_samples, rng, tol)
    if whole.falsified:
        return DecomposeReport(whole=whole, real_part=None, imag_part=None, consistent=True)
    g, f = h.real_imag_parts()
    vg = falsify_k_stability(g, K, n_samples, rng, tol) if g else None
    vf = falsify_k_stability(f, K, n_samples, rng, tol) if f else None
    consistent = not ((vg is not None and vg.status == FALSIFIED) or
                      (vf is not None and vf.status == FALSIFIED))
    return DecomposeReport(whole=whole, real_part=vg, imag_part=vf, consistent=consistent)


# ---------------------------------------------------------------------------
# Imaginary projection sampling and specialization
# ---------------------------------------------------------------------------


def imaginary_projection_sample(
    f: MultiPoly,
    n_points: int = 2_000,
    box: tuple[float, float] = (-2.0, 2.0),
    rng: int = 0,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """Sample the set of imaginary parts of zeros of f (a point cloud).

    Repeatedly fixes all but one variable to random complex values with
    real and imaginary parts uniform in ``box``, solves the remaining
    univariate fiber, and records Im(z) of every verified solution.
    Returns an (m, nvars) float array with m <= n_points (fibers that
    degenerate or fail verification contribute nothing).
    """
    seed = _as_seed(rng)
    if f.degree < 1:
        raise ValueError("imaginary projection needs a nonconstant polynomial")
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise ValueError("box must be an increasing interval")
    n = f.nvars
    fibers = {k: [f.as_univariate_in(k)] for k in range(n) if f.degree_in(k) >= 1}
    out = [np.zeros((0, n))]
    total = 0
    for start, gen in _block_stream(seed, 2 + 20 * (n_points // _BLOCK + 1)):
        if total >= n_points:
            break
        re = gen.uniform(lo, hi, (_BLOCK, n))
        im = gen.uniform(lo, hi, (_BLOCK, n))
        V = re + 1j * im
        for k, rows, F in _fiber_rows(fibers, list(fibers), start, V):
            r = _roots_batch(F[0])
            i, j = np.nonzero(np.isfinite(r))
            Z = _replace_coord(V[rows[i]], k, r[i, j])
            ok = np.abs(f(Z)) <= tol.residual_tol * _coeff_scale(f.coeff_norm1(), f.degree, Z)
            out.append(Z[ok].imag)
            total += out[-1].shape[0]
            if total >= n_points:  # the rest of the block would be cut off
                break
    return np.concatenate(out, axis=0)[:n_points]


def specialize_stability_check(
    f: MultiPoly,
    fixed_vars,
    a,
    b,
    K1: Cone,
    K2: Cone,
    n_samples: int = 10_000,
    rng: int = 0,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> Verdict:
    """Falsify stability of f after pinning a variable block to a + i b.

    ``fixed_vars`` are the indices being substituted; ``b`` must be
    interior to ``K1`` (the cone of the pinned block) — stability of f
    relative to K1 x K2 then passes to the specialization relative to
    K2, so a falsified specialization of a presumed-stable f is a
    finding.  The remaining variables must match ``K2``.
    """
    fixed = [int(k) for k in fixed_vars]
    if len(set(fixed)) != len(fixed):
        raise ValueError("fixed variable indices must be distinct")
    for k in fixed:
        if not 0 <= k < f.nvars:
            raise ValueError(f"variable index {k} out of range")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (len(fixed),) or b.shape != (len(fixed),):
        raise ValueError("a and b must match the fixed block length")
    if K1.dim != len(fixed):
        raise ValueError("K1 dimension must match the fixed block")
    if K2.dim != f.nvars - len(fixed):
        raise ValueError("K2 dimension must match the remaining variables")
    if not K1.contains_interior(b, tol.interior_tol):
        raise ValueError("imaginary offset b must be interior to K1")
    sub = f.substitute_partial({k: complex(a[i], b[i]) for i, k in enumerate(fixed)})
    return falsify_k_stability(sub, K2, n_samples, rng, tol)
