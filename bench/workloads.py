"""Seeded inputs, operations and correctness checks for the three workloads.

Every workload is a list of operations built from ``(seed, workload name)``
alone; the program under test only ever sees the generated inputs.  An
operation is a zero-argument ``run`` that calls the public API and a
``check`` that verifies the result independently (numpy re-evaluation of
witnesses, numpy eigenvalues for the orthant and PSD cones, known answers
for constructed inputs) and returns a deterministic record of the outcome.

Inputs are generated here, not imported from the test suite, so the test
generators can change without moving the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from conicstab import DEFAULT_TOL, cli
from conicstab.cones import PSD, Orthant, Polyhedral, Product, product
from conicstab.constab import (
    CERTIFIED_STABLE,
    CERTIFIED_UNSTABLE,
    FALSIFIED,
    NOT_FALSIFIED,
    falsify_k_stability,  # called by name from _sampling_op
    hyperbolicity_check,  # called by name from _sampling_op
    imaginary_projection_sample,
    linear_k_stability,
    wronskian_certificate,
)
from conicstab.det import (
    CERTIFIED_STABLE as DET_CERTIFIED,
    NOT_CERTIFIED,
    BlockMatrix,
    khatri_rao,
    liu_psd_check,
    perturbed_certify,
    prop56_diagonal_criterion,
    thm54_certify,
)
from conicstab.linalg import INDEFINITE, POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE
from conicstab.poly import MatrixVarIndex, MultiPoly, parse
from conicstab.unistab import (
    KIND_NONE,
    UniPoly,
    interlacing,
    is_real_rooted,
    is_stable_univariate,
    wronskian_sign_leq0,
)

TOL = DEFAULT_TOL
FLOOR = TOL.sample_margin / 2.0  # the witness margin every sampling verdict promises
SAMPLING_BUDGET = 10_000
IMPROJ_POINTS = 2_000
HKO_SAMPLES = 600
PENCIL_GRID = [(float(np.cos(np.pi * k / 32)), float(np.sin(np.pi * k / 32))) for k in range(32)]

_SALT = {"sampling_sweep": 1, "hko_pairs": 2, "certificates": 3}


class CheckFailed(Exception):
    """An operation returned, but its output breaks the program's contract."""


class KnownMiss(Exception):
    """An output within the program's one-sided contract that still fails the gate.

    Sampling and grid probes can miss; when the program itself reports the
    resulting inconsistency, the operation counts as failed but not as wrong.
    """


class Op:
    """One closed-loop operation: ``run()`` is timed, ``check(result)`` is not.

    ``check`` raises :class:`CheckFailed` on a wrong output and
    :class:`KnownMiss` on a reported probe miss; otherwise it returns a
    JSON-serialisable record that must repeat exactly on every run of the
    same code and seed.  ``sampling`` marks falsifier calls whose Verdict
    feeds ``draws_per_s`` and ``falsify_ms_p50``.
    """

    __slots__ = ("name", "run", "check", "sampling")

    def __init__(self, name, run, check, sampling=False):
        self.name = name
        self.run = run
        self.check = check
        self.sampling = sampling


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Independent re-checks
# ---------------------------------------------------------------------------


def eval_terms(f: MultiPoly, z: np.ndarray) -> complex:
    """f(z) from the raw term map, without MultiPoly.__call__."""
    exps = np.array(list(f.terms), dtype=float)
    coeffs = np.array(list(f.terms.values()), dtype=complex)
    return complex(np.sum(coeffs * np.prod(z[None, :] ** exps, axis=1)))


def psd_min_eig(n: int, flat: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric matrix whose upper triangle is ``flat``."""
    m = np.zeros((n, n))
    iu = np.triu_indices(n)
    m[iu] = flat
    m.T[iu] = flat
    return float(np.linalg.eigvalsh(m)[0])


def cone_margin(K, y: np.ndarray) -> float:
    """Interior margin of y: numpy for orthant and PSD, the cone's own method otherwise."""
    if isinstance(K, Orthant):
        return float(np.min(y))
    if isinstance(K, PSD):
        return psd_min_eig(K.n, y)
    if isinstance(K, Product):
        out, lo = np.inf, 0
        for factor in K.factors:
            out = min(out, cone_margin(factor, y[lo : lo + factor.dim]))
            lo += factor.dim
        return out
    return float(K.interior_margin(y))


def check_witness(f: MultiPoly, K, z, floor: float) -> None:
    """Residual under the profile's relative bound and Im z interior by ``floor``."""
    z = np.asarray(z, dtype=complex)
    require(z.shape == (f.nvars,), "witness has the wrong length")
    scale = f.coeff_norm1() * max(1.0, float(np.max(np.abs(z)))) ** max(f.degree, 0)
    require(abs(eval_terms(f, z)) <= TOL.residual_tol * scale, "witness residual above bound")
    margin = cone_margin(K, z.imag)
    require(margin > 0 and margin >= floor * (1 - 1e-9), "witness imaginary part not interior")


def classify(m: np.ndarray) -> str:
    """psd_classify's labels from numpy eigenvalues and the profile's band."""
    lam = float(np.linalg.eigvalsh(m)[0])
    band = TOL.eig_tol * max(1.0, float(np.linalg.norm(m)))
    if lam > band:
        return POSITIVE_DEFINITE
    if lam < -band:
        return INDEFINITE
    return POSITIVE_SEMIDEFINITE


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def var_names(K) -> tuple[str, ...]:
    if isinstance(K, PSD):
        return MatrixVarIndex(K.n).names
    return tuple(f"z{j + 1}" for j in range(K.dim))


def linear_form(names, a, b=0.0) -> MultiPoly:
    n = len(names)
    terms = {(0,) * n: complex(b)}
    for j in range(n):
        e = [0] * n
        e[j] = 1
        terms[tuple(e)] = complex(a[j])
    return MultiPoly(names, terms)


def dual_interior(gen, K) -> np.ndarray:
    """A real form strictly positive on K minus the origin."""
    if isinstance(K, Orthant):
        return np.abs(gen.normal(size=K.dim)) + 0.3
    if isinstance(K, PSD):
        # <a, z>_flat = tr(M Z) for a positive definite M: a_ii = M_ii, a_ij = 2 M_ij.
        G = gen.normal(size=(K.n, K.n))
        M = G @ G.T + 0.5 * np.eye(K.n)
        return np.array([M[i, j] * (1.0 if i == j else 2.0) for i, j in MatrixVarIndex(K.n).pairs])
    if isinstance(K, Product):
        return np.concatenate([dual_interior(gen, factor) for factor in K.factors])
    while True:
        a = gen.normal(size=K.dim)
        if K.dual_margin(a) > 0.15 * np.linalg.norm(a):
            return a


def linear_product(gen, K, n_factors: int, lower_half: bool = False) -> MultiPoly:
    """Product of <a_j, z> + beta_j with a_j in int K*.

    With Im(beta_j) > 0 throughout the product is stable relative to K.
    ``lower_half`` flips the sign of Im(beta) on the last factor, which
    puts interior zeros on a positive-measure set of sampled lines.
    """
    names = var_names(K)
    H = MultiPoly(names, {(0,) * len(names): 1.0 + 0j})
    for k in range(n_factors):
        im = gen.uniform(0.2, 1.5)
        if lower_half and k == n_factors - 1:
            im = -im
        H = H * linear_form(names, dual_interior(gen, K), complex(gen.uniform(-1.5, 1.5), im))
    return H


def mixed_sign_form(gen, K) -> np.ndarray:
    """A real form that takes both signs on int K (so neither it nor its negative is in K*)."""
    if isinstance(K, PSD):
        # z11 - z22 plus a small random part: its dual matrix stays indefinite.
        a = 0.2 * gen.normal(size=K.dim)
        a[0] += 1.0 + gen.uniform(0, 0.5)
        a[MatrixVarIndex(K.n).flat(K.n - 1, K.n - 1)] -= 1.0 + gen.uniform(0, 0.5)
        return a
    while True:
        a = gen.normal(size=K.dim)
        if K.dual_margin(a) < -0.2 * np.linalg.norm(a) and K.dual_margin(-a) < -0.2 * np.linalg.norm(a):
            return a


def fiber_only(gen, K) -> MultiPoly:
    """ell_1 * ell_2 with real forms, ell_1 of mixed sign on int K.

    Every line restriction is real-rooted, so only the coordinate-fiber
    probe can exhibit the zero set {<c, Im z> = 0}, which has measure zero
    among sampled points.  ``(z1 + z3)^2 - z2^2`` over Orthant(3) is the
    instance of this shape with c = (1, -1, 1).
    """
    names = var_names(K)
    return linear_form(names, mixed_sign_form(gen, K)) * linear_form(names, dual_interior(gen, K))


def random_poly(gen, names, deg: int, shape=None) -> MultiPoly:
    """A constant, a term of total degree deg and 0-3 more terms of degree <= deg.

    The constant keeps pairs generic: pairs sharing a monomial factor take
    a different, much slower path (see ``hko_pairs``).  Exponents come from
    ``shape`` (default ``gen``) and coefficients from ``gen``, so a caller
    can fix the support and let only the coefficients follow the seed.
    """
    shape = gen if shape is None else shape
    n = len(names)
    terms: dict = {(0,) * n: complex(gen.choice([-1.0, 1.0]) * gen.uniform(0.2, 1.5))}
    for k in range(int(shape.integers(1, 5))):
        total = deg if k == 0 else int(shape.integers(1, deg + 1))
        e = tuple(int(x) for x in shape.multinomial(total, [1.0 / n] * n))
        terms[e] = terms.get(e, 0.0) + complex(gen.normal())
    return MultiPoly(names, terms)


def sym_det_poly(n: int) -> MultiPoly:
    """det of the n x n symmetric matrix of variables, by cofactors."""
    mvx = MatrixVarIndex(n)

    def var(i, j):
        e = [0] * mvx.dim
        e[mvx.flat(i, j)] = 1
        return MultiPoly(mvx.names, {tuple(e): 1.0 + 0j})

    def det(rows, cols):
        if len(rows) == 1:
            return var(rows[0], cols[0])
        acc = MultiPoly.zero(mvx.names)
        for c, col in enumerate(cols):
            term = var(rows[0], col) * det(rows[1:], cols[:c] + cols[c + 1 :])
            acc = acc + (term if c % 2 == 0 else term.scale(-1))
        return acc

    return det(list(range(n)), list(range(n)))


def polyhedral_cone(gen, n: int, m: int) -> Polyhedral:
    while True:
        G = gen.normal(size=(m, n))
        G[:, 0] = np.abs(G[:, 0]) + 0.5  # solid and pointed
        try:
            return Polyhedral(G)
        except ValueError:
            continue


def poly_text(f: MultiPoly) -> str:
    """Expression text for the CLI, coefficients at full float precision."""
    bits = []
    for e, c in sorted(f.terms.items()):
        mon = "*".join(
            f"{v}^{k}" if k > 1 else v for v, k in zip(f.var_names, e) if k
        )
        c = float(c.real)
        sign = "-" if c < 0 else "+"
        bits.append(f"{sign} {abs(c)!r}" + (f"*{mon}" if mon else ""))
    text = " ".join(bits) if bits else "0"
    return text[2:] if text.startswith("+ ") else text


# ---------------------------------------------------------------------------
# sampling_sweep
# ---------------------------------------------------------------------------


def _sampling_op(name, fn_name, f, K, rng, expect):
    """Falsifier call with the witness contract and the known answer checked."""

    def run():
        # Looked up at call time, so a traced run sees the rebound entry point.
        return globals()[fn_name](f, K, n_samples=SAMPLING_BUDGET, rng=rng)

    def check(v):
        require(v.status in (FALSIFIED, NOT_FALSIFIED), f"unexpected status {v.status}")
        if v.status == FALSIFIED:
            require(1 <= v.samples <= SAMPLING_BUDGET, "witness draw index out of range")
            check_witness(f, K, v.witness, FLOOR)
        else:
            require(v.samples == SAMPLING_BUDGET, "clean verdict did not spend its budget")
        require(v.status == expect, f"expected {expect}, got {v.status}")
        first = v.samples - 1 if v.status == FALSIFIED else None
        return [v.status, v.samples, first]

    return Op(name, run, check, sampling=True)


def _improj_op(name, f, rng, plane=None):
    def run():
        return imaginary_projection_sample(f, n_points=IMPROJ_POINTS, rng=rng)

    def check(cloud):
        require(cloud.ndim == 2 and cloud.shape[1] == f.nvars, "cloud has the wrong shape")
        require(0 < cloud.shape[0] <= IMPROJ_POINTS, "cloud size out of range")
        require(bool(np.all(np.isfinite(cloud))), "cloud has non-finite points")
        if plane is not None:
            # Imaginary parts of zeros of <a, z> + b satisfy <a, y> = -Im b.
            a, b = plane
            require(float(np.max(np.abs(cloud @ a + b.imag))) <= 1e-8, "cloud off its hyperplane")
        return [int(cloud.shape[0])]

    return Op(name, run, check)


def sampling_sweep(seed: int) -> list[Op]:
    """Stable inputs spend the whole 10k-draw budget (the worst case); the
    unstable half is split between zeros visible on sampled lines and
    fiber-only zero sets that only the coordinate-fiber probe reaches.
    The load falls on draw generation, line restriction, fiber evaluation,
    batched roots and margin screening: all three copies of the probe loop
    (falsifier, hyperbolicity, imaginary projection) run here."""
    gen = np.random.default_rng((seed, _SALT["sampling_sweep"]))
    cones = [
        ("orthant3", Orthant(3)),
        ("orthant2", Orthant(2)),
        ("orthant4", Orthant(4)),
        ("polyhedral3", polyhedral_cone(gen, 3, 4)),
        ("psd2", PSD(2)),
        ("psd3", PSD(3)),
        ("product1x2", product(Orthant(1), PSD(2))),
    ]
    ops = []
    for label, K in cones:
        inputs = [
            ("fiber_only", fiber_only(gen, K), FALSIFIED),
            ("stable2", linear_product(gen, K, 2), NOT_FALSIFIED),
            ("line_zero3a", linear_product(gen, K, 3, lower_half=True), FALSIFIED),
            ("stable3a", linear_product(gen, K, 3), NOT_FALSIFIED),
            ("line_zero3b", linear_product(gen, K, 3, lower_half=True), FALSIFIED),
            ("stable3b", linear_product(gen, K, 3), NOT_FALSIFIED),
        ]
        for tag, f, expect in inputs:
            rng = int(gen.integers(0, 2**31))
            ops.append(_sampling_op(f"falsify/{label}/{tag}", "falsify_k_stability", f, K, rng, expect))
    for n in (3, 4):
        rng = int(gen.integers(0, 2**31))
        ops.append(_sampling_op(f"hyper/det{n}", "hyperbolicity_check", sym_det_poly(n), PSD(n), rng, NOT_FALSIFIED))
    for k in range(3):
        rng = int(gen.integers(0, 2**31))
        if k == 0:
            a = gen.normal(size=2)
            b = complex(gen.normal(), gen.normal())
            ops.append(_improj_op("improj/linear2", linear_form(("z1", "z2"), a, b), rng, plane=(a, b)))
        else:
            names = ("z1", "z2", "z3")
            f = random_poly(gen, names, 3) + linear_form(names, gen.normal(size=3), complex(0, gen.normal()))
            ops.append(_improj_op(f"improj/random3_{k}", f, rng))
    return ops


# ---------------------------------------------------------------------------
# hko_pairs
# ---------------------------------------------------------------------------


def _hko_op(name, f, g, K, spec, seed, stable):
    argv = [
        "hko", "-e", poly_text(f), "-e", poly_text(g), "--cone", spec,
        "--samples", str(HKO_SAMPLES), "--seed", str(seed), "--output", "json",
    ]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        require(code in (0, 1), f"hko exited with {code}")
        data = json.loads(text)
        require(code == (0 if data["consistent"] else 1), "exit code disagrees with the report")
        if stable:
            require(data["pencil_clean"] and data["combo_clean"] and data["consistent"],
                    "constructed-stable pair did not come back clean")
        # Criterion 05's forbidden patterns: a clean pencil with both combined
        # forms falsified, or a falsified pencil next to a sign-certified side
        # whose combined form survived.
        both_fell = data["f_plus_ig"] == FALSIFIED and data["g_plus_if"] == FALSIFIED
        forbidden = []
        if data["pencil_clean"] and both_fell:
            forbidden.append("clean pencil grid, both combinations falsified")
        if not data["pencil_clean"]:
            if data["wronskian_holds"] and data["g_plus_if"] != FALSIFIED:
                forbidden.append("W(f,g) certified, pencil falsified, g+if survived")
            w_gf = wronskian_certificate(g, f, K, n_points=HKO_SAMPLES, rng=seed)
            if w_gf.holds_all and data["f_plus_ig"] != FALSIFIED:
                forbidden.append("W(g,f) certified, pencil falsified, f+ig survived")
        if forbidden:
            # Each pattern implies pencil_clean != combo_clean, which the CLI
            # must report as an inconsistency; if it did, the pattern is a
            # probe miss within the one-sided contract.
            require(not data["consistent"], "forbidden pattern not reported: " + "; ".join(forbidden))
            raise KnownMiss("forbidden pattern (reported inconsistency): " + "; ".join(forbidden))
        return [code, data["pencil_clean"], data["combo_clean"], data["f_plus_ig"],
                data["g_plus_if"], data["falsified_members"], data["wronskian_holds"]]

    return Op(name, run, check)


# A fixed hard case: f and g share the factor z1*z2, so most falsifier
# candidates fail confirmation (about 1.5-2 s per call against 0.3-0.6 s
# for a generic degree-3 pair), and the only unstable pencil members lie
# strictly between the first two grid directions, so the CLI reports
# "all pencil members survived but both complex combinations were
# falsified" on every seed.  About 4% of pairs drawn with criterion 05's
# generator share a monomial factor like this; drawn at random they would
# make the workload's cost depend on the seed, so exactly one is kept.
COMMON_FACTOR_PAIR = (
    "- 0.06072674332997452*z1^2*z2",
    "0.30261774436712935*z1*z2^2 + 1.1688513064536212*z1^2*z2",
)


def hko_pairs(seed: int) -> list[Op]:
    """Many 600-draw falsifier calls (34 per pair, all below one 2048-draw
    block, all regenerating the same draws) behind the CLI and its parser.
    This is where sharing draws across the pencil pays off, and the only
    workload that runs ``cli`` and ``poly.parse``."""
    gen = np.random.default_rng((seed, _SALT["hko_pairs"]))
    ops = []
    specs = [("orthant:2", Orthant(2)), ("orthant:3", Orthant(3)), ("psd:2", PSD(2))]
    # Per cone and copy: stable pairs of degree 1, 2, 2 and random pairs of
    # degree 2, 2, 3.  Degree-2 pairs are then two thirds of the operations,
    # so the median falls among them rather than in a gap between cheap and
    # costly pairs.  The monomial supports of the random pairs are fixed
    # (the seed draws their coefficients), since the support sets most of
    # a pair's cost.
    shape = np.random.default_rng(0x5A9E)
    for copy in range(2):
        for spec, K in specs:
            names = var_names(K)
            for k, deg in enumerate((1, 2, 2)):
                H = linear_product(gen, K, deg)
                f = MultiPoly(names, {e: complex(c.imag) for e, c in H.terms.items()})
                g = MultiPoly(names, {e: complex(c.real) for e, c in H.terms.items()})
                seed_i = int(gen.integers(0, 2**31))
                ops.append(_hko_op(f"hko/{spec}/stable_deg{deg}_{copy}{k}", f, g, K, spec, seed_i, True))
            for k, deg in enumerate((2, 2, 3)):
                f, g = random_poly(gen, names, deg, shape), random_poly(gen, names, deg, shape)
                seed_i = int(gen.integers(0, 2**31))
                ops.append(_hko_op(f"hko/{spec}/random_deg{deg}_{copy}{k}", f, g, K, spec, seed_i, False))
    names = var_names(Orthant(2))
    f, g = (parse(text, var_names=names) for text in COMMON_FACTOR_PAIR)
    ops.append(_hko_op("hko/orthant:2/common_factor", f, g, Orthant(2), "orthant:2", 0, False))
    return ops


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def hermitian(gen, m: int, rank: int, ridge: float = 0.0) -> np.ndarray:
    G = gen.normal(size=(m, rank)) + 1j * gen.normal(size=(m, rank))
    return G @ G.conj().T + ridge * np.eye(m)


def indefinite(gen, m: int) -> np.ndarray:
    """Hermitian with one eigenvalue in [-1, -0.5] and the rest in [0.5, 2]."""
    eigs = gen.uniform(0.5, 2.0, m)
    eigs[0] = -gen.uniform(0.5, 1.0)
    Q, _ = np.linalg.qr(gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m)))
    return (Q * eigs) @ Q.conj().T


def _thm54_op(name, A, expect, method=None):
    d = A.p

    def run():
        return thm54_certify(A, np.zeros((d, d)))

    def check(cert):
        flat = A.flatten()
        lam = float(np.linalg.eigvalsh(flat)[0])
        scale = max(1.0, float(np.linalg.norm(flat)))
        require(abs(cert.lambda_min - lam) <= 1e-8 * scale, "lambda_min disagrees with numpy")
        require(cert.outcome == expect, f"expected {expect}, got {cert.outcome}")
        if method is not None:
            require(cert.nonzero_method == method, f"expected the {method} route")
        return [cert.outcome, cert.nonzero_method]

    return Op(name, run, check)


def _perturbed_op(name, A):
    d = A.p

    def run():
        return perturbed_certify(A, np.zeros((d, d)))

    def check(rep):
        require(not rep.trivial, "singular input reported as definite")
        require(rep.all_certified and rep.converged, "perturbation schedule did not certify and converge")
        require(all(e.flat_class == POSITIVE_DEFINITE for e in rep.entries), "perturbed flattening not definite")
        return [len(rep.entries), rep.all_certified, rep.converged]

    return Op(name, run, check)


def _liu_op(name, A, B):
    def run():
        return liu_psd_check(A, B)

    def check(rep):
        require(rep.a_class == classify(A.flatten()), "class of A disagrees with numpy")
        require(rep.product_class == classify(khatri_rao(A, B).flatten()), "class of A*B disagrees with numpy")
        require(rep.holds_all, "a Khatri-Rao implication failed")
        return [rep.a_class, rep.b_class, rep.product_class, rep.psd_implication_ok, rep.pd_implication_ok]

    return Op(name, run, check)


def _prop56_op(name, A, slices):
    def run():
        return prop56_diagonal_criterion(A)

    def check(rep):
        require(rep.permutation_ok and rep.consistent, "slice reduction inconsistent")
        require(list(rep.block_classes) == [classify(s) for s in slices], "slice classes disagree with numpy")
        return [list(rep.block_classes), rep.overall_class]

    return Op(name, run, check)


def _dual_check(K, a) -> float:
    """Dual margin of a: numpy for orthant and PSD, the cone's own method otherwise."""
    if isinstance(K, Orthant):
        return float(np.min(a))
    if isinstance(K, PSD):
        mvx = MatrixVarIndex(K.n)
        half = np.where(np.eye(K.n, dtype=bool), 1.0, 0.5) * mvx.mat_from_flat(a)
        return float(np.linalg.eigvalsh(half)[0])
    return float(K.dual_margin(a))


def _linear_op(name, K, a, b):
    f = linear_form(var_names(K), a, b)

    def run():
        return linear_k_stability(f, K, allow_complex_constant=True)

    def check(v):
        if v.status == CERTIFIED_STABLE:
            band = 1e-6 * max(1.0, float(np.linalg.norm(a)))
            require(max(_dual_check(K, a), _dual_check(K, -a)) >= -band, "stable, but neither a nor -a is in K*")
        else:
            require(v.status == CERTIFIED_UNSTABLE, f"unexpected status {v.status}")
            check_witness(f, K, v.witness, 0.0)
        return [v.status]

    return Op(name, run, check)


def _near_boundary_form(gen, K, inside: bool) -> np.ndarray:
    """A form within a small random distance of the boundary of +-K*, on the given side."""
    delta = float((1.0 if inside else -1.0) * 10 ** gen.uniform(-6, -1))
    if isinstance(K, Orthant):
        a = np.abs(gen.normal(size=K.dim)) + 0.1
        a[int(gen.integers(K.dim))] = delta
    else:
        n = K.n
        G = gen.normal(size=(n, n - 1))
        v = gen.normal(size=n)
        v /= np.linalg.norm(v)
        M = G @ G.T + delta * np.outer(v, v)
        # <a, z>_flat = tr(M Z) puts twice the off-diagonal entries into a.
        a = np.array([M[i, j] * (1.0 if i == j else 2.0) for i, j in MatrixVarIndex(n).pairs])
    return float(gen.choice([-1.0, 1.0])) * a


def _uni_pairs(gen, deg: int, interleaved: bool):
    if interleaved:
        pts = np.sort(gen.uniform(-4.0, 4.0, 2 * deg + 1)) + np.arange(2 * deg + 1) * 0.15
        lf = float(gen.choice([-1.0, 1.0]) * gen.uniform(0.5, 2.0))
        lg = float(gen.choice([-1.0, 1.0]) * gen.uniform(0.5, 2.0))
        return UniPoly.from_roots(pts[1::2], lead=lf), UniPoly.from_roots(pts[0::2], lead=lg)
    g_roots = np.sort(gen.uniform(-4.0, 4.0, deg)) + np.arange(deg)
    gap = int(gen.integers(0, deg - 1))
    lo, hi = g_roots[gap], g_roots[gap + 1]
    inner = gen.uniform(lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo), 2)
    rest = [g_roots[0] - 1.0 - k for k in range(deg - 2)]
    return UniPoly.from_roots(np.concatenate([inner, np.array(rest)])), UniPoly.from_roots(g_roots)


def _uni_hb_op(name, f, g):
    """g + i f stable  <=>  f, g real-rooted and W(f, g) <= 0 on the line."""

    def run():
        direct = is_stable_univariate(g + f.scale(1j))
        characterized = is_real_rooted(f) and is_real_rooted(g) and wronskian_sign_leq0(f, g)
        return direct, characterized

    def check(result):
        direct, characterized = result
        require(direct == characterized, "stability and its real-rootedness characterization disagree")
        return [direct]

    return Op(name, run, check)


def _uni_hko_op(name, f, g, interleaved):
    """Every real combination stable-or-zero  <=>  the roots interlace."""

    def run():
        members_ok = True
        for lam, mu in PENCIL_GRID:
            member = f.scale(lam) + g.scale(mu)
            if member and not is_stable_univariate(member):
                members_ok = False
                break
        return members_ok, interlacing(f, g).kind

    def check(result):
        members_ok, kind = result
        require(members_ok == (kind != KIND_NONE), "pencil stability and interlacing disagree")
        require(members_ok == interleaved, "constructed root pattern not recognised")
        return [members_ok, kind]

    return Op(name, run, check)


def certificates(seed: int) -> list[Op]:
    """No sampling falsifier runs here.  The load is the Hermitian eigensolver
    (certificates, Khatri-Rao classes, PSD margins), symbolic determinant
    expansion, dual margins of linear forms, and scalar univariate roots.
    Linear forms are random plus a share placed near the boundary of +-K*,
    where the exact route is fragile; an ArithmeticError there is counted
    as a failed operation, never skipped."""
    gen = np.random.default_rng((seed, _SALT["certificates"]))
    ops = []
    for copy in range(2):
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
            m = n * d
            A = BlockMatrix.from_flat(hermitian(gen, m, m, 0.1), n, n)
            ops.append(_thm54_op(f"thm54/definite{n}x{d}_{copy}", A, DET_CERTIFIED, "expansion"))
            singular = BlockMatrix.from_flat(hermitian(gen, m, m - 1), n, n)
            ops.append(_thm54_op(f"thm54/singular{n}x{d}_{copy}", singular, DET_CERTIFIED, "expansion"))
            A = BlockMatrix.from_flat(indefinite(gen, m), n, n)
            ops.append(_thm54_op(f"thm54/indefinite{n}x{d}_{copy}", A, NOT_CERTIFIED))
            if copy == 0 and n * d <= 6:
                ops.append(_perturbed_op(f"perturbed/singular{n}x{d}", singular))
        A = BlockMatrix.from_flat(hermitian(gen, 10, 10, 0.1), 5, 5)
        ops.append(_thm54_op(f"thm54/definite5x2_evaluation_{copy}", A, DET_CERTIFIED, "evaluation"))

        for n, d in ((2, 2), (2, 3), (3, 2)):
            m = n * d
            A = BlockMatrix.from_flat(hermitian(gen, m, m - 1), n, n)
            B = BlockMatrix.from_flat(hermitian(gen, m, m - 1), n, n)
            ops.append(_liu_op(f"liu/gram{n}x{d}_{copy}", A, B))
            A = BlockMatrix.from_flat(hermitian(gen, m, m, 0.5), n, n)
            B = BlockMatrix.from_flat(hermitian(gen, m, m, 0.5), n, n)
            ops.append(_liu_op(f"liu/ridge{n}x{d}_{copy}", A, B))
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
            slices = []
            for k in range(d):
                S = gen.normal(size=(n, n))
                slices.append(S.T @ S if k % 2 == 0 else S + S.T)
            blocks = np.zeros((n, n, d, d))
            for i in range(n):
                for j in range(n):
                    blocks[i, j] = np.diag([slices[k][i, j] for k in range(d)])
            ops.append(_prop56_op(f"prop56/{n}x{d}_{copy}", BlockMatrix(blocks), slices))

    lin_cones = [("orthant6", Orthant(6)), ("polyhedral3", polyhedral_cone(gen, 3, 5)), ("psd3", PSD(3)), ("psd4", PSD(4))]
    for label, K in lin_cones:
        for k in range(40):
            ops.append(_linear_op(f"linear/{label}/random{k}", K, gen.normal(size=K.dim), gen.normal()))
        if not isinstance(K, Polyhedral):
            for side in ("inside", "outside"):
                a = _near_boundary_form(gen, K, side == "inside")
                ops.append(_linear_op(f"linear/{label}/boundary_{side}", K, a, gen.normal()))

    for k in range(16):
        deg = 3 + k % 6
        ops.append(_uni_hb_op(f"univariate/hb/interleaved{k}", *_uni_pairs(gen, deg, True)))
        ops.append(_uni_hb_op(f"univariate/hb/crossed{k}", *_uni_pairs(gen, deg, False)))
    for k in range(4):
        deg = 4 + 4 * (k % 2)
        ops.append(_uni_hko_op(f"univariate/hko/interleaved{k}", *_uni_pairs(gen, deg, True), True))
        ops.append(_uni_hko_op(f"univariate/hko/crossed{k}", *_uni_pairs(gen, deg, False), False))
    return ops


WORKLOADS = {
    "sampling_sweep": sampling_sweep,
    "hko_pairs": hko_pairs,
    "certificates": certificates,
}
