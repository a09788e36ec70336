"""The search batches of the sampling engine: verdicts, cost and order.

A search solves the first ``constab._PROBE`` draws of block 0 as a batch of
their own.  In every batch the line rows come first and set the cut, the
latest of the members' first line candidates; fibers are expanded below the
cut, and past it only for members still without a witness, and each member
confirms its candidates in one draw order, the line before the fiber.  None
of this may move a verdict:

* ``TestGoldenVerdicts`` pins (status, samples, certificate) of fixed
  searches, as the engine gave them with one batch per block and every
  fiber expanded;
* ``test_verdicts_do_not_depend_on_the_batches`` compares every field,
  witness bits included, with the same search at ``_PROBE = 0`` (one batch
  per block);
* ``TestBatchCostAndOrder`` pins what the batches save and the order in
  which draws reach the probes;
* ``TestWitnessOrder`` pins the scalar confirmations that one witness order
  makes, and that a fiber witness past the cut is still reached;
* ``TestReaderZeros`` pins that a probe's one ``zero`` maps candidate rows
  (as ``book`` does) and a lone scalar root (as ``confirm`` does) alike.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicstab import constab
from conicstab.cones import PSD, Orthant, Polyhedral, product
from conicstab.constab import (
    FALSIFIED,
    NOT_FALSIFIED,
    _HYPERBOLICITY,
    _STABILITY,
    falsify_k_stability,
    hyperbolicity_check,
    pencil_hko_check,
)
from conicstab.poly import MatrixVarIndex, MultiPoly, parse
from conicstab.tolerances import DEFAULT_TOL

M2 = MatrixVarIndex(2).names
M3 = MatrixVarIndex(3).names
PRODUCT_VARS = ("w",) + M2
O3_VARS = ("z1", "z2", "z3")
DET3 = ("z11*z22*z33 + 2*z12*z23*z13 - z11*z23^2 - z22*z13^2 - z33*z12^2", M3)
WEDGE = Polyhedral([[1.0, 0.0], [1.0, 1.0]])
CONES = {
    "O2": Orthant(2),
    "O3": Orthant(3),
    "O4": Orthant(4),
    "P2": PSD(2),
    "P3": PSD(3),
    "wedge": WEDGE,
    "O1xP2": product(Orthant(1), PSD(2)),
}
GRID4 = [(1.0, 0.0), (np.sqrt(0.5), np.sqrt(0.5)), (0.0, 1.0), (-np.sqrt(0.5), np.sqrt(0.5))]
BUDGETS = [1, 63, 64, 65, 600, 2_048, 2_049]
F, NF = FALSIFIED, NOT_FALSIFIED


def _sliver(delta):
    return (f"z11*z22 - (1 + {delta})*z12^2", M2)


def _label(certificate):
    """The probe that made a certificate: "line", "fiber" or "fiber <variable>"."""
    if certificate in (_STABILITY.line.cert, _HYPERBOLICITY.line.cert):
        return "line"
    if certificate == _HYPERBOLICITY.fiber.cert:
        return "fiber"
    if certificate is not None:
        return "fiber " + certificate.split()[3]  # "zero on the z2 coordinate fiber ..."
    return None


def _row(v):
    return (v.status, v.samples, _label(v.certificate))


def _pencil_verdicts(f, g, K, n_samples, rng):
    """The pencil's verdicts on GRID4: its members' (None for a zero member), then f + ig and g + if."""
    rep = pencil_hko_check(f, g, K, grid=GRID4, n_samples=n_samples, rng=rng)
    return [e.verdict for e in rep.entries] + [rep.f_plus_ig, rep.g_plus_if]


def _verdicts(kind, text, cone, seed, budget):
    """Every verdict of one search: one for a falsifier, ``_pencil_verdicts`` for a pencil."""
    K = CONES[cone]
    polys = [parse(t, var_names=names) for t, names in text]
    if kind == "pencil":
        return _pencil_verdicts(*polys, K, n_samples=budget, rng=seed)
    search = falsify_k_stability if kind == "falsify" else hyperbolicity_check
    return [search(polys[0], K, n_samples=budget, rng=seed)]


# (kind, ((text, variables), ...), cone, seed, budget): products of forms
# <a, z> + b with a in int K* and Im b > 0 (stable), their twins with the
# last Im b negated (zeros on sampled lines), products of a mixed-sign real
# form with a dual-interior one (fiber-only zeros), slivers of the PSD(2)
# determinant (witnesses late, or on a fiber before the first line witness
# of their batch), the det3 hyperbolicity search and two pencils.
GOLDEN = [
    ("falsify", [("(z1 + 2*z2 + z3 + 0.3 + 0.7i)*(2*z1 + z2 + 0.5*z3 - 0.4 + 1.1i)", None)], "O3", 1, 65),
    ("falsify", [("(z1 + 2*z2 + z3 + 0.3 + 0.7i)*(2*z1 + z2 + 0.5*z3 - 0.4 - 1.1i)", None)], "O3", 1, 63),
    ("falsify", [("(z1 + 0.5*z2 + 0.2 + 0.4i)*(0.7*z1 + z2 - 1 + 0.9i)*(z1 + 3*z2 + 0.5 + 0.3i)", None)],
     "O2", 2, 2_049),
    ("falsify", [("(z1 + 0.5*z2 + 0.2 + 0.4i)*(0.7*z1 + z2 - 1 + 0.9i)*(z1 + 3*z2 + 0.5 - 0.3i)", None)],
     "O2", 2, 1),
    ("falsify", [("(z1 + z2 + 2*z3 + 0.5*z4 + 1 + 0.5i)*(0.5*z1 + 2*z2 + z3 + z4 - 0.7 + 0.8i)", None)],
     "O4", 3, 600),
    ("falsify", [("(z1 - 2*z2 + z3)*(z1 + z2 + z3 + z4)", None)], "O4", 3, 64),
    ("falsify", [("(z11 + 0.5*z12 + z22 + 1 + 0.5i)*(2*z11 - z12 + z22 - 0.2 + 0.8i)", M2)], "P2", 4, 2_048),
    ("falsify", [("(z11 + 0.5*z12 + z22 + 1 + 0.5i)*(2*z11 - z12 + z22 - 0.2 - 0.8i)", M2)], "P2", 4, 65),
    ("falsify", [("(z11 - z22 + 0.3*z12)*(z11 + z22 + 0.2*z12)", M2)], "P2", 5, 600),
    ("falsify", [_sliver(0.2)], "P2", 2, 64),
    ("falsify", [_sliver(0.02)], "P2", 1, 600),
    ("falsify", [_sliver(0.002)], "P2", 2, 2_048),
    ("falsify", [_sliver(0.0002)], "P2", 2, 4_096),
    ("falsify", [("(z1 + 0.5*z2 + 0.3 + 0.6i)*(z1 - 0.5*z2 - 0.2 + 0.9i)", None)], "wedge", 6, 2_049),
    ("falsify", [("(z1 + 0.5*z2 + 0.3 + 0.6i)*(z1 - 0.5*z2 - 0.2 - 0.9i)", None)], "wedge", 6, 63),
    ("falsify", [("(z1 - 2*z2)*(z1 + 0.5*z2)", None)], "wedge", 7, 65),
    ("falsify", [("(w + z11 + 0.2*z12 + z22 + 0.5 + 0.4i)*(2*w + z11 - 0.1*z12 + 0.5*z22 - 1 + 1.3i)",
                  PRODUCT_VARS)], "O1xP2", 8, 600),
    ("falsify", [("(w - z11 + 0.5*z22)*(w + z11 + z22)", PRODUCT_VARS)], "O1xP2", 8, 2_048),
    ("hyper", [DET3], "P3", 9, 600),
    ("hyper", [("z1^2 + z2^2", None)], "O2", 0, 1),
    ("hyper", [("z1 - z2", None)], "O2", 9, 64),
    ("pencil", [("z1^2 + z2 - 0.5", None), ("z1*z2 - 1", None)], "O2", 10, 600),
    ("pencil", [("(z1 + z2 + z3 + 1)*(z1 + 2*z2 + 0.5)", O3_VARS), ("z1 + 2*z2 + 0.5", O3_VARS)], "O3", 11, 65),
]

# (status, samples, probe) of each verdict, from the engine with one batch per block
EXPECT = [
    [(NF, 65, None)],
    [(F, 1, "line")],
    [(NF, 2_049, None)],
    [(F, 1, "line")],
    [(NF, 600, None)],
    [(F, 1, "fiber z1")],
    [(NF, 2_048, None)],
    [(F, 1, "line")],
    [(F, 1, "fiber z11")],
    [(F, 10, "fiber z11")],
    [(F, 10, "fiber z11")],
    [(F, 120, "fiber z22")],
    [(F, 3_334, "fiber z11")],
    [(NF, 2_049, None)],
    [(F, 1, "line")],
    [(F, 1, "fiber z1")],
    [(NF, 600, None)],
    [(F, 2, "fiber z11")],
    [(NF, 600, None)],
    [(F, 1, "line")],
    [(F, 1, "fiber")],
    [
        (F, 1, "fiber z1"),
        (NF, 600, None),
        (NF, 600, None),
        (F, 1, "fiber z1"),
        (F, 1, "line"),
        (F, 1, "line"),
    ],
    [(NF, 65, None), (NF, 65, None), (NF, 65, None), (NF, 65, None), (NF, 65, None), (F, 1, "line")],
]


class TestGoldenVerdicts:
    @pytest.mark.parametrize("case,expect", list(zip(GOLDEN, EXPECT)))
    def test_first_witness(self, case, expect):
        assert [_row(v) for v in _verdicts(*case)] == expect

    def test_table_is_complete(self):
        assert len(EXPECT) == len(GOLDEN)


# ---------------------------------------------------------------------------
# Batching invariance
# ---------------------------------------------------------------------------

POLYHEDRAL3 = Polyhedral([[1.0, 0.2, 0.0], [1.0, -0.3, 0.4], [1.0, 0.1, -0.5], [1.0, 0.5, 0.3]])
FALSIFIER_CONES = [
    (Orthant(2), ("z1", "z2")),
    (Orthant(3), O3_VARS),
    (Orthant(4), ("z1", "z2", "z3", "z4")),
    (PSD(2), M2),
    (POLYHEDRAL3, O3_VARS),
    (product(Orthant(1), PSD(2)), PRODUCT_VARS),
]
UNIT = st.floats(-1.0, 1.0)


def _form(names, a, b=0.0):
    """<a, z> + b."""
    n = len(names)
    terms = {(0,) * n: complex(b)}
    for j in range(n):
        terms[tuple(int(i == j) for i in range(n))] = complex(a[j])
    return MultiPoly(names, terms)


@st.composite
def _searches(draw):
    """(search, args) of a workload shape: the search is called as ``search(*args, n_samples=, rng=)``.

    Falsifier inputs are products of forms <a, z> + b with a in int K* (an
    interior point of a cone that lies in int K*) and Im b > 0, their twins
    with the last Im b negated, and fiber-only products of a mixed-sign real
    form with a dual-interior one.  Besides them: pencils of small real pairs
    on Orthant(2), and the det3 hyperbolicity search.
    """
    shape = draw(st.sampled_from(["stable", "twin", "fiber", "pencil", "det3"]))
    if shape == "det3":
        return hyperbolicity_check, (parse(*DET3), PSD(3))
    if shape == "pencil":
        names, monomials = ("z1", "z2"), [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        f, g = (MultiPoly(names, {e: draw(UNIT) for e in monomials}) for _ in range(2))
        return _pencil_verdicts, (f, g, Orthant(2))
    K, names = draw(st.sampled_from(FALSIFIER_CONES))

    def dual_interior():
        u = np.array(draw(st.lists(UNIT, min_size=K.draw_dim, max_size=K.draw_dim)))
        return K.interior_from_normals(u[np.newaxis, :], 0.1)[0]

    if shape == "fiber":
        c = np.array(draw(st.lists(UNIT, min_size=K.dim, max_size=K.dim)))
        assume(K.dual_margin(c) < 0 and K.dual_margin(-c) < 0)
        return falsify_k_stability, (_form(names, c) * _form(names, dual_interior()), K)
    f = MultiPoly.constant(names, 1.0)
    n_factors = draw(st.integers(2, 3))
    for j in range(n_factors):
        im = draw(st.floats(0.2, 1.5))
        b = complex(draw(UNIT), -im if shape == "twin" and j == n_factors - 1 else im)
        f = f * _form(names, dual_interior(), b)
    return falsify_k_stability, (f, K)


def _fields(v):
    """Every field of a verdict, the witness and residual as bits."""
    if v is None:
        return None
    bits = lambda a: None if a is None else np.asarray(a).tobytes()  # noqa: E731
    return (v.status, v.samples, v.certificate, v.seed, bits(v.residual), bits(v.witness))


def _one_batch_per_block(search, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constab, "_PROBE", 0)
        return search(*args, **kwargs)


@settings(max_examples=120, deadline=None)
@given(_searches(), st.sampled_from(BUDGETS), st.integers(0, 2**16))
def test_verdicts_do_not_depend_on_the_batches(search, budget, seed):
    fn, args = search
    got = fn(*args, n_samples=budget, rng=seed)
    want = _one_batch_per_block(fn, *args, n_samples=budget, rng=seed)
    got, want = (v if isinstance(v, list) else [v] for v in (got, want))
    assert [_fields(v) for v in got] == [_fields(v) for v in want]


# ---------------------------------------------------------------------------
# Cost and order
# ---------------------------------------------------------------------------


def _never(t, tol):
    return np.zeros(np.shape(t), dtype=bool)


def _stability_with(reader, **fields):
    """The stability probe with its ``reader`` ("line" or "fiber") given ``fields``."""
    return dataclasses.replace(_STABILITY, **{reader: dataclasses.replace(getattr(_STABILITY, reader), **fields)})


LINES_ONLY = _stability_with("fiber", screen=_never)
FIBERS_ONLY = _stability_with("line", screen=_never, ok=_never)


class TestBatchCostAndOrder:
    def test_witness_at_draw_one_expands_one_probe_batch_of_lines_and_no_fiber(self, monkeypatch):
        lines, fibers = [], []
        restrict, fiber = MultiPoly.restrict_line, MultiPoly.as_univariate_in
        monkeypatch.setattr(MultiPoly, "restrict_line",
                            lambda self, x, y, *a: lines.append(len(x)) or restrict(self, x, y, *a))
        monkeypatch.setattr(MultiPoly, "as_univariate_in",
                            lambda self, k, base: fibers.append(k) or fiber(self, k, base))
        v = falsify_k_stability(parse("z1^2 + z2^2"), Orthant(2), rng=0)
        assert _row(v) == (F, 1, "line")
        assert lines == [64] == [constab._PROBE]
        assert fibers == []

    def test_fiber_witness_before_the_first_line_witness_of_its_batch_wins(self):
        f, K, seed = parse(*_sliver(0.2)), PSD(2), 2
        line, fib = (constab._search([f], np.ones((1, 1)), K, 2_048, seed, DEFAULT_TOL, probe)[0]
                     for probe in (LINES_ONLY, FIBERS_ONLY))
        # both witnesses lie in the probe batch, the fiber's first
        assert _row(line) == (F, 59, "line")
        assert _row(fib) == (F, 10, "fiber z11")
        v = falsify_k_stability(f, K, n_samples=2_048, rng=seed)
        assert _fields(v) == _fields(fib)

    def test_each_batch_screens_its_lines_and_its_fibers_in_one_call_each(self, monkeypatch):
        # A stable cubic product of degree 3 in each of its four variables:
        # the fibers of all four coordinates are one group, so each batch
        # (the probe batch, then the rest of the block) makes one screen
        # and solve for its lines, then one for its fibers.
        f = parse("(z1 + 2*z2 + z3 + z4 + 1i)*(2*z1 + z2 + z3 + 3*z4 + 1 + 2i)*(z1 + z2 + 2*z3 + z4 + 3i)")
        calls, screened = [], constab._screened_roots
        monkeypatch.setattr(constab, "_screened_roots",
                            lambda coeffs, pairs: calls.append(coeffs.shape) or screened(coeffs, pairs))
        assert _row(falsify_k_stability(f, Orthant(4), n_samples=2_048, rng=1)) == (NF, 2_048, None)
        assert calls == [(64, 4), (64, 4), (1_984, 4), (1_984, 4)]

    def test_every_draw_reaches_the_line_and_its_fiber_once_in_order(self, monkeypatch):
        f, K, seed, budget = parse(GOLDEN[0][1][0][0]), Orthant(3), 1, 2_049  # a stable product
        lines, fibers = [], {}
        restrict, fiber = MultiPoly.restrict_line, MultiPoly.as_univariate_in
        monkeypatch.setattr(MultiPoly, "restrict_line",
                            lambda self, x, y, *a: lines.append((x.copy(), y.copy())) or restrict(self, x, y, *a))
        monkeypatch.setattr(MultiPoly, "as_univariate_in",
                            lambda self, k, base: fibers.setdefault(k, []).append(base.copy())
                            or fiber(self, k, base))
        assert _row(falsify_k_stability(f, K, n_samples=budget, rng=seed)) == (NF, budget, None)
        blocks = list(constab._blocks(seed, K.dim, K, DEFAULT_TOL.sample_sigma, budget,
                                      DEFAULT_TOL.sample_margin))
        x, y = (np.concatenate([b[i] for b in blocks]) for i in (1, 2))
        assert [len(lx) for lx, _ in lines] == [64, 2_048 - 64, 1]
        assert np.array_equal(np.concatenate([lx for lx, _ in lines]), x)
        assert np.array_equal(np.concatenate([ly for _, ly in lines]), y)
        # draw j solves the fiber of z_(j mod 3) at the base point x_j + i y_j
        assert sorted(fibers) == [0, 1, 2]
        for k, bases in fibers.items():
            assert np.array_equal(np.concatenate(bases), (x + 1j * y)[k::3])

    @pytest.mark.xfail(strict=True, reason="FOUND 355: stability fibers keep only roots above the axis")
    def test_fibers_alone_falsify_an_off_diagonal_form(self):
        # Every z12-fiber root of z12 + 0.1i is -x12 - 0.1i, below the axis,
        # yet y12 = -0.1 is interior for a wide diagonal; lines are disabled.
        f = parse("z12 + 0.1*i", var_names=M2)
        got = [constab._search([f], np.ones((1, 1)), PSD(2), 4_096, seed, DEFAULT_TOL, FIBERS_ONLY)[0].status
               for seed in range(3)]
        assert got == [F] * 3


# ---------------------------------------------------------------------------
# One witness order
# ---------------------------------------------------------------------------

# the fixed common-factor pair of the benchmark's hko workload
COMMON_FACTOR = ("- 0.06072674332997452*z1^2*z2",
                 "0.30261774436712935*z1*z2^2 + 1.1688513064536212*z1^2*z2")


def _counted(monkeypatch):
    """Record the candidate rows a search re-solves at scalar precision to confirm them."""
    calls = []
    solve = constab.roots
    monkeypatch.setattr(constab, "roots", lambda p, *a: calls.append(p) or solve(p, *a))
    return calls


class TestWitnessOrder:
    def test_fiber_witness_below_the_cut_confirms_alone(self, monkeypatch):
        # the first line candidate lies past the fiber witness at draw 10,
        # so the fiber is confirmed first and ends the search
        calls = _counted(monkeypatch)
        v = falsify_k_stability(parse(*_sliver(0.2)), PSD(2), n_samples=2_048, rng=2)
        assert _row(v) == (F, 10, "fiber z11")
        assert len(calls) == 1

    def test_common_factor_pencil_confirms_three_candidates(self, monkeypatch):
        calls = _counted(monkeypatch)
        f, g = (parse(t, var_names=("z1", "z2")) for t in COMMON_FACTOR)
        rep = pencil_hko_check(f, g, Orthant(2), n_samples=600, rng=0)
        assert [_row(e.verdict) for e in rep.entries] == [(NF, 600, None)] * 32
        assert not any(e.zero for e in rep.entries)
        assert (_row(rep.f_plus_ig), _row(rep.g_plus_if)) == ((F, 5, "line"), (F, 1, "line"))
        assert len(calls) == 3

    def test_fiber_at_the_cut_is_reached_past_a_failed_line(self):
        # Every line candidate is booked and fails: the first, at draw 1,
        # sets the cut at row 0, so the z1 fiber witness there is booked in
        # the span past the cut.
        f, K = parse("z1^2 + z2^2"), Orthant(2)
        failed_lines = _stability_with("line", ok=_never)
        v = constab._search([f], np.ones((1, 1)), K, 2_048, 0, DEFAULT_TOL, failed_lines)[0]
        want = constab._search([f], np.ones((1, 1)), K, 2_048, 0, DEFAULT_TOL, FIBERS_ONLY)[0]
        assert _row(v) == (F, 1, "fiber z1")
        assert _fields(v) == _fields(want)

    def test_candidate_row_keeps_a_small_top_coefficient(self, monkeypatch):
        # One draw of z1^6 with y = 1e-3: the line row's top coefficients
        # y^6 = 1e-18 and 6 x y^5 = 3e-15 lie under the absolute trim of
        # 1e-12, yet they are not zero, so the row confirmed has degree 6.
        calls = _counted(monkeypatch)
        monkeypatch.setattr(constab, "_blocks", lambda *a: iter([(0, np.array([[0.5]]), np.array([[1e-3]]))]))
        falsify_k_stability(parse("z1^6"), Orthant(1), n_samples=1, rng=0)
        assert [p.degree for p in calls] == [6]


# ---------------------------------------------------------------------------
# One zero per reader
# ---------------------------------------------------------------------------


class TestReaderZeros:
    @pytest.mark.parametrize("probe", [_STABILITY, _HYPERBOLICITY], ids=["stability", "hyperbolicity"])
    @pytest.mark.parametrize("name", ["line", "fiber"])
    def test_candidate_rows_map_as_each_candidate_alone(self, probe, name):
        # book passes per-row arrays, confirm one draw, a Python int k and a
        # numpy scalar root; roots on both sides of the axis
        gen, c, n = np.random.default_rng(7), 9, 3
        x, y = gen.normal(size=(c, n)), np.abs(gen.normal(size=(c, n)))
        v = probe.base(x, y)
        k = np.full(c, -1) if name == "line" else gen.integers(0, n, c)
        t = gen.normal(size=c) + 1j * gen.normal(size=c)
        reader = getattr(probe, name)
        rows = reader.zero(x, y, v, k, t)
        alone = [reader.zero(x[i], y[i], v[i], k.tolist()[i], t[i]) for i in range(c)]
        assert rows.shape == (c, n)
        assert [(z.dtype, z.shape) for z in alone] == [(rows.dtype, (n,))] * c
        assert [z.tobytes() for z in rows] == [z.tobytes() for z in alone]
