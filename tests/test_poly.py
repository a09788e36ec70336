"""Tests for the sparse multivariate polynomial layer."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicstab import poly
from conicstab.poly import (
    MatrixVarIndex,
    MultiPoly,
    ParseError,
    diag_substitution,
    parse,
    wronskian_v,
)
from conicstab.unistab import UniPoly, wronskian_uni


class TestParse:
    def test_expanded_square_difference(self):
        p = parse("(z1+z3)^2 - z2^2")
        assert p.var_names == ("z1", "z2", "z3")
        assert p.terms == {
            (2, 0, 0): (1 + 0j),
            (1, 0, 1): (2 + 0j),
            (0, 0, 2): (1 + 0j),
            (0, 2, 0): (-1 + 0j),
        }

    def test_literals_and_imaginary_unit(self):
        p = parse("2.5*x - 3i*y + i + 4", var_names=("x", "y"))
        assert p.terms == {
            (1, 0): (2.5 + 0j),
            (0, 1): -3j,
            (0, 0): (4 + 1j),
        }

    def test_natural_variable_order(self):
        p = parse("z10 + z2 + z1")
        assert p.var_names == ("z1", "z2", "z10")

    def test_explicit_universe_pins_missing_variables(self):
        p = parse("z2^2", var_names=("z1", "z2", "z3"))
        assert p.nvars == 3
        assert p.terms == {(0, 2, 0): (1 + 0j)}

    def test_unary_minus_binds_outside_power(self):
        p = parse("-z1^2", var_names=("z1",))
        assert p.terms == {(2,): (-1 + 0j)}

    def test_scientific_notation(self):
        p = parse("1e-3*x + 2E2", var_names=("x",))
        assert p.terms[(1,)] == pytest.approx(1e-3)
        assert p.terms[(0,)] == pytest.approx(200.0)

    def test_ident_starting_with_i_is_a_variable(self):
        p = parse("im + i", var_names=("im",))
        assert p.terms == {(1,): (1 + 0j), (0,): 1j}

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse("2z1")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse("z1 + w", var_names=("z1",))

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError, match="exponent"):
            parse("z1^1.5")

    def test_chained_power_rejected(self):
        with pytest.raises(ParseError, match="parentheses"):
            parse("z1^2^3")

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse("z1 + @")
        assert err.value.position == 5

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("(z1 + z2")

    def test_parse_consistent_with_arithmetic(self):
        # The parser must agree with building the same polynomial by hand.
        names = ("z1", "z2")
        z1 = MultiPoly.variable(names, 0)
        z2 = MultiPoly.variable(names, 1)
        one = MultiPoly.constant(names, 1.0)
        byhand = (z1 + z2.scale(2.0)) * (z1 - z2) + one
        assert parse("(z1 + 2*z2)*(z1 - z2) + 1") == byhand


class TestArithmetic:
    def test_cancellation_produces_zero(self):
        p = parse("z1*z2 - z1*z2", var_names=("z1", "z2"))
        assert not p
        assert p.degree == -1

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError, match="variable mismatch"):
            parse("z1", var_names=("z1",)) + parse("z2", var_names=("z2",))

    def test_power_matches_repeated_multiplication(self):
        p = parse("z1 + z2 - 1")
        q = MultiPoly.constant(p.var_names, 1.0)
        for _ in range(5):
            q = q * p
        assert p**5 == q

    def test_degrees(self):
        p = parse("z1^3*z2 + z2^2")
        assert p.degree == 4
        assert p.degree_in(0) == 3
        assert p.degree_in(1) == 2

    def test_homogeneity(self):
        assert parse("z1^2 + z1*z2").is_homogeneous()
        assert not parse("z1^2 + z2").is_homogeneous()
        assert MultiPoly.zero(("z1",)).is_homogeneous()


class TestEval:
    def test_hand_value(self):
        p = parse("(z1+z3)^2 - z2^2")
        assert p(np.array([1.0, 2.0, 3.0])) == pytest.approx(16 - 4)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(20)
        p = parse("z1^3*z2 - 2*z2^2*z3 + i*z1 + 5")
        pts = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        batch = p(pts)
        for row, z in enumerate(pts):
            assert batch[row] == pytest.approx(p(z))

    def test_monomial_grouping_against_naive_sum(self):
        rng = np.random.default_rng(21)
        names = ("a", "b", "c")
        terms = {}
        for _ in range(25):
            e = tuple(rng.integers(0, 4, size=3))
            terms[e] = complex(rng.normal(), rng.normal())
        p = MultiPoly(names, terms)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        naive = sum(c * z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2] for e, c in terms.items())
        assert p(z) == pytest.approx(naive)

    def test_zero_polynomial(self):
        p = MultiPoly.zero(("z1", "z2"))
        assert p(np.zeros(2)) == 0j
        assert np.all(p(np.ones((7, 2))) == 0)


@st.composite
def _sparse_poly(draw):
    """Random sparse polynomial in at most 4 variables of degree at most 5."""
    n = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(lambda e: sum(e) <= 5)
    coeffs = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(exps.map(tuple), coeffs, min_size=1, max_size=8))
    return MultiPoly(tuple(f"z{k + 1}" for k in range(n)), terms)


class TestRestrictLine:
    def test_direction_in_the_cancellation_locus(self):
        # (z1+z3)^2 - z2^2 vanishes identically on the line spanned by
        # (1/2, 1, 1/2): the restriction must come back as the zero poly.
        p = parse("(z1+z3)^2 - z2^2")
        r = p.restrict_line(np.zeros(3), np.array([0.5, 1.0, 0.5]))
        assert r.degree == -1

    def test_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(22)
        p = parse("z1^2*z2 - 3*z3^3 + i*z1*z3 + 2")
        X = rng.normal(size=(10, 3))
        Y = rng.normal(size=(10, 3))
        rows = p.restrict_line(X, Y)
        assert rows.shape == (10, p.degree + 1)
        for x, y, row in zip(X, Y, rows):
            t = complex(rng.normal(), rng.normal())
            want = p(x + t * np.asarray(y, dtype=complex))
            assert p.restrict_line(x, y)(t) == pytest.approx(want)
            assert UniPoly(row)(t) == pytest.approx(want)

    @given(_sparse_poly(), st.integers(1, 5), st.data())
    def test_batch_rows_property(self, p, B, data):
        # Each row evaluates to f(x_i + t y_i) within the coefficient mass
        # of the expansion, and the vector form is row i, trimmed.
        n = p.nvars
        reals = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
        block = st.lists(st.lists(reals, min_size=n, max_size=n), min_size=B, max_size=B)
        X, Y = np.array(data.draw(block)), np.array(data.draw(block))
        t = data.draw(st.complex_numbers(max_magnitude=3.0))
        rows = p.restrict_line(X, Y)
        assert rows.shape == (B, max(p.degree, 0) + 1)
        mass = MultiPoly(p.var_names, {e: abs(c) for e, c in p.terms.items()})
        for x, y, row in zip(X, Y, rows):
            want = p(x + t * y.astype(complex))
            scale = mass(np.abs(x) + abs(t) * np.abs(y)).real
            assert abs(np.polyval(row[::-1], t) - want) <= 100 * np.finfo(float).eps * scale
            assert p.restrict_line(x, y).coeffs == UniPoly(row).coeffs

    @given(_sparse_poly(), st.integers(1, 5), st.data())
    def test_variable_order_moves_only_rounding(self, p, B, data):
        # The Horner grouping follows the variable order.  Permuting the
        # variables together with the columns of x and y may move the rows
        # and the batch values only within the bound above.
        n = p.nvars
        perm = data.draw(st.permutations(range(n)))
        q = MultiPoly(
            tuple(p.var_names[k] for k in perm),
            {tuple(e[k] for k in perm): c for e, c in p.terms.items()},
        )
        reals = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
        block = st.lists(st.lists(reals, min_size=n, max_size=n), min_size=B, max_size=B)
        X, Y = np.array(data.draw(block)), np.array(data.draw(block))
        t = data.draw(st.complex_numbers(max_magnitude=3.0))
        mass = MultiPoly(p.var_names, {e: abs(c) for e, c in p.terms.items()})
        eps = np.finfo(float).eps
        rows, q_rows = p.restrict_line(X, Y), q.restrict_line(X[:, perm], Y[:, perm])
        for x, y, row, q_row in zip(X, Y, rows, q_rows):
            scale = mass(np.abs(x) + abs(t) * np.abs(y)).real
            assert abs(np.polyval(row[::-1], t) - np.polyval(q_row[::-1], t)) <= 100 * eps * scale
        Z = X + t * Y.astype(complex)
        assert np.all(np.abs(p(Z) - q(Z[:, perm])) <= 100 * eps * mass(np.abs(Z)).real)

    @pytest.mark.parametrize("c", [0.0, 2.5 - 1j])
    def test_zero_and_constant_rows(self, c):
        # No variable to step over: the rows are (B, 1), hold exactly c and
        # are writable arrays of their own, since the samplers pad and slice them.
        p = MultiPoly.constant(("z1", "z2"), c)
        rng = np.random.default_rng(24)
        X, Y = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        rows = p.restrict_line(X, Y)
        assert rows.shape == (5, 1) and rows.dtype == complex
        assert np.all(rows == c)
        rows[0, 0] = 7.0
        assert np.all(rows[1:] == c)
        assert p.restrict_line(X[0], Y[0]).degree == (0 if c else -1)

    @pytest.mark.parametrize(
        "x_shape, y_shape",
        [((3,), (2, 3)), ((2, 3), (3,)), ((2, 3), (4, 3)), ((2,), (2,)), ((1, 2, 3), (1, 2, 3))],
    )
    def test_rejects_mismatched_shapes(self, x_shape, y_shape):
        p = parse("z1*z2 + z3^2")
        with pytest.raises(ValueError):
            p.restrict_line(np.zeros(x_shape), np.ones(y_shape))

    def test_derivative_along_direction(self):
        # d/dt f(x + t y) equals the y-directional derivative on the line.
        rng = np.random.default_rng(23)
        p = parse("z1^3 - 2*z1*z2^2 + z2")
        x, y = rng.normal(size=2), rng.normal(size=2)
        lhs = p.restrict_line(x, y).derivative()
        rhs = p.directional_derivative(y).restrict_line(x, y)
        assert np.allclose(lhs.coeffs, rhs.coeffs)


def _full_width_rows(p, X, Y):
    """Reference restriction: every Horner value carries all deg+1 rows.

    Runs the compiled program of ``p`` with leaves c t^0 padded to deg+1
    rows, steps by whole-array shift-and-add and adds of equal-width
    values, so every row above a value's degree is an explicit zero.
    """
    xt, yt = (np.ascontiguousarray(a.T, dtype=complex) for a in (X, Y))
    e0 = np.eye(max(p.degree, 0) + 1, 1, dtype=complex)
    stack = []
    for op, arg, a in poly._horner_plan(list(p.terms.items()), p.nvars):
        if op == poly._LEAF:
            stack.append(arg * e0)
        elif op == poly._STEP:
            v = stack[-1]
            for _ in range(a):
                w = v * xt[arg]
                w[1:] += v[:-1] * yt[arg]
                v = w
            stack[-1] = v
        else:
            v = stack.pop()
            stack[-1] = stack[-1] + v
    out = np.zeros((X.shape[0], e0.shape[0]), dtype=complex)
    out.T[...] += stack[0]
    return out


@st.composite
def _kernel_case(draw):
    """A polynomial in 1-6 variables of degree at most 6 and a block of B lines."""
    n = draw(st.integers(1, 6))
    deg = draw(st.integers(0, 6))

    def exponent(factors):
        return tuple(factors.count(k) for k in range(n))

    exps = st.lists(st.integers(0, n - 1), max_size=deg).map(exponent)
    coeffs = st.one_of(
        st.floats(-10.0, 10.0, allow_nan=False),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    )
    p = MultiPoly(tuple(f"z{k + 1}" for k in range(n)), draw(st.dictionaries(exps, coeffs, max_size=10)))
    B = draw(st.sampled_from([1, 7, 600]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, Y = rng.normal(size=(B, n)), rng.normal(size=(B, n))
    for M in (X, Y):
        M[:, draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
        M[:: draw(st.integers(2, 5)), draw(st.integers(0, n - 1))] = 0.0
    return p, X, Y


class TestRestrictKernel:
    """The degree-aware kernel against the full-width shift-and-add."""

    @given(_kernel_case())
    def test_rows_equal_full_width_reference_bitwise(self, case):
        # Rows above a value's degree only ever added exact zeros, and the
        # result is added into zeros, so even signed zeros agree.
        p, X, Y = case
        bits = lambda a: np.ascontiguousarray(a, dtype=complex).view(np.uint64)  # noqa: E731
        rows = p.restrict_line(X, Y)
        assert rows.shape == (X.shape[0], max(p.degree, 0) + 1)
        assert np.array_equal(bits(rows), bits(_full_width_rows(p, X, Y)))
        for x, y, row in zip(X[:7], Y[:7], rows):
            assert p.restrict_line(x, y).coeffs == UniPoly(row).coeffs


@st.composite
def _fiber_case(draw):
    """An integer polynomial in 1-4 variables, a coordinate k and Gaussian-integer base points.

    Exponents up to 4 in each variable, at most 6 terms (so exponent gaps
    and the zero polynomial occur), Gaussian-integer coefficients of size
    at most 4 and base points with parts in -2..2 (so zero coordinates
    give exact-zero rows): every product and sum is exact in doubles.
    """
    n = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    exps = st.tuples(*[st.integers(0, 4)] * n)
    coeffs = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4))
    p = MultiPoly(tuple(f"z{j + 1}" for j in range(n)), draw(st.dictionaries(exps, coeffs, max_size=6)))
    B = draw(st.integers(1, 6))
    parts = st.lists(st.tuples(*[st.builds(complex, small, small)] * n), min_size=B, max_size=B)
    return p, draw(st.integers(0, n - 1)), np.array(draw(parts), dtype=complex)


class TestFiberKernel:
    """``as_univariate_in`` against the substituted polynomial's coefficients."""

    @given(_fiber_case())
    def test_rows_equal_substitution_exactly(self, case):
        # All arithmetic is exact, so both sides agree bit for bit once
        # signed zeros (which summation order decides) are folded by + 0.
        p, k, V = case
        bits = lambda a: (np.asarray(a, dtype=complex) + 0).view(np.uint64)  # noqa: E731
        rows = p.as_univariate_in(k, V)
        d = max(p.degree_in(k), 0)
        assert rows.shape == (V.shape[0], d + 1)
        for v, row in zip(V, rows):
            q = p.substitute_partial({j: v[j] for j in range(p.nvars) if j != k})
            assert np.array_equal(bits(row), bits([q.coefficient((e,)) for e in range(d + 1)]))


class TestHornerPlan:
    """Each polynomial compiles its grouped Horner sum once (``_horner_plan``)."""

    def test_unused_variables_change_no_bit(self):
        # (z1+z2+z3+z4+1)^3 embedded among five unused variables, with
        # matching extra columns of x and y: the same rows and values, bit
        # for bit, and the same program with no instruction for the unused
        # variables.
        p = parse("(z1 + z2 + z3 + z4 + 1)^3 + i*z2*z4 - 2.5")
        names = ("u1", "z1", "u2", "z2", "z3", "u3", "z4", "u4", "u5")
        used = [1, 3, 4, 6]
        emb = MultiPoly(names, {tuple(e[used.index(k)] if k in used else 0 for k in range(9)): c
                                for e, c in p.terms.items()})
        rng = np.random.default_rng(31)
        X, Y = rng.normal(size=(50, 9)), rng.normal(size=(50, 9))
        X[::4, 1] = 0.0
        bits = lambda a: np.ascontiguousarray(a, dtype=complex).view(np.uint64)  # noqa: E731
        rows, emb_rows = p.restrict_line(X[:, used], Y[:, used]), emb.restrict_line(X, Y)
        assert np.array_equal(bits(emb_rows), bits(rows))
        Z = X + 1j * Y
        assert np.array_equal(bits(emb(Z)), bits(p(Z[:, used])))
        assert emb._horner_program() == tuple(
            (op, used[arg], a) if op == poly._STEP else (op, arg, a)
            for op, arg, a in p._horner_program()
        )

    def test_compiled_once_and_kept(self, monkeypatch):
        builds = []
        compile_plan = poly._horner_plan
        monkeypatch.setattr(poly, "_horner_plan",
                            lambda items, n: builds.append(n) or compile_plan(items, n))
        p = parse("z1^2*z2 - 3*z3^3 + i*z1*z3 + 2")
        rng = np.random.default_rng(32)
        for _ in range(3):
            p.restrict_line(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
            p(rng.normal(size=3))
        assert builds == [3]


class TestSubstitution:
    def test_partial_fix(self):
        p = parse("z1^2*z2 + z3")
        q = p.substitute_partial({0: 2.0})
        assert q.var_names == ("z2", "z3")
        assert q.terms == {(1, 0): (4 + 0j), (0, 1): (1 + 0j)}

    def test_full_fix_yields_constant_polynomial(self):
        p = parse("z1*z2 + 1")
        q = p.substitute_partial({0: 1 + 1j, 1: 2.0})
        assert q.nvars == 0
        assert q(np.zeros(0)) == pytest.approx(3 + 2j)

    def test_real_imag_parts_recombine(self):
        p = parse("(2+3i)*z1^2 - i*z2 + 5")
        g, f = p.real_imag_parts()
        assert g.is_real() and f.is_real()
        assert g + f.scale(1j) == p


class TestWronskian:
    def test_univariate_embedding_matches(self):
        # In one variable the directional Wronskian along v=1 is the
        # classical one.
        f = parse("z^2 - 1", var_names=("z",))
        g = parse("z^2 - 4", var_names=("z",))
        w = wronskian_v(f, g, np.array([1.0]))
        uni = wronskian_uni(
            UniPoly([-1.0, 0.0, 1.0]), UniPoly([-4.0, 0.0, 1.0])
        )
        w_coeffs = [w.coefficient((k,)) for k in range(w.degree + 1)]
        assert np.allclose(w_coeffs, uni.coeffs)

    def test_complex_input_rejected(self):
        f = parse("i*z1", var_names=("z1",))
        g = parse("z1", var_names=("z1",))
        with pytest.raises(ValueError, match="real"):
            wronskian_v(f, g, np.array([1.0]))

    def test_antisymmetry(self):
        rng = np.random.default_rng(25)
        f = parse("z1^2 + 2*z2 - 1")
        g = parse("z1*z2 - 3")
        v = rng.normal(size=2)
        assert wronskian_v(f, g, v) == -wronskian_v(g, f, v)


class TestMatrixVarIndex:
    def test_flat_order_n3(self):
        idx = MatrixVarIndex(3)
        assert idx.dim == 6
        assert idx.names == ("z11", "z12", "z13", "z22", "z23", "z33")
        assert idx.flat(0, 0) == 0
        assert idx.flat(0, 2) == 2
        assert idx.flat(1, 1) == 3
        assert idx.flat(2, 2) == 5
        # Lower triangle maps onto the upper one.
        assert idx.flat(2, 0) == idx.flat(0, 2)

    def test_round_trip(self):
        rng = np.random.default_rng(26)
        idx = MatrixVarIndex(4)
        a = rng.normal(size=(4, 4))
        sym = (a + a.T) / 2
        assert np.allclose(idx.mat_from_flat(idx.flat_from_mat(sym)), sym)

    def test_flat_enumerates_all_positions(self):
        for n in (1, 2, 3, 5):
            idx = MatrixVarIndex(n)
            positions = [idx.flat(i, j) for i, j in idx.pairs]
            assert positions == list(range(idx.dim))

    def test_diag_substitution(self):
        idx = MatrixVarIndex(2)
        f = parse("z1*z2 - z1^2", var_names=("z1", "z2"))
        g = diag_substitution(f, idx)
        assert g.var_names == ("z11", "z12", "z22")
        assert g.terms == {(1, 0, 1): (1 + 0j), (2, 0, 0): (-1 + 0j)}


class TestJson:
    def test_round_trip(self):
        p = parse("(1+2i)*z1^2*z2 - z2^3 + 0.5")
        q = MultiPoly.from_json(p.to_json())
        assert q == p

    def test_wire_format_fields(self):
        p = parse("z1 - i*z2")
        data = json.loads(p.to_json())
        assert data["vars"] == ["z1", "z2"]
        assert {tuple(t["exp"]): (t["re"], t["im"]) for t in data["terms"]} == {
            (1, 0): (1.0, 0.0),
            (0, 1): (0.0, -1.0),
        }


class TestExponents:
    """Exponents are nonnegative integers; a fractional one raises, not truncates."""

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            MultiPoly(("z",), {(1.5,): 1.0, (1,): 2.0})

    def test_fractional_json_exponent_rejected(self):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            MultiPoly.from_json('{"vars": ["z"], "terms": [{"exp": [2.7], "re": 1.0}]}')

    def test_integral_floats_and_numpy_integers_accepted(self):
        p = MultiPoly(("z1", "z2"), {(2.0, np.int64(1)): 1.0, (np.int32(0), 1): 2.0})
        assert p == parse("z1^2*z2 + 2*z2")
        q = MultiPoly.from_json('{"vars": ["z"], "terms": [{"exp": [2.0], "re": 1.0}]}')
        assert q == parse("z^2", var_names=("z",))


class TestText:
    def test_str_is_a_parseable_expression(self):
        p = parse("(1+2i)*z1^2*z2 - z2^3 + 0.5")
        assert str(p) == "(0.5) + (-1)*z2^3 + (1+2*i)*z1^2*z2"
        assert parse(str(p), var_names=p.var_names) == p
        assert repr(p) == f"MultiPoly({p})"

    def test_zero_polynomial(self):
        z = MultiPoly.zero(("z1",))
        assert str(z) == "0"
        assert repr(z) == "MultiPoly(0)"
