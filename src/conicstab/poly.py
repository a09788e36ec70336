"""Sparse multivariate polynomials over C and matrix-variable indexing.

A :class:`MultiPoly` maps exponent tuples to complex coefficients over a
fixed, named variable tuple.  The module provides the exact operations the
stability pipeline needs — line restriction ``t -> f(x + t y)``, coordinate
fibers, partial substitution, directional derivatives and Wronskians,
splitting into real and imaginary coefficient parts — plus a small
expression parser and a JSON wire format.  Evaluation, line and fiber
restriction run one grouped Horner program (``_horner``) over the variable
order, on scalars or on rows; each polynomial compiles its program once
(``_horner_plan``) and keeps it.

:class:`MatrixVarIndex` fixes the flat ordering of the upper triangle of a
symmetric matrix variable (row-major: z11, z12, ..., z1n, z22, ...), which
is shared by the semidefinite cone descriptor and the determinantal
constructions.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT_TOL, ToleranceProfile
from .unistab import UniPoly

__all__ = [
    "MultiPoly",
    "MatrixVarIndex",
    "ParseError",
    "parse",
    "wronskian_v",
    "diag_substitution",
]


class ParseError(ValueError):
    """Raised on malformed polynomial expressions; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _natural_key(name: str):
    parts = re.split(r"(\d+)", name)
    return tuple(int(p) if p.isdigit() else p for p in parts)


class MultiPoly:
    """Polynomial in C[z_1, ..., z_n] as {exponent tuple: coefficient}.

    Exponents are nonnegative integers; a fractional one raises
    ``ValueError``.  Construction canonicalizes: coefficients that
    ``tol.negligible`` holds are dropped, so the zero polynomial has an empty
    term map and ``bool(p)`` is its nonzeroness test.  All binary
    operations require identical variable tuples — aligning different
    variable universes is the caller's job, not a silent guess.  The first
    evaluation or restriction compiles the grouped Horner program of the
    terms and keeps it, so the term map is not changed after construction.
    """

    __slots__ = ("var_names", "terms", "_plan")

    def __init__(self, var_names, terms, tol: ToleranceProfile = DEFAULT_TOL):
        names = tuple(str(v) for v in var_names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        clean: dict[tuple[int, ...], complex] = {}
        n = len(names)
        for exp, coeff in terms.items():
            e = tuple(map(int, exp))
            if len(e) != n or e != exp or any(k < 0 for k in e):  # e != exp: a fractional exponent
                raise ValueError(f"bad exponent tuple {exp} for {n} variables")
            c = clean.get(e, 0j) + complex(coeff)
            clean[e] = c
        self.var_names = names
        self.terms = {e: c for e, c in clean.items() if not tol.negligible(c)}
        self._plan = None

    def _horner_program(self) -> tuple:
        """The grouped Horner program of the terms, compiled on first use."""
        if self._plan is None:
            self._plan = _horner_plan(list(self.terms.items()), self.nvars)
        return self._plan

    # -- queries ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.var_names == other.var_names
            and self.terms == other.terms
        )

    def __str__(self) -> str:
        """A parseable expression: terms by (total degree, exponent), ``0`` if none.

        Real coefficients print as ``(c)``, complex ones as ``(a+b*i)``.
        """
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            mon = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(self.var_names, e) if k)
            coeff = f"({c.real:g})" if abs(c.imag) < 1e-15 else f"({c.real:g}{c.imag:+g}*i)"
            bits.append(coeff + (f"*{mon}" if mon else ""))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, k: int) -> int:
        """Degree in variable ``k``; -1 for the zero polynomial."""
        return max((e[k] for e in self.terms), default=-1)

    def is_real(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        return all(tol.negligible(c.imag) for c in self.terms.values())

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp) -> complex:
        return self.terms.get(tuple(exp), 0j)

    def coeff_norm1(self) -> float:
        return float(sum(abs(c) for c in self.terms.values()))

    def max_coeff_diff(self, other: "MultiPoly") -> float:
        """Largest coefficientwise deviation between two polynomials."""
        if self.var_names != other.var_names:
            raise ValueError("variable mismatch")
        keys = set(self.terms) | set(other.terms)
        return max(
            (abs(self.terms.get(e, 0j) - other.terms.get(e, 0j)) for e in keys),
            default=0.0,
        )

    # -- ring operations ---------------------------------------------------

    def _check_vars(self, other: "MultiPoly") -> None:
        if self.var_names != other.var_names:
            raise ValueError(
                f"variable mismatch: {self.var_names} vs {other.var_names}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0j) + c
        return MultiPoly(self.var_names, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1.0)

    def __neg__(self) -> "MultiPoly":
        return self.scale(-1.0)

    def scale(self, factor: complex) -> "MultiPoly":
        return MultiPoly(
            self.var_names, {e: factor * c for e, c in self.terms.items()}
        )

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        out: dict[tuple[int, ...], complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0j) + c1 * c2
        return MultiPoly(self.var_names, out)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.var_names, 1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    @staticmethod
    def constant(var_names, value: complex) -> "MultiPoly":
        return MultiPoly(var_names, {tuple([0] * len(tuple(var_names))): value})

    @staticmethod
    def variable(var_names, k: int) -> "MultiPoly":
        names = tuple(var_names)
        e = [0] * len(names)
        e[k] = 1
        return MultiPoly(names, {tuple(e): 1.0})

    @staticmethod
    def zero(var_names) -> "MultiPoly":
        return MultiPoly(var_names, {})

    # -- evaluation and specialization --------------------------------------

    def __call__(self, point):
        """Evaluate at a point (length-n sequence) or batch (shape (B, n)).

        The grouped Horner program (``_horner``) with scalar
        coefficient-sum leaves and the step ``v * z_k**a``, each power
        formed once per call; a batch runs on contiguous columns z_k of
        length B.
        """
        pt = np.asarray(point, dtype=complex)
        batch = pt.ndim == 2
        if (batch and pt.shape[1] != self.nvars) or (
            not batch and pt.shape != (self.nvars,)
        ):
            raise ValueError(f"point shape {pt.shape} does not fit {self.nvars} variables")
        cols = np.ascontiguousarray(pt.T) if batch else pt
        powers = {}

        def step(v, k, a):
            if (k, a) not in powers:
                powers[k, a] = cols[k] ** a
            return v * powers[k, a]

        val = _horner(self._horner_program(), lambda c: c, step, operator.add)
        if batch:
            out = np.empty(pt.shape[0], dtype=complex)
            out[:] = val
            return out
        return complex(val)

    def restrict_line(self, x, y) -> UniPoly | np.ndarray:
        """The univariate restriction ``t -> f(x + t y)``, expanded exactly.

        ``x`` and ``y`` are real vectors (shape (n,)), giving a
        :class:`UniPoly` trimmed at the default profile, or batches (shape
        (B, n)), giving the untrimmed ascending coefficient rows, a new (B,
        deg+1) array.  The grouped Horner program (``_horner``) runs
        draws-last, on (rows, B) coefficient columns that hold only a
        value's live rows, one per degree: a leaf is the one row c, a step
        by ``x_k + t y_k`` appends one row by shift-and-add over whole rows
        of B draws, and an add adds the shorter value into the longer.
        The result is padded to deg+1 rows once, at the end.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        batch = x.ndim == 2
        if x.shape != y.shape or x.shape[-1:] != (self.nvars,) or x.ndim != 1 + batch:
            raise ValueError("offset/direction shapes must match (n,) or (B, n)")
        xs, ys = (x, y) if batch else (x[np.newaxis], y[np.newaxis])
        # complex, as the products below would cast them on every call
        xt, yt = (np.ascontiguousarray(a.T, dtype=complex) for a in (xs, ys))
        n_draws = xt.shape[1]

        def step(v, k, a):
            for _ in range(a):
                w = np.empty((len(v) + 1, n_draws), dtype=complex)
                np.multiply(v, xt[k], out=w[:-1])
                np.multiply(v[-1], yt[k], out=w[-1])
                if len(v) > 1:  # a leaf has no middle rows
                    w[1:-1] += v[:-1] * yt[k]
                v = w
            return v

        def add(u, v):
            # the longer value was stepped, so it is a fresh (rows, B) array
            if len(u) < len(v):
                u, v = v, u
            u[: len(v)] += v
            return u

        out = np.zeros((n_draws, max(self.degree, 0) + 1), dtype=complex)
        val = _horner(self._horner_program(), lambda c: np.array([[c]], dtype=complex), step, add)
        out.T[: len(val)] += val  # filled through the draws-last view
        return out if batch else UniPoly(out[0])

    def substitute_partial(self, assignments: dict[int, complex]) -> "MultiPoly":
        """Fix some variables to complex values; returns a polynomial in the rest.

        ``assignments`` maps variable indices to values.  The remaining
        variables keep their names and relative order.
        """
        for k in assignments:
            if not 0 <= k < self.nvars:
                raise ValueError(f"variable index {k} out of range")
        keep = [k for k in range(self.nvars) if k not in assignments]
        names = tuple(self.var_names[k] for k in keep)
        out: dict[tuple[int, ...], complex] = {}
        for e, c in self.terms.items():
            val = complex(c)
            for k, v in assignments.items():
                if e[k]:
                    val *= complex(v) ** e[k]
            key = tuple(e[k] for k in keep)
            out[key] = out.get(key, 0j) + val
        return MultiPoly(names, out)

    def as_univariate_in(self, k: int, base) -> np.ndarray:
        """Ascending coefficient rows of the fibers ``t -> f(v with z_k = t)``.

        ``base`` holds the points v, shape (B, n), column k ignored; the
        result is a new (B, max(degree_in(k), 0)+1) array.  The grouped
        Horner program (``_horner``) runs on lists of rows, one per power of
        z_k: a leaf is [c], a step in z_k prepends int zeros, one in z_j
        multiplies each nonzero row by ``base[:, j]**a`` (formed once per
        call), and an add sums rows pairwise, keeping the longer tail.
        """
        if not 0 <= k < self.nvars:
            raise ValueError(f"variable index {k} out of range")
        base = np.asarray(base, dtype=complex)
        if base.ndim != 2 or base.shape[1] != self.nvars:
            raise ValueError(f"base shape {base.shape} does not fit {self.nvars} variables")
        powers = {}

        def step(v, j, a):
            if j == k:
                return [0] * a + v
            if (j, a) not in powers:
                powers[j, a] = base[:, j] ** a
            return [r if isinstance(r, int) else r * powers[j, a] for r in v]

        def add(u, v):
            if len(u) < len(v):
                u, v = v, u
            return [p + q for p, q in zip(u, v)] + u[len(v) :]

        val = _horner(self._horner_program(), lambda c: [c], step, add)
        out = np.empty((base.shape[0], len(val)), dtype=complex)
        for col, r in zip(out.T, val):
            col[:] = r
        return out

    def real_imag_parts(self) -> tuple["MultiPoly", "MultiPoly"]:
        """Split into real polynomials ``(g, f)`` with ``self = g + i f``."""
        g = {e: complex(c.real) for e, c in self.terms.items()}
        f = {e: complex(c.imag) for e, c in self.terms.items()}
        return MultiPoly(self.var_names, g), MultiPoly(self.var_names, f)

    def directional_derivative(self, v) -> "MultiPoly":
        """Derivative along the real direction ``v``: sum_k v_k d/dz_k."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.nvars,):
            raise ValueError("direction length must match the variable count")
        out: dict[tuple[int, ...], complex] = {}
        for e, c in self.terms.items():
            for k, a in enumerate(e):
                if a == 0 or v[k] == 0.0:
                    continue
                key = tuple(x - 1 if j == k else x for j, x in enumerate(e))
                out[key] = out.get(key, 0j) + c * a * v[k]
        return MultiPoly(self.var_names, out)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        entries = [
            {"exp": list(e), "re": self.terms[e].real, "im": self.terms[e].imag}
            for e in sorted(self.terms, key=lambda t: (sum(t), t))
        ]
        return json.dumps({"vars": list(self.var_names), "terms": entries})

    @staticmethod
    def from_json(text: str) -> "MultiPoly":
        data = json.loads(text)
        terms = {
            tuple(entry["exp"]): complex(entry.get("re", 0.0), entry.get("im", 0.0))
            for entry in data["terms"]
        }
        return MultiPoly(tuple(data["vars"]), terms)


# Instructions of a Horner program: push leaf(c); multiply the top value by
# z_k**a; add the top value to the one below it.
_LEAF, _STEP, _ADD = range(3)


def _horner_plan(items, n: int) -> tuple:
    """Compile the grouped Horner sum of (exponent, coefficient) ``items`` over z_0..z_n-1.

    Groups by the exponent of z_k, highest first, sums each group over the
    later variables, and combines the groups as ``step(v, k, gap) + next``,
    stepping the last group by its own exponent.  Returns the postfix
    program of (op, k or coefficient sum, a) that ``_horner`` runs: the
    operations of that recursion, in its order.  A level where every
    exponent is 0 has one group and no step, so it gives no instruction
    and is skipped when compiling too.
    """
    program: list = []
    _emit(items, 0, n, program)
    return tuple(program)


def _emit(items, k: int, n: int, program: list) -> None:
    while k < n and not any(e[k] for e, _ in items):
        k += 1
    if k == n:
        program.append((_LEAF, sum(c for _, c in items), 0))
        return
    groups: dict[int, list] = {}
    for e, c in items:
        groups.setdefault(e[k], []).append((e, c))
    exps = sorted(groups, reverse=True)
    _emit(groups[exps[0]], k + 1, n, program)
    for hi, lo in zip(exps, exps[1:]):
        program.append((_STEP, k, hi - lo))
        _emit(groups[lo], k + 1, n, program)
        program.append((_ADD, 0, 0))
    if exps[-1]:
        program.append((_STEP, k, exps[-1]))


def _horner(program, leaf, step, add):
    """The grouped Horner sum of a polynomial, from its compiled ``program``.

    Runs the postfix program of ``_horner_plan`` on a stack: ``leaf`` maps
    a coefficient sum (0 for the zero polynomial) to a value, ``step(v, k,
    a)`` multiplies a value by ``z_k**a``, and ``add(u, v)`` adds the top
    value v to the value u below it.  Each instruction is one operation on
    whole values (scalars, or the rows of a batch); no variable level is
    walked.
    """
    stack = []
    for op, arg, a in program:
        if op == _LEAF:
            stack.append(leaf(arg))
        elif op == _STEP:
            stack[-1] = step(stack[-1], arg, a)
        else:
            v = stack.pop()
            stack[-1] = add(stack[-1], v)
    return stack[0]


# ---------------------------------------------------------------------------
# Module-level polynomial operators
# ---------------------------------------------------------------------------


def wronskian_v(f: MultiPoly, g: MultiPoly, v) -> MultiPoly:
    """Directional Wronskian ``(d_v f) g - f (d_v g)`` for real f, g."""
    if not f.is_real() or not g.is_real():
        raise ValueError("directional Wronskian expects real polynomials")
    return f.directional_derivative(v) * g - f * g.directional_derivative(v)


def diag_substitution(f: MultiPoly, index: "MatrixVarIndex") -> MultiPoly:
    """Send variable ``z_k`` to the diagonal matrix entry ``z_kk``.

    Lifts an n-variable polynomial to the ``n(n+1)/2`` upper-triangle
    variables of ``index``; off-diagonal variables simply never occur.
    """
    if f.nvars != index.n:
        raise ValueError(f"expected {index.n} variables, got {f.nvars}")
    m = index.dim
    out: dict[tuple[int, ...], complex] = {}
    for e, c in f.terms.items():
        lifted = [0] * m
        for k, a in enumerate(e):
            lifted[index.flat(k, k)] = a
        key = tuple(lifted)
        out[key] = out.get(key, 0j) + c
    return MultiPoly(index.names, out)


# ---------------------------------------------------------------------------
# Matrix-variable indexing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixVarIndex:
    """Row-major upper-triangle indexing for a symmetric matrix variable.

    For ``n = 3`` the flat order is z11, z12, z13, z22, z23, z33.  ``flat``
    accepts either triangle of an (i, j) pair; ``names`` are the canonical
    variable names used by parsers and cones alike.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix dimension must be positive")

    @property
    def dim(self) -> int:
        return self.n * (self.n + 1) // 2

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(self.n) for j in range(i, self.n))

    @property
    def names(self) -> tuple[str, ...]:
        sep = "" if self.n <= 9 else "_"
        return tuple(f"z{i + 1}{sep}{j + 1}" for i, j in self.pairs)

    def flat(self, i: int, j: int) -> int:
        """Flat position of entry (i, j); the lower triangle maps to the upper."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"index ({i}, {j}) out of range for n={self.n}")
        if i > j:
            i, j = j, i
        return i * self.n - i * (i - 1) // 2 + (j - i)

    def mat_from_flat(self, vec) -> np.ndarray:
        """Symmetric matrix whose upper triangle is ``vec`` (unscaled)."""
        v = np.asarray(vec)
        if not np.issubdtype(v.dtype, np.complexfloating):
            v = v.astype(float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected a flat vector of length {self.dim}")
        m = np.zeros((self.n, self.n), dtype=v.dtype)
        for pos, (i, j) in enumerate(self.pairs):
            m[i, j] = v[pos]
            m[j, i] = v[pos]
        return m

    def flat_from_mat(self, m) -> np.ndarray:
        a = np.asarray(m, dtype=float)
        if a.shape != (self.n, self.n):
            raise ValueError(f"expected an {self.n}x{self.n} matrix")
        return np.array([a[i, j] for i, j in self.pairs])


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?i?|i(?![A-Za-z0-9_]))"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            bad = pos
            while bad < len(text) and text[bad].isspace():
                bad += 1
            if bad == len(text):
                break
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.lastgroup == "number":
            lexeme = m.group(0).strip()
            if lexeme == "i":
                tokens.append(("number", 1j, m.start()))
            elif lexeme.endswith("i"):
                tokens.append(("number", 1j * float(lexeme[:-1]), m.start()))
            else:
                tokens.append(("number", complex(float(lexeme)), m.start()))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, var_names):
        self.tokens = tokens
        self.k = 0
        self.var_names = var_names
        self.var_index = {v: i for i, v in enumerate(var_names)}

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse_expr(self) -> MultiPoly:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def parse_term(self) -> MultiPoly:
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = node * self.parse_factor()
            else:
                return node

    def parse_factor(self) -> MultiPoly:
        sign = 1.0
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                if val == "-":
                    sign = -sign
            else:
                break
        node = self.parse_atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind != "number" or val.imag != 0 or val.real != int(val.real) or val.real < 0:
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            node = node ** int(val.real)
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                raise ParseError("chained ^ needs parentheses", pos)
        return node.scale(sign) if sign < 0 else node

    def parse_atom(self) -> MultiPoly:
        kind, val, pos = self.advance()
        if kind == "number":
            return MultiPoly.constant(self.var_names, val)
        if kind == "ident":
            if val not in self.var_index:
                raise ParseError(f"unknown variable {val!r}", pos)
            return MultiPoly.variable(self.var_names, self.var_index[val])
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, variable or parenthesized expression", pos)


def parse(text: str, var_names=None) -> MultiPoly:
    """Parse an expression like ``(z1+z3)^2 - z2^2`` into a MultiPoly.

    Grammar: ``+ - * ^`` with parentheses; numeric literals are decimal
    with an optional ``i`` suffix (``3``, ``2.5i``, bare ``i``);
    multiplication is always explicit (write ``2*z1``, not ``2z1``).
    When ``var_names`` is None the variables are collected from the
    expression and ordered naturally (z2 before z10); passing explicit
    names pins both the universe and the order, and unknown identifiers
    become errors.  Malformed input raises :class:`ParseError` with the
    character offset.
    """
    tokens = _tokenize(text)
    if var_names is None:
        seen = {val for kind, val, _ in tokens if kind == "ident"}
        var_names = tuple(sorted(seen, key=_natural_key))
    parser = _Parser(tokens, tuple(var_names))
    result = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return result
