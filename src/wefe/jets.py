"""Closed-form scalar expressions and their truncated Taylor jets.

An :class:`Expr` is a small immutable tree over chart coordinates built
from {constants, coordinates, add, mul, div, neg, pow, exp, log, sin,
cos, sqrt}.  Evaluation produces either plain values or truncated
Taylor expansions (jets) holding every mixed partial up to a chosen
total order of at most 3, which is all the curvature machinery ever
needs.  Each :class:`JetContext` fixes one truncation order, so a stage
that reads only first derivatives multiplies order-1 jets (9 index
pairs for n = 4) instead of order-3 ones (165 pairs).

Jets are stored densely: one coefficient per multi-index of total
degree <= order, Taylor-normalized (the coefficient of ``alpha`` is
``d^alpha f / alpha!``) and ordered by ascending degree, so a lower-order
jet is a prefix of a higher-order one.  The batched engine works on numpy
arrays whose last axis runs over the multi-indices, so evaluating a
component at 100 sample points costs about the same as at one.

Products have two kernels.  :meth:`JetContext.mul` multiplies jets
elementwise (expression evaluation, composition).
:meth:`JetContext.contract` multiplies and sums over one shared tensor
index in a single step: the jet-matrix product of Griewank & Walther,
*Evaluating Derivatives*, ch. 13.  It gathers the index pairs of both
operands, sums over the shared index with one stacked matmul, and
scatters the pairs into the result, so the unsummed product over every
index is never stored.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_ORDER = 3

_UNARY_KINDS = frozenset({"neg", "exp", "log", "sin", "cos", "sqrt"})
_BINARY_KINDS = frozenset({"add", "mul", "div"})

_EPS_DIV = 1e-300  # hard zero guard; tolerance checks live upstream


class Expr:
    """Immutable closed-form expression tree node."""

    __slots__ = ("kind", "children", "value")

    def __init__(self, kind, children=(), value=None):
        self.kind = kind
        self.children = tuple(children)
        self.value = value
        if kind == "const":
            assert isinstance(value, (int, float, Fraction))
        elif kind == "coord":
            assert isinstance(value, int) and value >= 0
        elif kind == "pow":
            assert len(self.children) == 1
            assert isinstance(value, (int, Fraction))
        elif kind in _UNARY_KINDS:
            assert len(self.children) == 1
        elif kind in _BINARY_KINDS:
            assert len(self.children) == 2
        else:
            raise ValueError(f"unknown node kind {kind!r}")

    # -- convenience constructors -------------------------------------

    def __add__(self, other):
        return Expr("add", (self, _as_expr(other)))

    def __radd__(self, other):
        return Expr("add", (_as_expr(other), self))

    def __sub__(self, other):
        return Expr("add", (self, Expr("neg", (_as_expr(other),))))

    def __rsub__(self, other):
        return Expr("add", (_as_expr(other), Expr("neg", (self,))))

    def __mul__(self, other):
        return Expr("mul", (self, _as_expr(other)))

    def __rmul__(self, other):
        return Expr("mul", (_as_expr(other), self))

    def __truediv__(self, other):
        return Expr("div", (self, _as_expr(other)))

    def __rtruediv__(self, other):
        return Expr("div", (_as_expr(other), self))

    def __neg__(self):
        return Expr("neg", (self,))

    def __pow__(self, q):
        if not isinstance(q, (int, Fraction)):
            raise TypeError("pow exponent must be int or Fraction")
        return Expr("pow", (self,), Fraction(q))

    def __repr__(self):
        return f"Expr<{to_sexpr(self)}>"


def const(v):
    return Expr("const", value=v)


def coord(i):
    return Expr("coord", value=i)


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, Fraction)):
        return const(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def exp(e):
    return Expr("exp", (_as_expr(e),))


def log(e):
    return Expr("log", (_as_expr(e),))


def sin(e):
    return Expr("sin", (_as_expr(e),))


def cos(e):
    return Expr("cos", (_as_expr(e),))


def sqrt(e):
    return Expr("sqrt", (_as_expr(e),))


# -- s-expression serialization ---------------------------------------

def default_coord_names(n):
    return [f"x{i}" for i in range(n)]


def to_sexpr(e, coord_names=None):
    """Render an Expr in the prefix form used by manifest files."""
    if e.kind == "const":
        v = e.value
        if isinstance(v, Fraction):
            return str(v) if v.denominator != 1 else str(v.numerator)
        if isinstance(v, int):
            return str(v)
        return repr(float(v))
    if e.kind == "coord":
        if coord_names is not None:
            return coord_names[e.value]
        return f"x{e.value}"
    parts = [to_sexpr(c, coord_names) for c in e.children]
    if e.kind == "pow":
        parts.append(str(e.value))
    return "(" + " ".join([e.kind] + parts) + ")"


def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_atom(tok, coord_names, params):
    if params and tok in params:
        return const(float(params[tok]))
    if tok in coord_names:
        return coord(coord_names.index(tok))
    try:
        if "/" in tok:
            return const(Fraction(tok))
        if any(c in tok for c in ".eE") and not tok.lstrip("+-").isdigit():
            return const(float(tok))
        return const(int(tok))
    except ValueError:
        raise DomainError(f"unknown atom {tok!r} in expression") from None


def _parse_number(tok):
    if "/" in tok:
        return Fraction(tok)
    return int(tok)


def parse_sexpr(text, coord_names, params=None):
    """Parse the prefix s-expression form, e.g.
    ``(mul (exp (neg t)) (cos (mul 2 t)))``.

    ``coord_names`` maps atoms to coordinate indices; ``params`` maps
    named constants to values.  ``add``/``mul`` accept two or more
    arguments (folded left), and ``(sub a b)`` is sugar for
    ``(add a (neg b))``.
    """
    toks = _tokenize(text)
    pos = 0

    def parse():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok != "(":
            return _parse_atom(tok, coord_names, params)
        head = toks[pos]
        pos += 1
        args = []
        while toks[pos] != ")":
            if head == "pow" and len(args) == 1 and toks[pos] != "(":
                # trailing rational exponent
                args.append(_parse_number(toks[pos]))
                pos += 1
            else:
                args.append(parse())
        pos += 1  # consume ')'
        if head == "pow":
            if len(args) != 2 or isinstance(args[1], Expr):
                raise DomainError("pow needs (pow <expr> <rational>)")
            return Expr("pow", (args[0],), Fraction(args[1]))
        if head == "sub":
            if len(args) != 2:
                raise DomainError("sub needs exactly two arguments")
            return args[0] - args[1]
        if head in ("add", "mul"):
            if len(args) < 2:
                raise DomainError(f"{head} needs at least two arguments")
            out = args[0]
            for a in args[1:]:
                out = Expr(head, (out, a))
            return out
        if head == "div":
            if len(args) != 2:
                raise DomainError("div needs exactly two arguments")
            return Expr("div", tuple(args))
        if head in _UNARY_KINDS:
            if len(args) != 1:
                raise DomainError(f"{head} needs exactly one argument")
            return Expr(head, tuple(args))
        raise DomainError(f"unknown operator {head!r}")

    try:
        out = parse()
    except IndexError:
        raise DomainError("unbalanced parentheses") from None
    if pos != len(toks):
        raise DomainError("trailing tokens after expression")
    return out


# -- jet context -------------------------------------------------------

@lru_cache(maxsize=None)
def jet_context(n, order=MAX_ORDER):
    """The shared :class:`JetContext` for ``n`` variables truncated at
    total degree ``order``."""
    return JetContext(n, order)


class JetContext:
    """Multi-index bookkeeping and vectorized ring operations for jets in
    ``n`` variables truncated at total degree ``order`` (0..3).

    Jet arrays have shape ``(..., N)`` with ``N = C(n+order, order)``;
    the last axis is indexed by :attr:`multi_indices` (degree-ascending,
    then lexicographic).  The order-k multi-indices are therefore a prefix
    of the order-3 ones, and truncating a jet to order k is the slice
    ``a[..., :jet_context(n, k).N]``."""

    def __init__(self, n, order=MAX_ORDER):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order {order} outside 0..{MAX_ORDER}")
        self.n = n
        self.order = order
        mis = []
        for deg in range(order + 1):
            mis.extend(sorted(_multi_indices(n, deg)))
        self.multi_indices = mis
        self.N = len(mis)
        self.index_of = {a: i for i, a in enumerate(mis)}
        self.degrees = np.array([sum(a) for a in mis])

        ti, tj, tk = [], [], []
        for i, a in enumerate(mis):
            for j, b in enumerate(mis):
                s = tuple(x + y for x, y in zip(a, b))
                if sum(s) <= order:
                    ti.append(i)
                    tj.append(j)
                    tk.append(self.index_of[s])
        self._ti = np.array(ti)
        self._tj = np.array(tj)
        self._tk = np.array(tk)
        scatter = np.zeros((len(tk), self.N))
        scatter[np.arange(len(tk)), self._tk] = 1.0
        self._scatter = scatter

        # per-axis derivative maps: out[tgt] = in[src] * mult
        self._deriv = []
        for d in range(n):
            tgt, src, mult = [], [], []
            for i, a in enumerate(mis):
                if sum(a) >= order:
                    continue
                up = list(a)
                up[d] += 1
                tgt.append(i)
                src.append(self.index_of[tuple(up)])
                mult.append(float(up[d]))
            self._deriv.append((np.array(tgt, dtype=int),
                                np.array(src, dtype=int), np.array(mult)))

        self.alpha_factorial = np.array(
            [np.prod([math.factorial(x) for x in a]) for a in mis], dtype=float)

    # -- constructors --------------------------------------------------

    def constant(self, value, lead_shape=()):
        out = np.zeros(lead_shape + (self.N,))
        out[..., 0] = value
        return out

    def coordinate(self, i, values):
        values = np.asarray(values, dtype=float)
        out = np.zeros(values.shape + (self.N,))
        out[..., 0] = values
        if self.order >= 1:
            out[..., self.index_of[_unit(self.n, i)]] = 1.0
        return out

    # -- ring operations ------------------------------------------------

    def mul(self, a, b):
        a, b = np.broadcast_arrays(a, b)
        prod = a[..., self._ti] * b[..., self._tj]
        return prod @ self._scatter

    def contract(self, a, b):
        """Jet product summed over one shared index: ``a`` has shape
        (*A, s, m, N), ``b`` has shape (s, *B, m, N), and the result, of
        shape (*A, *B, m, N), is sum_s a[..., s, :, :] * b[s, ...].

        The index pairs are gathered once per operand, the sum over s is
        one stacked matmul over the (point, pair) batch, and the pairs are
        scattered into N by the matmul :meth:`mul` uses, so the
        (*A, s, *B, m, P) product is never formed."""
        lead_a, lead_b = a.shape[:-3], b.shape[1:-2]
        s, m, N = b.shape[0], a.shape[-2], self.N
        na, nb = math.prod(lead_a), math.prod(lead_b)
        at = np.moveaxis(a.reshape(na, s, m, N), (2, 3), (0, 1))
        bt = np.moveaxis(b.reshape(s, nb, m, N), (2, 3), (0, 1))
        prod = at[:, self._ti] @ bt[:, self._tj]         # (m, P, na, nb)
        out = self._scatter.T @ prod.reshape(m, -1, na * nb)  # (m, N, na*nb)
        return np.moveaxis(out, (0, 1), (-2, -1)).reshape(
            lead_a + lead_b + (m, N))

    def deriv(self, a, axis):
        """Jet of the partial derivative along ``axis``.  Coefficients of
        degree ``order`` in the result are zeroed (unknown), so the result
        is valid only to order ``order - 1``."""
        tgt, src, mult = self._deriv[axis]
        out = np.zeros_like(a)
        out[..., tgt] = a[..., src] * mult
        return out

    def compose(self, a, derivs):
        """Univariate composition f(a) from the stack ``derivs`` of
        f(a0), f'(a0), f''(a0), f'''(a0) evaluated at the constant term."""
        d0, d1, d2, d3 = derivs
        delta = a.copy()
        delta[..., 0] = 0.0
        d2sq = self.mul(delta, delta)
        d3cu = self.mul(d2sq, delta)
        out = (d1[..., None] * delta
               + (d2 / 2.0)[..., None] * d2sq
               + (d3 / 6.0)[..., None] * d3cu)
        out[..., 0] += d0
        return out

    def recip(self, a, path):
        a0 = a[..., 0]
        if np.any(np.abs(a0) <= _EPS_DIV) or not np.all(np.isfinite(a0)):
            raise DomainError("division by zero", path)
        inv = 1.0 / a0
        return self.compose(
            a, (inv, -inv**2, 2.0 * inv**3, -6.0 * inv**4))

    def exp(self, a, path):
        e = np.exp(a[..., 0])
        return self.compose(a, (e, e, e, e))

    def log(self, a, path):
        a0 = a[..., 0]
        if np.any(a0 <= 0.0):
            raise DomainError("log of non-positive value", path)
        return self.compose(
            a, (np.log(a0), 1.0 / a0, -1.0 / a0**2, 2.0 / a0**3))

    def sin(self, a, path):
        s, c = np.sin(a[..., 0]), np.cos(a[..., 0])
        return self.compose(a, (s, c, -s, -c))

    def cos(self, a, path):
        s, c = np.sin(a[..., 0]), np.cos(a[..., 0])
        return self.compose(a, (c, -s, -c, s))

    def power(self, a, q, path):
        q = Fraction(q)
        a0 = a[..., 0]
        if q.denominator == 1:
            k = int(q)
            if k >= 0:
                out = self.constant(1.0, a.shape[:-1])
                for _ in range(k):
                    out = self.mul(out, a)
                return out
            return self.recip(self.power(a, -k, path), path)
        if np.any(a0 <= 0.0):
            raise DomainError("fractional power of non-positive value", path)
        qf = float(q)
        d0 = a0**qf
        d1 = qf * a0 ** (qf - 1)
        d2 = qf * (qf - 1) * a0 ** (qf - 2)
        d3 = qf * (qf - 1) * (qf - 2) * a0 ** (qf - 3)
        return self.compose(a, (d0, d1, d2, d3))

    def sqrt(self, a, path):
        return self.power(a, Fraction(1, 2), path)


def _multi_indices(n, deg):
    for c in itertools.combinations_with_replacement(range(n), deg):
        a = [0] * n
        for i in c:
            a[i] += 1
        yield tuple(a)


def _unit(n, i):
    a = [0] * n
    a[i] = 1
    return tuple(a)


# -- evaluation --------------------------------------------------------

def eval_jets(e, pts, ctx, path=()):
    """Batched jet evaluation: ``pts`` has shape (npts, n); result has
    shape (npts, N)."""
    pts = np.asarray(pts, dtype=float)
    k = e.kind
    if k == "const":
        return ctx.constant(float(e.value), pts.shape[:-1])
    if k == "coord":
        if e.value >= ctx.n:
            raise DomainError(
                f"coordinate index {e.value} outside chart dimension {ctx.n}",
                path)
        return ctx.coordinate(e.value, pts[..., e.value])
    if k == "add":
        return (eval_jets(e.children[0], pts, ctx, path + (0,))
                + eval_jets(e.children[1], pts, ctx, path + (1,)))
    if k == "neg":
        return -eval_jets(e.children[0], pts, ctx, path + (0,))
    if k == "mul":
        return ctx.mul(eval_jets(e.children[0], pts, ctx, path + (0,)),
                       eval_jets(e.children[1], pts, ctx, path + (1,)))
    if k == "div":
        num = eval_jets(e.children[0], pts, ctx, path + (0,))
        den = eval_jets(e.children[1], pts, ctx, path + (1,))
        return ctx.mul(num, ctx.recip(den, path + (1,)))
    a = eval_jets(e.children[0], pts, ctx, path + (0,))
    if k == "exp":
        return ctx.exp(a, path)
    if k == "log":
        return ctx.log(a, path)
    if k == "sin":
        return ctx.sin(a, path)
    if k == "cos":
        return ctx.cos(a, path)
    if k == "sqrt":
        return ctx.sqrt(a, path)
    if k == "pow":
        return ctx.power(a, e.value, path)
    raise ValueError(f"unknown node kind {k!r}")


def eval_values(e, pts, path=()):
    """Plain (order-0) batched evaluation with the same domain checks."""
    pts = np.asarray(pts, dtype=float)
    k = e.kind
    if k == "const":
        return np.full(pts.shape[:-1], float(e.value))
    if k == "coord":
        return pts[..., e.value].astype(float)
    if k == "add":
        return (eval_values(e.children[0], pts, path + (0,))
                + eval_values(e.children[1], pts, path + (1,)))
    if k == "neg":
        return -eval_values(e.children[0], pts, path + (0,))
    if k == "mul":
        return (eval_values(e.children[0], pts, path + (0,))
                * eval_values(e.children[1], pts, path + (1,)))
    if k == "div":
        num = eval_values(e.children[0], pts, path + (0,))
        den = eval_values(e.children[1], pts, path + (1,))
        if np.any(np.abs(den) <= _EPS_DIV):
            raise DomainError("division by zero", path + (1,))
        return num / den
    a = eval_values(e.children[0], pts, path + (0,))
    if k == "exp":
        return np.exp(a)
    if k == "log":
        if np.any(a <= 0.0):
            raise DomainError("log of non-positive value", path)
        return np.log(a)
    if k == "sin":
        return np.sin(a)
    if k == "cos":
        return np.cos(a)
    if k == "sqrt":
        if np.any(a < 0.0):
            raise DomainError("sqrt of negative value", path)
        return np.sqrt(a)
    if k == "pow":
        q = Fraction(e.value)
        if q.denominator == 1 and int(q) >= 0:
            return a ** int(q)
        if q.denominator == 1:
            if np.any(np.abs(a) <= _EPS_DIV):
                raise DomainError("zero to a negative power", path)
            return a ** float(q)
        if np.any(a <= 0.0):
            raise DomainError("fractional power of non-positive value", path)
        return a ** float(q)
    raise ValueError(f"unknown node kind {k!r}")


# -- finite-difference oracle ------------------------------------------

# Step sizes balance stencil truncation (O(h^2)) against round-off
# amplification (eps / h^order), per total derivative order.
_FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 1e-3}

_STENCIL_1D = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def fd_oracle(e, p, order, direction, step=None):
    """Central finite-difference estimate of a mixed partial.

    ``direction`` is a multi-index (length = chart dimension) whose
    entries sum to ``order``; returns the plain derivative value
    (not the Taylor coefficient)."""
    p = np.asarray(p, dtype=float).reshape(-1)
    direction = tuple(int(d) for d in direction)
    if len(direction) != p.shape[0]:
        raise DomainError("direction multi-index length must match point")
    if sum(direction) != order or not 0 <= order <= MAX_ORDER:
        raise DomainError("direction degree must equal order, 0..3")
    if order == 0:
        return float(eval_values(e, p[None, :])[0])

    axes = [i for i, d in enumerate(direction) if d > 0]
    base = _FD_STEPS[order] if step is None else float(step)
    steps = {i: max(abs(p[i]), 1.0) * base for i in axes}

    stencils = [_STENCIL_1D[direction[i]] for i in axes]
    pts = []
    weights = []
    for combo in itertools.product(*stencils):
        q = p.copy()
        w = 1.0
        for ax, (off, coef) in zip(axes, combo):
            q[ax] += off * steps[ax]
            w *= coef / steps[ax] ** direction[ax]
        pts.append(q)
        weights.append(w)
    vals = eval_values(e, np.array(pts))
    return float(np.dot(weights, vals))
