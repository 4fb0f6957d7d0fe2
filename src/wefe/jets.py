"""Closed-form scalar expressions and their truncated Taylor jets.

An :class:`Expr` is a small immutable tree over chart coordinates built
from {constants, coordinates, add, mul, div, neg, pow, exp, log, sin,
cos, sqrt}.  :func:`eval_jets` is the one evaluator: it produces
truncated Taylor expansions (jets) holding every mixed partial up to a
chosen total order of at most 3, which is all the curvature machinery
ever needs.  Each :class:`JetContext` fixes one truncation order, so a
stage that reads only first derivatives multiplies order-1 jets (9 index
pairs for n = 4) instead of order-3 ones (165 pairs), and plain values
are the order-0 jets.

The parses of one spec share an intern table, so a conformal or warping
factor repeated across components is one node, and :func:`eval_jets`
evaluates a whole component array with each distinct node computed once
(the shared-node tape of Griewank & Walther, *Evaluating Derivatives*,
ch. 6), each jet freed after its last reader.

Jets are stored densely: one coefficient per multi-index of total
degree <= order, Taylor-normalized (the coefficient of ``alpha`` is
``d^alpha f / alpha!``) and ordered by ascending degree, so a lower-order
jet is a prefix of a higher-order one.  The batched engine works on numpy
arrays whose last axis runs over the multi-indices, so evaluating a
component at 100 sample points costs about the same as at one.

Products have two kernels.  :meth:`JetContext.mul` multiplies jets
elementwise, summing each coefficient over its index pairs in one fixed
order without BLAS, so a point's product depends neither on the other
points of the call nor on the CPU.  :func:`eval_jets` forms each product
on :meth:`JetContext.restrict` of the node's :attr:`Expr.support`, whose
pair tables keep only the multi-indices in the node's coordinates (at
n = 4, order 3: 10 pairs for one coordinate, 35 for two, 84 for three,
against 165), with the same products bit for bit.
:meth:`JetContext.contract` multiplies and sums over one shared tensor
index in a single step, the jet-matrix product of Griewank & Walther,
ch. 13, so the unsummed product is never stored.  It takes orders 0
and 1 only, the orders the curvature stages use, where a jet product is
a0 b in every coefficient plus a_d b0 in the degree-1 ones: two stacked
matmuls.

Derivatives are gathers from tables built once per context:
:meth:`JetContext.grad` gives all n first partials, one order lower, and
:meth:`JetContext.hess` the second partials over the pairs p <= q, two
orders lower.  The curvature stage packs g_ij to i <= j as well, so the
order-k jets of d_p d_q g_ij are 100 components at n = 4, not 256.
"""

from __future__ import annotations

import copy
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
    """Immutable closed-form expression tree node; ``support`` is the bit
    mask of the coordinates it depends on."""

    __slots__ = ("kind", "children", "value", "support")

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
        self.support = 1 << value if kind == "coord" else 0
        for c in self.children:
            self.support |= c.support

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


def parse_sexpr(text, coord_names, params=None, intern=None):
    """Parse the prefix s-expression form, e.g.
    ``(mul (exp (neg t)) (cos (mul 2 t)))``.

    ``coord_names`` maps atoms to coordinate indices; ``params`` maps
    named constants to values.  ``add``/``mul`` accept two or more
    arguments (folded left), and ``(sub a b)`` is sugar for
    ``(add a (neg b))``.

    ``intern`` is a dict shared by the parses of one spec (without it, a
    fresh one serves this parse).  Every node is looked up there by its
    kind, its value (``repr`` tells 1, 1.0 and -0.0 apart) and its
    already interned children, so structurally equal subtrees come out
    as one :class:`Expr`, which :func:`eval_jets` then evaluates once.
    """
    toks = _tokenize(text)
    pos = 0
    table = {} if intern is None else intern

    def node(e):
        # an Expr compares by identity, so the children tuple matches
        # only the same interned nodes
        return table.setdefault((e.kind, repr(e.value), e.children), e)

    def parse():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok != "(":
            return node(_parse_atom(tok, coord_names, params))
        head = toks[pos]
        pos += 1
        args = []
        while toks[pos] != ")":
            if head == "pow" and len(args) == 1 and toks[pos] != "(":
                # trailing rational exponent
                tok = toks[pos]
                args.append(Fraction(tok) if "/" in tok else int(tok))
                pos += 1
            else:
                args.append(parse())
        pos += 1  # consume ')'
        if head == "pow":
            if len(args) != 2 or isinstance(args[1], Expr):
                raise DomainError("pow needs (pow <expr> <rational>)")
            return node(Expr("pow", (args[0],), Fraction(args[1])))
        if head == "sub":
            if len(args) != 2:
                raise DomainError("sub needs exactly two arguments")
            return node(Expr("add", (args[0], node(-args[1]))))
        if head in ("add", "mul"):
            if len(args) < 2:
                raise DomainError(f"{head} needs at least two arguments")
            out = args[0]
            for a in args[1:]:
                out = node(Expr(head, (out, a)))
            return out
        if head == "div":
            if len(args) != 2:
                raise DomainError("div needs exactly two arguments")
            return node(Expr("div", tuple(args)))
        if head in _UNARY_KINDS:
            if len(args) != 1:
                raise DomainError(f"{head} needs exactly one argument")
            return node(Expr(head, tuple(args)))
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

        # pairs (k, i, j, rank among k's pairs, mask of alpha_k's coords),
        # alpha_i + alpha_j = alpha_k, sorted stably by k's count, then k
        pairs, count = [], [0] * self.N
        for i, a in enumerate(mis):
            for j, b in enumerate(mis):
                s = tuple(x + y for x, y in zip(a, b))
                if sum(s) <= order:
                    k = self.index_of[s]
                    pairs.append((k, i, j, count[k],
                                  sum(1 << d for d, x in enumerate(s) if x)))
                    count[k] += 1
        pairs.sort(key=lambda p: (count[p[0]], p[0]))
        self._pairs = np.array(pairs).T
        self._restricted = {(1 << n) - 1: self}
        self._tables((1 << n) - 1)

        af = self.alpha_factorial = np.array(
            [np.prod([math.factorial(x) for x in a]) for a in mis], dtype=float)

        # derivative gathers: the jet of d_s a, s a slot (grad) or a pair
        # p <= q (hess), is a[..., src] * (alpha + e_s)!/alpha!, alpha of
        # degree <= order - |s|.  Pairs run row by row, as pair_index[p, q]
        # says; pair_weight (2 off the diagonal) sums a symmetric product
        def table(slots):
            low = [a for a in mis if sum(a) + len(slots[0]) <= order]
            src = np.array([[self.index_of[tuple(
                x + s.count(d) for d, x in enumerate(a))] for a in low]
                for s in slots], dtype=int)
            return src, af[src] / af[:len(low)]

        iu, ju = self.pairs = np.triu_indices(n)
        self.pair_weight = np.where(iu == ju, 1.0, 2.0)
        self.pair_index = np.zeros((n, n), dtype=int)
        self.pair_index[iu, ju] = self.pair_index[ju, iu] = np.arange(len(iu))
        self._grad = table([(d,) for d in range(n)])
        self._hess = table(list(zip(iu, ju)))

    def _tables(self, support):
        """Product tables over the pairs in the coordinates of ``support``,
        rank by rank: the r-th pairs of the c coefficients with more than
        r, the last c by pair count, are one block of c rows."""
        tk, ti, tj, rank, _ = self._pairs[:, (self._pairs[4] & ~support) == 0]
        rows = np.argsort(rank, kind="stable")
        self._ti, self._tj, self._reached = ti[rows], tj[rows], tk[rank == 0]
        R, ends = len(self._reached), np.cumsum(np.bincount(rank)).tolist()
        self._blocks = [(slice(R - e + s, R), slice(s, e))
                        for s, e in zip(ends, ends[1:])]

    def restrict(self, support):
        """The context, cached per bit mask ``support``, whose products run
        over the multi-indices in those coordinates only: the full ones
        bit for bit on jets that vanish outside them."""
        if support not in self._restricted:
            self._restricted[support] = copy.copy(self)
            self._restricted[support]._tables(support)
        return self._restricted[support]

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
            out[..., self._grad[0][i, 0]] = 1.0    # the slot of e_i
        return out

    # -- ring operations ------------------------------------------------

    def mul(self, a, b):
        """Jet product: each coefficient adds its pairs one at a time, in
        the order of the double loop over the multi-indices.  The rows are
        pair-major (lead axes reversed), so each rank's block is one slice."""
        if a.ndim != b.ndim:            # the reversed lead axes must align
            a, b = np.broadcast_arrays(a, b)
        prod = a.T.take(self._ti, axis=0) * b.T.take(self._tj, axis=0)
        for tail, rows in self._blocks:
            prod[tail] += prod[rows]
        out = np.zeros(prod.shape[:0:-1] + (self.N,))
        out[..., self._reached] = prod[:len(self._reached)].T
        return out

    def contract(self, a, b):
        """Jet product summed over one shared index: ``a`` has shape
        (*A, s, m, N), ``b`` has shape (s, *B, m, N), and the result, of
        shape (*A, *B, m, N), is sum_s a[..., s, :, :] * b[s, ...].

        Orders 0 and 1 only, the orders the curvature stages use: the sum
        over s is two stacked matmuls over the (point, coefficient)
        batch, and the (*A, s, *B, m, N) product is never formed."""
        if self.order > 1:
            raise ValueError(f"contract takes jet orders 0 and 1, "
                             f"not {self.order}")
        lead_a, lead_b = a.shape[:-3], b.shape[1:-2]
        s, m, N = b.shape[0], a.shape[-2], self.N
        na, nb = math.prod(lead_a), math.prod(lead_b)
        # C-contiguous copies: matmul then takes the same BLAS kernel for
        # every operand layout and point count, so a point's jets do not
        # depend on how many points share its Frame
        at = np.ascontiguousarray(
            a.reshape(na, s, m, N).transpose(2, 3, 0, 1))  # (m, N, na, s)
        bt = np.ascontiguousarray(
            b.reshape(s, nb, m, N).transpose(2, 3, 0, 1))  # (m, N, s, nb)
        # a0 b in every coefficient, plus a_d b0 in the degree-1 ones
        out = at[:, :1] @ bt                                # (m, N, na, nb)
        if self.order:
            out[:, 1:] += at[:, 1:] @ bt[:, :1]
        return out.reshape(m, N, na, nb).transpose(2, 3, 0, 1).reshape(
            lead_a + lead_b + (m, N))

    def grad(self, a):
        """Jets of all n first partials of ``a`` (shape (..., N)), with the
        derivative axis first: shape (n, ..., N'), where N' counts the
        multi-indices of degree below ``order``, the only coefficients a
        derivative of an order-``order`` jet knows."""
        return _gather(a, *self._grad)

    def hess(self, a):
        """Jets of the second partials d_p d_q a, one per pair p <= q as
        :attr:`pair_index` numbers them, pair axis first: shape
        (n(n+1)/2, ..., N''), N'' counting the degrees below ``order - 1``."""
        return _gather(a, *self._hess)

    def compose(self, a, derivs):
        """Univariate composition f(a) from the stack ``derivs`` of
        f(a0), f'(a0), f''(a0), f'''(a0) evaluated at the constant term."""
        d0, d1, d2, d3 = derivs
        delta = a.copy()
        delta[..., 0] = 0.0
        out = d1[..., None] * delta
        # delta has no constant term, so delta^k truncates to 0 below order k
        if self.order >= 2:
            d2sq = self.mul(delta, delta)
            out += (d2 / 2.0)[..., None] * d2sq
        if self.order >= 3:
            out += (d3 / 6.0)[..., None] * self.mul(d2sq, delta)
        out[..., 0] += d0
        return out

    def recip(self, a):
        a0 = a[..., 0]
        if np.any(np.abs(a0) <= _EPS_DIV) or not np.all(np.isfinite(a0)):
            raise DomainError("division by zero")
        inv = 1.0 / a0
        return self.compose(
            a, (inv, -inv**2, 2.0 * inv**3, -6.0 * inv**4))

    def exp(self, a):
        e = np.exp(a[..., 0])
        return self.compose(a, (e, e, e, e))

    def log(self, a):
        a0 = a[..., 0]
        if np.any(a0 <= 0.0):
            raise DomainError("log of non-positive value")
        return self.compose(
            a, (np.log(a0), 1.0 / a0, -1.0 / a0**2, 2.0 / a0**3))

    def sin(self, a):
        s, c = np.sin(a[..., 0]), np.cos(a[..., 0])
        return self.compose(a, (s, c, -s, -c))

    def cos(self, a):
        s, c = np.sin(a[..., 0]), np.cos(a[..., 0])
        return self.compose(a, (c, -s, -c, s))

    def power(self, a, q):
        q = Fraction(q)
        a0 = a[..., 0]
        if q.denominator == 1:
            k = int(q)
            if k == 0:
                return self.constant(1.0, a.shape[:-1])
            if k > 0:
                out = a
                for _ in range(k - 1):
                    out = self.mul(out, a)
                return out
            return self.recip(self.power(a, -k))
        # at order 0 a positive power of 0 is 0: only its derivatives
        # are singular there
        if np.any(a0 < 0.0) or (np.any(a0 == 0.0) and (self.order or q < 0)):
            raise DomainError("fractional power of non-positive value")
        qf = float(q)
        if self.order == 0:
            return (a0**qf)[..., None]
        d0 = a0**qf
        d1 = qf * a0 ** (qf - 1)
        d2 = qf * (qf - 1) * a0 ** (qf - 2)
        d3 = qf * (qf - 1) * (qf - 2) * a0 ** (qf - 3)
        return self.compose(a, (d0, d1, d2, d3))

    def sqrt(self, a):
        return self.power(a, Fraction(1, 2))


def _gather(a, src, mult):
    """a[..., src] * mult, the leading axis of ``src`` first, the product
    taken in place on the gathered copy."""
    out = a[..., src]
    out *= mult
    d = a.ndim - 1     # the leading axis of src in the gathered product
    return out.transpose((d, *range(d), d + 1))


def _multi_indices(n, deg):
    for c in itertools.combinations_with_replacement(range(n), deg):
        a = [0] * n
        for i in c:
            a[i] += 1
        yield tuple(a)


# -- evaluation --------------------------------------------------------

def eval_jets(e, pts, ctx):
    """Batched jet evaluation of one :class:`Expr` or a nested sequence of
    them (such as ``spec.g``): ``pts`` has shape (m, n) and the result has
    shape (*shape, m, N).  Each distinct node is evaluated once per call,
    so a subtree shared by several components costs one evaluation.

    The readers of each node are counted first, and the memo drops a
    node's jet when its last reader has read it, so a call holds the jets
    still to be read, not every jet it has computed.

    A :class:`DomainError` carries the path of the failing node, the
    component indices first; the path is assembled only while the error
    propagates."""
    readers = {id(e): 1}
    _count_readers(e, readers)
    return _ev(e, np.asarray(pts, dtype=float), ctx, {}, readers)


def _count_readers(e, readers):
    """Add to ``readers[id(c)]`` one read for every child slot of every
    distinct node below ``e`` that holds the node c."""
    for c in (e.children if isinstance(e, Expr) else e):
        seen = readers.get(id(c), 0)
        readers[id(c)] = seen + 1
        if not seen:
            _count_readers(c, readers)


def _ev(e, pts, ctx, memo, readers):
    """Jet of ``e``, memoized by node identity in ``memo`` while
    ``readers`` counts reads of it still to come.  A module-level
    function rather than a closure over ``memo``: a closure that calls
    itself is a reference cycle, which would keep every node jet of the
    call alive until the cyclic garbage collector runs."""
    key = id(e)
    out = memo.pop(key, None)
    if out is None:
        node = isinstance(e, Expr)
        args = []
        for i, c in enumerate(e.children if node else e):
            try:
                args.append(_ev(c, pts, ctx, memo, readers))
            except DomainError as err:
                err.path = (i,) + err.path
                raise
        out = (_eval_node(e, args, pts, ctx) if node
               else np.stack(args))
    readers[key] -= 1
    if readers[key]:
        memo[key] = out
    return out


def _eval_node(e, args, pts, ctx):
    """Jet of node ``e`` from the jets ``args`` of its children."""
    k = e.kind
    if k == "const":
        return ctx.constant(float(e.value), pts.shape[:-1])
    if k == "coord":
        if e.value >= ctx.n:
            raise DomainError(
                f"coordinate index {e.value} outside chart dimension {ctx.n}")
        return ctx.coordinate(e.value, pts[..., e.value])
    if k == "add":
        return args[0] + args[1]
    if k == "neg":
        return -args[0]
    # the other kinds form jet products, over the node's coordinates only
    ctx = ctx.restrict(e.support)
    if k == "mul":
        # a constant factor scales the other jet; a jet product would
        # only add zeros to each scaled coefficient
        for c, other in zip(e.children, args[::-1]):
            if c.kind == "const":
                return float(c.value) * other
        return ctx.mul(args[0], args[1])
    if k == "div":
        return ctx.mul(args[0], ctx.recip(args[1]))
    if k == "pow":
        return ctx.power(args[0], e.value)
    return getattr(ctx, k)(args[0])  # the JetContext method of that name
