"""Shared estimator plumbing: errors, parameter handling, input validation,
and the rendering of each structure's query template in its two forms,
batch and scalar, bound to its arrays (``_Cached``)."""

from __future__ import annotations

import ast
import inspect
import textwrap
from functools import cached_property
from typing import Any

import numpy as np


class GtoolError(Exception):
    """Base class for all library errors."""


class ParseError(GtoolError, ValueError):
    """Malformed Cayley-table text or serialized artifact."""


class ValidationError(GtoolError, ValueError):
    """A group axiom failed.  Carries the axiom name and a witness tuple."""

    def __init__(self, message: str, *, axiom: str | None = None,
                 witness: tuple | None = None):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class PreconditionError(GtoolError, ValueError):
    """The group does not satisfy a representation's structural requirements."""


class CapacityError(PreconditionError):
    """A build would exceed the configured memory ceiling."""


class NotFittedError(GtoolError, RuntimeError):
    """fit() has not been called on this estimator."""


def check_cayley_table(X) -> np.ndarray:
    """Copy ``X`` to a new (n, n) array of ``id_dtype(n)`` with entries in
    [1, n].

    Only shape and value range are checked here; the group axioms are the
    responsibility of :class:`gtool.groups.GroupTable`.
    """
    try:
        arr = np.asarray(X)
    except ValueError:                              # ragged rows
        raise ValidationError("Cayley table rows differ in length") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"Cayley table must be square, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"Cayley table must be integer, got {arr.dtype}")
    n = arr.shape[0]
    if n == 0:
        raise ValidationError("Cayley table must have order >= 1")
    # range-check in the input dtype: casting first would wrap wide entries
    if arr.min() < 1 or arr.max() > n:
        bad = np.argwhere((arr < 1) | (arr > n))[0]
        raise ValidationError(
            f"entry at row {bad[0] + 1}, column {bad[1] + 1} is outside [1, {n}]",
            axiom="range", witness=(int(bad[0]) + 1, int(bad[1]) + 1))
    return arr.astype(id_dtype(n))


def id_dtype(n: int) -> np.dtype:
    """The unsigned word that holds values in [0, n]: uint8, uint16 or
    uint32, the numpy word of an artifact's ceil(bits(n)/8)-byte ids.

    Arrays whose values are ids, and which queries only index with or
    return, are held at this width; arrays that queries add, multiply or
    shift stay int64, because unsigned numpy arithmetic wraps silently.
    """
    bits = int(n).bit_length()
    return np.dtype(np.uint8 if bits <= 8 else
                    np.uint16 if bits <= 16 else np.uint32)


def check_integer(x, what: str = "element id") -> int:
    """``x`` as a Python int: numpy integer scalars are accepted; bools,
    floats and anything else non-integral are rejected, never truncated."""
    if type(x) is not int:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise ValidationError(f"{what} must be an integer, got {x!r}")
        x = int(x)
    return x


def check_integers(xs, what: str) -> tuple[int, ...]:
    """The iterable ``xs`` as a tuple of Python ints, each checked by the
    rule of :func:`check_integer`."""
    try:
        xs = tuple(xs)
    except TypeError:           # None, an int, a 0-d array
        raise ValidationError(f"{what}s must be iterable, got {xs!r}") from None
    return tuple(check_integer(x, what) for x in xs)


def check_element_id(x, n: int) -> int:
    """Validate a 1-based element id against group order ``n``, by the
    type rule of :func:`check_integer`."""
    x = check_integer(x)
    if not 1 <= x <= n:
        raise ValidationError(f"element id {x} out of range [1, {n}]")
    return x


def check_pairs(X, n: int) -> np.ndarray:
    """Coerce ``X`` to a (q, 2) int64 array of element-id pairs.

    Entries must already be integers: float and bool arrays are rejected.
    """
    try:
        arr = np.asarray(X)
    except ValueError:                              # ragged pairs
        raise ValidationError("pairs differ in length") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"expected a (q, 2) array of pairs, got {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(f"pair entries must be integers, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and (arr.min() < 1 or arr.max() > n):
        raise ValidationError(f"pair entries must lie in [1, {n}]")
    return arr


class Estimator:
    """Minimal scikit-learn style parameter interface.

    Subclasses declare their hyperparameters as ``__init__`` keyword
    arguments and store them verbatim on ``self``; fitted state uses
    trailing-underscore names.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        if cls.__init__ is object.__init__:
            return []
        sig = inspect.signature(cls.__init__)
        return [p.name for p in sig.parameters.values()
                if p.name != "self"
                and p.kind not in (p.VAR_KEYWORD, p.VAR_POSITIONAL)]

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({args})"


def _view(a):
    """A read-only memoryview of ``a``'s buffer, so that no data is copied:
    a read gives a Python int, and arithmetic on it stays in Python ints,
    which costs less than on numpy scalars."""
    return memoryview(a).toreadonly()


_COMPILED: dict = {}        # key -> generated function
# the only globals of generated code: what the rendered id check and the
# SimpleRep fold call, and no builtins
_SCOPE = {"__builtins__": {}, "type": type, "int": int, "range": range,
          "check_element_id": check_element_id}


def _generated(key, source, *args):
    """The one function defined by the code ``source(*args)`` returns,
    compiled once per ``key`` in ``_SCOPE``; a hit builds no source."""
    if key not in _COMPILED:
        namespace = {}
        exec(source(*args), dict(_SCOPE), namespace)
        (_COMPILED[key],) = namespace.values()
    return _COMPILED[key]


def _rendered(args, lines, binds, n=None):
    """The query that ``lines`` compute from the arguments ``args``, bound
    to ``binds``, which map each other name ``lines`` read to a viewed
    array or a scalar.  With the group order ``n``, every argument is an
    element id, checked at the top as :func:`check_element_id` checks it,
    after a Python int in range.  The code is compiled once per key, the
    parts its source is made from, so equal sources share one function."""
    if n is not None:
        binds = dict(binds, n=n)
    parts = (tuple(binds), tuple(args), n is not None, tuple(lines))
    return _generated(parts, _query_source, *parts)(**binds)


def _query_source(names, args, checked: bool, lines) -> str:
    """A binder of the names ``names`` that returns one query of ``args``,
    whose body is ``lines``, after the id check of each argument if
    ``checked``."""
    head = [f"if type({a}) is not int or not 1 <= {a} <= n:\n"
            f"    {a} = check_element_id({a}, n)" for a in args] \
        if checked else []
    body = textwrap.indent("\n".join(head + list(lines)), " " * 8)
    return (f"def bind({', '.join(names)}):\n"
            f"    def query({', '.join(args)}):\n{body}\n"
            "    return query\n")


# A template writes the reduction of a sum of two residues, which is below
# twice its modulus, as ``t % +m``: in Python the value of ``t % m``, which
# the scalar form renders, and a mark that the batch form reads.
_SUM_MOD = "% +"


def _scalar_lines(lines) -> list[str]:
    """The template ``lines`` in the scalar form: marks rendered as ``%``."""
    return [line.replace(_SUM_MOD, "% ") for line in lines]


def _const(v: int) -> np.ndarray:
    """``v`` as a read-only 0-d int64 array: numpy takes it as an int64
    operand without the value checks a Python int costs (NEP 50), and an
    id array of any width meets it in int64."""
    a = np.array(v, dtype=np.int64)
    a.setflags(write=False)
    return a


_BATCH: dict = {}           # template lines -> (batch lines, constant binds)


def _batch_lines(lines) -> tuple[tuple[str, ...], dict]:
    """The template ``lines`` in the batch form, cached by the lines, and
    the 0-d int64 arrays that its constant names bind (:class:`_Batch`)."""
    lines = tuple(lines)
    if lines not in _BATCH:
        body = "def query():\n" + textwrap.indent("\n".join(lines), " ")
        batch = _Batch()
        tree = batch.visit(ast.parse(body))
        _BATCH[lines] = (
            tuple("\n".join(map(ast.unparse, tree.body[0].body)).split("\n")),
            {f"_{v}": _const(v) for v in sorted(batch.consts)})
    return _BATCH[lines]


class _Batch(ast.NodeTransformer):
    """The batch rewrite of a template, which answers what ``%`` answers:

    - a power-of-two literal modulus is a mask, ``s & m - 1``;
    - a reduction marked ``t % +m`` (a sum of two residues, below 2m) is
      the conditional subtract ``t - m * (t >= m)``;
    - any other scalar modulus is ``s - s // m * m``, which numpy divides
      by libdivide, or ``s - q * m`` after a line ``q = s // m``; an array
      modulus keeps ``%``, numpy's hardware divide;
    - every integer literal ``v`` is the name ``_v``, bound to ``_const(v)``.

    An operand that is read twice is named once, by ``:=``, so no read is
    added.
    """

    def __init__(self):
        self.consts = set()
        self.temps = 0
        self.quotients = {}         # (s, m) -> the name q of a line q = s // m

    def visit_Assign(self, node):
        node = self.generic_visit(node)
        (target,), v = node.targets, node.value
        if (isinstance(target, ast.Name) and isinstance(v, ast.BinOp)
                and isinstance(v.op, ast.FloorDiv)
                and isinstance(v.left, ast.Name)
                and isinstance(v.right, ast.Name)
                and target.id not in (v.left.id, v.right.id)):
            self.quotients[v.left.id, v.right.id] = target.id
        return node

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store):     # a quotient's names change
            self.quotients = {k: q for k, q in self.quotients.items()
                              if node.id not in (*k, q)}
        return node

    def visit_For(self, node):
        self.quotients = {}         # a quotient is kept in straight lines
        node = self.generic_visit(node)
        self.quotients = {}
        return node

    def visit_Constant(self, node):
        if type(node.value) is not int:
            return node
        self.consts.add(node.value)
        return ast.Name(f"_{node.value}", ast.Load())

    def visit_BinOp(self, node):
        if not isinstance(node.op, ast.Mod):
            return self.generic_visit(node)
        m = node.right
        summed = isinstance(m, ast.UnaryOp) and isinstance(m.op, ast.UAdd)
        m = m.operand if summed else m
        if isinstance(m, ast.Constant) and m.value > 0 \
                and not m.value & (m.value - 1):
            return self.visit(_op(node.left, ast.BitAnd,
                                  ast.Constant(m.value - 1)))
        if not isinstance(m, (ast.Name, ast.Constant)):     # an array
            return self.generic_visit(node)
        s, m = self.visit(node.left), self.visit(m)
        q = isinstance(s, ast.Name) and self.quotients.get((s.id, m.id))
        if q:
            return _op(s, ast.Sub, _op(ast.Name(q, ast.Load()), ast.Mult, m))
        first, s = self._once(s)
        if summed:
            return _op(first, ast.Sub, _op(m, ast.Mult, ast.Compare(
                s, [ast.GtE()], [m])))
        return _op(first, ast.Sub, _op(_op(s, ast.FloorDiv, m), ast.Mult, m))

    def _once(self, s):
        """(first, again): ``s`` is evaluated at ``first`` and read back
        at ``again``; a name is its own read, any other expression is
        named by ``:=``."""
        if isinstance(s, ast.Name):
            return s, s
        name = f"_t{self.temps}"
        self.temps += 1
        return (ast.NamedExpr(ast.Name(name, ast.Store()), s),
                ast.Name(name, ast.Load()))


def _op(left, op, right) -> ast.BinOp:
    return ast.BinOp(left, op(), right)


# each form of a query, by the array wrapper it is bound through
_VIEWS = {"batch": np.asarray, "scalar": _view}

# the cached rendered queries of ``_Cached`` and its subclasses, by the
# name each is bound to; no rendered function is state, and none pickles
_CACHED = ("multiply", "_kernel", "label", "element", "apply_power")


class _Cached:
    """The one owner of rendered queries: each name in ``_CACHED`` is a
    ``cached_property`` whose first lookup puts its function in the
    instance ``__dict__``, where later lookups find it.  Setting or
    deleting any attribute drops them all, as ``fit``, ``set_params`` and
    loading do, and no pickle or copy carries them.

    A structure writes its query once, as a template: ``_template()``
    gives the lines that compute it from ``_args``, in which each part's
    own template is inlined in place of a call.  The lines read names
    that ``_bound_arrays(view)`` maps to ``view`` of each array and to
    scalars, its parts' included; they run on Python ints or int64 arrays
    alike.  ``_reads`` maps each array family to the reads of one query;
    the query itself counts nothing.  :func:`_rendered` compiles each
    source once: ``_kernel`` is the batch form, bound on the fitted
    ndarrays themselves (``np.asarray``), and ``multiply`` the scalar
    form, bound on read-only memoryviews (:func:`_view`).  The scalar form
    is the template as written, with ``%`` for each reduction; a template
    marks a reduction of a sum of two residues ``t % +m``.  The batch form
    rewrites the reductions and binds every scalar as a 0-d int64 array
    (:class:`_Batch`), which costs numpy less than Python ints and ``%``.
    """

    _reads: dict = {}
    _args: tuple = ()

    def __setattr__(self, name, value):
        for key in _CACHED:
            self.__dict__.pop(key, None)
        super().__setattr__(name, value)

    def __delattr__(self, name):
        for key in _CACHED:
            self.__dict__.pop(key, None)
        super().__delattr__(name)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in _CACHED}

    def _render(self, args, lines, form="scalar", n=None):
        """The query ``lines`` compute from ``args``, in ``form``, bound to
        this object's arrays through that form's view; ``n`` checks every
        argument as an element id (:func:`_rendered`).  The batch form
        binds each scalar, and each literal of its lines, as a 0-d int64
        array (:func:`_batch_lines`)."""
        binds = self._bound_arrays(_VIEWS[form])
        if form == "scalar":
            return _rendered(args, _scalar_lines(lines), binds, n)
        lines, consts = _batch_lines(lines)
        binds = {k: _const(v) if isinstance(v, int) else v
                 for k, v in binds.items()}
        return _rendered(args, lines, {**binds, **consts}, n)

    @cached_property
    def _kernel(self):
        return self._render(self._args, self._template(), "batch")

    @cached_property
    def multiply(self):
        """One query, answered in Python ints."""
        return self._render(self._args, self._template())


class Representation(_Cached, Estimator):
    """Base class for multiplication data structures.

    The lifecycle is ``rep = Kind(**params).fit(group)`` followed by
    read-only queries.  ``multiply`` answers one query; ``predict`` maps an
    array of (x, y) pairs to products.  All fitted state is immutable, so
    concurrent queries are safe.

    Each kind writes its query of ids ``x`` and ``y`` once, as a template
    (:class:`_Cached`).  ``predict`` runs its batch form, ``_kernel``, on
    int64 arrays.  ``multiply`` is its scalar form, one Python frame with
    the id check inlined at its top and every part inlined, bound on
    read-only memoryviews, on which every read gives a Python int rather
    than a numpy scalar.  ``_count`` counts one query's reads,
    ``_reads``, beside the query, and ``probe_bounds`` is their sum.
    """

    rep_kind: str = "?"
    _args = ("x", "y")

    def fit(self, group):
        raise NotImplementedError

    @cached_property
    def multiply(self):
        """One query on ids in one frame, answered in Python ints: a Python
        int id in range skips the general id check."""
        self._require_fitted("n_")
        return self._render(self._args, self._template(), n=self.n_)

    def predict(self, X) -> np.ndarray:
        self._require_fitted("n_")
        xy = check_pairs(X, self.n_)
        return self._kernel(xy[:, 0], xy[:, 1]).astype(np.int64, copy=False)

    def _predict_rows(self, rows, n: int) -> np.ndarray:
        """The products x * y for each id x in the int64 array ``rows`` and
        every id y in [1, n], as an (r, n) array: the batch kernel
        broadcast over the block, which builds no pair array.  The caller
        keeps ``rows`` in [1, n]; ``n`` is checked as ``predict`` checks
        its pairs."""
        self._require_fitted("n_")
        if n > self.n_:
            raise ValidationError(f"pair entries must lie in [1, {self.n_}]")
        return self._kernel(rows[:, None], np.arange(1, n + 1, dtype=np.int64))

    def _count(self, ledger, y) -> None:
        """Count the reads of one query with right operand ``y``."""
        for family, k in self._reads.items():
            ledger.count(family, k)

    def space_slots(self) -> dict[str, int]:
        """Exact per-array slot counts of the query-time store."""
        raise NotImplementedError

    def probe_bounds(self) -> tuple[int, int]:
        """(min, max) array reads performed by one multiply query."""
        self._require_fitted("n_")
        k = sum(self._reads.values())
        return (k, k)

    def _require_fitted(self, *attrs: str) -> None:
        for a in attrs:
            if not hasattr(self, a):
                raise NotFittedError(
                    f"{type(self).__name__} is not fitted; call fit() first")
