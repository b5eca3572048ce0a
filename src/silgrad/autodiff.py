"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tape` records primitive operations in construction order (which is
already a valid topological order), and :func:`backward` replays it once in
reverse to accumulate vector-Jacobian products. Tapes are per-evaluation
objects: build, differentiate, discard.

Every functional op in this module is dual-mode: if no operand is a
:class:`DiffValue`, it evaluates directly on numpy arrays and returns a plain
array. Code written against these ops (forward kinematics, rendering, the
network) therefore runs both as a fast numpy pipeline and as a recorded,
differentiable one.

There is no global "active tape"; the tape travels with the operands, so
independent tapes can run on separate threads without shared state. Leaves
and plain constants are lifted to float64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DiffValue",
    "Tape",
    "ShapeMismatch",
    "FiniteDiffReport",
    "leaf",
    "backward",
    "finite_diff_check",
]


class ShapeMismatch(ValueError):
    """Raised when operand shapes are invalid for an op."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, shapes))}")


class Tape:
    """Ordered record of primitive ops; node inputs always precede the node."""

    __slots__ = ("_parents", "_vjps", "_leaf_ids")

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list = []
        self._leaf_ids: list[int] = []

    def __len__(self) -> int:
        return len(self._parents)

    def add_node(self, value: np.ndarray, parents: tuple[int, ...], vjp) -> "DiffValue":
        """Append a node and wrap ``value``. ``vjp(g)`` must return one
        gradient array per parent, in order."""
        nid = len(self._parents)
        self._parents.append(parents)
        self._vjps.append(vjp)
        return DiffValue(value, self, nid)

    def add_leaf(self, value: np.ndarray) -> "DiffValue":
        dv = self.add_node(value, (), None)
        self._leaf_ids.append(dv.nid)
        return dv


class DiffValue:
    """A value (scalar or dense array) tracked on a tape.

    ``value`` is always a numpy array (0-d for scalars). A DiffValue with
    ``requires_grad`` references a live tape node by id.
    """

    __slots__ = ("value", "tape", "nid")

    def __init__(self, value, tape: Tape, nid: int):
        self.value = np.asarray(value)
        self.tape = tape
        self.nid = nid

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    @property
    def requires_grad(self) -> bool:
        return self.tape is not None

    def __repr__(self):
        return f"DiffValue(shape={self.value.shape}, nid={self.nid})"

    # arithmetic sugar; all dispatch to the functional ops below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def leaf(tape: Tape, value, requires_grad: bool = True):
    """Lift a numpy value onto the tape as a differentiable float64 leaf."""
    arr = np.asarray(value, dtype=np.float64)
    if not requires_grad:
        return arr
    return tape.add_leaf(arr)


def _is_dv(x) -> bool:
    return isinstance(x, DiffValue)


def _val(x) -> np.ndarray:
    if _is_dv(x):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _tape_of(*xs) -> Tape:
    tape = None
    for x in xs:
        if _is_dv(x):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise ValueError("operands belong to different tapes")
    return tape


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverses numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(op_name, a, b, fwd, vjp_a, vjp_b):
    tape = _tape_of(a, b)
    av, bv = _val(a), _val(b)
    try:
        out = fwd(av, bv)
    except ValueError as exc:
        raise ShapeMismatch(op_name, av.shape, bv.shape) from exc
    if tape is None:
        return out
    parents, vjps = [], []
    if _is_dv(a):
        parents.append(a.nid)
        vjps.append(lambda g: _unbroadcast(vjp_a(g, av, bv), av.shape))
    if _is_dv(b):
        parents.append(b.nid)
        vjps.append(lambda g: _unbroadcast(vjp_b(g, av, bv), bv.shape))

    def vjp(g):
        return tuple(f(g) for f in vjps)

    return tape.add_node(out, tuple(parents), vjp)


def _unary(a, fwd, make_vjp):
    av = _val(a)
    out = fwd(av)
    if not _is_dv(a):
        return out
    bw = make_vjp(av, out)
    return a.tape.add_node(out, (a.nid,), lambda g: (bw(g),))


# ---------------------------------------------------------------------------
# elementwise and reduction primitives

def add(a, b):
    return _binary("add", a, b, np.add, lambda g, av, bv: g, lambda g, av, bv: g)


def sub(a, b):
    return _binary("sub", a, b, np.subtract, lambda g, av, bv: g, lambda g, av, bv: -g)


def mul(a, b):
    return _binary("mul", a, b, np.multiply,
                   lambda g, av, bv: g * bv, lambda g, av, bv: g * av)


def div(a, b):
    return _binary("div", a, b, np.divide,
                   lambda g, av, bv: g / bv, lambda g, av, bv: -g * av / (bv * bv))


def neg(a):
    return _unary(a, np.negative, lambda av, out: lambda g: -g)


def sin(a):
    return _unary(a, np.sin, lambda av, out: lambda g: g * np.cos(av))


def cos(a):
    return _unary(a, np.cos, lambda av, out: lambda g: -g * np.sin(av))


def sqrt(a):
    return _unary(a, np.sqrt, lambda av, out: lambda g: g * 0.5 / out)


def power(a, p):
    p = float(p)
    return _unary(a, lambda x: np.power(x, p),
                  lambda av, out: lambda g: g * p * np.power(av, p - 1.0))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function for plain arrays."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    return _unary(a, lambda x: stable_sigmoid(np.asarray(x, dtype=_val(a).dtype)),
                  lambda av, out: lambda g: g * out * (1.0 - out))


def tanh(a):
    return _unary(a, np.tanh, lambda av, out: lambda g: g * (1.0 - out * out))


def clamp(a, lo=None, hi=None):
    """Clip to [lo, hi]; gradient is zero wherever the value was clipped."""
    def bw(av, out):
        mask = np.ones(av.shape, dtype=av.dtype if av.dtype.kind == "f" else np.float64)
        if lo is not None:
            mask = mask * (av >= lo)
        if hi is not None:
            mask = mask * (av <= hi)
        return lambda g: g * mask

    return _unary(a, lambda x: np.clip(x, lo, hi), bw)


def reduce_sum(a, axis=None, keepdims=False):
    def bw(av, out):
        def run(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, av.shape)
        return run

    return _unary(a, lambda x: np.sum(x, axis=axis, keepdims=keepdims), bw)


def reduce_mean(a, axis=None, keepdims=False):
    av = _val(a)
    n = av.size if axis is None else np.prod([av.shape[i] for i in np.atleast_1d(axis)])
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def softmax(a, axis=-1):
    def fwd(x):
        z = x - np.max(x, axis=axis, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=axis, keepdims=True)

    def bw(av, out):
        return lambda g: (g - (g * out).sum(axis=axis, keepdims=True)) * out

    return _unary(a, fwd, bw)


def layer_norm(a, axis=-1, eps=1e-5):
    """Normalize to zero mean / unit variance along ``axis`` (no affine part)."""
    def fwd(x):
        mu = x.mean(axis=axis, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=axis, keepdims=True)
        return (x - mu) / np.sqrt(var + eps)

    def bw(av, out):
        mu = av.mean(axis=axis, keepdims=True)
        var = ((av - mu) ** 2).mean(axis=axis, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)

        def run(g):
            gm = g.mean(axis=axis, keepdims=True)
            gx = (g * out).mean(axis=axis, keepdims=True)
            return inv * (g - gm - out * gx)

        return run

    return _unary(a, fwd, bw)


# ---------------------------------------------------------------------------
# shape and linear-algebra primitives

def matmul(a, b):
    av, bv = _val(a), _val(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeMismatch("matmul", av.shape, bv.shape)

    def swap(x):
        return np.swapaxes(x, -1, -2)

    def vjp_a(g, av, bv):
        ga = g @ swap(bv)
        return _unbroadcast_batch(ga, av.shape)

    def vjp_b(g, av, bv):
        gb = swap(av) @ g
        return _unbroadcast_batch(gb, bv.shape)

    return _binary("matmul", a, b, np.matmul, vjp_a, vjp_b)


def _unbroadcast_batch(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum matmul gradients over broadcast leading (batch) axes."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i in range(len(shape) - 2) if shape[i] == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def reshape(a, shape):
    av = _val(a)
    old = av.shape
    return _unary(a, lambda x: np.reshape(x, shape),
                  lambda av, out: lambda g: np.reshape(g, old))


def transpose(a, axes):
    inv = tuple(np.argsort(axes))
    return _unary(a, lambda x: np.transpose(x, axes),
                  lambda av, out: lambda g: np.transpose(g, inv))


def take(a, idx):
    """Basic or advanced indexing with scatter-add backward."""
    def bw(av, out):
        def run(g):
            grad = np.zeros_like(av)
            np.add.at(grad, idx, g)
            return grad
        return run

    return _unary(a, lambda x: x[idx], bw)


def broadcast_to(a, shape):
    shape = tuple(shape)
    return _unary(a, lambda x: np.broadcast_to(x, shape).copy(),
                  lambda av, out: lambda g: _unbroadcast(g, av.shape))


def concatenate(parts, axis=0):
    tape = _tape_of(*parts)
    vals = [_val(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    if tape is None:
        return out
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)
    parents, segs = [], []
    for i, p in enumerate(parts):
        if _is_dv(p):
            parents.append(p.nid)
            segs.append((offsets[i], offsets[i + 1]))

    def vjp(g):
        g = np.moveaxis(g, axis, 0)
        outs = []
        for lo, hi in segs:
            outs.append(np.moveaxis(g[lo:hi], 0, axis))
        return tuple(outs)

    return tape.add_node(out, tuple(parents), vjp)


def stack(parts, axis=0):
    """Stack along a new axis (composition of reshape + concatenate)."""
    shaped = []
    for p in parts:
        s = list(_val(p).shape)
        s.insert(axis if axis >= 0 else len(s) + 1 + axis, 1)
        shaped.append(reshape(p, tuple(s)))
    return concatenate(shaped, axis=axis)


def from_op(out_value: np.ndarray, parents: list, vjp):
    """Record a custom primitive. ``vjp(g)`` returns one gradient per parent.

    All parents must be DiffValues on the same tape; used for fused ops such
    as the soft rasterizer whose Jacobian is hand-derived.
    """
    tape = _tape_of(*parents)
    if tape is None:
        return out_value
    return tape.add_node(out_value, tuple(p.nid for p in parents), vjp)


# ---------------------------------------------------------------------------
# backward / finite_diff_check

def backward(loss) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every requires-grad leaf.

    Returns a map node-id -> gradient array. Fan-out accumulates by
    summation; nodes are visited exactly once, in reverse tape order.
    """
    if not _is_dv(loss):
        return {}
    if loss.value.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    tape = loss.tape
    grads: dict[int, np.ndarray] = {loss.nid: np.ones_like(loss.value)}
    for nid in range(loss.nid, -1, -1):
        g = grads.pop(nid, None)
        if g is None:
            continue
        vjp = tape._vjps[nid]
        parents = tape._parents[nid]
        if vjp is None:
            grads[nid] = g  # leaf: keep
            continue
        for pid, pg in zip(parents, vjp(g)):
            acc = grads.get(pid)
            grads[pid] = pg if acc is None else acc + pg
    return {nid: grads[nid] for nid in tape._leaf_ids if nid in grads}


class FiniteDiffReport:
    """Comparison of tape gradients against central finite differences."""

    def __init__(self, analytic, numeric, rel_error, tolerance):
        self.analytic = analytic
        self.numeric = numeric
        self.rel_error = rel_error
        self.max_rel_error = float(np.max(rel_error)) if rel_error.size else 0.0
        self.tolerance = tolerance
        self.passed = bool(self.max_rel_error < tolerance)

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"FiniteDiffReport(max_rel_error={self.max_rel_error:.3e}, {status})"


def finite_diff_check(f, x0, epsilon=1e-5, tolerance=1e-6) -> FiniteDiffReport:
    """Check the tape gradient of ``f`` at ``x0`` against central differences.

    ``f`` must be dual-mode: called with a DiffValue it returns a scalar
    DiffValue; called with a plain array it returns a plain scalar.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    tape = Tape()
    x = leaf(tape, x0)
    out = f(x)
    grads = backward(out)
    analytic = np.asarray(grads.get(x.nid, np.zeros_like(x0)), dtype=np.float64).ravel()

    flat = x0.ravel()
    numeric = np.zeros_like(flat)
    with np.errstate(all="ignore"):
        for i in range(flat.size):
            probe = flat.copy()
            probe[i] = flat[i] + epsilon
            hi = np.asarray(_val(f(probe.reshape(x0.shape)))).item()
            probe[i] = flat[i] - epsilon
            lo = np.asarray(_val(f(probe.reshape(x0.shape)))).item()
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise FloatingPointError(f"f non-finite at probe for coordinate {i}")
            numeric[i] = (hi - lo) / (2.0 * epsilon)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    return FiniteDiffReport(analytic.reshape(x0.shape), numeric.reshape(x0.shape),
                            rel.reshape(x0.shape), tolerance)


# convenience compositions used by the network ------------------------------

def gelu(a):
    """tanh-approximation GELU built from recorded primitives."""
    c = 0.7978845608028654  # sqrt(2/pi)
    return mul(mul(a, 0.5), add(1.0, tanh(mul(c, add(a, mul(0.044715, mul(a, mul(a, a))))))))

