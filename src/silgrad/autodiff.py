"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tape` records primitive operations in construction order (which is
already a valid topological order), and :func:`backward` replays it once in
reverse to accumulate vector-Jacobian products. Tapes are per-evaluation
objects: build, differentiate, discard.

A functional op given no :class:`DiffValue` operand evaluates on the plain
arrays and returns a plain array, so the network, the correction and the loss
run both as a numpy pipeline (inference, validation) and as a recorded one
(training, the baseline's gradient steps).

Every differentiable step records one node with a hand-derived
vector-Jacobian product through :func:`from_op`: the network's linear layers,
layer norm, attention and GELU, the correction's squashing
(``corrector.apply_correction``), the pose geometry (``scene.project_theta``:
Euler angles, forward kinematics and projection), the soft rasterizer (in
``render``) and the weighted loss (``corrector.weighted_loss``). The generic
ops that remain (``add``, ``reshape``, ``take``, ``astype``,
``broadcast_to``, ``concatenate``) are the network's glue and the slices
between the fused nodes.

There is no global "active tape"; the tape travels with the operands, so
independent tapes can run on separate threads without shared state.

Dtype rule: a float32 array, as a leaf or as a plain operand, stays float32;
anything else (float64 and integer arrays, Python and numpy scalars) becomes
float64. An op computes in its operands' dtype, so a network given float32
weights and inputs runs in float32 forward and backward. Mixing a float32
operand with a float64 one gives float64; :func:`astype` casts explicitly.
"""

from __future__ import annotations

import math

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

    ``value`` is always a numpy array (0-d for scalars); ``nid`` is its node
    on ``tape``. A DiffValue has no operators: arithmetic goes through the
    functional ops of this module, which also accept plain arrays.
    """

    __slots__ = ("value", "tape", "nid")

    def __init__(self, value, tape: Tape, nid: int):
        self.value = np.asarray(value)
        self.tape = tape
        self.nid = nid

    def __repr__(self):
        return f"DiffValue(shape={self.value.shape}, nid={self.nid})"


def leaf(tape: Tape, value):
    """Lift a numpy value onto the tape as a differentiable leaf: a float32
    array stays float32, anything else becomes float64."""
    return tape.add_leaf(_val(value))


def _is_dv(x) -> bool:
    return isinstance(x, DiffValue)


# float64 first: ``in`` tests identity before equality, and the plain
# pipelines pass float64 arrays, which return as they are
_KEPT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _val(x) -> np.ndarray:
    """The array behind an operand, by the module's dtype rule."""
    if _is_dv(x):
        return x.value
    if type(x) is np.ndarray and x.dtype in _KEPT_DTYPES:
        return x
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


def _unary(a, fwd, make_vjp):
    av = _val(a)
    out = fwd(av)
    if not _is_dv(a):
        return out
    bw = make_vjp(av, out)
    return a.tape.add_node(out, (a.nid,), lambda g: (bw(g),))


# ---------------------------------------------------------------------------
# elementwise and shape primitives

def add(a, b):
    """``a + b`` with numpy broadcasting; each operand's gradient is ``g``
    summed back to its shape."""
    tape = _tape_of(a, b)
    av, bv = _val(a), _val(b)
    try:
        out = av + bv
    except ValueError as exc:
        raise ShapeMismatch("add", av.shape, bv.shape) from exc
    if tape is None:
        return out
    kept = [p for p in (a, b) if _is_dv(p)]
    shapes = [p.value.shape for p in kept]

    def vjp(g):
        return tuple(_unbroadcast(g, shape) for shape in shapes)

    return tape.add_node(out, tuple(p.nid for p in kept), vjp)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function for plain arrays."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reshape(a, shape):
    av = _val(a)
    old = av.shape
    return _unary(a, lambda x: np.reshape(x, shape),
                  lambda av, out: lambda g: np.reshape(g, old))


_BASIC_INDEX = (int, slice, type(...))  # by exact type, so a bool is not an int


def take(a, idx):
    """Basic indexing (ints, slices, ``...``); the backward writes ``g`` into zeros."""
    for i in idx if type(idx) is tuple else (idx,):
        if type(i) not in _BASIC_INDEX and not isinstance(i, np.integer):
            raise ValueError(f"take: index {i!r} is not an int, a slice or ...")

    def bw(av, out):
        def run(g):
            grad = np.zeros_like(av)
            grad[idx] = g
            return grad
        return run

    return _unary(a, lambda x: x[idx], bw)


def astype(a, dtype):
    """Cast to ``dtype``; the backward casts ``g`` back to the operand's dtype."""
    return _unary(a, lambda x: x.astype(dtype, copy=False),
                  lambda av, out: lambda g: g.astype(av.dtype, copy=False))


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
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])
    kept = [i for i, p in enumerate(parts) if _is_dv(p)]

    def vjp(g):
        g = np.moveaxis(g, axis, 0)
        return tuple(np.moveaxis(g[offsets[i]:offsets[i + 1]], 0, axis) for i in kept)

    return tape.add_node(out, tuple(parts[i].nid for i in kept), vjp)


def from_op(out_value: np.ndarray, parents: list, vjp):
    """Record a fused op with a hand-derived Jacobian: the network's linear
    layers, layer norm, attention and GELU, the correction, the pose
    geometry, the soft rasterizer and the loss. The parents are all
    DiffValues on one tape (one node is recorded) or all plain arrays
    (``out_value`` returns as is). ``vjp(g)`` returns one gradient per parent;
    it captures arrays, never a DiffValue, whose tape would then hold it in a
    cycle that keeps every activation alive until the cyclic GC runs."""
    tape = _tape_of(*parents)
    if tape is None:
        return out_value
    return tape.add_node(out_value, tuple(p.nid for p in parents), vjp)


def linear(x, w, b):
    """``x @ w + b`` over the last axis of ``x``, as one 2-D GEMM on the
    flattened leading axes. ``x`` may be a plain array while ``w`` and ``b``
    are DiffValues; the node's parents are its DiffValue operands."""
    xv, wv, bv = _val(x), _val(w), _val(b)
    if wv.ndim != 2 or xv.shape[-1:] != wv.shape[:1] or bv.shape != wv.shape[1:]:
        raise ShapeMismatch("linear", xv.shape, wv.shape, bv.shape)
    x2 = xv.reshape(-1, wv.shape[0])
    out = x2 @ wv + bv
    operands = (x, w, b)
    terms = [term for term, p in zip((lambda g2: (g2 @ wv.T).reshape(xv.shape),
                                      lambda g2: x2.T @ g2,
                                      lambda g2: g2.sum(axis=0)), operands) if _is_dv(p)]

    def vjp(g):
        g2 = g.reshape(-1, wv.shape[1])
        return tuple(term(g2) for term in terms)

    return from_op(out.reshape(xv.shape[:-1] + wv.shape[1:]),
                   [p for p in operands if _is_dv(p)], vjp)


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean and unit variance, then ``* gain + bias``."""
    xv, gv, bv = _val(x), _val(gain), _val(bias)
    mu = xv.mean(axis=-1, keepdims=True)
    std = np.sqrt(((xv - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = (xv - mu) / std

    def vjp(g):
        gh = g * gv
        gx = (gh - gh.mean(axis=-1, keepdims=True)
              - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) / std
        return gx, _unbroadcast(g * xhat, gv.shape), _unbroadcast(g, bv.shape)

    return from_op(xhat * gv + bv, [x, gain, bias], vjp)


def attention(qkv, heads: int):
    """Multi-head softmax attention over queries, keys and values packed
    along the last axis, (B, T, 3D); returns the merged heads, (B, T, D)."""
    qv = _val(qkv)
    b, t, d3 = qv.shape
    dh = d3 // (3 * heads)
    q, k, v = np.transpose(qv.reshape(b, t, 3, heads, dh), (2, 0, 3, 1, 4))  # (B, H, T, dh)
    scale = 1.0 / math.sqrt(dh)  # a Python float keeps float32 operands float32
    s = np.matmul(q, np.swapaxes(k, -1, -2)) * scale                         # (B, H, T, T)
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = np.transpose(np.matmul(p, v), (0, 2, 1, 3)).reshape(b, t, d3 // 3)

    def vjp(g):
        go = np.transpose(g.reshape(b, t, heads, dh), (0, 2, 1, 3))
        gp = np.matmul(go, np.swapaxes(v, -1, -2))
        gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * scale
        grad = np.empty((3, b, heads, t, dh), dtype=qv.dtype)
        grad[0] = np.matmul(gs, k)
        grad[1] = np.matmul(np.swapaxes(gs, -1, -2), q)
        grad[2] = np.matmul(np.swapaxes(p, -1, -2), go)
        return (np.transpose(grad, (1, 3, 0, 2, 4)).reshape(b, t, d3),)

    return from_op(out, [qkv], vjp)


def gelu(x):
    """tanh-approximation GELU."""
    xv = _val(x)
    c = 0.7978845608028654  # sqrt(2/pi)
    th = np.tanh(c * (xv + 0.044715 * (xv * (xv * xv))))

    def vjp(g):
        du = c * (1.0 + 3.0 * 0.044715 * (xv * xv))
        return (g * (0.5 * (1.0 + th) + (xv * 0.5) * ((1.0 - th * th) * du)),)

    return from_op((xv * 0.5) * (1.0 + th), [x], vjp)


# ---------------------------------------------------------------------------
# backward / finite_diff_check

def backward(loss) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss w.r.t. each leaf it depends on.

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
