"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tape` records nodes in construction order (which is already a valid
topological order), and :func:`backward` replays it once in reverse to
accumulate vector-Jacobian products. Tapes are per-evaluation objects: build,
differentiate, discard.

Every differentiable step records one node with a hand-derived
vector-Jacobian product through :func:`from_op`: the whole network
(``vit.forward``, whose backward is written out in ``vit``), the
correction's squashing (``corrector.apply_correction``), the pose geometry
(``scene.project_theta``: Euler angles, forward kinematics and projection),
the soft rasterizer (in ``render``) and the weighted loss
(``corrector.weighted_loss``). The last three are ``corrector.pose_loss``,
the objective the corrector and the baseline share. The geometry node's one
point array feeds both the soft rasterizer, which reads its vertex rows, and
the loss, which reads its keypoint rows; the two VJPs it receives are
disjoint, so their sum is exact. A leaf is a node without a VJP, and
:func:`backward` returns the gradients of the leaves the loss depends on.

An op given no :class:`DiffValue` operand evaluates on the plain arrays and
returns a plain array, so the network, the correction and the loss run both
as a numpy pipeline (inference, validation) and as a recorded one (training,
the baseline's gradient steps).

There is no global "active tape"; the tape travels with the operands, so
independent tapes can run on separate threads without shared state.

Dtype rule: a float32 array, as a leaf or as a plain operand, stays float32;
anything else (float64 and integer arrays, Python and numpy scalars) becomes
float64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DiffValue",
    "Tape",
    "ShapeMismatch",
    "leaf",
    "backward",
]


class ShapeMismatch(ValueError):
    """Raised when operand shapes are invalid for an op."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, shapes))}")


class Tape:
    """Ordered record of nodes; a node's inputs always precede it."""

    __slots__ = ("_parents", "_vjps")

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list = []

    def __len__(self) -> int:
        return len(self._parents)

    def add_node(self, value: np.ndarray, parents: tuple[int, ...], vjp) -> "DiffValue":
        """Append a node and wrap ``value``. ``vjp(g)`` must return one
        gradient array per parent, in order; a leaf has no parents and a
        ``vjp`` of None."""
        nid = len(self._parents)
        self._parents.append(parents)
        self._vjps.append(vjp)
        return DiffValue(value, self, nid)


class DiffValue:
    """A value (scalar or dense array) tracked on a tape.

    ``value`` is always a numpy array (0-d for scalars); ``nid`` is its node
    on ``tape``. A DiffValue has no operators: each fused op reads its
    operands' values and records itself through :func:`from_op`.
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
    return tape.add_node(_val(value), (), None)


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


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function for plain arrays: 1 / (1 + e)
    where x >= 0 and e / (1 + e) elsewhere, with e = exp(-|x|), so exp never
    overflows. A nan keeps its sign through exp, as in the two-branch form."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def from_op(out_value: np.ndarray, parents: list, vjp):
    """Record a fused op with a hand-derived Jacobian: the network, the
    correction, the pose geometry, the soft rasterizer and the loss. The
    parents are all DiffValues on one tape (one node is recorded) or all
    plain arrays (``out_value`` returns as is). ``vjp(g)`` returns one
    gradient per parent; it captures arrays, never a DiffValue, whose tape
    would then hold it in a cycle that keeps every activation alive until the
    cyclic GC runs."""
    tape = _tape_of(*parents)
    if tape is None:
        return out_value
    return tape.add_node(out_value, tuple(p.nid for p in parents), vjp)


# ---------------------------------------------------------------------------
# backward

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
    return grads
