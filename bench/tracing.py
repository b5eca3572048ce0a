"""Per-layer spans recorded from outside the program.

The tracer swaps module attributes of silgrad for timing wrappers. Callers
inside silgrad look those attributes up at call time (``render.soft_occupancy``,
``ad.backward``, a module-level ``forward_kinematics`` ...), so every call
from every caller is timed without a change to the program. The custom op
recorded by ``autodiff.from_op`` gets its vector-Jacobian product wrapped
too; when the op comes from ``render.soft_occupancy`` its backward pass is
the span ``render.soft_vjp``.

Spans are kept in memory as (name, start, end, parent, round) and written
out once, at the end of the run. A layer's self time is its span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from silgrad import autodiff, baseline, corrector, kinematics, render, synth, vit

SOFT_VJP = "render.soft_vjp"

# (module, attribute) pairs wrapped in a traced run; the span name is
# "<module>.<attribute>" with the module's short name
LAYERS = (
    (render, "soft_occupancy"),
    (render, "hard_occupancy"),
    (vit, "forward"),
    (autodiff, "backward"),
    (kinematics, "forward_kinematics"),
    (corrector, "adam_step"),
    (corrector, "build_frame_store"),
    (corrector, "evaluate_loss"),
    (synth, "read_trajectory"),
    (synth, "generate_dataset"),
    (baseline, "optimize_frame"),
)

# per-layer metric name -> (span name, unit); the value is the mean self
# time per call
TIMED = {
    "render.soft_occupancy_ms": ("render.soft_occupancy", "ms"),
    "render.soft_vjp_ms": (SOFT_VJP, "ms"),
    "render.hard_occupancy_ms": ("render.hard_occupancy", "ms"),
    "vit.forward_ms": ("vit.forward", "ms"),
    "autodiff.backward_ms": ("autodiff.backward", "ms"),
    "kinematics.forward_kinematics_ms": ("kinematics.forward_kinematics", "ms"),
    "corrector.adam_step_ms": ("corrector.adam_step", "ms"),
    "corrector.build_frame_store_s": ("corrector.build_frame_store", "s"),
    "corrector.evaluate_loss_s": ("corrector.evaluate_loss", "s"),
    "synth.read_trajectory_ms": ("synth.read_trajectory", "ms"),
    "synth.generate_dataset_s": ("synth.generate_dataset", "s"),
    "baseline.optimize_frame_ms": ("baseline.optimize_frame", "ms"),
}

# per-layer counters: metric name -> (numerator key, denominator key, unit)
COUNTED = {
    "render.soft_pixels_per_frame": ("soft_pixels", "soft_frames", "count"),
    "render.hard_pixels_per_frame": ("hard_pixels", "hard_frames", "count"),
    "autodiff.tape_nodes_per_step": ("tape_nodes", "backward_calls", "count"),
    "synth.bytes_written": ("bytes_written", "generate_calls", "bytes"),
    "baseline.iterations_per_frame": ("iterations", "optimized_frames", "count"),
}


def _dir_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``remove`` restores them."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, round]
        self.counts: dict[str, float] = defaultdict(float)
        self.round = -1               # -1: set-up
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.round])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _count(self, name: str, args, kwargs, out) -> None:
        c = self.counts
        if name == "render.soft_occupancy":
            occ = autodiff._val(out)
            c["soft_pixels"] += np.count_nonzero(occ)
            c["soft_frames"] += occ.shape[0]
        elif name == "render.hard_occupancy":
            c["hard_pixels"] += np.count_nonzero(out)
            c["hard_frames"] += out.shape[0]
        elif name == "autodiff.backward" and isinstance(args[0], autodiff.DiffValue):
            c["tape_nodes"] += len(args[0].tape)
            c["backward_calls"] += 1
        elif name == "synth.generate_dataset":
            c["bytes_written"] += _dir_bytes(args[0] if args else kwargs["out_dir"])
            c["generate_calls"] += 1
        elif name == "baseline.optimize_frame":
            c["iterations"] += out[1]
            c["optimized_frames"] += 1

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self._count(name, args, kwargs, out)
            return out
        return traced

    def _wrap_from_op(self, fn):
        def from_op(out_value, parents, vjp):
            name = SOFT_VJP if self._current() == "render.soft_occupancy" \
                else "autodiff.from_op_vjp"
            return fn(out_value, parents, self._wrap(name, vjp))
        return from_op

    def install(self) -> None:
        for module, attr in LAYERS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, fn))
        self._saved.append((autodiff, "from_op", autodiff.from_op))
        autodiff.from_op = self._wrap_from_op(autodiff.from_op)

    def remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        own = np.array([end - start for _, start, end, _, _ in self.spans])
        child = np.zeros(len(self.spans))
        for (_, _, _, parent, _), d in zip(self.spans, own):
            if parent is not None:
                child[parent] += d
        return own - child

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric; a layer the workload never calls reads 0."""
        selfs: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for span, t in zip(self.spans, self._self_times()):
            selfs[span[0]][0] += t
            selfs[span[0]][1] += 1
        out = {}
        for metric, (span, unit) in TIMED.items():
            total, calls = selfs.get(span, (0.0, 0))
            scale = 1e3 if unit == "ms" else 1.0
            out[metric] = {"value": total / calls * scale if calls else 0.0,
                           "unit": unit}
        for metric, (num, den, unit) in COUNTED.items():
            d = self.counts.get(den, 0)
            out[metric] = {"value": self.counts.get(num, 0) / d if d else 0.0,
                           "unit": unit}
        return out

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, round, self."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, ((name, start, end, parent, rnd), t) in enumerate(
                    zip(self.spans, self._self_times())):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "round": rnd,
                                     "self": t}) + "\n")
