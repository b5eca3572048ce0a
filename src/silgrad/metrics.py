"""Evaluation: hand-eye pose series, smoothing, error tables, pose CSV.

The benchmarked quantity is the end-effector pose in the camera frame,
composed from a base-transform estimate and forward kinematics where the
three non-visible joints always come from the noisy reading and the visible
four from the method under test.

Euler angles reported as roll/pitch/yaw map to the X/Y/Z angles of the
intrinsic Z-Y-X convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kinematics as kin
from . import se3
from .corrector import VISIBLE_SLICE

CSV_HEADER = "t,x_mm,y_mm,z_mm,roll_deg,pitch_deg,yaw_deg,q4_deg,q5_deg,q6_deg,q7_deg,iters"
_CSV_COLUMNS = len(CSV_HEADER.split(","))


@dataclass
class PoseSeries:
    times: np.ndarray         # (N,) seconds, strictly increasing, uniform
    rotations: np.ndarray     # (N, 3, 3) end-effector rotation, camera frame
    translations: np.ndarray  # (N, 3) meters
    joints: np.ndarray        # (N, 4) visible joints, radians
    tag: str = "unknown"      # noisy | corrected | baseline | truth
    iters: np.ndarray | None = None

    def __len__(self):
        return len(self.times)

    def validate(self) -> None:
        dt = np.diff(self.times)
        if len(dt) and (np.any(dt <= 0) or not np.allclose(dt, dt[0], atol=1e-9)):
            raise ValueError("timestamps must be strictly increasing and uniform")

    @property
    def frame_rate(self) -> float:
        return 1.0 / float(np.diff(self.times).mean()) if len(self.times) > 1 else 0.0

    def euler(self) -> np.ndarray:
        """(N, 3) Z-Y-X angles per frame."""
        return np.array([se3.matrix_to_euler(r)[0] for r in self.rotations])


def series_from_params(chain, theta: np.ndarray, q_noisy: np.ndarray,
                       times: np.ndarray, tag: str,
                       iters: np.ndarray | None = None) -> PoseSeries:
    """Pose series from per-frame 10-D parametrizations (hand-eye composed)."""
    q = q_noisy.copy()
    q[:, VISIBLE_SLICE] = theta[:, 6:10]
    r, t = kin.forward_kinematics(chain, se3.euler_to_matrix(theta[:, :3]),
                                  theta[:, 3:6], q)[-1]
    return PoseSeries(np.asarray(times, dtype=float), r, t, theta[:, 6:10].copy(),
                      tag, iters)


def truth_series(chain, base_true: se3.RigidTransform, q_true: np.ndarray,
                 times: np.ndarray) -> PoseSeries:
    n = len(q_true)
    r, t = kin.forward_kinematics(chain, np.broadcast_to(base_true.rotation, (n, 3, 3)),
                                  np.broadcast_to(base_true.translation, (n, 3)), q_true)[-1]
    return PoseSeries(np.asarray(times, dtype=float), r, t,
                      q_true[:, VISIBLE_SLICE].copy(), "truth",
                      np.zeros(n, dtype=int))


# ---------------------------------------------------------------------------
# second-order low-pass smoothing

def butterworth_biquad(cutoff_hz: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order Butterworth coefficients via the bilinear transform."""
    if not cutoff_hz > 0:
        raise ValueError(f"cutoff_hz must be positive, got {cutoff_hz}")
    if cutoff_hz >= fs / 2.0:
        raise ValueError(f"cutoff {cutoff_hz} Hz at or above Nyquist ({fs / 2} Hz)")
    k = np.tan(np.pi * cutoff_hz / fs)
    sq2 = np.sqrt(2.0)
    norm = 1.0 / (1.0 + sq2 * k + k * k)
    b = np.array([k * k, 2 * k * k, k * k]) * norm
    a = np.array([1.0, 2.0 * (k * k - 1.0) * norm, (1.0 - sq2 * k + k * k) * norm])
    return b, a


def filter_forward(x: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Causal direct-form-II-transposed filtering along axis 0, warm-started
    at the first sample (a constant input passes through unchanged)."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(len(x), -1)
    y = np.empty_like(flat)
    x0 = flat[0]
    z1 = (1.0 - b[0]) * x0
    z2 = (1.0 - b[0] - b[1] + a[1]) * x0
    for i in range(len(flat)):
        xi = flat[i]
        yi = b[0] * xi + z1
        z1 = b[1] * xi - a[1] * yi + z2
        z2 = b[2] * xi - a[2] * yi
        y[i] = yi
    return y.reshape(x.shape)


def lowpass(series: PoseSeries, cutoff_hz: float = 1.5) -> PoseSeries:
    """Smooth translations, unwrapped Euler angles, and joints causally.

    The filter is warm-started at the first sample, so a one-frame series,
    which has no frame rate, passes through unchanged.
    """
    series.validate()
    if len(series) < 2:
        return PoseSeries(series.times.copy(), series.rotations.copy(),
                          series.translations.copy(), series.joints.copy(),
                          series.tag, series.iters)
    fs = series.frame_rate
    b, a = butterworth_biquad(cutoff_hz, fs)
    t_f = filter_forward(series.translations, b, a)
    eul = np.unwrap(series.euler(), axis=0)
    eul_f = filter_forward(eul, b, a)
    rot_f = se3.euler_to_matrix(se3.wrap_angle(eul_f))
    joints_f = filter_forward(series.joints, b, a)
    return PoseSeries(series.times.copy(), rot_f, t_f, joints_f,
                      series.tag, series.iters)


# ---------------------------------------------------------------------------
# RMSE / NRMSE / error-reduction tables

TABLE_AXES = {
    "translation": ("x", "y", "z", "overall"),
    "rotation": ("roll", "pitch", "yaw", "overall"),
    "joints": ("outer_roll", "wrist_pitch", "wrist_yaw", "end_effector", "overall"),
}


def _errors(pred: PoseSeries, truth: PoseSeries):
    """Per-frame error arrays in mm / deg: translation (N,3), rotation (N,3)
    shortest-arc Euler differences, joints (N,4)."""
    if len(pred) != len(truth):
        raise ValueError(f"series lengths differ: {len(pred)} vs {len(truth)}")
    dt = (pred.translations - truth.translations) * 1000.0
    # roll/pitch/yaw = X/Y/Z angles; euler() returns (z, y, x)
    ep = pred.euler()[:, ::-1]
    et = truth.euler()[:, ::-1]
    dr = np.rad2deg(se3.wrap_angle(ep - et))
    dj = np.rad2deg(pred.joints - truth.joints)
    return dt, dr, dj


def _rmse_row(err: np.ndarray) -> np.ndarray:
    """Per-axis RMSE plus an overall entry.

    For 3-axis tables the overall is the RMSE of the Euclidean error; for
    joints it is the pooled RMSE over all joints (equal to the quadratic
    mean of the per-joint RMSEs)."""
    per_axis = np.sqrt((err ** 2).mean(axis=0))
    if err.shape[1] == 3:
        overall = np.sqrt((err ** 2).sum(axis=1).mean())
    else:
        overall = np.sqrt((err ** 2).mean())
    return np.concatenate([per_axis, [overall]])


def _truth_ranges(truth: PoseSeries) -> dict[str, np.ndarray]:
    t_mm = truth.translations * 1000.0
    eul = np.rad2deg(np.unwrap(truth.euler(), axis=0))[:, ::-1]
    joints = np.rad2deg(truth.joints)
    out = {}
    for key, arr in (("translation", t_mm), ("rotation", eul), ("joints", joints)):
        rng = arr.max(axis=0) - arr.min(axis=0)
        if key == "translation" or key == "rotation":
            overall = np.linalg.norm(rng)
        else:
            overall = np.sqrt((rng ** 2).mean())
        out[key] = np.concatenate([rng, [overall]])
    return out


def trajectory_metrics(pred: PoseSeries, truth: PoseSeries,
                       noisy: PoseSeries) -> dict:
    """RMSE / NRMSE%% / reduction%% per axis for one trajectory."""
    dt_p, dr_p, dj_p = _errors(pred, truth)
    dt_n, dr_n, dj_n = _errors(noisy, truth)
    ranges = _truth_ranges(truth)
    out = {}
    for key, ep, en in (("translation", dt_p, dt_n), ("rotation", dr_p, dr_n),
                        ("joints", dj_p, dj_n)):
        rmse = _rmse_row(ep)
        rmse_noisy = _rmse_row(en)
        rng = ranges[key]
        with np.errstate(divide="ignore", invalid="ignore"):
            nrmse = np.where(rng > 0, rmse / rng * 100.0, np.nan)
            reduction = np.where(rmse_noisy > 0,
                                 (rmse_noisy - rmse) / rmse_noisy * 100.0, np.nan)
        out[key] = {"rmse": rmse, "nrmse": nrmse, "reduction": reduction,
                    "rmse_noisy": rmse_noisy}
    return out


@dataclass
class MetricsReport:
    """Mean +/- std across trajectories for each table/metric/axis."""
    tables: dict
    trajectories: int

    def mean(self, table: str, metric: str, axis: str) -> float:
        idx = TABLE_AXES[table].index(axis)
        return float(self.tables[table][metric]["mean"][idx])

    def std(self, table: str, metric: str, axis: str) -> float:
        idx = TABLE_AXES[table].index(axis)
        return float(self.tables[table][metric]["std"][idx])


def compute_metrics(per_trajectory: list[dict]) -> MetricsReport:
    tables = {}
    for key, axes in TABLE_AXES.items():
        tables[key] = {}
        for metric in ("rmse", "nrmse", "reduction", "rmse_noisy"):
            rows = np.array([t[key][metric] for t in per_trajectory])
            tables[key][metric] = {"mean": rows.mean(axis=0),
                                   "std": rows.std(axis=0)}
    return MetricsReport(tables, len(per_trajectory))


def evaluate_series(preds: list[PoseSeries], truths: list[PoseSeries],
                    noisys: list[PoseSeries],
                    cutoff_hz: float | None = 1.5) -> MetricsReport:
    """Filter predictions, then aggregate per-trajectory metrics.

    The reduction baseline is the raw (unfiltered) noisy series. The three
    lists pair up by position and must have the same length.
    """
    per_traj = []
    for pred, truth, noisy in zip(preds, truths, noisys, strict=True):
        p = lowpass(pred, cutoff_hz) if cutoff_hz else pred
        per_traj.append(trajectory_metrics(p, truth, noisy))
    return compute_metrics(per_traj)


# ---------------------------------------------------------------------------
# pose-series CSV

def write_pose_csv(path, series_list: list[PoseSeries]) -> None:
    """Concatenated trajectories; boundaries are where t resets."""
    lines = [CSV_HEADER]
    for series in series_list:
        eul = np.rad2deg(series.euler()[:, ::-1])  # roll, pitch, yaw
        t_mm = series.translations * 1000.0
        joints = np.rad2deg(series.joints)
        iters = series.iters if series.iters is not None else np.ones(len(series), int)
        for i in range(len(series)):
            vals = [series.times[i], *t_mm[i], *eul[i], *joints[i]]
            lines.append(",".join(f"{v:.10g}" for v in vals) + f",{int(iters[i])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pose_csv(path) -> list[PoseSeries]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected pose CSV header")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) != _CSV_COLUMNS:
                raise ValueError(f"{path}, line {lineno}: {len(fields)} columns, "
                                 f"expected {_CSV_COLUMNS}")
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            if not np.all(np.isfinite(rows[-1])):
                raise ValueError(f"{path}, line {lineno}: non-finite value")
            if rows[-1][-1] < 0 or not rows[-1][-1].is_integer():
                raise ValueError(f"{path}, line {lineno}: iters {fields[-1].strip()!r} "
                                 "is not a nonnegative integer")
    if not rows:
        return []
    rows = np.array(rows)
    starts = [0] + [i for i in range(1, len(rows)) if rows[i, 0] <= rows[i - 1, 0]]
    starts.append(len(rows))
    out = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        chunk = rows[lo:hi]
        out.append(PoseSeries(
            times=chunk[:, 0],
            rotations=se3.euler_to_matrix(np.deg2rad(chunk[:, 4:7][:, ::-1])),
            translations=chunk[:, 1:4] / 1000.0,
            joints=np.deg2rad(chunk[:, 7:11]),
            iters=chunk[:, 11].astype(int),
        ))
    return out
