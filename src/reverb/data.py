"""Dataset ingestion, windowing, preprocessing, and synthetic scenes.

Scene files are whitespace-separated text, one observation per line:

    <frame_id> <agent_id> <x> <y>

Frame ids must advance with a constant stride per scene; a gap splits
the agent's trajectory into independent tracklets.  Windowing slides an
observation/prediction window over every tracklet; neighbors are all
other agents fully observed over the observation part of the window
(partially observed neighbors are dropped, not padded).

The synthetic generator plants a delayed-response event: each agent
walks straight, receives a one-frame longitudinal speed pulse at frame
``t_e`` whose size grows with the onset delay ``delta``, and starts a
heading change of the configured magnitude exactly ``delta`` frames
after ``t_e``.  The pulse is what makes the delay inferable from the
observed part of the window.  With zero turn magnitude the pulse
vanishes too and the motion is exactly linear.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParseError, ValidationError
from .nn.checkpoint import atomic_write
from .transforms import TimeSeq


@dataclass
class Tracklet:
    """One agent's gap-free run: ``frames`` (n,) and ``xy`` (n, 2)."""

    agent_id: str
    frames: np.ndarray
    xy: np.ndarray


@dataclass
class Scene:
    scene_id: str
    dt: float
    tracklets: list


@dataclass(frozen=True)
class Sample:
    """One forecasting instance cut from a scene.

    ``offset`` is None for world-frame samples; ``preprocess`` fills it
    with the translation that moved the ego's last observed point to the
    origin (so world frame = values + offset).
    """

    ego: TimeSeq
    neighbors: tuple
    gt: TimeSeq
    scene_id: str
    agent_id: str
    start_frame: float
    offset: np.ndarray | None = None


def read_text(path) -> str:
    """A UTF-8 text file's contents; other bytes raise ParseError with
    path:line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text ({e.reason} at byte offset {e.start})",
                         path=path, line=data.count(b"\n", 0, e.start) + 1) from None


def _data_lines(path):
    """(line number, stripped text) of each non-blank, non-comment line."""
    for line_no, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield line_no, text


def load_scene(path, dt: float = 0.4, scene_id: str | None = None) -> Scene:
    """Parse one whitespace-separated scene file (frame agent x y);
    malformed rows raise with their line number."""
    rows = {}
    seen = {}
    for line_no, text in _data_lines(path):
        parts = text.split()
        if len(parts) != 4:
            raise ParseError(
                f"expected 4 columns (frame agent x y), got {len(parts)}",
                path=path, line=line_no,
            )
        numbers = []
        for col, token in ((1, parts[0]), (3, parts[2]), (4, parts[3])):
            try:
                numbers.append(float(token))
            except ValueError:
                raise ParseError(
                    f"column {col}: {token!r} is not a number",
                    path=path, line=line_no,
                ) from None
            if not math.isfinite(numbers[-1]):
                raise ParseError(
                    f"column {col}: {token!r} is not finite",
                    path=path, line=line_no,
                )
        frame, x, y = numbers
        agent = parts[1]
        if (agent, frame) in seen:
            raise ParseError(
                f"duplicate (agent {agent!r}, frame {frame:g}); "
                f"first seen on line {seen[(agent, frame)]}",
                path=path, line=line_no,
            )
        seen[(agent, frame)] = line_no
        rows.setdefault(agent, []).append((frame, x, y))
    tracklets = []
    stride = _scene_stride(rows)
    for agent in sorted(rows):
        recs = sorted(rows[agent])
        frames = np.array([r[0] for r in recs])
        xy = np.array([[r[1], r[2]] for r in recs])
        for lo, hi in _arithmetic_runs(frames, stride):
            tracklets.append(Tracklet(agent, frames[lo:hi], xy[lo:hi]))
    sid = scene_id if scene_id is not None else _stem(path)
    return Scene(scene_id=sid, dt=dt, tracklets=tracklets)


def write_scene(path, scene: Scene):
    """Serialize a scene back to the loader's text format (lossless)."""
    lines = []
    for t in scene.tracklets:
        for frame, (x, y) in zip(t.frames, t.xy):
            lines.append(f"{_num(frame)} {t.agent_id} {_num(x)} {_num(y)}")
    lines.sort(key=lambda s: (float(s.split()[0]), s.split()[1]))
    atomic_write(path, "\n".join(lines) + "\n")


def _num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{float(v):.17g}"


def _stem(path) -> str:
    name = str(path).rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


def _scene_stride(rows: dict) -> float:
    diffs = []
    for recs in rows.values():
        frames = sorted(r[0] for r in recs)
        diffs.extend(np.diff(frames))
    positive = [d for d in diffs if d > 0]
    return min(positive) if positive else 1.0


def _arithmetic_runs(frames: np.ndarray, stride: float):
    """Maximal index runs where consecutive frames differ by the stride."""
    if len(frames) == 0:
        return
    lo = 0
    for i in range(1, len(frames)):
        if not math.isclose(frames[i] - frames[i - 1], stride):
            yield lo, i
            lo = i
    yield lo, len(frames)


def make_windows(scene: Scene, t_h: int, t_f: int, stride: int = 1) -> list:
    """Slide a (t_h + t_f) window over every tracklet of the scene.

    One Sample per ego per admissible start; neighbors are the other
    agents' rows over the same observation frames, included only when
    fully present.
    """
    if stride < 1:
        raise ValidationError(f"window stride must be >= 1, got {stride}")
    span = t_h + t_f
    samples = []
    for ego in scene.tracklets:
        n = len(ego.frames)
        for start in range(0, n - span + 1, stride):
            obs_frames = ego.frames[start : start + t_h]
            neighbors = []
            for other in scene.tracklets:
                if other is ego or other.agent_id == ego.agent_id:
                    continue
                window = _cut(other, obs_frames)
                if window is not None:
                    neighbors.append(TimeSeq(window, scene.dt))
            samples.append(
                Sample(
                    ego=TimeSeq(ego.xy[start : start + t_h].copy(), scene.dt),
                    neighbors=tuple(neighbors),
                    gt=TimeSeq(ego.xy[start + t_h : start + span].copy(), scene.dt),
                    scene_id=scene.scene_id,
                    agent_id=ego.agent_id,
                    start_frame=float(obs_frames[0]),
                )
            )
    return samples


def _cut(tracklet: Tracklet, frames: np.ndarray):
    """Rows of ``tracklet`` at exactly ``frames``, or None if not covered."""
    first, last = tracklet.frames[0], tracklet.frames[-1]
    if frames[0] < first or frames[-1] > last:
        return None
    step = tracklet.frames[1] - tracklet.frames[0] if len(tracklet.frames) > 1 else 1.0
    pos = (frames[0] - first) / step
    idx = int(round(pos))
    if not math.isclose(pos, idx):
        return None
    return tracklet.xy[idx : idx + len(frames)].copy()


def preprocess(sample: Sample) -> Sample:
    """Translate the sample so the ego's last observed point is the origin."""
    if sample.offset is not None:
        return sample
    offset = sample.ego.values[-1].copy()
    return replace(
        sample,
        ego=TimeSeq(sample.ego.values - offset, sample.ego.dt),
        neighbors=tuple(
            TimeSeq(n.values - offset, n.dt) for n in sample.neighbors
        ),
        gt=TimeSeq(sample.gt.values - offset, sample.gt.dt),
        offset=offset,
    )


def inject_manual_neighbor(sample: Sample, offset_vec, velocity) -> Sample:
    """Append a constant-velocity synthetic neighbor.

    The neighbor sits at ``ego_last + offset_vec`` on the final observed
    frame and moves with ``velocity`` (units per second) throughout, so
    it is fully observed by construction.
    """
    offset_vec = np.asarray(offset_vec, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    t_h = sample.ego.values.shape[0]
    dt = sample.ego.dt
    anchor = sample.ego.values[-1] + offset_vec
    steps = (np.arange(t_h) - (t_h - 1))[:, None] * dt
    xy = anchor[None, :] + steps * velocity[None, :]
    return replace(sample, neighbors=sample.neighbors + (TimeSeq(xy, dt),))


@dataclass
class SynthLatencySpec:
    """Delayed-turn scenario parameters.

    ``t_e`` is the 1-based event frame; the heading change starts at
    frame ``t_e + delta`` and runs for ``duration`` frames.  ``deltas``
    lists the onset delays to cycle through (one per agent).
    """

    n_scenes: int = 10
    n_agents: int = 3
    n_frames: int = 20
    dt: float = 0.4
    t_e: int = 8
    deltas: tuple = (0, 1, 2, 3)
    duration: int = 4
    turn_magnitude: float = 1.2
    pulse_scale: float = 0.35
    sigma: float = 0.05
    speed_range: tuple = (0.8, 1.6)
    box: float = 8.0
    seed: int = 0

    def validate(self) -> "SynthLatencySpec":
        if self.n_scenes < 1 or self.n_agents < 1:
            raise ValidationError("need at least one scene and one agent")
        if self.n_frames < 2:
            raise ValidationError("need at least two frames")
        if self.t_e < 2:
            raise ValidationError("event frame t_e must be >= 2")
        if not self.deltas or min(self.deltas) < 0:
            raise ValidationError("need at least one onset delay, all >= 0")
        if self.duration < 1:
            raise ValidationError("turn duration must be >= 1")
        if self.t_e + max(self.deltas) + self.duration > self.n_frames:
            raise ValidationError(
                "event response does not fit the horizon: "
                f"t_e={self.t_e} + delta={max(self.deltas)} + duration={self.duration} "
                f"> n_frames={self.n_frames}"
            )
        for name in ("dt", "sigma", "turn_magnitude", "pulse_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ValidationError(f"time step dt must be > 0, got {self.dt}")
        if self.sigma < 0:
            raise ValidationError("noise sigma must be >= 0")
        if not (0 < self.speed_range[0] <= self.speed_range[1]):
            raise ValidationError("speed range must be positive and ordered")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        return self


def synth_latency_scenes(spec: SynthLatencySpec):
    """Generate delayed-turn scenes; returns (scenes, labels).

    Labels are one dict per agent with the planted ``t_e``, ``delta``,
    signed turn, and the analytic onset frame ``t_e + delta``.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    scenes = []
    labels = []
    for s in range(spec.n_scenes):
        tracklets = []
        for a in range(spec.n_agents):
            delta = int(spec.deltas[(s * spec.n_agents + a) % len(spec.deltas)])
            xy, turn = _synth_agent(spec, rng, delta)
            agent_id = f"a{a}"
            if not np.isfinite(xy).all():
                raise ValidationError(f"synth-{s:04d} {agent_id}: positions overflow to inf/nan")
            tracklets.append(
                Tracklet(agent_id, np.arange(1, spec.n_frames + 1, dtype=np.float64), xy)
            )
            labels.append(
                {
                    "scene_id": f"synth-{s:04d}",
                    "agent_id": agent_id,
                    "t_e": spec.t_e,
                    "delta": delta,
                    "onset_frame": spec.t_e + delta,
                    "turn": turn,
                }
            )
        scenes.append(Scene(scene_id=f"synth-{s:04d}", dt=spec.dt, tracklets=tracklets))
    return scenes, labels


def _synth_agent(spec: SynthLatencySpec, rng, delta: int):
    n = spec.n_frames
    heading0 = rng.uniform(0.0, 2.0 * np.pi)
    speed = rng.uniform(*spec.speed_range)
    pos = rng.uniform(-spec.box, spec.box, size=2)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    turn = sign * spec.turn_magnitude
    pulse = spec.pulse_scale * delta * abs(spec.turn_magnitude)
    onset = spec.t_e + delta
    xy = np.empty((n, 2))
    xy[0] = pos
    for frame in range(2, n + 1):
        progressed = min(max(frame - onset + 1, 0), spec.duration)
        heading = heading0 + turn * progressed / spec.duration
        step_speed = speed * (1.0 + (pulse if frame == spec.t_e else 0.0))
        pos = pos + step_speed * spec.dt * np.array([np.cos(heading), np.sin(heading)])
        xy[frame - 1] = pos
    if spec.sigma > 0:
        xy = xy + rng.normal(scale=spec.sigma, size=xy.shape)
    return xy, turn


def load_split_manifest(path) -> dict:
    """Read lines of ``<split> <scene-path>``; paths resolve relative to
    the manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    splits: dict = {}
    for line_no, text in _data_lines(path):
        parts = text.split(None, 1)
        if len(parts) != 2:
            raise ParseError("expected '<split> <path>'", path=path, line=line_no)
        tag, rel = parts
        full = rel if os.path.isabs(rel) else os.path.join(base, rel)
        splits.setdefault(tag, []).append(full)
    return splits
