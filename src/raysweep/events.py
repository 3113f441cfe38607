"""Event representation, per-camera streams, time chunking, and
reference-view selection.

Streams are columnar (one numpy array per field) so that voting stays
vectorizable at millions of events; ``Event`` exists for single-event
construction and tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoCommonTimeSpan
from .geometry import CameraModel, PoseTrajectory, Se3

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Event:
    """A single brightness-change spike: time (s), pixel, polarity (+-1)."""

    t: float
    x: int
    y: int
    polarity: int = 1

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")


@dataclass(frozen=True, eq=False)
class EventStream:
    """Time-ordered events of one camera, stored column-wise."""

    camera_id: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    polarity: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64).reshape(-1)
        x = np.asarray(self.x, dtype=np.int32).reshape(-1)
        y = np.asarray(self.y, dtype=np.int32).reshape(-1)
        p = np.asarray(self.polarity, dtype=np.int8).reshape(-1)
        if not (len(t) == len(x) == len(y) == len(p)):
            raise ValueError("event columns must share one length")
        finite = np.isfinite(t)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"event {bad} has a non-finite timestamp {t[bad]}")
        if t.size and np.any(np.diff(t) < 0.0):
            raise ValueError("event timestamps must be non-decreasing")
        if p.size and not np.all((p == 1) | (p == -1)):
            raise ValueError("polarities must be +1 or -1")
        for name, arr in (("t", t), ("x", x), ("y", y), ("polarity", p)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_events(cls, camera_id: str, events) -> "EventStream":
        events = list(events)
        return cls(
            camera_id,
            np.array([e.t for e in events], dtype=np.float64),
            np.array([e.x for e in events], dtype=np.int32),
            np.array([e.y for e in events], dtype=np.int32),
            np.array([e.polarity for e in events], dtype=np.int8),
        )

    @classmethod
    def empty(cls, camera_id: str) -> "EventStream":
        return cls(camera_id, np.empty(0), np.empty(0, np.int32),
                   np.empty(0, np.int32), np.empty(0, np.int8))

    def __len__(self):
        return len(self.t)

    def __getitem__(self, i: int) -> Event:
        return Event(float(self.t[i]), int(self.x[i]), int(self.y[i]), int(self.polarity[i]))

    def slice(self, i0: int, i1: int) -> "EventStream":
        return EventStream(self.camera_id, self.t[i0:i1], self.x[i0:i1],
                           self.y[i0:i1], self.polarity[i0:i1])

    def select(self, idx) -> "EventStream":
        return EventStream(self.camera_id, self.t[idx], self.x[idx],
                           self.y[idx], self.polarity[idx])

    def check_bounds(self, cam: CameraModel):
        if len(self) == 0:
            return
        ok = (self.x >= 0) & (self.x < cam.width) & (self.y >= 0) & (self.y < cam.height)
        if not np.all(ok):
            bad = int(np.argmin(ok))
            raise ValueError(
                f"stream {self.camera_id}: event {bad} at ({self.x[bad]}, {self.y[bad]}) "
                f"outside {cam.width}x{cam.height}"
            )


@dataclass
class Chunk:
    """One processing window: per-camera event slices over [t_start, t_end).

    Events at exactly the final window's upper edge belong to that window.
    """

    index: int
    t_start: float
    t_end: float
    events: dict[str, EventStream] = field(default_factory=dict)

    @property
    def t_mid(self) -> float:
        return 0.5 * (self.t_start + self.t_end)

    def total_events(self) -> int:
        return sum(len(s) for s in self.events.values())


def chunk_events(streams, duration: float) -> list[Chunk]:
    """Partition streams into consecutive windows of ``duration`` seconds.

    Windows are half-open [start, start + T) and anchored at the latest
    stream start (the first instant every camera is live); they extend far
    enough to cover the last event of any stream. Events before the anchor
    are dropped with a warning so that fused windows never pair one camera
    against silence.
    """
    if duration <= 0.0:
        raise ValueError("chunk duration must be positive")
    streams = list(streams)
    if not streams or any(len(s) == 0 for s in streams):
        raise NoCommonTimeSpan("every stream must contain events")
    t0 = max(float(s.t[0]) for s in streams)
    t_last = max(float(s.t[-1]) for s in streams)
    if t0 > min(float(s.t[-1]) for s in streams):
        raise NoCommonTimeSpan("streams do not overlap in time")

    n_chunks = int(math.floor((t_last - t0) / duration)) + 1
    while t0 + n_chunks * duration <= t_last:  # FP guard: last event must fit
        n_chunks += 1
    boundaries = t0 + np.arange(n_chunks + 1) * duration
    chunks = [
        Chunk(i, float(boundaries[i]), float(boundaries[i + 1])) for i in range(n_chunks)
    ]
    dropped = 0
    for s in streams:
        # Half-open assignment against the stored window bounds: an event at
        # exactly an interior boundary belongs to the window it opens.
        bounds = np.searchsorted(s.t, boundaries, side="left")
        dropped += int(bounds[0])
        for c, (i0, i1) in zip(chunks, zip(bounds[:-1], bounds[1:])):
            c.events[s.camera_id] = s.slice(i0, i1)
    if dropped:
        log.warning("dropped %d events before common start t=%.6f", dropped, t0)
    return chunks


def select_reference_view(chunk: Chunk, traj: PoseTrajectory, left_cam: CameraModel) -> Se3:
    """World-from-left-camera pose at the chunk's temporal midpoint."""
    T_w_body = traj.interpolate(chunk.t_mid)
    return T_w_body @ left_cam.T_body_cam
