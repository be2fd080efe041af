"""Seeded candump-format log generator owned by the benchmark.

The detect workload parses these bytes, so they must not depend on the
commit under test: nothing here imports canoc. The bus is ten periodic IDs
with uniform jitter; attack stretches add a zero-ID flood and a random-ID
flood, each aligned to whole one-second windows of the log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (id, period s): a powertrain-like mix from 5 ms-class to 200 ms-class senders
BUS = ((0x0C1, 0.010), (0x0D0, 0.010), (0x120, 0.020), (0x1A0, 0.020),
       (0x1F4, 0.025), (0x260, 0.050), (0x2C0, 0.050), (0x350, 0.100),
       (0x3E8, 0.100), (0x4F0, 0.200))
JITTER = 0.01  # uniform +/- fraction of the period
EPOCH_US = 1_700_000_000_000_000  # candump logs carry wall-clock seconds

LABEL_NORMAL, LABEL_ZERO_ID, LABEL_RANDOM_ID = 0, 1, 2
# keeps flood frames clear of window edges after microsecond rounding
EDGE_MARGIN = 0.002
WINDOW_S = 1.0  # canoc's default tumbling window


@dataclass(frozen=True)
class Flood:
    label: int
    start: int  # whole seconds after the first frame
    end: int
    rate: float  # frames per second (Poisson)


@dataclass
class GeneratedLog:
    text: str
    times: np.ndarray   # float seconds, exactly as a reader parses them
    labels: np.ndarray  # per-frame LABEL_*
    frames: int


def _format(us: np.ndarray, ids: np.ndarray, payload: np.ndarray) -> str:
    hexes = payload.tobytes().hex().upper()
    width = 2 * payload.shape[1]
    return "".join(
        f"({u // 1_000_000}.{u % 1_000_000:06d}) can0 {i:03X}#{hexes[k * width:(k + 1) * width]}\n"
        for k, (u, i) in enumerate(zip(us.tolist(), ids.tolist())))


def generate(seed: int, duration: float, floods: tuple[Flood, ...] = ()) -> GeneratedLog:
    """Deterministic for (seed, duration, floods)."""
    rng = np.random.default_rng(seed)
    t_parts, id_parts, lab_parts = [], [], []
    for can_id, period in BUS:
        base = np.arange(int(duration / period)) * period + rng.uniform(0, period)
        t = base + rng.uniform(-JITTER * period, JITTER * period, base.size)
        t_parts.append(t)
        id_parts.append(np.full(t.size, can_id))
        lab_parts.append(np.full(t.size, LABEL_NORMAL))
    t_first = min(float(t.min()) for t in t_parts)
    for flood in floods:
        lo = t_first + flood.start + EDGE_MARGIN
        hi = t_first + flood.end - EDGE_MARGIN
        t = np.sort(rng.uniform(lo, hi, rng.poisson(flood.rate * (hi - lo))))
        ids = (np.zeros(t.size, dtype=np.int64) if flood.label == LABEL_ZERO_ID
               else rng.integers(0, 0x800, t.size))
        t_parts.append(t)
        id_parts.append(ids)
        lab_parts.append(np.full(t.size, flood.label))
    times = np.concatenate(t_parts)
    order = np.argsort(times, kind="stable")
    us = EPOCH_US + np.round(times[order] * 1e6).astype(np.int64)
    ids = np.concatenate(id_parts)[order]
    labels = np.concatenate(lab_parts)[order]
    payload = rng.integers(0, 256, size=(us.size, 8), dtype=np.uint8)
    payload[labels == LABEL_ZERO_ID] = 0
    text = _format(us, ids, payload)
    parsed = np.array([float(f"{u // 1_000_000}.{u % 1_000_000:06d}") for u in us.tolist()])
    return GeneratedLog(text, parsed, labels, int(us.size))


def window_labels(log: GeneratedLog) -> np.ndarray:
    """Per-window truth for tumbling windows laid out as canoc's reader does:
    a grid from the first timestamp; True where the window holds a flood frame."""
    t_first, t_last = float(log.times[0]), float(log.times[-1])
    count = int(np.floor((t_last - t_first) / WINDOW_S)) + 1
    grid = t_first + np.arange(count + 1) * WINDOW_S
    window = np.searchsorted(grid, log.times, side="right") - 1
    attacked = np.zeros(count, dtype=bool)
    attacked[window[log.labels != LABEL_NORMAL]] = True
    return attacked
