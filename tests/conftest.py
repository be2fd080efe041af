import numpy as np
import pytest

from canoc import CanFrame, CanLog


def make_log(entries):
    """Build a CanLog from (timestamp, can_id) or (timestamp, can_id, payload)
    tuples, sorting stably by timestamp."""
    frames = []
    for entry in entries:
        t, cid = entry[0], entry[1]
        payload = entry[2] if len(entry) > 2 else b""
        frames.append(CanFrame(t, cid, payload, extended=cid > 0x7FF))
    return CanLog.from_frames(frames)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
