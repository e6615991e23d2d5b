"""Reproducible random streams keyed by (seed, stream_id)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KEY_LIMIT = 1 << 64  # keys are read mod KEY_LIMIT; the CLI and certificates take [0, KEY_LIMIT)
_MASK64 = KEY_LIMIT - 1
# numpy 2 imports numpy.random at the first RngStream: VmHWM rose 5.6 MiB after the
# CLI's imports, 6.1 after `import numpy` alone (numpy 2.4); every run's charge adds it
IMPORT_BYTES = 7 * 2 ** 20


@dataclass
class RngStream:
    """Counter-based (Philox) generator addressed by a seed and a stream id.

    The pair (seed, stream_id) is the full key: reconstructing a stream with
    the same pair replays the identical sequence of draws, while distinct
    stream ids give statistically independent streams.  Generator state is
    mutated by drawing; everything else is immutable.
    """

    seed: int = 0
    stream_id: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK64
        self.stream_id = int(self.stream_id) & _MASK64
        key = self.seed | (self.stream_id << 64)
        self.generator = np.random.Generator(np.random.Philox(key=key))
