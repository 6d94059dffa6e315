"""Counter-based random streams keyed by (root_seed, stream_id).

Every source of randomness in this package flows through an RngStream.
Streams are cheap to construct and value-semantic: the same
(root_seed, stream_id, tags) triple reproduces the same draw sequence on
every platform, independent of how many other streams were used before.
Parallel replications each get their own stream_id, so results do not
depend on scheduling order.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngStream"]


def _philox_key(root_seed: int, stream_id: int, tags: tuple) -> np.ndarray:
    """Derive a 128-bit Philox key from the stream identity.

    SHA-256 gives a platform-independent, order-free mapping from the
    (root_seed, stream_id, tags) identity to the key space, so sibling
    streams are statistically independent regardless of creation order.
    """
    material = repr((int(root_seed), int(stream_id), tags)).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


class RngStream:
    """Seedable random stream backed by the counter-based Philox generator.

    Parameters
    ----------
    root_seed : int
        64-bit master seed shared by a whole experiment.
    stream_id : int
        Replication index; distinct ids give independent streams.
    """

    def __init__(self, root_seed: int, stream_id: int = 0, _tags: tuple = ()):
        self.root_seed = int(root_seed)
        self.stream_id = int(stream_id)
        self._tags = tuple(_tags)
        self._gen = np.random.Generator(
            np.random.Philox(key=_philox_key(self.root_seed, self.stream_id, self._tags))
        )

    def child(self, *tags) -> "RngStream":
        """Fork an independent stream; `tags` name the sub-purpose.

        Children never share draws with the parent or with siblings, so a
        function may fork freely without perturbing its caller's sequence.
        """
        return RngStream(self.root_seed, self.stream_id, self._tags + tuple(tags))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    @property
    def identity(self) -> tuple:
        """(root_seed, stream_id, tags): `RngStream(*identity)` restarts this stream."""
        return (self.root_seed, self.stream_id, self._tags)

    # Thin passthroughs used throughout the package.

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def choice(self, a, size=None, replace=True):
        return self._gen.choice(a, size=size, replace=replace)

    def __repr__(self):
        return f"RngStream(root_seed={self.root_seed}, stream_id={self.stream_id}, tags={self._tags})"
