"""Random property payload helpers.

The paper's synthetic graphs attach "randomly generated attributes ... (the
attribute size is 128 bytes)" to vertices and edges; these helpers produce
payloads of a controlled serialized size so the storage cost model sees the
same byte volumes.
"""

from __future__ import annotations

import numpy as np

from repro.graph.property import props_size_bytes

#: serialized overhead of a one-entry props dict holding a bytes blob
_BLOB_OVERHEAD = 8 + 8 + 4 + 1 + 8  # count + keylen + key"blob" + tag + len


def sized_props(rng: np.random.Generator, total_bytes: int, **extra) -> dict:
    """Extra scalar properties padded with a blob up to ``total_bytes``."""
    props = dict(extra)
    used = props_size_bytes(props)
    remaining = total_bytes - used - _BLOB_OVERHEAD
    if remaining > 0:
        props["blob"] = rng.bytes(remaining)
    return props
