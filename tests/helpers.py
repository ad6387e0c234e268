"""Data makers and comparison helpers shared by the test modules.

A plain module rather than conftest.py, so that `from helpers import ...`
cannot pick up another directory's conftest when several test trees are
collected in one run.
"""

import json
import math
import struct
import sys

import numpy as np
from hypothesis import strategies as st

from gridneighbors import points_from_arrays
from gridneighbors.grid import _LAYOUTS, _MAGIC


def clustered(rng, n, d, n_clusters=None, spread=None):
    """Gaussian clusters scattered over [0, 100]^d."""
    c = n_clusters or int(rng.integers(2, 6))
    spread = spread or float(rng.uniform(0.5, 3.0))
    centers = rng.uniform(0, 100, (c, d))
    X = centers[rng.integers(0, c, n)] + rng.normal(0, spread, (n, d))
    y = rng.integers(0, 4, n)
    return points_from_arrays(X, y), X


def uniform(rng, n, d):
    X = rng.uniform(-50, 50, (n, d))
    y = rng.integers(0, 4, n)
    return points_from_arrays(X, y), X


def as_pairs(neighbors):
    return [(n.distance, n.point_index) for n in neighbors]


def held(buf):
    """A NeighborBuffer's retained (key, index) pairs, ascending."""
    return list(zip(buf.keys.tolist(), buf.idx.tolist()))


def c_calls(fn, *args):
    """fn(*args) and the C functions or methods it called from Python code.

    The profiler sees every such call, so the count pins a query's fixed
    cost, mostly calls into numpy, without timing noise. The count includes
    the call that restores the previous profiler.
    """
    calls = []

    def count(frame, event, arg):
        if event == "c_call":
            calls.append(arg)

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def cell_ids(index):
    """(C, d) int64 ids of an index's non-empty cells, ascending: cell_lo plus each column of cell_cols."""
    return index.cell_cols.T.astype(np.int64) + index.cell_lo


def _header(data: bytes) -> tuple[dict, int]:
    """The JSON header of an index file and the offset of its first array."""
    start = len(_MAGIC) + 4
    (blob_len,) = struct.unpack("<I", data[len(_MAGIC) : start])
    return json.loads(data[start : start + blob_len]), start + blob_len


def regions(data: bytes) -> dict:
    """Byte range of each array in an index file, in file order, from its header and its version's layout."""
    header, pos = _header(data)
    out = {}
    for name, _source, _kinds, _shape in _LAYOUTS[header["version"]]:
        meta = header["arrays"][name]
        size = np.dtype(meta["dtype"]).itemsize * math.prod(meta["shape"])
        out[name] = (pos, pos + size)
        pos += size
    return out


def rewrite_index(data: bytes, edit=None, **arrays) -> bytes:
    """The index file data with the named arrays replaced, then its header edited.

    Each replacement array's bytes take the place of that array's region
    and its dtype and shape go into the header; edit(header), when given,
    then changes the header in place. The arrays keep their file order.
    """
    header, _ = _header(data)
    body = []
    for name, (start, end) in regions(data).items():
        if name in arrays:
            a = np.asarray(arrays.pop(name))
            header["arrays"][name] = {"dtype": a.dtype.str, "shape": list(a.shape)}
            body.append(a.tobytes())
        else:
            body.append(data[start:end])
    assert not arrays, f"not arrays of an index file: {sorted(arrays)}"
    if edit is not None:
        edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    return _MAGIC + struct.pack("<I", len(blob)) + blob + b"".join(body)


#: (n, d) float matrices, n in 1..40 and d in 1..4, of 0.0, -0.0 and three other values.
ZERO_MATRICES = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 1.5, -2.25, 3.0])] * d), min_size=1, max_size=40)
)

#: 17 rows whose first column holds both zeros: under numpy 2.4 its
#: minimum reads -0.0 by X.min(axis=0) but 0.0 by X[:, 0].min().
SIGNED_ZEROS = [
    [0.0, 1.5], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.0, 1.5], [0.0, -0.0], [1.5, 0.0], [0.0, 1.5], [1.5, 1.5],
    [-0.0, -0.0], [1.5, -0.0], [1.5, 0.0], [-0.0, 1.5], [-0.0, 0.0], [1.5, 0.0], [1.5, 1.5], [1.5, 1.5],
]  # fmt: skip
