"""Wavefront OBJ export."""

import numpy as np


def write_obj(path, positions, triangles=None):
    """Write vertices (and faces, if given) as OBJ with 1-based indexing;
    each block is one formatting call over all of its rows."""
    x = np.asarray(positions, dtype=float)
    text = ("v %.17g %.17g %.17g\n" * len(x)) % tuple(x.ravel().tolist())
    if triangles is not None:
        f = np.asarray(triangles, dtype=np.int64) + 1
        text += ("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(text)
