"""Wavefront OBJ export."""

import numpy as np


def obj_faces(triangles):
    """The OBJ face lines of (F, 3) triangles, 1-based, as one string:
    formatted once, it serves every file written on the same mesh."""
    f = np.asarray(triangles, dtype=np.int64) + 1
    return ("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist())


def write_obj(path, positions, triangles):
    """Write vertices and faces (the (F, 3) triangles or their obj_faces
    text) as OBJ with 1-based indexing; each block is one formatting call
    over all of its rows."""
    x = np.asarray(positions, dtype=float)
    text = ("v %.17g %.17g %.17g\n" * len(x)) % tuple(x.ravel().tolist())
    text += triangles if isinstance(triangles, str) else obj_faces(triangles)
    with open(path, "w") as fh:
        fh.write(text)
