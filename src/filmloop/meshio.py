"""Wavefront OBJ export and import."""

import numpy as np


def write_obj(path, positions, triangles=None):
    """Write vertices (and faces, if given) as OBJ with 1-based indexing."""
    x = np.asarray(positions, dtype=float)
    with open(path, "w") as fh:
        for p in x:
            fh.write("v %.17g %.17g %.17g\n" % (p[0], p[1], p[2]))
        if triangles is not None:
            for a, b, c in np.asarray(triangles, dtype=np.int64):
                fh.write("f %d %d %d\n" % (a + 1, b + 1, c + 1))


def read_obj(path):
    """Read an OBJ file, returning (positions, triangles) with 0-based indices.

    Only `v` and triangular `f` records are interpreted; `f` entries of the
    form i/j/k keep their leading vertex index.
    """
    verts, tris = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                verts.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) for p in parts[1:]]
                if len(idx) != 3:
                    raise ValueError(f"non-triangular face in {path}: {line.strip()}")
                if any(i < 1 for i in idx):
                    raise ValueError("negative OBJ indices are not supported")
                tris.append([i - 1 for i in idx])
    return np.array(verts, dtype=float), np.array(tris, dtype=np.int64)

