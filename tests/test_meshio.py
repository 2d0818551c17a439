"""OBJ round-trips for the mesh exchange helpers."""

import numpy as np
import pytest

from filmloop.mesh import generate_disk_mesh, validate_mesh
from filmloop.meshio import obj_faces, write_obj

from helpers import mesh_from_triangles, read_obj


def test_obj_roundtrip_preserves_geometry(tmp_path):
    mesh, x = generate_disk_mesh(3, 1.3)
    x = x + 1e-3 * np.sin(np.arange(x.size)).reshape(x.shape)
    path = tmp_path / "disk.obj"
    write_obj(path, x, mesh.triangles)
    back_x, back_t = read_obj(path)
    assert np.array_equal(back_t, mesh.triangles)
    assert np.array_equal(back_x, x)          # %.17g round-trips doubles


def test_obj_bytes_match_the_per_line_writer(tmp_path):
    # one formatting call per block writes the bytes a write per row wrote,
    # signed zeros and 17-digit values included
    mesh, x = generate_disk_mesh(3, 1.3)
    x = x + 1e-3 * np.sin(np.arange(x.size)).reshape(x.shape)
    x[0] = (-0.0, 1e-300, -1.5e17)
    lines = ["v %.17g %.17g %.17g\n" % (p[0], p[1], p[2]) for p in x]
    lines += ["f %d %d %d\n" % (a + 1, b + 1, c + 1)
              for a, b, c in mesh.triangles]
    path = tmp_path / "disk.obj"
    write_obj(path, x, mesh.triangles)
    assert path.read_bytes() == "".join(lines).encode()


def test_obj_faces_text_writes_the_same_bytes(tmp_path):
    # a face block formatted once serves every file of the mesh
    mesh, x = generate_disk_mesh(3, 1.3)
    faces = obj_faces(mesh.triangles)
    for shift in (0.0, 1e-3):
        write_obj(tmp_path / "array.obj", x + shift, mesh.triangles)
        write_obj(tmp_path / "text.obj", x + shift, faces)
        assert ((tmp_path / "text.obj").read_bytes()
                == (tmp_path / "array.obj").read_bytes())


def test_read_obj_restores_connectivity(tmp_path):
    mesh, x = generate_disk_mesh(2, 1.0)
    path = tmp_path / "disk.obj"
    write_obj(path, x, mesh.triangles)
    back_x, back_t = read_obj(path)
    back_mesh = mesh_from_triangles(len(back_x), back_t)
    assert validate_mesh(back_mesh).passed
    assert np.array_equal(back_mesh.triangles, mesh.triangles)
    assert np.array_equal(back_mesh.boundary_loop, mesh.boundary_loop)
    assert np.array_equal(back_x, x)


def test_read_obj_skips_comments_and_slash_faces(tmp_path):
    path = tmp_path / "annotated.obj"
    path.write_text("# header\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
                    "vn 0 0 1\nf 1/1/1 2/2/1 3/3/1\n")
    x, t = read_obj(path)
    assert x.shape == (3, 3)
    assert np.array_equal(t, [[0, 1, 2]])


def test_read_obj_rejects_bad_faces(tmp_path):
    quad = tmp_path / "quad.obj"
    quad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ValueError):
        read_obj(quad)
    neg = tmp_path / "neg.obj"
    neg.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    with pytest.raises(ValueError):
        read_obj(neg)

