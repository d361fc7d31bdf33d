import numpy as np
import pytest

import oracles
from swemix.basis import nodal_basis
from swemix.dg import StateField, nodal_field
from swemix.mesh import build_structured, gll_node_coords
from swemix.output import CsvSeriesWriter, write_vtk

BOUNDS = (0.0, 1.0, 0.0, 1.0)


def test_vtk_single_element_p1(tmp_path):
    mesh = build_structured(1, 1, BOUNDS, "wall", "wall")
    basis = nodal_basis(1)
    field = StateField(np.zeros((1, 2, 2, 3)), mesh, basis)
    path = write_vtk(field, mesh, basis, str(tmp_path / "snap.vtk"), phi_bar=1.0)
    text = open(path).read().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert text[2] == "ASCII"
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    assert "POINTS 4 double" in text
    assert "CELLS 1 5" in text
    assert text[text.index("CELL_TYPES 1") + 1] == "9"


@pytest.mark.parametrize("nx,ny,p", [(2, 3, 1), (3, 2, 2), (2, 2, 3)])
def test_vtk_counts(tmp_path, nx, ny, p):
    mesh = build_structured(nx, ny, BOUNDS, "wall", "wall")
    basis = nodal_basis(p)
    data = np.zeros((mesh.num_elements, p + 1, p + 1, 3))
    path = write_vtk(StateField(data, mesh, basis), mesh, basis, str(tmp_path / "c.vtk"), 1.0)
    text = open(path).read()
    assert f"POINTS {mesh.num_elements * (p + 1) ** 2} double" in text
    ncells = mesh.num_elements * p**2
    assert f"CELLS {ncells} {5 * ncells}" in text


def test_vtk_roundtrip(tmp_path):
    mesh = build_structured(3, 2, BOUNDS, "periodic", "wall")
    basis = nodal_basis(2)
    rng = np.random.default_rng(1)
    data = rng.uniform(-0.3, 0.3, size=(6, 3, 3, 3))
    field = StateField(data, mesh, basis)
    phi_bar = 1.7
    path = write_vtk(field, mesh, basis, str(tmp_path / "r.vtk"), phi_bar)
    pts, phi, vel = oracles.read_vtk_point_data(path)
    ref_pts = gll_node_coords(mesh, basis).reshape(-1, 2)
    assert np.allclose(pts[:, :2], ref_pts, rtol=1e-15, atol=0)
    assert np.allclose(phi, data[..., 0].reshape(-1), rtol=1e-15, atol=0)
    total = phi_bar + data[..., 0]
    assert np.allclose(vel[:, 0], (data[..., 1] / total).reshape(-1), rtol=1e-15, atol=0)
    assert np.allclose(vel[:, 2], 0.0, atol=0)


@pytest.mark.parametrize("bc", ["wall", "periodic"])
def test_vtk_matches_per_value_writer(tmp_path, bc):
    # the vectorized writer must produce exactly the bytes of the loop that
    # formats one value at a time, signed zeros and a custom title included
    mesh = build_structured(3, 2, BOUNDS, bc, "wall")
    basis = nodal_basis(2)
    rng = np.random.default_rng(5)
    data = rng.standard_normal((6, 3, 3, 3)) * 10.0 ** rng.integers(-20, 20, size=(6, 3, 3, 3))
    data[0, 0, 0] = [0.0, -0.0, 0.0]
    field = StateField(data, mesh, basis)
    new = write_vtk(field, mesh, basis, str(tmp_path / "new.vtk"), 1.3, title="t 100%")
    old = oracles.write_vtk_loop(field, mesh, basis, str(tmp_path / "old.vtk"), 1.3, title="t 100%")
    assert open(new, "rb").read() == open(old, "rb").read()


def test_vtk_unwritable_path(tmp_path):
    mesh = build_structured(1, 1, BOUNDS, "wall", "wall")
    basis = nodal_basis(1)
    field = StateField(np.zeros((1, 2, 2, 3)), mesh, basis)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    with pytest.raises(OSError):
        write_vtk(field, mesh, basis, str(blocker / "x.vtk"), 1.0)


def test_csv_writer_deterministic(tmp_path):
    def make(path):
        w = CsvSeriesWriter(str(path), with_errors=True)
        w.add(0, 0.0, 1.0, 0.5, np.array([1e-3, 2e-3, 3e-3]))
        w.add(1, 0.1, 1.0 + 1e-15, 0.49, np.array([1.1e-3, 2.1e-3, 3.1e-3]))
        return w.write()

    a = make(tmp_path / "a.csv")
    b = make(tmp_path / "b.csv")
    assert open(a, "rb").read() == open(b, "rb").read()
    header = open(a).readline().strip()
    assert header == "step,t,mass,energy,l2_phi,l2_u,l2_v"
