import numpy as np
import pytest

import oracles
from swemix import output
from swemix.basis import nodal_basis
from swemix.cases import standing_wave
from swemix.config import parse_text
from swemix.dg import StateField, nodal_field
from swemix.driver import run
from swemix.mesh import build_structured, gll_node_coords
from swemix.output import CsvSeriesWriter, write_vtk
from swemix.swe import ModelParams

BOUNDS = (0.0, 1.0, 0.0, 1.0)


def test_vtk_single_element_p1(tmp_path):
    mesh = build_structured(1, 1, BOUNDS, "wall", "wall")
    basis = nodal_basis(1)
    field = StateField(np.zeros((1, 2, 2, 3)), mesh, basis)
    path = write_vtk(field, str(tmp_path / "snap.vtk"), phi_bar=1.0)
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
    path = write_vtk(StateField(data, mesh, basis), str(tmp_path / "c.vtk"), 1.0)
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
    path = write_vtk(field, str(tmp_path / "r.vtk"), phi_bar)
    pts, phi, vel = oracles.read_vtk_point_data(path)
    # 17 significant digits read back as the very same doubles
    ref_pts = gll_node_coords(mesh, basis).reshape(-1, 2)
    assert np.array_equal(pts, np.column_stack([ref_pts, np.zeros(len(ref_pts))]))
    assert np.array_equal(phi, data[..., 0].reshape(-1))
    total = phi_bar + data[..., 0]
    ref_vel = np.stack([data[..., 1] / total, data[..., 2] / total, np.zeros_like(total)], axis=-1)
    assert np.array_equal(vel, ref_vel.reshape(-1, 3))


@pytest.mark.parametrize("bc", ["wall", "periodic"])
def test_vtk_matches_per_value_writer(tmp_path, bc):
    # the vectorized writer must produce exactly the bytes of the loop that
    # formats one value at a time, signed zeros included
    mesh = build_structured(3, 2, BOUNDS, bc, "wall")
    basis = nodal_basis(2)
    rng = np.random.default_rng(5)
    data = rng.standard_normal((6, 3, 3, 3)) * 10.0 ** rng.integers(-20, 20, size=(6, 3, 3, 3))
    data[0, 0, 0] = [0.0, -0.0, 0.0]
    field = StateField(data, mesh, basis)
    new = write_vtk(field, str(tmp_path / "new.vtk"), 1.3)
    old = oracles.write_vtk_loop(field, str(tmp_path / "old.vtk"), 1.3)
    assert open(new, "rb").read() == open(old, "rb").read()


def _edge_values():
    """Values next to the kernel's rounding and range boundaries."""
    tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    values = [0.0, 1.0, 123.25, 1e16, 1e17, 1e300, 5e-324, tiny, big, np.nan, np.inf]
    # exact ties at the 17th digit, 2**53 and the double after it
    values += [2.0**-25, 3 * 2.0**-25, 2.0**53, 2.0**53 + 2, 0.1, 1 / 3]
    for k in range(-310, 309):
        values += [10.0**k, np.nextafter(10.0**k, 0), np.nextafter(10.0**k, np.inf)]
    for k in range(-1074, 1024, 7):
        values += [2.0**k, np.nextafter(2.0**k, 0), np.nextafter(2.0**k, np.inf)]
    for k in range(1, 18):
        values += [10.0**k - 0.5, 10.0**k - 1, 0.5 * 10.0**-k, 99999999999999999.0 / 10**k]
    values = np.array(values)
    return np.concatenate([values, -values])


def _per_value(values, tails):
    return "".join(f"{v: .16e}" + tails[j] for row in values.tolist() for j, v in enumerate(row)).encode("ascii")


def _count_fallbacks(monkeypatch):
    """The list of the sizes of the chunks sent to ``%`` from now on."""
    fallbacks = []
    percent = output._percent_rows
    monkeypatch.setattr(output, "_percent_rows", lambda v, t: fallbacks.append(v.size) or percent(v, t))
    return fallbacks


def test_format_rows_matches_format_spec(monkeypatch):
    # the kernel must give exactly the bytes of f"{x: .16e}" on every value,
    # the ones it leaves to ``%`` included; calls of 1 to 16 rows keep one
    # such value from sending many others with it, so most calls whose
    # values are all 0 or in [1e-99, 1e100) must be formatted by the kernel
    fallbacks = _count_fallbacks(monkeypatch)
    rng = np.random.default_rng(20)
    normals = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-30, 30, 20_000)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False)
    # one in 32 patterns with an all-ones exponent: nan, or inf when the
    # mantissa is zero
    bits[::32] |= np.uint64(0x7FF0 << 48)
    bits[::64] &= np.uint64(0xFFF0 << 48)
    bits = bits.view(np.float64)
    for values in (normals, bits, _edge_values()):
        in_range = by_kernel = 0
        for tails in ((b"\n",), (b" ", b" 0\n")):
            rows = values[: len(values) // len(tails) * len(tails)].reshape(-1, len(tails))
            start = 0
            while start < len(rows):
                chunk = rows[start : start + rng.integers(1, 17)]
                start += len(chunk)
                before = len(fallbacks)
                assert output._format_rows(chunk, tails) == _per_value(chunk, [t.decode("ascii") for t in tails])
                a = np.abs(chunk)
                if np.all((a == 0.0) | ((a >= 1e-99) & (a < 1e100))):
                    in_range += 1
                    by_kernel += len(fallbacks) == before
        assert by_kernel > 0.85 * in_range > 0


def test_format_rows_formats_edge_values_itself(monkeypatch):
    # powers of ten and the doubles either side of them, where log10 may
    # miss the exponent and where the 17 digits of 1e-14 round up to 10**17,
    # whole numbers next to 2**53 and 10**k, and the ends of [1e-99, 1e100):
    # all formatted by the kernel in one call, with no ``%`` to hide a byte
    monkeypatch.setattr(output, "_percent_rows", lambda v, t: pytest.fail("fell back to %"))
    values = [0.0, 1e-99, np.nextafter(1e100, 0), 2.0**53, 2.0**53 + 2, 0.1, 1 / 3]
    for k in range(-99, 100):
        values += [10.0**k, np.nextafter(10.0**k, np.inf)]
        # the double below 1e-99 is out of range, the one below 1e15 a tie
        if k not in (-99, 15):
            values.append(np.nextafter(10.0**k, 0))
    for k in range(1, 17):
        values += [10.0**k - 0.5, 10.0**k - 1, 0.5 * 10.0**-k, 99999999999999999.0 / 10**k]
    rows = np.concatenate([values, np.negative(values)]).reshape(-1, 2)
    assert output._format_rows(rows, (b" ", b" 0\n")) == _per_value(rows, [" ", " 0\n"])


@pytest.mark.parametrize("phi_bar", [1.0, 1000.0])
def test_vtk_data_sections_take_no_fallback(tmp_path, monkeypatch, phi_bar):
    # every chunk of a smooth 64 x 64, p = 2 snapshot goes through the
    # kernel; at phi_bar = 1000 two thirds of its phi' values lie in [1, 5.2)
    mesh, basis = build_structured(64, 64, BOUNDS, "wall", "wall"), nodal_basis(2)
    exact = standing_wave(ModelParams(phi_bar=phi_bar)).exact_solution
    field = nodal_field(mesh, basis, lambda x, y: exact(x, y, 0.015))
    formatted = []
    kernel = output._format_rows
    monkeypatch.setattr(output, "_format_rows", lambda v, t: formatted.append(v.size) or kernel(v, t))
    fallbacks = _count_fallbacks(monkeypatch)
    write_vtk(field, str(tmp_path / "snap.vtk"), phi_bar)
    assert sum(formatted) == field.data.size
    assert fallbacks == []


def test_format_rows_falls_back_per_chunk(monkeypatch):
    # one value the kernel cannot certify sends its whole chunk through ``%``
    fallbacks = _count_fallbacks(monkeypatch)
    rows = np.linspace(-3.0, 7.0, 10).reshape(5, 2)
    assert output._format_rows(rows, (b" ", b" 0\n")) == _per_value(rows, [" ", " 0\n"])
    assert fallbacks == []
    rows[3, 1] = np.inf
    assert output._format_rows(rows, (b" ", b" 0\n")) == _per_value(rows, [" ", " 0\n"])
    assert fallbacks == [10]


def test_vtk_awkward_values_match_per_value_writer(tmp_path):
    # non-finite, signed-zero, subnormal, whole and huge values in phi' and
    # in both momenta; phi_bar + phi' = 1 there, so the velocity shows them
    awkward = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0, 123.25, 1e16, 1e17, 1e300]
    mesh = build_structured(3, 2, BOUNDS, "wall", "wall")
    basis = nodal_basis(2)
    rng = np.random.default_rng(3)
    data = rng.uniform(-0.3, 0.3, (6, 3, 3, 3))
    flat = data.reshape(-1, 3)
    for c in range(3):
        rows = slice(c * len(awkward), (c + 1) * len(awkward))
        flat[rows, 0] = -0.5
        flat[rows, c] = awkward
    field = StateField(data, mesh, basis)
    new = write_vtk(field, str(tmp_path / "new.vtk"), 1.5)
    old = oracles.write_vtk_loop(field, str(tmp_path / "old.vtk"), 1.5)
    assert open(new, "rb").read() == open(old, "rb").read()


def _assert_matches_loop(tmp_path, mesh, basis, seed):
    rng = np.random.default_rng(seed)
    field = StateField(rng.uniform(-0.3, 0.3, (mesh.num_elements, basis.n, basis.n, 3)), mesh, basis)
    new = write_vtk(field, str(tmp_path / "new.vtk"), 1.1)
    old = oracles.write_vtk_loop(field, str(tmp_path / "old.vtk"), 1.1)
    assert open(new, "rb").read() == open(old, "rb").read()


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("bcs", [("wall", "wall"), ("periodic", "wall"), ("wall", "periodic"), ("periodic", "periodic")])
def test_vtk_geometry_matches_per_value_writer(tmp_path, bcs, p):
    # POINTS are joined from per-column x and per-row y strings; offset,
    # non-unit bounds on a mesh with nx != ny keep the two tables apart
    basis = nodal_basis(p)
    for seed, (n, bounds) in enumerate([((3, 2), (-1.5, 2.0, 0.25, 0.75)), ((2, 5), (1e-3, 3.7, -2.2, -0.1))]):
        _assert_matches_loop(tmp_path, build_structured(*n, bounds, *bcs), basis, seed)


def test_vtk_geometry_formats_each_distinct_coordinate_once(monkeypatch):
    calls = []
    fmt = output._fmt
    monkeypatch.setattr(output, "_fmt", lambda v: calls.append(v) or fmt(v))
    nx, ny, p = 5, 3, 3
    output._geometry(build_structured(nx, ny, (-1.5, 2.0, 0.25, 0.75), "wall", "periodic"), nodal_basis(p))
    assert 0 < len(calls) <= (nx + ny) * (p + 1)


def _count_geometry(monkeypatch):
    """The list of the calls that format the mesh sections from now on."""
    calls = []
    geometry = output._geometry
    monkeypatch.setattr(output, "_geometry", lambda *a: calls.append(a) or geometry(*a))
    return calls


def test_vtk_cache_follows_mesh_and_basis(tmp_path, monkeypatch):
    # the mesh sections are reused only for the mesh and basis objects they
    # were formatted from; every switch of either must format them anew
    calls = _count_geometry(monkeypatch)
    meshes = [build_structured(3, 2, BOUNDS, "wall", "wall"), build_structured(2, 5, BOUNDS, "periodic", "wall")]
    bases = [nodal_basis(1), nodal_basis(3)]
    order = [(0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (0, 1), (0, 0), (1, 1), (0, 0)]
    for seed, (m, b) in enumerate(order):
        _assert_matches_loop(tmp_path, meshes[m], bases[b], seed)
    assert len(calls) == 7


def test_vtk_cache_equal_mesh_new_object(tmp_path, monkeypatch):
    # a mesh equal in value but not the cached object is formatted again
    calls = _count_geometry(monkeypatch)
    basis = nodal_basis(2)
    _assert_matches_loop(tmp_path, build_structured(4, 3, BOUNDS, "wall", "wall"), basis, 0)
    _assert_matches_loop(tmp_path, build_structured(4, 3, BOUNDS, "wall", "wall"), basis, 1)
    assert len(calls) == 2


def test_run_formats_geometry_once(tmp_path, monkeypatch):
    calls = _count_geometry(monkeypatch)
    text = (
        "case.name = standing_wave\ntime.dt = 0.01\ntime.t_final = 0.06\nmesh.nx = 3\nmesh.ny = 2\n"
        "disc.order = 2\noutput.vtk_every_n_steps = 2\noutput.dir = {out}\n"
    )
    for n in range(2):
        result = run(parse_text(text.format(out=tmp_path / str(n))), quiet=True)
        assert len(result.vtk_paths) == 4
        assert len(calls) == n + 1


def test_vtk_unwritable_path(tmp_path):
    mesh = build_structured(1, 1, BOUNDS, "wall", "wall")
    basis = nodal_basis(1)
    field = StateField(np.zeros((1, 2, 2, 3)), mesh, basis)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    with pytest.raises(OSError):
        write_vtk(field, str(blocker / "x.vtk"), 1.0)


def test_csv_writer_deterministic(tmp_path):
    def make(path):
        w = CsvSeriesWriter(str(path))
        w.add(0, 0.0, 1.0, 0.5, np.array([1e-3, 2e-3, 3e-3]))
        w.add(1, 0.1, 1.0 + 1e-15, 0.49, np.array([1.1e-3, 2.1e-3, 3.1e-3]))
        return w.write()

    a = make(tmp_path / "a.csv")
    b = make(tmp_path / "b.csv")
    assert open(a, "rb").read() == open(b, "rb").read()
    header = open(a).readline().strip()
    assert header == "step,t,mass,energy,l2_phi,l2_u,l2_v"
