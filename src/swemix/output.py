"""Legacy ASCII VTK snapshots and CSV time series.

The VTK writer emits an unstructured grid whose points are all element GLL
nodes and whose cells are the p x p quad subcells of each element, with
phi' as point scalars and the velocity (U/phi, V/phi, 0) as point vectors.
Numbers are printed with 17 significant digits so files round-trip float64
exactly and repeated runs are byte-identical.

The POINTS, CELLS and CELL_TYPES sections depend only on the mesh and the
basis, so they are formatted once and reused while later snapshots carry the
same mesh and basis objects.  A node's x depends only on its element column
and x node index, its y only on its element row and y node index, so POINTS
formats each of these (nx + ny)(p + 1) distinct coordinates once and joins
every line from their strings.  CELLS keep ``%d`` over all point indices: a
table of index strings measured slower.  Only the last mesh's geometry is
kept (1.2 MB of text for 64 x 64 elements at p = 2 on the unit square); it
stays in memory, with that mesh and basis, until a snapshot of another mesh
or basis replaces it, also after the run that wrote it has ended.  Each
snapshot formats only its two data sections, in chunks of rows written as
they are made, so no whole-file string is ever held.  Files are written in
binary mode: the bytes, "\\n" line ends included, are the same on every
platform.  Neither writer makes directories: ``driver.run`` makes
``output.dir`` before its first step.
"""

import numpy as np

from .mesh import gll_node_coords

# rows formatted per string; bounds the text held at once
_CHUNK = 4096

# (mesh, basis, geometry bytes) of the last snapshot; holding the objects
# keeps their ids from being reused while the entry matches them by ``is``
_cached = None


def _fmt(value):
    return f"{value:.17g}"


def _rows(fmt, values):
    """Format every row of ``values`` with ``fmt``, yielding ASCII bytes of
    at most ``_CHUNK`` rows each."""
    for start in range(0, len(values), _CHUNK):
        part = values[start : start + _CHUNK]
        yield (fmt * len(part) % tuple(part.ravel().tolist())).encode("ascii")


def _points(mesh, basis):
    """The POINTS lines as ASCII bytes, one element row per chunk."""
    coords = gll_node_coords(mesh, basis)
    # x of element column ix, x node i; y of element row iy, y node j
    xs = [[_fmt(x) for x in row] for row in coords[: mesh.nx, 0, :, 0].tolist()]
    for ys in coords[:: mesh.nx, :, 0, 1].tolist():
        # points run element by element along the row, then (j, i)
        ends = [f" {_fmt(y)} 0\n" for y in ys]
        yield "".join([x + end for row in xs for end in ends for x in row]).encode("ascii")


def _geometry(mesh, basis):
    """The POINTS, CELLS and CELL_TYPES sections as ASCII bytes."""
    n1, p = basis.n, basis.order
    ncells = mesh.num_elements * p**2

    # lower-left node of every subcell, element-major then (j, i); the
    # corners go counter-clockwise from there
    jj, ii = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    a = (np.arange(mesh.num_elements)[:, None] * n1 * n1 + (jj * n1 + ii).ravel()).ravel()
    cells = np.stack([a, a + 1, a + n1 + 1, a + n1], axis=1)
    return b"".join(
        [
            f"POINTS {mesh.num_elements * n1 * n1} double\n".encode("ascii"),
            *_points(mesh, basis),
            f"CELLS {ncells} {5 * ncells}\n".encode("ascii"),
            *_rows("4 %d %d %d %d\n", cells),
            f"CELL_TYPES {ncells}\n".encode("ascii"),
            b"9\n" * ncells,
        ]
    )


def write_vtk(field, path, phi_bar):
    """Write one state snapshot as a legacy ASCII VTK unstructured grid, on
    the mesh and basis the field carries, into an existing directory;
    returns ``path``."""
    global _cached
    mesh, basis = field.mesh, field.basis
    if _cached is None or _cached[0] is not mesh or _cached[1] is not basis:
        _cached = (mesh, basis, _geometry(mesh, basis))
    flat = field.data.reshape(-1, 3)
    velocity = flat[:, 1:] / (phi_bar + flat[:, :1])

    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 3.0\nswemix snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(_cached[2])
        fh.write(f"POINT_DATA {len(flat)}\nSCALARS phi_prime double\nLOOKUP_TABLE default\n".encode("ascii"))
        fh.writelines(_rows("%.17g\n", flat[:, 0]))
        fh.write(b"VECTORS velocity double\n")
        fh.writelines(_rows("%.17g %.17g 0\n", velocity))
    return path


class CsvSeriesWriter:
    """Accumulate one diagnostics row per step and write deterministically."""

    def __init__(self, path, with_errors):
        self.path = path
        self.with_errors = with_errors
        header = ["step", "t", "mass", "energy"]
        if with_errors:
            header += ["l2_phi", "l2_u", "l2_v"]
        self.rows = [",".join(header)]

    def add(self, step, t, mass, energy, errors=None):
        row = [str(step), _fmt(t), _fmt(mass), _fmt(energy)]
        if self.with_errors:
            row += [_fmt(v) for v in errors]
        self.rows.append(",".join(row))

    def write(self):
        with open(self.path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(self.rows) + "\n")
        return self.path
