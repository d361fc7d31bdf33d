"""Legacy ASCII VTK snapshots and CSV time series.

The VTK writer emits an unstructured grid whose points are all element GLL
nodes and whose cells are the p x p quad subcells of each element, with
phi' as point scalars and the velocity (U/phi, V/phi, 0) as point vectors.
Numbers are printed with 17 significant digits so files round-trip float64
exactly and repeated runs are byte-identical.
"""

import os

import numpy as np

from .mesh import gll_node_coords


def _fmt(value):
    return f"{value:.17g}"


def _rows(fmt, values):
    """Format every row of ``values`` with ``fmt`` in one pass."""
    return fmt * len(values) % tuple(values.ravel().tolist())


def write_vtk(field, mesh, basis, path, phi_bar, title="swemix snapshot"):
    """Write one state snapshot as a legacy ASCII VTK unstructured grid."""
    n1, p = basis.n, basis.order
    coords = gll_node_coords(mesh, basis).reshape(-1, 2)
    npoints = coords.shape[0]
    ncells = mesh.num_elements * p**2

    # lower-left node of every subcell, element-major then (j, i); the
    # corners go counter-clockwise from there
    jj, ii = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    a = (np.arange(mesh.num_elements)[:, None] * n1 * n1 + (jj * n1 + ii).ravel()).ravel()
    cells = np.stack([a, a + 1, a + n1 + 1, a + n1], axis=1)

    flat = field.data.reshape(-1, 3)
    velocity = flat[:, 1:] / (phi_bar + flat[:, :1])
    text = "".join(
        [
            f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n",
            f"POINTS {npoints} double\n",
            _rows("%.17g %.17g 0\n", coords),
            f"CELLS {ncells} {5 * ncells}\n",
            _rows("4 %d %d %d %d\n", cells),
            f"CELL_TYPES {ncells}\n",
            "9\n" * ncells,
            f"POINT_DATA {npoints}\nSCALARS phi_prime double\nLOOKUP_TABLE default\n",
            _rows("%.17g\n", flat[:, 0]),
            "VECTORS velocity double\n",
            _rows("%.17g %.17g 0\n", velocity),
        ]
    )

    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
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
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        with open(self.path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(self.rows) + "\n")
        return self.path
