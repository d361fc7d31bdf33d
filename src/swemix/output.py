"""Legacy ASCII VTK snapshots and CSV time series.

The VTK writer emits an unstructured grid whose points are all element GLL
nodes and whose cells are the p x p quad subcells of each element, with
phi' as point scalars and the velocity (U/phi, V/phi, 0) as point vectors.
POINTS and the CSV print numbers as ``%.17g``, the two data sections as
``% .16e``: 17 significant digits, so files round-trip float64 exactly and
repeated runs are byte-identical.  Files are written in binary mode, so the
bytes, "\\n" line ends included, are the same on every platform.  No CSV
or VTK writer makes directories: their callers make ``output.dir`` first.

The POINTS, CELLS and CELL_TYPES sections depend only on the mesh and the
basis: they are formatted once, POINTS from the (nx + ny)(p + 1) distinct
coordinates, and kept for the last mesh and basis objects (1.2 MB for
64 x 64 elements at p = 2), also after the run that wrote them has ended.
Each snapshot writes its data sections in chunks of rows.

``_format_rows`` makes the bytes of ``f"{x: .16e}"`` for a whole chunk at
once.  From log10, corrected against a table of the least double at
or above each power of ten, it finds each value's decimal exponent e, and
computes N = |x| 10**(16 - e) by Dekker's double-double product; the 17
digits of N, rounded, come as four-digit words from a table into one
fixed-width byte matrix.  A chunk holding a value the kernel cannot certify
goes through ``bytes %`` whole: non-finite values, |x| outside
[1e-99, 1e100), and scaled values within 1e-6 of a rounding tie.
"""

import functools

import numpy as np

from .mesh import gll_node_coords

# rows formatted per string; bounds the text held at once
_CHUNK = 4096

# (mesh, basis, geometry bytes) of the last snapshot; holding the objects
# keeps their ids from being reused while the entry matches them by ``is``
_cached = None

# the tables' index is e + _E, for e from -_E to _E + 16: the exponents of [1e-99, 1e100), a margin, and 16 minus them
_E = 102


@functools.cache
def _tables():
    """The kernel's tables, built on its first call: 10**(16 - e) as
    double-double (hi, lo) pairs and the least double >= 10**(16 - e), at
    index e + _E; the digit words "0000" ... "9999" as native uint32 of
    four ASCII bytes."""
    hi, lo = [], []
    for e in range(-_E, _E + 17):
        # 10**(16 - e) = num / den; int / int rounds correctly, so hi + lo is it to 2**-106
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        h, h_den = (num / den).as_integer_ratio()
        hi.append(h / h_den)
        lo.append((num * h_den - h * den) / (den * h_den))
    words = (np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    hi, lo = np.array(hi), np.array(lo)
    return hi, lo, np.where(lo > 0, np.nextafter(hi, np.inf), hi), words.view(np.uint32).ravel()


def _fmt(value):
    return f"{value:.17g}"


def _split(v):
    """Dekker's split of ``v`` into two halves of at most 26 bits each."""
    c = v * 134217729.0
    high = c - (c - v)
    return high, v - high


def _percent_rows(values, tails):
    """What ``_format_rows`` returns, made by ``bytes %``."""
    row = b"".join(b"% .16e" + tail for tail in tails)
    return (row * len(values)) % tuple(values.ravel().tolist())


def _format_rows(values, tails):
    """The ASCII bytes of every row of the float64 array ``values`` (n, m),
    each value as ``f"{x: .16e}"`` followed by ``tails[j]`` in column j."""
    pow_hi, pow_lo, least, digit_words = _tables()
    x = values.ravel()
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= 1e-99) & (a < 1e100)
    # zeros and the values left to ``%`` go through as 1; zeros get N = 0
    a = np.where(ok, a, 1.0)

    # decimal exponent: log10 may miss by one next to a power of ten, so
    # compare with the least doubles >= 10**(e + 1) and >= 10**e
    e = np.floor(np.log10(a)).astype(np.int64)
    e += a >= least[15 - e + _E]
    e -= a < least[16 - e + _E]

    # |x| 10**(16 - e) = p + t to ~1e-14; p >= 2**53 is a whole number
    hi, lo = pow_hi[e + _E], pow_lo[e + _E]
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    t = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo
    whole = np.floor(t)
    frac = t - whole
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    # N in [1e16, 1e17) rounds to 1e17 at most, which carries into the
    # exponent; a scaled value too close to a rounding tie cannot be certified
    ok &= np.abs(frac - 0.5) > 1e-6
    if not np.all(ok | zero):
        return _percent_rows(values, tails)
    e += n == 10**17
    n = np.where(zero, 0, np.where(n == 10**17, 10**16, n))

    # each value is 23 bytes: sign or space, lead digit, point, 16 digits
    # as four words, "e", exponent sign and two exponent digits; N splits
    # into N // 10**8 < 10**9 and N % 10**8, so int32 from there
    top, low = (n // 10**8).astype(np.int32), (n % 10**8).astype(np.int32)
    words = np.stack([top // 10**4 % 10**4, top % 10**4, low // 10**4, low % 10**4], axis=1)
    cells = np.empty((len(x), 23), np.uint8)
    cells[:, 0] = np.where(np.signbit(x), ord("-"), ord(" "))
    cells[:, 1] = top // 10**8 + 48
    cells[:, 2] = ord(".")
    cells[:, 3:19] = digit_words[words].view(np.uint8)
    cells[:, 19] = ord("e")
    cells[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    cells[:, 21:] = digit_words[np.abs(e)].view(np.uint8).reshape(-1, 4)[:, 2:]
    cells = cells.reshape(len(values), len(tails), 23)
    parts = []
    for j, tail in enumerate(tails):
        parts += [cells[:, j], np.broadcast_to(np.frombuffer(tail, np.uint8), (len(values), len(tail)))]
    return np.concatenate(parts, axis=1).tobytes()


def _rows(format_chunk, values):
    """The ASCII bytes ``format_chunk`` makes of each chunk of at most
    ``_CHUNK`` rows of ``values``."""
    for start in range(0, len(values), _CHUNK):
        yield format_chunk(values[start : start + _CHUNK])


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
            *_rows(lambda part: (b"4 %d %d %d %d\n" * len(part)) % tuple(part.ravel().tolist()), cells),
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
        fh.writelines(_rows(lambda v: _format_rows(v, (b"\n",)), flat[:, :1]))
        fh.write(b"VECTORS velocity double\n")
        fh.writelines(_rows(lambda v: _format_rows(v, (b" ", b" 0\n")), velocity))
    return path


class CsvSeriesWriter:
    """Accumulate one diagnostics row per step and write deterministically."""

    DIAGNOSTICS = ("mass", "energy", "l2_phi", "l2_u", "l2_v")

    def __init__(self, path):
        self.path = path
        self.rows = [",".join(("step", "t") + self.DIAGNOSTICS)]

    def add(self, step, t, mass, energy, errors):
        row = [str(step), _fmt(t), _fmt(mass), _fmt(energy)] + [_fmt(v) for v in errors]
        self.rows.append(",".join(row))

    def write(self):
        with open(self.path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(self.rows) + "\n")
        return self.path
