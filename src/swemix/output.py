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

The data sections are formatted by ``_format_rows``, which returns exactly
the bytes of ``f"{x:.17g}"`` for whole chunks of values at once.  It finds
each value's decimal exponent e from log10, corrected by one where the
scaled value falls outside [1e16, 1e17), and computes N = |x| 10**(16 - e)
in double-double arithmetic: Dekker's exact product with a table of 10**k
as (hi, lo) pairs built exactly from integers.  N, rounded to an integer,
gives the 17 digits as four-digit words from a table.  Each value fills 32
fixed byte columns: sign, "0.000" prefix, lead digit, point, 16 digits
with trailing zeros NUL, exponent and tail; fixed notation with e >= 0
moves the point after digit e.  One mask drops the NUL bytes.  Zeros are
laid out directly.  The values whose rounding the kernel cannot certify
fall back to ``_fmt`` one at a time: non-finite values, |x| outside
(1e-280, 1e280), subnormals included, scaled values within 1e-6 of a
rounding tie, exact ties included, and the few whose exponent estimate is
one off.  A smooth field has next to none (0 of 331,776 values in three
64 x 64, p = 2 standing-wave snapshots).  Fixed notation is laid out by
the kernel, not left to ``_fmt``: one ``_fmt`` call and row write per value
is slower than ``%`` over a whole chunk, so a field of values of order one,
such as phi' at a large phi_bar, would write slower than with ``%`` alone.
The fallback is internal: it is neither an option nor a second writer.
"""

import functools

import numpy as np

from .mesh import gll_node_coords

# rows formatted per string; bounds the text held at once
_CHUNK = 4096

# (mesh, basis, geometry bytes) of the last snapshot; holding the objects
# keeps their ids from being reused while the entry matches them by ``is``
_cached = None

# decimal exponents e the kernel handles, with margin: |x| in (1e-280, 1e280)
_E = 284


def _u64(strings):
    """Each string, of at most 8 ASCII bytes with NUL for unused ones, as
    one native uint64; OR-ing such words merges their bytes."""
    return np.array([s.encode("ascii") for s in strings], "S8").view(np.uint64)


@functools.cache
def _tables():
    """The kernel's tables, built on its first call.  Per decimal exponent e
    in [-_E, _E], at index e + _E: 10**(16 - e) as double-double (hi, lo)
    pairs; row bytes 0-7 with the "0.000" prefix of ``%.17g`` in bytes 1-5;
    row bytes 24-31 with the exponent in 24-28.  Then the digit words
    "0000" ... "9999" as four ASCII bytes each, in native uint32 order:
    first with trailing zeros NUL, then whole at index w + 10**4."""
    hi, lo, prefix, exp = [], [], [], []
    for e in range(-_E, _E + 1):
        k = 16 - e
        if k >= 0:
            n = 10**k
            h = float(n)
            lo.append(float(n - int(h)))
        else:
            d = 10**-k
            h = 1 / d
            num, den = h.as_integer_ratio()
            lo.append((den - num * d) / (den * d))
        # int -> float and int / int are correctly rounded, so hi + lo is
        # 10**k to 2**-106 relative
        hi.append(h)
        prefix.append("\0" + ("0." + "0" * (-e - 1) if -4 <= e < 0 else ""))
        exp.append("" if -4 <= e < 17 else f"e{e:+03d}")
    w = np.arange(10**4, dtype=np.uint16)[:, None]
    place = np.array([10**4, 10**3, 10**2, 10], np.uint16)
    rem = w % place
    whole = (rem // (place // 10) + 48).astype(np.uint8)
    # a digit is a trailing zero when it and every later digit are zero
    words = np.concatenate([whole * (rem != 0), whole]).view(np.uint32).ravel()
    return np.array(hi), np.array(lo), _u64(prefix), _u64(exp), words


# row bytes 0-7: the sign in byte 0; the lead digit d in byte 6, with the
# point in byte 7 at index 2 d + 1
_SIGN = _u64(["", "-"])
_LEAD = _u64(["\0" * 6 + str(d) + point for d in range(10) for point in ("", ".")])


def _fmt(value):
    return f"{value:.17g}"


def _split(v):
    """Dekker's split of ``v`` into two halves of at most 26 bits each."""
    c = v * 134217729.0
    high = c - (c - v)
    return high, v - high


def _format_rows(values, tails):
    """The ASCII bytes of every row of the float64 array ``values`` (n, m),
    each value as ``f"{x:.17g}"`` followed by ``tails[j]`` in column j, a
    tail of at most 3 bytes."""
    pow_hi, pow_lo, prefix, exp, digit_words = _tables()
    x = values.ravel()
    a = np.abs(x)
    ok = (a > 1e-280) & (a < 1e280)
    a = np.where(ok, a, 1.0)

    # decimal exponent: log10 may miss by one next to a power of ten
    e = np.floor(np.log10(a)).astype(np.int64)
    scaled = a * pow_hi[e + _E]
    e += scaled >= 1e17
    e -= scaled < 1e16

    # |x| 10**(16 - e) = p + t to ~1e-14; p >= 2**53 is a whole number
    hi, lo = pow_hi[e + _E], pow_lo[e + _E]
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    t = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo
    whole = np.floor(t)
    frac = t - whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    up = frac > 0.5
    # N outside [1e16, 1e17) means e was one off: left to ``_fmt``, as are
    # scaled values too close to a rounding tie to certify
    ok &= (n >= 10**16) & (n + up < 10**17) & (np.abs(frac - 0.5) > 1e-6)
    n += up
    # zeros, and the values left to ``_fmt``, are laid out as "0"
    n = np.where(ok, n, 0)
    e = np.where(ok, e, 0)

    # each value is 32 bytes: sign, "0.000" prefix, lead digit, point, 16
    # digits as four words, exponent, tail; NUL bytes are dropped at the end
    mat = np.zeros((len(values), len(tails), 32), np.uint8)
    rows = mat.reshape(-1, 32)
    row64, row32 = rows.view(np.uint64), rows.view(np.uint32)
    lead, rest = np.divmod(n, 10**16)
    high, low = np.divmod(rest, 10**8)
    words = [*np.divmod(high, 10**4), *np.divmod(low, 10**4)]
    # a word keeps its trailing zeros when a later word is nonzero
    later = np.zeros(len(x), bool)
    for i in (3, 2, 1, 0):
        row32[:, 2 + i] = digit_words[words[i] + later * 10**4]
        later |= words[i] != 0
    # the point follows the lead digit, unless a "0.000" prefix holds it
    point = later & ~((e >= -4) & (e < 0))
    row64[:, 0] = _SIGN[np.signbit(x).view(np.uint8)] | prefix[e + _E] | _LEAD[2 * lead + point]
    tail = _u64(["\0" * 5 + t.decode("ascii") for t in tails])
    mat.view(np.uint64)[..., 3] = exp[e + _E].reshape(mat.shape[:2]) | tail

    # fixed notation with e >= 0: the point moves after digit e, and the
    # zeros before it come back
    fixed = np.flatnonzero((e >= 0) & (e <= 16) & (n != 0))
    if len(fixed):
        # the 17 digits, trailing zeros NUL, and the empty exponent byte
        digits = rows[fixed][:, [6, *range(8, 25)]]
        k = e[fixed, None]
        cols = np.arange(18)
        after = np.take_along_axis(digits, k + 1, axis=1) != 0
        moved = np.where(cols == k + 1, after * np.uint8(46), np.roll(digits, 1, axis=1))
        rows[fixed, 6:24] = np.where(cols <= k, np.where(digits == 0, np.uint8(48), digits), moved)

    fallback = np.flatnonzero(~ok & (x != 0.0))
    for i, value in zip(fallback.tolist(), x[fallback].tolist()):
        text = _fmt(value).encode("ascii")
        rows[i, :29] = 0
        rows[i, : len(text)] = np.frombuffer(text, np.uint8)
    return mat[mat != 0].tobytes()


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
