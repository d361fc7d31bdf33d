"""Hybridized DG solver for the implicit gravity-wave stage system.

Each implicit stage requires (M + a L) q = M r where L is the weak
divergence of the linear flux and ``a`` is the stage-scaled time step.
The hybridized form introduces a single-valued scalar trace lambda on the
face skeleton approximating phi', with numerical fluxes

    continuity:  U.n + tau (phi' - lambda)
    momentum:    phi_bar * lambda * n

Element unknowns are ordered as :class:`swemix.dg.StateField` stores them:
node by node in the flattened (jy, ix) order, the three components
(phi', U, V) of a node adjacent, so the flat index of component c at node
(jy, ix) is (jy (p+1) + ix) 3 + c.  Eliminating them element by element
against the transmission condition (the continuity flux sums to zero over
each face; on walls it vanishes outright, which enforces U.n = 0 weakly)
leaves the condensed trace system

    H lambda = g,     H = sum_K (D_K - C_K A_K^-1 B_K).

On the uniform structured meshes produced by :mod:`swemix.mesh` every
element shares one set of local blocks, so the whole condensation is a
fixed linear map.  A^-1 M and A^-1 B are formed once per shift; a solve is
then one batched product for the forward pass, a scatter onto the trace,
the trace solve, and one batched product for the back-substitution.

H is symmetric and -H is positive definite for every alpha_dt > 0 and
tau > 0.  The direct backend solves it exactly and never assembles it: in
a basis of per-axis modes H is block-diagonal, one small negative definite
block per mode, so a solve is a forward transform, one batched block
product and the synthesis.  A periodic axis takes the DFT, applied by
``np.fft``.  A wall axis is the even extension of a periodic one: phi' is
even across a wall, and a face along the axis is mirrored with its node
order reversed.  So the faces across a wall axis take a DCT-I, and the
faces along it a DCT-II on the even part and a DST-II on the odd part of
their node vectors, applied by GEMM.  The one solve covers all four
boundary pairs.  The gmres backend iterates on H applied element by
element, from the same Schur block, and never assembles it either; its
block-Jacobi preconditioner forms only the distinct face blocks, at most
six.  Both read each face family of the trace as the mesh stores it, a
(face lines, cells, p+1) grid, with no transposes.

Only the gmres backend needs SciPy, and :func:`load_backend` imports it for
that backend alone, so a direct run uses NumPy only.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import element_operators
from .dg import StateField
from .errors import AssemblyError, InvalidArgumentError, SolverFailureError
from .mesh import EAST, NORTH, PERIODIC, SIDE_NORMALS, SOUTH, WEST

BACKENDS = ("direct", "gmres")  # trace solvers of condense_and_factor


def load_backend(name):
    """Check the trace-solver backend ``name`` and return what it needs:
    the ``scipy.sparse.linalg`` module for gmres, None for direct.  The
    only SciPy import of the package."""
    if name not in BACKENDS:
        choices = " or ".join(map(repr, BACKENDS))
        raise InvalidArgumentError(f"unknown solver backend {name!r}; must be {choices}")
    if name == "direct":
        return None
    import scipy.sparse.linalg

    return scipy.sparse.linalg


@dataclass
class TraceField:
    """Nodal trace values (one row of p+1 values per geometric face)."""

    data: np.ndarray


@dataclass
class LocalBlocks:
    """Element-local operators of the condensed solve, shared by all
    elements of a uniform mesh (M is the block mass matrix)."""

    forward: np.ndarray  # rows [A^-1 M; -C A^-1 M]: r -> (A^-1 M r, trace share)
    A_inv_B: np.ndarray
    schur: np.ndarray  # D - C A^-1 B


def local_matrices(mesh, basis, params, alpha_dt, tau):
    """Element matrices of the coupled (q, lambda) system.

    Returns ``(mass3, A, B, C, D)``.  The element equations read
    A q + B lambda = diag(mass3) r: A couples the element unknowns to
    themselves (flux terms taken at lambda = 0) and B carries the lambda
    dependence.  C q + D lambda is the element's share of the transmission
    condition.
    """
    if alpha_dt <= 0.0 or tau <= 0.0:
        raise AssemblyError(f"need alpha_dt > 0 and tau > 0, got {alpha_dt}, {tau}")
    ops = element_operators(basis, mesh.hx, mesh.hy)
    n1 = basis.n
    nn = n1 * n1
    a = alpha_dt
    phi_bar = params.phi_bar

    A = np.zeros((3 * nn, 3 * nn))
    B = np.zeros((3 * nn, 4 * n1))
    C = np.zeros((4 * n1, 3 * nn))
    D = np.zeros((4 * n1, 4 * n1))

    sl = [slice(c, None, 3) for c in range(3)]
    mass = np.diag(ops.mass_diag)
    A[sl[0], sl[0]] = mass
    A[sl[1], sl[1]] = mass
    A[sl[2], sl[2]] = mass
    A[sl[0], sl[1]] = -a * ops.weak_dx
    A[sl[0], sl[2]] = -a * ops.weak_dy
    A[sl[1], sl[0]] = -a * phi_bar * ops.weak_dx
    A[sl[2], sl[0]] = -a * phi_bar * ops.weak_dy

    for side in range(4):
        nx, ny = SIDE_NORMALS[side]
        lift = ops.face_lift[side]  # (nn, n1), includes face weights
        nodes = ops.face_nodes[side]
        trace = np.zeros((nn, nn))  # lifts the element's own values on this side
        trace[nodes, nodes] = ops.face_weights[side]
        cols = slice(side * n1, (side + 1) * n1)
        A[sl[0], sl[0]] += a * tau * trace
        A[sl[0], sl[1]] += a * nx * trace
        A[sl[0], sl[2]] += a * ny * trace
        B[sl[0], cols] = -a * tau * lift
        B[sl[1], cols] = a * phi_bar * nx * lift
        B[sl[2], cols] = a * phi_bar * ny * lift
        C[cols, sl[0]] = tau * lift.T
        C[cols, sl[1]] = nx * lift.T
        C[cols, sl[2]] = ny * lift.T
        D[cols, cols] = -tau * np.diag(ops.face_weights[side])

    return np.repeat(ops.mass_diag, 3), A, B, C, D


def assemble_local(mesh, basis, params, alpha_dt, tau):
    """Solve the element matrix A once against [M | B] and precompute the
    operators the condensed solve applies."""
    mass3, A, B, C, D = local_matrices(mesh, basis, params, alpha_dt, tau)
    try:
        A_inv_MB = np.linalg.solve(A, np.hstack([np.diag(mass3), B]))
    except np.linalg.LinAlgError:
        raise AssemblyError("singular element matrix; check alpha_dt and tau") from None
    # A^-1 B is stored column-major: the back-substitution reads it
    # transposed, and that GEMM is a few percent faster so on small meshes
    A_inv_M, A_inv_B = A_inv_MB[:, : len(mass3)], np.asfortranarray(A_inv_MB[:, len(mass3) :])
    return LocalBlocks(
        forward=np.vstack([A_inv_M, -(C @ A_inv_M)]),
        A_inv_B=A_inv_B,
        schur=D - C @ A_inv_B,
    )


def _trace_ids(mesh, n1):
    """Global trace dof per (element, side-major face node)."""
    ids = mesh.elem_faces[:, :, None] * n1 + np.arange(n1)
    return ids.reshape(mesh.num_elements, 4 * n1)


@dataclass
class CondensedSystem:
    """The element operators of the forward pass and the back-substitution,
    and ``solve``, the one function that applies H^-1 for the backend chosen
    at set-up.  No backend assembles H.  ``stored_bytes`` counts the arrays
    the trace solve holds: the inverse mode blocks and the wall-axis
    transform matrices (a periodic axis holds none), or the block-Jacobi
    inverses of the distinct face blocks, the only ones the set-up forms."""

    blocks: LocalBlocks
    elem_trace_ids: np.ndarray
    solve: Callable
    stored_bytes: int

    def solve_trace(self, g):
        return self.solve(g)


# What an element side sees of a mode along one axis: the mode at the
# cell's low or high face across the axis, or at the cell itself, for the
# faces along the axis (one view per node of the parity basis, from _CELL).
_LOW, _HIGH, _CELL = 0, 1, 2
_X_SEES = (_CELL, _HIGH, _CELL, _LOW)  # south, east, north, west
_Y_SEES = (_LOW, _CELL, _HIGH, _CELL)


@dataclass
class _Axis:
    """One axis of n cells in the mode basis of the direct solve.

    A wall axis holds its mode matrices and applies them by GEMM: ``faces``
    (n+1, n+1), cos(pi k i / n) at the faces across it, and ``cells``
    (n (p+1), (n+1) (p+1)), cos and sin of pi k (i + 1/2) / n on the J-even
    and J-odd node vectors of the faces along it.  A periodic axis holds
    none and is applied by ``np.fft``, keeping only the ``rfft``
    wavenumbers k <= n/2 when ``half`` is set.  A face family is passed as
    stored, a 2-D array: ``axis`` 0 runs over the face lines across this
    axis, ``axis`` 1 over the cells along it, p+1 nodes each.
    """

    n: int
    n1: int
    half: bool
    faces: Optional[np.ndarray] = None
    cells: Optional[np.ndarray] = None

    @classmethod
    def build(cls, n, bc, half, n1):
        """The axis and what the blocks need of it: ``(axis, gram, parity,
        absent)``.

        ``parity`` (p+1, p+1) is the node basis of a face along the axis:
        J-even then J-odd vectors on a wall axis, the identity on a
        periodic one.  ``gram`` (K, p+3, p+3) sums over the cells the
        products of what a cell sees of two modes: its low face, its high
        face, and the cell at each parity node.  ``absent`` (K, p+1) marks
        the modes that do not exist, by index: on a wall axis the sine at
        k = 0 and the cell cosine at k = n, whose column is zeroed (it
        evaluates to 6e-17).
        """
        if bc == PERIODIC:
            k = np.arange(n // 2 + 1 if half else n)
            faces = np.exp(2j * np.pi * np.outer(np.arange(n), k) / n)
            cells = np.broadcast_to(faces, (n1,) + faces.shape)
            parity, absent = np.eye(n1), np.zeros((k.size, n1), bool)
            axis = cls(n, n1, half)
        else:
            k = np.arange(n + 1)
            faces = np.cos(np.pi * np.outer(k, k) / n)
            at_cells = np.pi * np.outer(np.arange(n) + 0.5, k) / n
            eye, flip, odd = np.eye(n1), np.eye(n1)[::-1], n1 // 2
            parity = np.hstack([(eye + flip)[:, : n1 - odd], (eye - flip)[:, :odd]])
            cells = np.array([np.cos(at_cells)] * (n1 - odd) + [np.sin(at_cells)] * odd)
            cells[: n1 - odd, :, n] = 0.0
            absent = np.zeros((n + 1, n1), bool)
            absent[n, : n1 - odd] = absent[0, n1 - odd :] = True
            folded = np.einsum("mik,jm->ijkm", cells, parity).reshape(n * n1, -1)
            axis = cls(n, n1, half, faces, folded)
        views = np.concatenate([[faces[:n], np.roll(faces, -1, axis=0)[:n]], cells])
        return axis, np.einsum("aik,bik->kab", views.conj(), views), parity, absent

    def analyse(self, a, axis):
        """V^H along ``axis``; x goes first, so a half spectrum sees real data."""
        if self.faces is not None:
            return self.faces.T @ a if axis == 0 else a @ self.cells
        out = (np.fft.rfft if self.half else np.fft.fft)(a.reshape(len(a), -1, self.n1), axis=axis)
        return out.reshape(len(out), -1)

    def synthesise(self, a, axis):
        """V along ``axis``; y goes first, so a half spectrum ends real."""
        if self.faces is not None:
            return self.faces @ a if axis == 0 else a @ self.cells.T
        a = a.reshape(len(a), -1, self.n1)
        if self.half:
            out = np.fft.irfft(a, self.n, axis=axis, norm="forward")
        else:
            out = np.fft.ifft(a, axis=axis, norm="forward")
        return out.reshape(len(out), -1)


def trace_modes(blocks, mesh, basis):
    """Blocks of H in the per-axis modes of :class:`_Axis`, one 2 (p+1)
    block per mode (ky, kx), which couples one vector of each face family.

    The block sums the family's side blocks of S~ * Y_ky * X_kx, with S~ the
    element Schur complement on the parity-split node vectors and X, Y the
    Gram sums of :meth:`_Axis.build`.  The x axis keeps only the ``rfft``
    wavenumbers when it is periodic, and so does the y axis when x is a
    wall.  An absent mode gets -1 on its diagonal, so every block stays
    negative definite.  The blocks are real on walls, Hermitian otherwise.

    Returns ``(G, x, y)``: G is (Ky, Kx, 2 (p+1), 2 (p+1)), columns ordered
    (horizontal, vertical); x and y are the :class:`_Axis` of each axis.
    """
    n1 = basis.n
    x, gram_x, px, gaps_x = _Axis.build(mesh.nx, mesh.bc_x, True, n1)
    y, gram_y, py, gaps_y = _Axis.build(mesh.ny, mesh.bc_y, mesh.bc_x != PERIODIC, n1)
    split = np.zeros((4, n1, 4, n1))
    for side, parity in enumerate((px, py, px, py)):  # south, east, north, west
        split[side, :, side] = parity
    split = split.reshape(4 * n1, 4 * n1)
    schur = split.T @ blocks.schur @ split

    def sums(gram, sees):
        kind = np.array(sees)[:, None]
        kind = np.where(kind == _CELL, _CELL + np.arange(n1), kind).ravel()
        return gram[:, kind[:, None], kind]

    def pairs(a):
        """(K, 4 (p+1), 4 (p+1)) by (side, node) to (2 (p+1), 2 (p+1), K, 4)
        by (family, node): side s is member s // 2 of family s % 2, south
        and north horizontal, east and west vertical; member pairs last."""
        a = a.reshape(len(a), 2, 2 * n1, 2, 2 * n1)
        return a.transpose(2, 4, 0, 1, 3).reshape(2 * n1, 2 * n1, len(a), 4)

    # each family block of S~ * Y_ky * X_kx sums its member pairs: one
    # (Ky, 4) by (4, Kx) product per node pair
    G = pairs(schur * sums(gram_y, _Y_SEES)) @ pairs(sums(gram_x, _X_SEES)).swapaxes(-1, -2)
    G = G.transpose(2, 3, 0, 1)
    # the horizontal family's cells run along x, the vertical one's along y
    missing = np.concatenate(np.broadcast_arrays(gaps_x[None], gaps_y[:, None]), axis=-1)
    at_ky, at_kx, node = np.nonzero(missing)
    G[at_ky, at_kx, node, node] = -1.0
    return G, x, y


def _mode_solve(blocks, mesh, basis):
    """H^-1 = V G^-1 V^H in the basis V of :func:`trace_modes`, which need
    not be orthogonal.  Each family's analysis and synthesis applies one
    axis after the other.  Returns the solve and the bytes it holds."""
    G, x, y = trace_modes(blocks, mesh, basis)
    try:
        inv = np.linalg.inv(G)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"condensed trace system is singular: {exc}") from exc
    n1 = basis.n
    ky, kx = inv.shape[:2]
    (_, _, ny), (first, _, nx) = mesh.face_families

    def solve(g):
        # each family as the mesh stores it, a (face lines, cells (p+1)) grid
        vert = g[: first * n1].reshape(-1, ny * n1)
        horiz = g[first * n1 :].reshape(-1, nx * n1)
        hat = np.empty((ky, kx, 2, n1), inv.dtype)
        hat[:, :, 0] = y.analyse(x.analyse(horiz, 1), 0).reshape(ky, kx, n1)
        hat[:, :, 1] = y.analyse(x.analyse(vert, 0), 1).reshape(kx, ky, n1).swapaxes(0, 1)
        lam = (inv @ hat.reshape(ky, kx, 2 * n1, 1)).reshape(ky, kx, 2, n1)
        horiz = x.synthesise(y.synthesise(lam[:, :, 0].reshape(ky, -1), 0), 1)
        vert = x.synthesise(y.synthesise(lam[:, :, 1].swapaxes(0, 1).reshape(kx, -1), 1), 0)
        return np.concatenate([vert.ravel(), horiz.ravel()])

    held = [a for axis in (x, y) for a in (axis.faces, axis.cells) if a is not None]
    return solve, inv.nbytes + sum(a.nbytes for a in held)


def condense_and_factor(blocks, mesh, basis, backend="direct", rel_tol=1e-10, max_iter=500):
    """Prepare the trace solve of the chosen backend.

    Neither backend assembles H.  The direct backend is exact: it solves in
    a basis that makes H block-diagonal, one 2 (p+1)-square block per mode
    (:func:`trace_modes`), by ``np.fft`` along a periodic axis and by
    cosine/sine GEMMs along a wall axis.  The gmres backend applies H as
    sum_K P_K^T S P_K, S the element Schur block and P_K the gather of the
    element's trace dofs, and runs restarted GMRES to ``rel_tol`` with a
    block-Jacobi preconditioner; ``max_iter`` counts restart cycles.  A
    face's block depends only on its family and its face line, so the
    set-up forms and inverts only the distinct face blocks
    (:func:`_block_jacobi`), at most six, and applies each family by GEMM.
    """
    linalg = load_backend(backend)
    ids = _trace_ids(mesh, basis.n)
    if backend == "direct":
        solve, stored = _mode_solve(blocks, mesh, basis)
        return CondensedSystem(blocks=blocks, elem_trace_ids=ids, solve=solve, stored_bytes=stored)

    num_faces, n1 = mesh.num_faces, basis.n
    ndof, flat, schur_t = num_faces * n1, ids.ravel(), blocks.schur.T

    def apply(v):
        return np.bincount(flat, weights=(v[ids] @ schur_t).ravel(), minlength=ndof)

    apply_inv, stored = _block_jacobi(blocks.schur, num_faces, n1, mesh)
    H = linalg.LinearOperator((ndof, ndof), matvec=apply, dtype=float)
    precond = linalg.LinearOperator(H.shape, matvec=apply_inv, dtype=float)

    def solve(g):
        lam, info = linalg.gmres(
            H, g, rtol=rel_tol, atol=0.0, restart=30, maxiter=max_iter, M=precond
        )
        if info != 0:
            res = np.linalg.norm(apply(lam) - g) / max(np.linalg.norm(g), 1e-300)
            raise SolverFailureError(
                f"trace GMRES did not converge (info={info}, relative residual {res:.3e})",
                residual=res,
                iterations=info,
            )
        return lam

    return CondensedSystem(blocks=blocks, elem_trace_ids=ids, solve=solve, stored_bytes=stored)


def _block_jacobi(schur, num_faces, n1, mesh):
    """The block-Jacobi preconditioner of H on ``num_faces`` faces of ``n1``
    nodes: each face's diagonal block inverted, applied per face family.
    Returns the apply and the bytes it holds.

    Every element shares one Schur block, so a face's block depends only on
    its family and its face line, and only the distinct ones
    are formed, at most six.  Each sums the Schur sub-blocks (s, t) of the
    element sides on that face, lo and hi being west and east for x, south
    and north for y: (hi, hi) + (lo, lo) on an interior face, and (lo, lo)
    or (hi, hi) alone on a wall axis's low or high end.  A one-cell periodic
    axis wraps an element onto itself, so its face sums all four pairs of
    its two sides, (s, t) ascending; a one-cell wall axis has no interior
    face, and its high end stands in.  Each family is applied as one GEMM
    with the interior block on its (lines * cells, p+1) view, and a wall
    axis's first and last lines, each contiguous, are redone with theirs.
    """
    sub = schur.reshape(4, n1, 4, n1).swapaxes(1, 2)
    families, faces = [], []
    bcs, sides = (mesh.bc_x, mesh.bc_y), ((WEST, EAST), (SOUTH, NORTH))
    for (first, lines, cells), bc, (lo, hi) in zip(mesh.face_families, bcs, sides):
        a, b = sorted((lo, hi))
        inner = sub[a, a] + sub[a, b] + sub[b, a] + sub[b, b] if lines == 1 else sub[hi, hi] + sub[lo, lo]
        held = [inner] if bc == PERIODIC else [inner if lines > 2 else sub[hi, hi], sub[lo, lo], sub[hi, hi]]
        dofs = slice(first * n1, (first + lines * cells) * n1)
        families.append((dofs, (lines, cells, n1), slice(len(faces), len(faces) + len(held))))
        faces += held
    try:
        inv = np.linalg.inv(np.stack(faces))
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("singular face block in preconditioner") from exc

    def apply(v):
        v = v.reshape(-1)
        out = np.empty_like(v)
        for dofs, shape, at in families:
            held, vf, of = inv[at], v[dofs].reshape(shape), out[dofs].reshape(shape)
            np.matmul(vf.reshape(-1, n1), held[0].T, out=of.reshape(-1, n1))
            if len(held) > 1:
                of[0] = vf[0] @ held[1].T
                of[-1] = vf[-1] @ held[2].T
        return out

    return apply, inv.nbytes


def implicit_solve(system, rhs_field):
    """Solve (M + alpha_dt L) q = M r; return the state and the trace.

    One batched product gives every element's A^-1 M r and its share of the
    trace right-hand side; the shares are summed per trace dof, the trace
    system is solved, and one more batched product subtracts A^-1 B lambda.
    """
    blocks = system.blocks
    data, mesh, basis = rhs_field.data, rhs_field.mesh, rhs_field.basis
    if not np.all(np.isfinite(data)):
        raise SolverFailureError("implicit solve right-hand side contains non-finite values")
    nelem, n_vol = data.shape[0], blocks.A_inv_B.shape[0]
    y = data.reshape(nelem, n_vol) @ blocks.forward.T

    ids = system.elem_trace_ids
    ndof = mesh.num_faces * basis.n
    g = np.bincount(ids.ravel(), weights=y[:, n_vol:].ravel(), minlength=ndof)
    lam = system.solve_trace(g)

    q = y[:, :n_vol] - lam[ids] @ blocks.A_inv_B.T
    return (
        StateField(q.reshape(data.shape), mesh, basis),
        TraceField(lam.reshape(-1, basis.n)),
    )


class ImplicitSolverBank:
    """Cache of condensed systems keyed by the exact stage shift alpha*dt.

    Every stage with the same implicit diagonal passes the same float, so a
    scheme with one distinct implicit diagonal triggers exactly one assembly
    per run regardless of step count.  ``num_assemblies`` exposes that for
    tests and diagnostics.
    """

    def __init__(self, mesh, basis, params, tau=None, backend="direct", rel_tol=1e-10, max_iter=500):
        self.mesh = mesh
        self.basis = basis
        self.params = params
        self.tau = params.wave_speed if tau is None else float(tau)
        if self.tau <= 0.0:
            raise InvalidArgumentError(f"stabilization tau must be positive, got {self.tau}")
        self.backend = backend
        self.rel_tol = rel_tol
        self.max_iter = max_iter
        self.num_assemblies = 0
        self._systems = {}

    def system_for(self, alpha_dt):
        system = self._systems.get(alpha_dt)
        if system is None:
            blocks = assemble_local(self.mesh, self.basis, self.params, alpha_dt, self.tau)
            system = condense_and_factor(
                blocks,
                self.mesh,
                self.basis,
                backend=self.backend,
                rel_tol=self.rel_tol,
                max_iter=self.max_iter,
            )
            self.num_assemblies += 1
            self._systems[alpha_dt] = system
        return system

    def solve(self, alpha_dt, rhs_field):
        return implicit_solve(self.system_for(alpha_dt), rhs_field)
