import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from swemix import hdg
from swemix.basis import nodal_basis
from swemix.dg import ExplicitOperator, StateField, nodal_field
from swemix.driver import SplitOperator, energy_proxy
from swemix.errors import AssemblyError, InvalidArgumentError, SolverFailureError
from swemix.hdg import (
    ImplicitSolverBank,
    LocalBlocks,
    assemble_local,
    condense_and_factor,
    implicit_solve,
    _block_jacobi,
    local_matrices,
    trace_modes,
)
from swemix.imex import step, tableau
from swemix.mesh import PERIODIC, WALL, build_structured
from swemix.swe import ModelParams
from swemix.cases import l2_error, standing_wave

P2 = ModelParams(phi_bar=2.0)
BOUNDS = (0.0, 1.0, 0.0, 1.0)


def _rand_field(mesh, basis, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((mesh.num_elements, basis.n, basis.n, 3))
    return StateField(data, mesh, basis)


def test_assemble_local_mass_limit():
    # alpha_dt -> 0: A reduces to the block mass matrix, so A^-1 M r
    # returns r
    mesh = build_structured(1, 1, BOUNDS, WALL, WALL)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 1e-30, P2.wave_speed)
    n_vol = blocks.A_inv_B.shape[0]
    rng = np.random.default_rng(1)
    r = rng.standard_normal(n_vol)
    x = blocks.forward[:n_vol] @ r
    assert np.max(np.abs(x - r)) < 1e-12


def test_assemble_local_rejects_bad_inputs():
    mesh = build_structured(1, 1, BOUNDS, WALL, WALL)
    basis = nodal_basis(1)
    with pytest.raises(AssemblyError):
        assemble_local(mesh, basis, P2, 0.0, 1.0)
    with pytest.raises(AssemblyError):
        assemble_local(mesh, basis, P2, 0.1, -1.0)


@pytest.mark.parametrize("order", [1, 3, 5, 8])
def test_assemble_local_matches_an_lu_reference(order):
    # A^-1 [M | B] by one np.linalg.solve agrees with SciPy's LU of A to
    # round-off; the element blocks do not depend on the boundary kinds
    mesh = build_structured(3, 2, BOUNDS, WALL, PERIODIC)
    basis = nodal_basis(order)
    for alpha in (1e-4, 0.37):
        mass3, A, B, C, D = local_matrices(mesh, basis, P2, alpha, P2.wave_speed)
        lu = scipy.linalg.lu_factor(A)
        A_inv_M = scipy.linalg.lu_solve(lu, np.diag(mass3))
        A_inv_B = scipy.linalg.lu_solve(lu, B)
        blocks = assemble_local(mesh, basis, P2, alpha, P2.wave_speed)
        assert _rel(blocks.forward, np.vstack([A_inv_M, -(C @ A_inv_M)])) <= 1e-12, alpha
        assert _rel(blocks.A_inv_B, A_inv_B) <= 1e-12, alpha
        assert _rel(blocks.schur, D - C @ A_inv_B) <= 1e-12, alpha


def test_singular_element_matrix_raises_assembly_error(monkeypatch):
    mesh = build_structured(1, 1, BOUNDS, WALL, WALL)
    basis = nodal_basis(2)
    mass3, A, B, C, D = local_matrices(mesh, basis, P2, 0.05, 1.0)
    A[:, 0] = 0.0  # an exactly zero pivot
    monkeypatch.setattr(hdg, "local_matrices", lambda *args: (mass3, A, B, C, D))
    with pytest.raises(AssemblyError, match="^singular element matrix; check alpha_dt and tau$"):
        assemble_local(mesh, basis, P2, 0.05, 1.0)


def test_b_and_c_transpose_sparsity():
    mesh = build_structured(1, 1, BOUNDS, WALL, WALL)
    basis = nodal_basis(2)
    _, _, B, C, _ = local_matrices(mesh, basis, P2, 0.05, P2.wave_speed)
    assert np.array_equal(B != 0.0, C.T != 0.0)


def test_single_element_schur_matches_dense_oracle():
    mesh = build_structured(1, 1, BOUNDS, WALL, WALL)
    basis = nodal_basis(1)
    alpha, tau = 0.07, P2.wave_speed
    blocks = assemble_local(mesh, basis, P2, alpha, tau)
    oracle = oracles.MonolithicHdg(mesh, basis, P2, alpha, tau)
    h_oracle = oracle.schur_complement()
    assert h_oracle.shape == (8, 8)
    assert np.max(np.abs(oracles.trace_matrix(blocks, mesh, basis).toarray() - h_oracle)) < 1e-12


def test_trace_system_size():
    for nx, ny, p in ((2, 3, 1), (4, 4, 2), (1, 1, 3)):
        mesh = build_structured(nx, ny, BOUNDS, WALL, WALL)
        basis = nodal_basis(p)
        blocks = assemble_local(mesh, basis, P2, 0.02, 1.0)
        assert oracles.trace_matrix(blocks, mesh, basis).shape == (mesh.num_faces * (p + 1),) * 2


@pytest.mark.parametrize("bc", [WALL, PERIODIC])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_trace_system_is_symmetric_negative_definite(p, bc):
    # the hybridized Schur complement is symmetric and -H is positive
    # definite, so every mode block of the direct solve is invertible
    basis = nodal_basis(p)
    for n in (1, 3):
        mesh = build_structured(n, n, BOUNDS, bc, bc)
        for alpha in (1e-4, 1e-2, 1.0):
            blocks = assemble_local(mesh, basis, P2, alpha, P2.wave_speed)
            H = oracles.trace_matrix(blocks, mesh, basis).toarray()
            assert np.linalg.norm(H - H.T) <= 1e-13 * np.linalg.norm(H)
            assert np.min(np.linalg.eigvalsh(-0.5 * (H + H.T))) > 0.0


def _assert_symmetric_negative_definite(modes, n):
    for h in modes.reshape(-1, n, n):
        assert np.linalg.norm(h - h.conj().T) <= 1e-13 * np.linalg.norm(h)
        assert np.max(np.linalg.eigvalsh(h)) < 0.0


@pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1.0])
def test_direct_backend_blocks_are_symmetric_negative_definite(alpha):
    # on walls the direct backend inverts one real block per (ky, kx) mode:
    # (16 + 1)^2 modes of the two face families' 2 (p+1) coefficients
    mesh = build_structured(16, 16, BOUNDS, WALL, WALL)
    basis = nodal_basis(3)
    blocks = assemble_local(mesh, basis, P2, alpha, P2.wave_speed)
    modes = trace_modes(blocks, mesh, basis)[0]
    assert modes.shape == (17, 17, 8, 8)
    assert modes.dtype == np.float64
    _assert_symmetric_negative_definite(modes, 8)
    # per wall axis and mode line, the sine at k = 0 and the cell cosine at
    # k = n are absent: p+1 rows of -1 on the diagonal and exact zeros
    rows = modes.reshape(-1, 8)
    unit = np.tile(np.eye(8), (17 * 17, 1))
    assert np.count_nonzero(np.all(rows == -unit, axis=1)) == 2 * 17 * 4


PERIODIC_SHAPES = [(1, 1), (1, 4), (2, 3), (5, 4), (8, 8)]
WALL_PAIRS = [(WALL, WALL), (PERIODIC, WALL), (WALL, PERIODIC)]
ALL_PAIRS = WALL_PAIRS + [(PERIODIC, PERIODIC)]


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("bcs", ALL_PAIRS)
@pytest.mark.parametrize("shape, p", [(s, p) for s in PERIODIC_SHAPES for p in (1, 2, 3)] + [((5, 4), 4)])
def test_transform_solve_matches_splu(bcs, shape, p):
    # the direct backend solves by FFT along periodic axes and cosine/sine
    # transforms along wall axes; it must agree with a sparse LU of H
    mesh = build_structured(*shape, BOUNDS, *bcs)
    basis = nodal_basis(p)
    rng = np.random.default_rng(p)
    for alpha in (1e-4, 1e-2, 1.0):
        blocks = assemble_local(mesh, basis, P2, alpha, P2.wave_speed)
        system = condense_and_factor(blocks, mesh, basis)
        lu = scipy.sparse.linalg.splu(oracles.trace_matrix(blocks, mesh, basis))
        g = rng.standard_normal(mesh.num_faces * basis.n)
        assert _rel(system.solve_trace(g), lu.solve(g)) <= 1e-12, alpha


@pytest.mark.parametrize("bcs", ALL_PAIRS)
@pytest.mark.parametrize("shape", PERIODIC_SHAPES)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_mode_blocks_are_symmetric_negative_definite(bcs, shape, p):
    # real symmetric on walls, Hermitian where an axis is periodic; the
    # absent modes (the sine at k = 0, the cell cosine at k = n) hold -1.
    # A wall axis has n + 1 modes, a periodic x axis its n // 2 + 1 rfft
    # wavenumbers, a periodic y axis n, or n // 2 + 1 when x is a wall.
    mesh = build_structured(*shape, BOUNDS, *bcs)
    basis = nodal_basis(p)
    nx, ny = shape
    kx = nx + 1 if bcs[0] == WALL else nx // 2 + 1
    ky = ny + 1 if bcs[1] == WALL else (ny // 2 + 1 if bcs[0] == WALL else ny)
    for alpha in (1e-4, 1e-2, 1.0):
        blocks = assemble_local(mesh, basis, P2, alpha, P2.wave_speed)
        modes = trace_modes(blocks, mesh, basis)[0]
        assert modes.shape == (ky, kx, 2 * basis.n, 2 * basis.n)
        assert np.iscomplexobj(modes) == (PERIODIC in bcs)
        _assert_symmetric_negative_definite(modes, 2 * basis.n)


@pytest.mark.parametrize("bcs", ALL_PAIRS)
def test_transform_solve_is_bitwise_repeatable(bcs):
    mesh = build_structured(5, 4, BOUNDS, *bcs)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 0.03, P2.wave_speed)
    system = condense_and_factor(blocks, mesh, basis)
    again = condense_and_factor(blocks, mesh, basis)
    g = np.random.default_rng(5).standard_normal(mesh.num_faces * basis.n)
    first = system.solve_trace(g)
    assert np.array_equal(first, system.solve_trace(g))
    assert np.array_equal(first, again.solve_trace(g))


def _refuse_sparse_matrices(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sparse matrix built or factorized")

    for name in ("splu", "spilu", "factorized", "spsolve"):
        monkeypatch.setattr(scipy.sparse.linalg, name, refuse)
    for name in ("coo_matrix", "csc_matrix", "csr_matrix"):
        monkeypatch.setattr(scipy.sparse, name, refuse)


def test_direct_backend_calls_no_sparse_factorization(monkeypatch):
    _refuse_sparse_matrices(monkeypatch)
    basis = nodal_basis(2)
    for bcs in ALL_PAIRS:
        mesh = build_structured(3, 2, BOUNDS, *bcs)
        bank = ImplicitSolverBank(mesh, basis, P2)
        q, _ = bank.solve(0.05, _rand_field(mesh, basis))
        assert np.all(np.isfinite(q.data)), bcs


def test_stored_bytes_of_the_transform_path():
    mesh = build_structured(5, 4, BOUNDS, WALL, PERIODIC)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 0.05, 1.0)
    modes, x, y = trace_modes(blocks, mesh, basis)
    # x is a wall: 6 face positions by 6 real modes, 5 cells x 3 nodes by
    # 6 x 3; y is periodic and holds no matrix, and it keeps 4 // 2 + 1 = 3
    # wavenumbers because x is a wall: 3 x 6 complex 6 x 6 inverse blocks
    assert (x.faces.shape, x.cells.shape) == ((6, 6), (15, 18))
    assert y.faces is None and y.cells is None
    assert modes.shape == (3, 6, 6, 6)
    assert condense_and_factor(blocks, mesh, basis).stored_bytes == 8 * (36 + 15 * 18) + 16 * 3 * 6 * 36


def test_stored_bytes_of_the_fft_path():
    mesh = build_structured(5, 4, BOUNDS, PERIODIC, PERIODIC)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 0.05, 1.0)
    # no axis holds a matrix; the inverse blocks: 4 x (5 // 2 + 1) complex 6 x 6
    assert condense_and_factor(blocks, mesh, basis).stored_bytes == 16 * 4 * 3 * 36


def test_stored_bytes_of_the_gmres_path():
    mesh = build_structured(5, 4, BOUNDS, WALL, WALL)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 0.05, 1.0)
    # H is applied element by element; of the block-Jacobi inverses only
    # one 3 x 3 block per face position is held: each family's interior
    # block and its two wall ends, 6 in all (the 49 faces held 8 * 49 * 9)
    assert condense_and_factor(blocks, mesh, basis, backend="gmres").stored_bytes == 8 * 6 * 9


def test_trace_path_follows_boundary_kinds(monkeypatch):
    # on every boundary pair neither backend assembles H or factorizes a
    # sparse matrix; gmres holds only the block-Jacobi inverses of its face
    # positions, three per family on a wall axis and one on a periodic
    # axis, and its solve matches the direct one
    _refuse_sparse_matrices(monkeypatch)
    basis = nodal_basis(2)
    for bcs in ALL_PAIRS:
        mesh = build_structured(3, 2, BOUNDS, *bcs)
        blocks = assemble_local(mesh, basis, P2, 0.05, 1.0)
        system = condense_and_factor(blocks, mesh, basis, backend="gmres")
        positions = sum(1 if bc == PERIODIC else 3 for bc in bcs)
        assert system.stored_bytes == 8 * positions * basis.n**2, bcs
        r = _rand_field(mesh, basis)
        qd, _ = ImplicitSolverBank(mesh, basis, P2).solve(0.05, r)
        qg, _ = ImplicitSolverBank(mesh, basis, P2, backend="gmres", rel_tol=1e-12).solve(0.05, r)
        assert np.all(np.isfinite(qd.data)), bcs
        assert _rel(qg.data, qd.data) <= 1e-9, bcs


def _face_inverses(apply, num_faces, n1):
    """Each face's inverse block, (num_faces, n1, n1), read off the
    preconditioner: applied to node j of every face, it returns column j
    of each face's block."""
    columns = [apply(np.tile(np.eye(n1)[j], num_faces)).reshape(-1, n1) for j in range(n1)]
    return np.stack(columns, axis=-1)


@pytest.mark.parametrize("bcs", ALL_PAIRS)
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (3, 2)])
def test_block_jacobi_inverts_the_face_blocks_of_H(bcs, shape):
    # a one-cell periodic axis puts both sides of an element on one face,
    # whose block then holds the Schur cross terms of that side pair
    mesh = build_structured(*shape, BOUNDS, *bcs)
    basis = nodal_basis(2)
    n1 = basis.n
    for alpha in (1e-4, 1e-2, 1.0):
        blocks = assemble_local(mesh, basis, P2, alpha, P2.wave_speed)
        H = oracles.trace_matrix(blocks, mesh, basis).toarray()
        faces = np.arange(mesh.num_faces)
        diag = H.reshape(mesh.num_faces, n1, mesh.num_faces, n1)[faces, :, faces]
        apply, _ = _block_jacobi(blocks.schur, mesh.num_faces, n1, mesh)
        inv = _face_inverses(apply, mesh.num_faces, n1)
        assert np.max(np.abs(inv @ diag - np.eye(n1))) <= 1e-13, alpha


@pytest.mark.parametrize("bcs", ALL_PAIRS)
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (3, 2), (5, 4)])
def test_family_preconditioner_expands_to_the_face_blocks(bcs, shape):
    # the few blocks the preconditioner forms from the Schur sub-blocks,
    # expanded by position, are the inverses of the per-face blocks summed
    # over every element side pair bit for bit, one-cell periodic axes and
    # their cross terms included
    mesh = build_structured(*shape, BOUNDS, *bcs)
    n1 = nodal_basis(2).n
    blocks = assemble_local(mesh, nodal_basis(2), P2, 0.05, P2.wave_speed)
    apply, _ = _block_jacobi(blocks.schur, mesh.num_faces, n1, mesh)
    per_face = oracles.block_jacobi(blocks.schur, mesh.num_faces, n1, mesh.elem_faces)
    assert np.array_equal(_face_inverses(apply, mesh.num_faces, n1), per_face)


def test_singular_symbol_raises_assembly_error():
    basis = nodal_basis(1)
    for bcs in ALL_PAIRS:
        mesh = build_structured(2, 2, BOUNDS, *bcs)
        blocks = assemble_local(mesh, basis, P2, 0.05, 1.0)
        singular = LocalBlocks(blocks.forward, blocks.A_inv_B, np.zeros_like(blocks.schur))
        with pytest.raises(AssemblyError, match="singular"):
            condense_and_factor(singular, mesh, basis)
        # the gmres set-up inverts only its distinct face blocks, and a
        # singular one is an assembly error too
        with pytest.raises(AssemblyError, match="singular face block"):
            condense_and_factor(singular, mesh, basis, backend="gmres")


def test_unknown_backend_rejected():
    mesh = build_structured(1, 1, BOUNDS, WALL, WALL)
    basis = nodal_basis(1)
    blocks = assemble_local(mesh, basis, P2, 0.05, 1.0)
    with pytest.raises(InvalidArgumentError, match="'lu'"):
        condense_and_factor(blocks, mesh, basis, backend="lu")


def test_trace_system_sparsity_is_symmetric():
    # two trace dofs couple iff their faces share an element, a symmetric
    # relation, so the nonzero pattern of H must be symmetric
    mesh = build_structured(4, 3, BOUNDS, PERIODIC, WALL)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 0.04, 1.0)
    pattern = (oracles.trace_matrix(blocks, mesh, basis).toarray() != 0.0)
    assert np.array_equal(pattern, pattern.T)


def test_periodic_constant_rhs_is_invariant():
    mesh = build_structured(2, 1, BOUNDS, PERIODIC, PERIODIC)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 0.05, P2.wave_speed)
    system = condense_and_factor(blocks, mesh, basis)
    const = np.tile(np.array([0.37, 0.21, -0.4]), (2, 3, 3, 1))
    q, lam = implicit_solve(system, StateField(const, mesh, basis))
    assert np.max(np.abs(q.data - const)) < 1e-13
    assert np.max(np.abs(lam.data - 0.37)) < 1e-13


def test_zero_rhs_gives_zero():
    mesh = build_structured(2, 2, BOUNDS, WALL, WALL)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 0.03, P2.wave_speed)
    system = condense_and_factor(blocks, mesh, basis)
    q, lam = implicit_solve(system, StateField(np.zeros((4, 3, 3, 3)), mesh, basis))
    assert np.array_equal(q.data, np.zeros_like(q.data))
    assert np.array_equal(lam.data, np.zeros_like(lam.data))


def test_solve_satisfies_local_and_transmission_equations():
    mesh = build_structured(3, 2, BOUNDS, PERIODIC, WALL)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 0.04, P2.wave_speed)
    system = condense_and_factor(blocks, mesh, basis)
    mass3, A, B, C, D = local_matrices(mesh, basis, P2, 0.04, P2.wave_speed)
    r = _rand_field(mesh, basis, seed=3)
    q, lam = implicit_solve(system, r)
    nv = mass3.size
    # local_matrices orders the element unknowns as the state stores them
    q_flat = q.data.reshape(mesh.num_elements, nv)
    r_flat = r.data.reshape(mesh.num_elements, nv)
    lam_loc = lam.data.reshape(-1)[system.elem_trace_ids]
    local = q_flat @ A.T + lam_loc @ B.T - r_flat * mass3
    assert np.max(np.abs(local)) < 1e-10 * max(1.0, np.max(np.abs(r_flat)))
    trans = np.zeros(mesh.num_faces * basis.n)
    np.add.at(trans, system.elem_trace_ids, q_flat @ C.T + lam_loc @ D.T)
    assert np.max(np.abs(trans)) < 1e-10


@pytest.mark.parametrize("bcs", [(WALL, WALL), (PERIODIC, PERIODIC)])
def test_randomized_solves_match_monolithic_oracle(bcs):
    mesh = build_structured(3, 3, BOUNDS, *bcs)
    basis = nodal_basis(2)
    alpha, tau = 0.02, P2.wave_speed
    blocks = assemble_local(mesh, basis, P2, alpha, tau)
    system = condense_and_factor(blocks, mesh, basis)
    oracle = oracles.MonolithicHdg(mesh, basis, P2, alpha, tau)
    rng = np.random.default_rng(17)
    for _ in range(3):
        r = StateField(rng.standard_normal((9, 3, 3, 3)), mesh, basis)
        q, lam = implicit_solve(system, r)
        q_o, lam_o = oracle.solve(r.data)
        assert np.max(np.abs(q.data - q_o)) < 1e-9
        assert np.max(np.abs(lam.data.reshape(-1) - lam_o)) < 1e-9


def test_eigenmode_solve_matches_monolithic_oracle():
    params = ModelParams(phi_bar=1.0)
    case = standing_wave(params)
    mesh = build_structured(16, 16, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(2)
    alpha, tau = 0.01, params.wave_speed
    r = nodal_field(mesh, basis, case.initial_state)
    blocks = assemble_local(mesh, basis, params, alpha, tau)
    system = condense_and_factor(blocks, mesh, basis)
    q, _ = implicit_solve(system, r)
    oracle = oracles.MonolithicHdg(mesh, basis, params, alpha, tau, sparse=True)
    q_o, _ = oracle.solve(r.data)
    assert np.max(np.abs(q.data - q_o)) < 1e-9


@pytest.mark.parametrize("bcs", [(WALL, WALL), (PERIODIC, PERIODIC)])
def test_implicit_solve_conserves_mass(bcs):
    mesh = build_structured(4, 4, BOUNDS, *bcs)
    basis = nodal_basis(2)
    blocks = assemble_local(mesh, basis, P2, 0.08, P2.wave_speed)
    system = condense_and_factor(blocks, mesh, basis)
    w = basis.weights
    mass2d = 0.25 * mesh.hx * mesh.hy * np.outer(w, w)
    for seed in range(4):
        r = _rand_field(mesh, basis, seed=seed)
        q, _ = implicit_solve(system, r)
        drift = np.einsum("jk,ejk->", mass2d, q.data[..., 0] - r.data[..., 0])
        assert abs(drift) < 1e-11


def test_factorization_reuse_via_bank():
    mesh = build_structured(2, 2, BOUNDS, WALL, WALL)
    basis = nodal_basis(1)
    bank = ImplicitSolverBank(mesh, basis, P2)
    r = _rand_field(mesh, basis, seed=9)
    bank.solve(0.05, r)
    bank.solve(0.05, r)
    assert bank.num_assemblies == 1
    assert bank.system_for(0.05) is bank.system_for(0.05)
    bank.solve(0.025, r)
    assert bank.num_assemblies == 2
    # keys are exact: tiny distinct shifts get distinct systems
    assert bank.system_for(1e-15) is not bank.system_for(2e-15)
    assert bank.num_assemblies == 4


def test_gmres_backend_matches_direct():
    mesh = build_structured(3, 3, BOUNDS, WALL, WALL)
    basis = nodal_basis(2)
    r = _rand_field(mesh, basis, seed=12)
    direct = ImplicitSolverBank(mesh, basis, P2, backend="direct")
    gmres = ImplicitSolverBank(mesh, basis, P2, backend="gmres", rel_tol=1e-12)
    qd, _ = direct.solve(0.03, r)
    qg, _ = gmres.solve(0.03, r)
    assert np.max(np.abs(qd.data - qg.data)) < 1e-8


@pytest.mark.parametrize("bcs", ALL_PAIRS)
def test_direct_gmres_and_monolithic_agree_at_random_shifts(bcs):
    # (1, 3) and (3, 1) put a one-cell axis in x and in y; on a periodic
    # axis both sides of every element then land on one face
    basis = nodal_basis(2)
    tau = P2.wave_speed
    rng = np.random.default_rng(4)
    for shape in ((3, 3), (1, 3), (3, 1)):
        mesh = build_structured(*shape, BOUNDS, *bcs)
        direct = ImplicitSolverBank(mesh, basis, P2, backend="direct")
        gmres = ImplicitSolverBank(mesh, basis, P2, backend="gmres", rel_tol=1e-12)
        for alpha in 10.0 ** rng.uniform(-4.0, 0.0, size=5):
            r = StateField(rng.standard_normal((mesh.num_elements, 3, 3, 3)), mesh, basis)
            q_o, lam_o = oracles.MonolithicHdg(mesh, basis, P2, alpha, tau).solve(r.data)
            for bank in (direct, gmres):
                q, lam = bank.solve(alpha, r)
                assert _rel(q.data, q_o) <= 1e-9, (shape, bank.backend, alpha)
                assert _rel(lam.data.reshape(-1), lam_o) <= 1e-9, (shape, bank.backend, alpha)


@pytest.mark.parametrize("bc", [PERIODIC, WALL])
@settings(max_examples=20)
@given(
    p=st.integers(1, 2),
    phi_bar=st.floats(0.25, 4.0),
    dt=st.floats(1e-4, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_backward_euler_never_gains_energy(bc, p, phi_bar, dt, seed):
    # the implicit HDG operator dissipates the energy proxy: a linear-mode
    # ars111 step is one implicit solve and may not raise it beyond roundoff
    params = ModelParams(phi_bar=phi_bar)
    mesh = build_structured(3, 2, BOUNDS, bc, bc)
    basis = nodal_basis(p)
    pair = SplitOperator(ExplicitOperator(mesh, basis), ImplicitSolverBank(mesh, basis, params),
                         params, linear_mode=True)
    q = _rand_field(mesh, basis, seed=seed)
    energy = energy_proxy(q, params)
    for k in range(4):
        q = step(pair, q, k * dt, dt, tableau("ars111"))
        new = energy_proxy(q, params)
        assert new - energy <= 1e-13 * energy, (k, new, energy)
        energy = new


def test_gmres_nonconvergence_reports_residual():
    mesh = build_structured(4, 4, BOUNDS, WALL, WALL)
    basis = nodal_basis(2)
    bank = ImplicitSolverBank(mesh, basis, P2, backend="gmres", rel_tol=1e-14, max_iter=1)
    r = _rand_field(mesh, basis, seed=2)
    with pytest.raises(SolverFailureError) as err:
        bank.solve(0.5, r)
    assert err.value.residual is not None


def test_nonfinite_rhs_rejected():
    mesh = build_structured(1, 1, BOUNDS, WALL, WALL)
    basis = nodal_basis(1)
    blocks = assemble_local(mesh, basis, P2, 0.05, 1.0)
    system = condense_and_factor(blocks, mesh, basis)
    bad = np.zeros((1, 2, 2, 3))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(SolverFailureError):
        implicit_solve(system, StateField(bad, mesh, basis))


def test_nonfinite_state_fails_the_implicit_stage():
    # NaN passes the dry check (NaN <= 0 is False), so the first implicit
    # stage is where a blown-up state is caught
    params = ModelParams(phi_bar=1.0)
    case = standing_wave(params)
    mesh = build_structured(2, 2, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(1)
    pair = SplitOperator(ExplicitOperator(mesh, basis), ImplicitSolverBank(mesh, basis, params), params)
    q = nodal_field(mesh, basis, case.initial_state)
    q.data[0, 0, 0, 0] = np.nan
    with pytest.raises(SolverFailureError, match="stage 1"):
        step(pair, q, 0.0, 0.01, tableau("ars222"))


def _richardson_error(n, p, dt, t_final=0.25):
    params = ModelParams(phi_bar=1.0)
    case = standing_wave(params)
    mesh = build_structured(n, n, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(p)
    bank = ImplicitSolverBank(mesh, basis, params)
    pair = SplitOperator(ExplicitOperator(mesh, basis), bank, params, linear_mode=True)
    tab = tableau("ars111")

    def march(dtv):
        nst = int(round(t_final / dtv))
        q = nodal_field(mesh, basis, case.initial_state)
        for k in range(nst):
            q = step(pair, q, k * dtv, dtv, tab)
        return q

    richardson = 2.0 * march(0.5 * dt) - march(dt)
    return l2_error(richardson, case.exact_solution, t_final)[0]


@pytest.mark.parametrize("p,meshes", [(1, (8, 16, 32)), (2, (4, 8, 16)), (3, (2, 4, 8))])
def test_backward_euler_richardson_spatial_order(p, meshes):
    # Richardson extrapolation removes the O(dt) time error of the implicit
    # Euler march, exposing the spatial accuracy of the trace solver on the
    # smooth eigenmode.
    errs = [_richardson_error(n, p, dt=5e-4) for n in meshes]
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert np.mean(rates) >= p + 0.5, (errs, rates)
