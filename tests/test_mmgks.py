"""MM-on-growing-subspace solver against a full-space IRLS oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from dynct.errors import ConfigError, NumericError
from dynct.linops import Identity, LinearOperator, SparseCSR
from dynct.mmgks import (K_MAX, KrylovBasis, MMGKSConfig, basis_nbytes,
                         majorant_value, mmgks_solve, penalty_weights)
from dynct.motion import flow_basis_nbytes, flow_regularizer, ofc_system
from dynct.phantom import default_blocks_config, generate_frames
from helpers import rel_err
from oracles import dense, dense_irls, mmgks_reference


def _first_difference(n):
    d = np.zeros((n - 1, n))
    for i in range(n - 1):
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
    return SparseCSR(d)


def _seeded_basis(op, b, n_vectors):
    basis = KrylovBasis(op, Identity(op.shape[1]), b)
    basis.seed(n_vectors)
    return basis


def test_seed_is_orthonormalized_krylov_matrix():
    # the seed spans [A^T b, (A^T A) A^T b, ...] in order: a dense QR of
    # that Krylov matrix gives the same columns up to sign
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 20))
    b = rng.standard_normal(30)
    basis = _seeded_basis(SparseCSR(a), b, 5)
    assert basis.size == 5
    krylov = [a.T @ b]
    for _ in range(4):
        krylov.append(a.T @ (a @ krylov[-1]))
    q, _ = np.linalg.qr(np.column_stack(krylov))
    signs = np.sign(np.sum(q * basis.W.T, axis=0))
    np.testing.assert_allclose(basis.W.T, q * signs, rtol=0, atol=1e-12)


def test_seed_stops_in_invariant_subspace():
    # b spanned by two singular directions: the Krylov space closes at l=2
    a = SparseCSR(np.diag([3.0, 1.0, 2.0, 5.0]))
    basis = _seeded_basis(a, np.array([1.0, 1.0, 0.0, 0.0]), 4)
    assert basis.size == 2


def test_zero_normal_rhs_raises():
    # b != 0 but A^T b = 0: the basis has no first vector
    with pytest.raises(NumericError, match="A\\^T b is zero"):
        mmgks_solve(SparseCSR(np.zeros((3, 3))), _first_difference(3),
                    np.ones(3))


def test_penalty_weights_values():
    eps = 1e-2
    np.testing.assert_allclose(penalty_weights(np.zeros(3), eps),
                               np.full(3, eps ** -0.5), rtol=1e-15)
    assert abs(penalty_weights(np.array([1.0]), 1e-9)[0] - 1.0) <= 1e-9
    want = (9.0 + 1e-4) ** -0.25
    assert abs(penalty_weights(np.array([3.0]), eps)[0] - want) <= 1e-12
    assert abs(want - 0.57735) <= 1e-5


def test_unregularized_square_system():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((12, 12)) + 4 * np.eye(12)
    b = rng.standard_normal(12)
    cfg = MMGKSConfig(seed_vectors=4, max_iters=60, tol=1e-13, lam=0.0,
                      eps=1e-3)
    res = mmgks_solve(SparseCSR(a), _first_difference(12), b, cfg)
    assert rel_err(res.s, np.linalg.solve(a, b)) <= 1e-6


def test_matches_dense_irls_fixed_point():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 30))
    theta = _first_difference(30)
    b = rng.standard_normal(40)
    lam, eps = 0.7, 1e-2
    cfg = MMGKSConfig(seed_vectors=5, max_iters=150, tol=1e-12, lam=lam,
                      eps=eps)
    res = mmgks_solve(SparseCSR(a), theta, b, cfg)
    want = dense_irls(a, dense(theta), b, lam, eps)
    assert rel_err(res.s, want) <= 1e-5


class _MatVecOnly(LinearOperator):
    """An operator with the two products every operator has, and no other."""

    def __init__(self, matrix):
        self._matrix = matrix
        self.shape = matrix.shape

    def apply(self, x):
        return self._matrix @ x

    def apply_transpose(self, y):
        return self._matrix.T @ y


def test_solver_needs_only_forward_and_adjoint_products():
    # the solver's operands need apply and apply_transpose alone; over the
    # same CSR arrays the run is bitwise that of SparseCSR operands
    rng = np.random.default_rng(12)
    a = sp.random(40, 30, density=0.3, random_state=np.random.RandomState(4),
                  format="csr") + sp.eye(40, 30, format="csr")
    b = rng.standard_normal(40)
    a_op, theta_op = SparseCSR(a), _first_difference(30)
    cfg = MMGKSConfig(seed_vectors=5, max_iters=12, tol=1e-12)
    want = mmgks_solve(a_op, theta_op, b, cfg)
    got = mmgks_solve(_MatVecOnly(a_op.matrix), _MatVecOnly(theta_op.matrix),
                      b, cfg)
    np.testing.assert_array_equal(got.s, want.s)
    assert (got.lam, got.eps, got.n_iters, got.basis_size) == (
        want.lam, want.eps, want.n_iters, want.basis_size)
    assert got.objectives == want.objectives


def test_zero_rhs_returns_zero():
    res = mmgks_solve(Identity(5), _first_difference(5), np.zeros(5))
    assert not res.s.any()
    assert res.converged
    assert res.n_iters == 0


def test_majorant_pairs_non_increasing():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((25, 18))
    b = rng.standard_normal(25)
    cfg = MMGKSConfig(seed_vectors=4, max_iters=40, tol=1e-12, lam=0.5)
    res = mmgks_solve(SparseCSR(a), _first_difference(18), b, cfg)
    assert res.objectives
    for before, after in res.objectives:
        assert after <= before * (1 + 1e-10) + 1e-15


def test_projected_residual_monotone_in_subspace():
    # fixed weights: growing the solve subspace can only lower the majorant;
    # the Lanczos seed is deterministic, so a basis of l vectors spans the
    # first l of one of l + 1
    rng = np.random.default_rng(4)
    a = rng.standard_normal((20, 10))
    op = SparseCSR(a)
    theta = _first_difference(10)
    b = rng.standard_normal(20)
    wts = np.ones(theta.shape[0])
    vals = []
    for ell in range(1, 7):
        basis = KrylovBasis(op, theta, b)
        basis.seed(ell)
        assert basis.size == ell
        z = basis.solve(wts, 0.3)
        vals.append(majorant_value(z @ basis.AW - b, z @ basis.TW, wts, 0.3))
    assert all(v2 <= v1 * (1 + 1e-10) for v1, v2 in zip(vals, vals[1:]))


def test_expand_basis_keeps_orthonormality():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((15, 9))
    op = SparseCSR(a)
    theta = _first_difference(9)
    b = rng.standard_normal(15)
    basis = KrylovBasis(op, theta, b)
    basis.seed(3)
    pdiag, lam = rng.uniform(0.5, 2.0, theta.shape[0]), 0.3
    for k in range(4):
        v = rng.standard_normal(9)
        basis.expand(v)
        W = basis.W
        assert np.max(np.abs(W @ W.T - np.eye(basis.size))) <= 1e-10
        np.testing.assert_allclose(basis.AW, W @ a.T, atol=1e-12)
        np.testing.assert_allclose(basis.TW, W @ dense(theta).T, atol=1e-12)
        # the solve reads the bordered data Gram and (A W)^T b
        AW, PTW = basis.AW, basis.TW * pdiag
        want = np.linalg.solve(AW @ AW.T + lam * PTW @ PTW.T, AW @ b)
        np.testing.assert_allclose(basis.solve(pdiag, lam), want,
                                   rtol=1e-10, atol=1e-10)
    # a vector already in span(W) must be rejected
    size = basis.size
    assert not basis.expand(rng.standard_normal(size) @ basis.W)
    assert basis.size == size


def test_expand_basis_stops_at_capacity():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 4))
    op = SparseCSR(a)
    basis = KrylovBasis(op, _first_difference(4), rng.standard_normal(8))
    assert basis.capacity == 4
    for _ in range(6):
        basis.expand(rng.standard_normal(4))
    assert basis.size == 4
    assert not basis.expand(rng.standard_normal(4))


def test_restarts_keep_the_majorant_monotone_and_the_fixed_point(
        monkeypatch):
    # criterion 8's problem runs far past K_MAX: the basis restarts again
    # and again, never outgrows K_MAX, every weight cycle still lowers its
    # majorant and the solve still reaches the dense IRLS fixed point
    restarts = []
    restart = KrylovBasis.restart

    def counted(basis, s):
        restarts.append(basis.size)
        restart(basis, s)

    monkeypatch.setattr(KrylovBasis, "restart", counted)
    a_op, theta_op, b, cfg = _criterion_8_problem()
    res = mmgks_solve(a_op, theta_op, b, cfg)
    assert len(restarts) >= 2 and set(restarts) == {K_MAX}
    assert res.basis_size <= K_MAX
    for before, after in res.objectives:
        assert after <= before * (1 + 1e-10) + 1e-15
    want = dense_irls(a_op.matrix.toarray(), dense(theta_op), b, cfg.lam,
                      cfg.eps)
    assert rel_err(res.s, want) <= 1e-5


def test_basis_solve_singular_raises():
    # A = 0: the data Gram of any basis is zero, and at lam = 0 so is the
    # projected system
    basis = KrylovBasis(SparseCSR(np.zeros((2, 3))), Identity(3), np.ones(2))
    assert basis.expand(np.ones(3))
    with pytest.raises(NumericError, match="singular"):
        basis.solve(np.ones(3), 0.0)


def _failing_solve(monkeypatch, fail_at):
    """Patch KrylovBasis.solve to raise NumericError on the calls numbered
    in fail_at (1 is the pilot solve); returns the lam of every call."""
    solve = KrylovBasis.solve
    lams = []

    def patched(basis, pdiag, lam):
        lams.append(lam)
        if len(lams) in fail_at:
            raise NumericError("mmgks: projected system singular (patched)")
        return solve(basis, pdiag, lam)

    monkeypatch.setattr(KrylovBasis, "solve", patched)
    return lams


def test_failed_solve_retried_once_at_tenfold_lam(monkeypatch):
    # the first failure inside the loop is retried with lam boosted ten-fold
    # for the rest of the solve; a later failure raises
    a_op, theta_op, b, cfg = _filled_subspace_problem()
    want = mmgks_solve(a_op, theta_op, b, cfg)
    lams = _failing_solve(monkeypatch, {2})
    got = mmgks_solve(a_op, theta_op, b, cfg)
    assert got.lam == 10.0 * want.lam
    assert lams[2] == lams[1] * 10.0 == got.lam
    _failing_solve(monkeypatch, {2, 4})
    with pytest.raises(NumericError, match="patched"):
        mmgks_solve(a_op, theta_op, b, cfg)


def test_auto_parameters_are_recorded():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((20, 12))
    b = rng.standard_normal(20)
    res = mmgks_solve(SparseCSR(a), _first_difference(12), b,
                      MMGKSConfig(max_iters=10))
    assert res.eps > 0 and res.lam > 0
    assert res.basis_size >= 5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_config_rejected(bad):
    for field in ("tol", "eps", "lam"):
        with pytest.raises(ConfigError, match="finite"):
            MMGKSConfig(**{field: bad})


def test_operand_validation():
    with pytest.raises(ConfigError):
        mmgks_solve(Identity(4), _first_difference(5), np.ones(4))
    with pytest.raises(ConfigError):
        mmgks_solve(Identity(4), _first_difference(4), np.ones(3))
    with pytest.raises(ConfigError):
        MMGKSConfig(tol=0.0)
    with pytest.raises(ConfigError):
        MMGKSConfig(eps=-1.0)
    with pytest.raises(ConfigError):
        MMGKSConfig(lam=-0.1)
    with pytest.raises(ConfigError):
        MMGKSConfig(seed_vectors=0)


def test_seed_that_fills_the_basis_rejected():
    # a seed of K_MAX vectors would restart before the first expansion and
    # drop all but the iterate's direction
    with pytest.raises(ConfigError, match="seed_vectors"):
        MMGKSConfig(seed_vectors=K_MAX)
    MMGKSConfig(seed_vectors=K_MAX - 1)


@pytest.mark.parametrize("field", ["seed_vectors", "max_iters"])
def test_non_integer_counts_rejected(field):
    with pytest.raises(ConfigError, match="integers"):
        MMGKSConfig(**{field: 2.5})
    MMGKSConfig(**{field: np.int64(3)})


def _flow_problem():
    frames = generate_frames(default_blocks_config(16, 16, n_steps=1))
    v_op, b = ofc_system(frames[0], frames[1], 16, 16)
    return v_op, flow_regularizer(16, 16), b, MMGKSConfig()


def _criterion_8_problem():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 30))
    b = a @ rng.standard_normal(30) + 0.1 * rng.standard_normal(40)
    return (SparseCSR(a), _first_difference(30), b,
            MMGKSConfig(lam=0.7, eps=1e-2, max_iters=150, tol=1e-12,
                        seed_vectors=5))


def _filled_subspace_problem():
    # n = 8 < K_MAX: the basis fills all n columns and never restarts
    rng = np.random.default_rng(8)
    a = rng.standard_normal((20, 8))
    return (SparseCSR(a), _first_difference(8), rng.standard_normal(20),
            MMGKSConfig(seed_vectors=3, max_iters=40, tol=1e-12))


@pytest.mark.parametrize("problem", [_flow_problem, _criterion_8_problem,
                                     _filled_subspace_problem])
def test_matches_column_stacking_reference(problem):
    a_op, theta_op, b, cfg = problem()
    got = mmgks_solve(a_op, theta_op, b, cfg)
    want = mmgks_reference(a_op, theta_op, b, cfg)
    assert rel_err(got.s, want.s) <= 1e-10
    assert (got.n_iters, got.converged, got.basis_size) == (
        want.n_iters, want.converged, want.basis_size)
    assert got.lam == pytest.approx(want.lam, rel=1e-12)
    assert got.eps == pytest.approx(want.eps, rel=1e-12)
    assert len(got.objectives) == len(want.objectives)
    for pair, ref in zip(got.objectives, want.objectives):
        assert pair == pytest.approx(ref, rel=1e-12)
    if problem is _filled_subspace_problem:
        assert got.basis_size == a_op.shape[1]


@pytest.mark.parametrize("problem", [_flow_problem, _filled_subspace_problem])
def test_basis_blocks_total_basis_nbytes(problem):
    # what an M1 run charges for a flow solve is what the solve's basis
    # allocates: every array it holds but b, for K_MAX vectors or, on a
    # space of n < K_MAX, n
    a_op, theta_op, b, _ = problem()
    basis = KrylovBasis(a_op, theta_op, b)
    blocks = [v for v in vars(basis).values()
              if isinstance(v, np.ndarray) and v is not b]
    assert len(blocks) == 6
    assert basis.capacity == min(K_MAX, a_op.shape[1])
    nbytes = basis_nbytes(*a_op.shape, theta_op.shape[0])
    assert sum(v.nbytes for v in blocks) == nbytes
    if problem is _flow_problem:
        n_s = 16 * 16
        assert nbytes == flow_basis_nbytes(16, 16) == (
            11 * n_s * K_MAX + K_MAX ** 2 + K_MAX) * 8
