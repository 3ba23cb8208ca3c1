import numpy as np
import pytest
from scipy import linalg as sp_linalg

from optbench.linalg import (
    EigenConvergenceError,
    haar_frame,
    haar_orthogonal,
    householder_qr,
    jacobi_eigh,
    project_box,
    sym_eigh,
)


def det_cofactor(a):
    """Determinant by cofactor expansion; independent of any factorization."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * det_cofactor(minor)
    return total


class TestHouseholderQR:
    def test_identity_factors_as_identity(self):
        q, r = householder_qr(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-14)

    def test_single_column_norm_forces_r(self):
        q, r = householder_qr(np.array([[3.0], [4.0]]))
        assert r[0, 0] == pytest.approx(5.0, abs=1e-12)
        np.testing.assert_allclose(q, [[0.6], [0.8]], atol=1e-12)

    def test_reconstruction_random_tall(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((10, 4))
        q, r = householder_qr(a)
        assert np.max(np.abs(a - q @ r)) < 1e-10
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
        assert np.all(r[np.tril_indices(4, k=-1)] == 0.0)
        assert np.all(np.diag(r) >= 0.0)

    @pytest.mark.parametrize("shape", [(30, 30), (300, 30), (50, 50), (100, 100),
                                       (300, 100), (200, 200)])
    def test_full_rank_matches_cholesky_oracle(self, shape):
        # Full-rank QR with diag(R) > 0 is unique: R is the upper Cholesky
        # factor of A.T A and Q = A R^-1.  Forming A.T A squares the condition
        # number, so the oracle itself is only good to about kappa(A)^2 eps;
        # the tolerance is ten times that (kappa is 1.8 to 3.6 for the tall
        # shapes here and 150 to 1200 for the square ones).
        a = np.random.default_rng(0).standard_normal(shape)
        q, r = householder_qr(a)
        r_oracle = sp_linalg.cholesky(a.T @ a)
        q_oracle = sp_linalg.solve_triangular(r_oracle, a.T, trans="T").T
        tol = 10 * np.linalg.cond(a) ** 2 * np.finfo(float).eps
        assert np.max(np.abs(r - r_oracle)) <= tol * np.max(np.abs(r_oracle))
        assert np.max(np.abs(q - q_oracle)) <= tol
        assert np.all(r[np.tril_indices(shape[1], k=-1)] == 0.0)

    def test_rank_deficient_column_allowed(self):
        a = np.zeros((4, 2))
        a[:, 0] = [1.0, 2.0, 3.0, 4.0]
        q, r = householder_qr(a)
        assert np.max(np.abs(a - q @ r)) < 1e-12
        assert r[1, 1] == 0.0

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            householder_qr(np.ones((2, 3)))


class TestHaar:
    def test_d1_is_sign(self):
        values = [haar_orthogonal(1, np.random.default_rng(s))[0, 0] for s in range(200)]
        assert all(abs(abs(v) - 1.0) < 1e-12 for v in values)
        frac_positive = np.mean([v > 0 for v in values])
        assert 0.35 < frac_positive < 0.65

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orthogonality_both_sides(self, seed):
        q = haar_orthogonal(5, np.random.default_rng(seed))
        assert np.max(np.abs(q.T @ q - np.eye(5))) < 1e-10
        assert np.max(np.abs(q @ q.T - np.eye(5))) < 1e-10

    def test_determinant_is_unit(self):
        q = haar_orthogonal(3, np.random.default_rng(42))
        det = det_cofactor(q)
        assert min(abs(det - 1.0), abs(det + 1.0)) < 1e-10

    def test_frame_columns_orthonormal(self):
        v = haar_frame(20, 6, np.random.default_rng(3))
        assert v.shape == (20, 6)
        assert np.max(np.abs(v.T @ v - np.eye(6))) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 30])
    def test_orthogonal_is_the_square_frame(self, d):
        q = haar_orthogonal(d, np.random.default_rng(11))
        assert np.array_equal(q, haar_frame(d, d, np.random.default_rng(11)))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            haar_orthogonal(0, np.random.default_rng(0))


class TestJacobi:
    def test_identity_spectrum(self):
        q, lam = jacobi_eigh(np.eye(4))
        np.testing.assert_allclose(lam, np.ones(4))
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)

    def test_2x2_closed_form(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        a, b, c = s[0, 0], s[0, 1], s[1, 1]
        mid = 0.5 * (a + c)
        rad = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
        expected = np.array([mid + rad, mid - rad])
        _, lam = jacobi_eigh(s)
        np.testing.assert_allclose(lam, expected, atol=1e-12)
        np.testing.assert_allclose(lam, [3.0, 1.0], atol=1e-12)

    def test_already_diagonal(self):
        q, lam = jacobi_eigh(np.diag([5.0, 0.0]))
        np.testing.assert_allclose(lam, [5.0, 0.0])
        np.testing.assert_allclose(np.abs(q), np.eye(2), atol=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.eye(513))

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12))
        with pytest.raises(EigenConvergenceError):
            jacobi_eigh(a + a.T, max_sweeps=1)

    @pytest.mark.parametrize("d", [3, 20, 64, 200])
    def test_reconstruction_roundtrip(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        s = a + a.T
        q, lam = jacobi_eigh(s)
        scale = np.max(np.abs(s))
        assert np.max(np.abs(q.T @ np.diag(lam) @ q - s)) < 1e-8 * scale
        assert np.all(np.diff(lam) <= 0)
        assert np.max(np.abs(q @ q.T - np.eye(d))) < 1e-10
        # independent library oracle on the spectrum
        np.testing.assert_allclose(lam, np.sort(np.linalg.eigvalsh(s))[::-1],
                                   atol=1e-9 * scale)

    def test_gram_matrix_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal((8, 6)) * rng.uniform(0.1, 10)
            _, lam = jacobi_eigh(x.T @ x)
            assert np.all(lam >= -1e-9)

    def test_zero_matrix(self):
        q, lam = jacobi_eigh(np.zeros((3, 3)))
        np.testing.assert_array_equal(lam, np.zeros(3))
        np.testing.assert_array_equal(q, np.eye(3))


def _oracle_matrix(kind, d):
    """An indefinite random symmetric matrix, or a Gram matrix whose column
    scales spread its spectrum over four decades (the stability use case)."""
    rng = np.random.default_rng(d)
    if kind == "indefinite":
        a = rng.standard_normal((d, d))
        return a + a.T
    x = rng.standard_normal((2 * d, d)) * np.geomspace(1.0, 1e-2, d)
    return x.T @ x


class TestSymEigh:
    """sym_eigh (LAPACK) against jacobi_eigh as the oracle."""

    @pytest.mark.parametrize("kind", ["indefinite", "gram"])
    @pytest.mark.parametrize("d", [10, 50, 100])
    def test_agrees_with_jacobi(self, d, kind):
        s = _oracle_matrix(kind, d)
        q, lam = sym_eigh(s)
        q_ref, lam_ref = jacobi_eigh(s)
        norm = np.max(np.abs(lam_ref))
        assert np.max(np.abs(lam - lam_ref)) <= 1e-12 * norm
        assert np.all(np.diff(lam) <= 0)
        assert np.max(np.abs(q.T @ np.diag(lam) @ q - s)) <= 1e-12 * norm
        assert np.max(np.abs(q @ q.T - np.eye(d))) <= 1e-12
        # Eigenvectors agree up to sign, to within the perturbation bound
        # eps * ||s|| / gap: clustered eigenvalues leave their vectors loose.
        gaps = np.array([np.min(np.abs(np.delete(lam_ref, j) - lam_ref[j]))
                         for j in range(d)])
        signs = np.sign(np.sum(q * q_ref, axis=1))
        err = np.linalg.norm(q - signs[:, None] * q_ref, axis=1)
        assert np.all(err <= 1e-10 * norm / gaps)

    def test_zero_rows_deflate_to_axis_vectors(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 7))
        dead = [1, 4, 5]
        x[:, dead] = 0.0
        q, lam = sym_eigh(x.T @ x)
        assert np.all(lam[:4] > 0)
        np.testing.assert_array_equal(lam[4:], np.zeros(3))
        np.testing.assert_array_equal(q[4:], np.eye(7)[dead])
        np.testing.assert_array_equal(q[:4, dead], np.zeros((4, 3)))
        q_ref, lam_ref = jacobi_eigh(x.T @ x)
        np.testing.assert_array_equal(lam_ref[4:], lam[4:])
        np.testing.assert_array_equal(q_ref[4:], q[4:])

    def test_zero_matrix(self):
        q, lam = sym_eigh(np.zeros((3, 3)))
        np.testing.assert_array_equal(lam, np.zeros(3))
        np.testing.assert_array_equal(q, np.eye(3))

    @pytest.mark.parametrize("value", [-2.5, 0.0, 3.0])
    def test_one_by_one(self, value):
        q, lam = sym_eigh(np.array([[value]]))
        np.testing.assert_array_equal(lam, [value])
        np.testing.assert_array_equal(np.abs(q), [[1.0]])

    @pytest.mark.parametrize("bad", [np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros((0, 0)),
                                     np.zeros((2, 3))])
    def test_invalid_input_rejected(self, bad):
        with pytest.raises(ValueError):
            sym_eigh(bad)


class TestProjectBox:
    def test_interior_point_fixed(self):
        out = project_box(np.array([0.5]), np.array([-1.0]), np.array([1.0]))
        np.testing.assert_array_equal(out, [0.5])

    def test_clamping(self):
        out = project_box(np.array([3.0, -3.0]), np.full(2, -1.0), np.full(2, 1.0))
        np.testing.assert_array_equal(out, [1.0, -1.0])

    def test_mixed_clamp(self):
        out = project_box(np.array([2.0, 0.5, -7.0]), np.full(3, -1.0), np.full(3, 1.0))
        np.testing.assert_array_equal(out, [1.0, 0.5, -1.0])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = rng.integers(1, 8)
            lo = rng.standard_normal(d)
            hi = lo + rng.uniform(0, 2, size=d)
            x = rng.standard_normal(d) * 3
            once = project_box(x, lo, hi)
            np.testing.assert_array_equal(project_box(once, lo, hi), once)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(2), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="box is empty"):
            project_box(np.zeros((3, 2)), np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_batch_equals_row_by_row_calls(self):
        rng = np.random.default_rng(12)
        lo = rng.standard_normal(5)
        hi = lo + rng.uniform(0, 2, size=5)
        x = rng.standard_normal((7, 5)) * 3
        x[0] = lo  # rows on the box faces
        x[1] = hi
        out = project_box(x, lo, hi)
        assert out.shape == x.shape
        for row, projected in zip(x, out):
            assert np.array_equal(projected, project_box(row, lo, hi))

    @pytest.mark.parametrize("theta,lo,hi", [
        (np.zeros(3), np.zeros(2), np.ones(3)),
        (np.zeros(3), np.zeros(3), np.ones(2)),
        (np.zeros((4, 3)), np.zeros(4), np.ones(4)),
        (np.zeros((4, 3)), np.zeros((4, 3)), np.ones((4, 3))),
        (np.zeros((4, 3)), np.zeros(3), np.ones((1, 3))),
    ])
    def test_mismatched_bounds_rejected(self, theta, lo, hi):
        with pytest.raises(ValueError, match="box bounds must match the vector shape"):
            project_box(theta, lo, hi)
