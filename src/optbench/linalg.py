"""Dense small-scale linear algebra: Haar-orthogonal sampling, Householder QR,
symmetric eigensolvers, Euclidean box projection, and the BLAS thread count.

QR (householder_qr) and every internal eigensolve (sym_eigh) go through
LAPACK via numpy.linalg; the pure-Python cyclic Jacobi solver jacobi_eigh
keeps sym_eigh's contract and is the accuracy oracle the tests compare it
against.  All three reject NaN and infinite input with ValueError.

Everything here but set_blas_threads is a pure function of its inputs (plus
an explicitly passed seeded generator where randomness is involved).
set_blas_threads sets the thread count of numpy's OpenBLAS and stops the
pool's idle workers, which OpenBLAS restarts when a call next needs them.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

# Module tolerances; jacobi_eigh accepts overrides, sym_eigh uses SYMMETRY_TOL.
JACOBI_MAX_SWEEPS = 100
JACOBI_TOL_FACTOR = 1e-12
JACOBI_MAX_DIM = 512
SYMMETRY_TOL = 1e-9

# The (set, get) thread-count calls an OpenBLAS library may export: the
# scipy-openblas build in numpy's wheels, a 64-bit-integer build, a plain one.
OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class EigenConvergenceError(RuntimeError):
    """Raised when the Jacobi sweep budget is exhausted."""


def householder_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a (m x n, m >= n) as q @ r with orthonormal columns in q.

    LAPACK's Householder QR (geqrf via numpy.linalg.qr, reduced mode), with
    column j of q and row j of r negated wherever r[j, j] < 0.  With
    diag(r) >= 0 the factorization of a full-rank input is unique, the
    identity factors as q = I, r = I, and the Gaussian -> QR map produces
    Haar-distributed orthogonal matrices whichever algorithm computes it
    (Mezzadri, Notices of the AMS 54(5), 2007).  Rank-deficient input is
    permitted; an exactly zero column leaves a zero on the diagonal of r.
    Non-finite input raises ValueError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    m, n = a.shape
    if m < n:
        raise ValueError(f"need rows >= cols, got {m}x{n}")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a d x d orthogonal matrix uniformly (Haar measure): the square
    case of haar_frame, drawing the same Gaussian from rng."""
    return haar_frame(d, d, rng)


def haar_frame(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Sample an n x k matrix with orthonormal columns, uniform on the Stiefel
    manifold (equivalently the first k columns of a Haar n x n matrix).

    Gaussian matrix -> QR with the R diagonal forced non-negative; the
    resulting Q is exactly Haar-distributed.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    g = rng.standard_normal((n, k))
    q, _ = householder_qr(g)
    return q


def _symmetric(s: np.ndarray, symmetry_tol: float) -> np.ndarray:
    """Validate a non-empty, finite, numerically symmetric square matrix and
    return its exactly symmetric part 0.5 * (s + s.T) as a new float array."""
    a = np.array(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(a).all():  # LAPACK would return NaN factors silently
        raise ValueError("array must not contain infs or NaNs")
    asym = float(np.max(np.abs(a - a.T)))
    if asym >= symmetry_tol:
        raise ValueError(f"matrix is not symmetric (max |s - s.T| = {asym:g})")
    return 0.5 * (a + a.T)


def sym_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix with LAPACK (numpy.linalg.eigh).

    Same contract as jacobi_eigh: returns (q, lam) with s = q.T @ diag(lam) @ q,
    eigenvalues in descending order (stable sort) and the ROWS of q holding
    the matching orthonormal eigenvectors.  Rows/columns that are exactly zero
    are deflated: only the principal submatrix of the other rows goes to
    LAPACK, and each zero row i contributes eigenvalue 0 with the unit axis
    vector e_i, so structural null directions are exact by construction.
    Zero rows keep ascending index order among equal eigenvalues.
    """
    a = _symmetric(s, SYMMETRY_TOL)
    n = a.shape[0]
    live = np.any(a != 0.0, axis=1)
    k = int(live.sum())
    lam = np.zeros(n)
    q = np.zeros((n, n))
    if k:
        w, v = np.linalg.eigh(a[np.ix_(live, live)])
        lam[:k] = w[::-1]
        q[:k, live] = v[:, ::-1].T
    q[np.arange(k, n), np.flatnonzero(~live)] = 1.0
    order = np.argsort(-lam, kind="stable")
    return q[order], lam[order]


def jacobi_eigh(
    s: np.ndarray,
    *,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
    tol_factor: float = JACOBI_TOL_FACTOR,
    symmetry_tol: float = SYMMETRY_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix with cyclic Jacobi rotations.

    Returns (q, lam) with s = q.T @ diag(lam) @ q, eigenvalues sorted in
    descending order and the ROWS of q holding the matching orthonormal
    eigenvectors.  Off-diagonal entries below tol_factor * max|s| are left
    untouched, so exact zero rows/columns keep axis-aligned eigenvectors.
    O(n^2) Python-level rotations per sweep, so it is the test oracle for
    sym_eigh rather than a production path: on positive definite matrices
    Jacobi resolves small eigenvalues to high relative accuracy, which
    QR-based solvers need not (Demmel & Veselic, SIMAX 1992).
    """
    a = _symmetric(s, symmetry_tol)
    n = a.shape[0]
    if n > JACOBI_MAX_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {JACOBI_MAX_DIM}")
    scale = float(np.max(np.abs(a)))
    v = np.eye(n)
    if scale == 0.0 or n == 1:
        lam = np.diag(a).copy()
        order = np.argsort(-lam, kind="stable")
        return v.T[order], lam[order]
    thresh = tol_factor * scale
    converged = False
    for _ in range(max_sweeps):
        upper = np.triu(np.abs(a), k=1)
        if float(upper.max()) <= thresh:
            converged = True
            break
        for p in range(n - 1):
            for q_ in range(p + 1, n):
                apq = a[p, q_]
                if abs(apq) <= thresh:
                    continue
                app = a[p, p]
                aqq = a[q_, q_]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s_ = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q_].copy()
                a[:, p] = c * col_p - s_ * col_q
                a[:, q_] = s_ * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q_, :].copy()
                a[p, :] = c * row_p - s_ * row_q
                a[q_, :] = s_ * row_p + c * row_q
                a[p, p] = app - t * apq
                a[q_, q_] = aqq + t * apq
                a[p, q_] = 0.0
                a[q_, p] = 0.0
                v_p = v[:, p].copy()
                v_q = v[:, q_].copy()
                v[:, p] = c * v_p - s_ * v_q
                v[:, q_] = s_ * v_p + c * v_q
    else:
        converged = float(np.triu(np.abs(a), k=1).max()) <= thresh
    if not converged:
        raise EigenConvergenceError(f"Jacobi did not converge in {max_sweeps} sweeps")
    lam = np.diag(a).copy()
    order = np.argsort(-lam, kind="stable")
    return v.T[order], lam[order]


def project_box(theta: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the axis-aligned box [lo, hi] (coordinate-wise
    clamping); idempotent by construction.  theta may be one (d,) vector or a
    (B, d) batch of rows, all projected onto the same (d,) box."""
    theta = np.asarray(theta, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != theta.shape[-1:] or hi.shape != theta.shape[-1:]:
        raise ValueError("box bounds must match the vector shape")
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi in some coordinate")
    return np.minimum(np.maximum(theta, lo), hi)


@functools.cache
def _openblas_thread_calls() -> tuple | None:
    """The (set, get, shutdown) thread calls of numpy's BLAS, or None where it
    is not OpenBLAS; shutdown is None where the library does not export
    blas_thread_shutdown_.  A symbol lookup on numpy's core extension module
    also searches the libraries it links, so this finds numpy's OpenBLAS
    whatever its wheel calls the file."""
    handle = ctypes.CDLL(np._core._multiarray_umath.__file__)
    names = next((pair for pair in OPENBLAS_THREAD_CALLS if hasattr(handle, pair[0])), None)
    if names is None:
        return None
    return (*(getattr(handle, name) for name in names),
            getattr(handle, "blas_thread_shutdown_", None))


def set_blas_threads(count: int) -> int | None:
    """Run numpy's OpenBLAS, found through numpy's core extension module, on
    count threads and return its previous count; return None and do nothing
    where numpy's BLAS is not OpenBLAS.

    Then stop the pool's idle workers, where the library exports
    blas_thread_shutdown_: an idle OpenBLAS worker busy-waits for about
    135 ms after each threaded call, and one left over from before a drop
    to one thread would spin on another core.  OpenBLAS starts its workers
    again by itself when a later call needs more than one thread.  Call it
    while no other thread of the process is inside a BLAS call."""
    calls = _openblas_thread_calls()
    if calls is None:
        return None
    set_threads, get_threads, shutdown = calls
    previous = int(get_threads())
    set_threads(count)
    if shutdown is not None:
        shutdown()
    return previous
