"""Symmetric information matrices, column-major (un)vectorization, the packed
form of a symmetric matrix (its distinct entries), and the log-determinant
terminal metric with its gradient, curvature contraction and flow."""

from __future__ import annotations

import math

import numpy as np


# scratch arrays a flow kernel may use (LogDetMetric.flow's work)
FLOW_WORK = 6


class DimensionError(ValueError):
    """A vector or matrix has a shape the operation cannot accept."""


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be (symmetric) positive definite is not."""


def vec(mat) -> np.ndarray:
    """Stack matrix columns into a vector of length p**2 (column-major).

    Accepts batched input of shape (..., p, p) and vectorizes the trailing
    matrix dimensions.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {mat.shape}")
    p = mat.shape[-1]
    return np.ascontiguousarray(np.swapaxes(mat, -1, -2)).reshape(*mat.shape[:-2], p * p)


def unvec(z) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a length-p**2 vector to its p x p matrix."""
    z = np.asarray(z, dtype=float)
    if z.ndim < 1:
        raise DimensionError("expected at least a 1-d vector")
    n = z.shape[-1]
    p = math.isqrt(n)
    if p * p != n:
        raise DimensionError(f"vector length {n} is not a perfect square")
    return np.swapaxes(z.reshape(*z.shape[:-1], p, p), -1, -2)


def _packed_index(p: int):
    """Rows and columns of the p (p + 1) / 2 distinct entries of a symmetric
    p x p matrix in packed order: column by column, from the diagonal down."""
    cols, rows = np.triu_indices(p)
    return rows, cols


def sym_pack(mat, out=None) -> np.ndarray:
    """The distinct entries of symmetric matrices (..., p, p), shape
    (..., p (p + 1) / 2), in packed order (for p = 2: a00, a10, a11).

    Each off-diagonal pair is averaged, (a_rc + a_cr) * 0.5, which is exact
    when the pair is equal; a diagonal entry comes back unchanged. out may
    be any (..., p (p + 1) / 2) array, e.g. a view of a component-major stack.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {mat.shape}")
    rows, cols = _packed_index(mat.shape[-1])
    if out is None:
        out = np.empty(mat.shape[:-2] + (rows.size,))
    for k, (r, c) in enumerate(zip(rows, cols)):
        entry = out[..., k]
        np.add(mat[..., r, c], mat[..., c, r], out=entry)
        entry *= 0.5
    return out


def sym_unpack(packed) -> np.ndarray:
    """Inverse of :func:`sym_pack`: the symmetric matrices (..., p, p) of
    packed entries (..., p (p + 1) / 2), as a new C-contiguous array, so that
    reshape(..., p * p) is their vec."""
    packed = np.asarray(packed, dtype=float)
    if packed.ndim < 1:
        raise DimensionError("expected at least a 1-d vector")
    k = packed.shape[-1]
    p = (math.isqrt(8 * k + 1) - 1) // 2
    if p * (p + 1) // 2 != k:
        raise DimensionError(f"{k} packed entries do not form a symmetric matrix")
    mat = np.empty(packed.shape[:-1] + (p, p))
    for j, (r, c) in enumerate(zip(*_packed_index(p))):
        mat[..., r, c] = mat[..., c, r] = packed[..., j]
    return mat


def require_symmetric(mat: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - np.swapaxes(mat, -1, -2))) > 1e-9 * scale:
        raise NotPositiveDefiniteError("matrix is not symmetric")
    return mat


def cholesky_spd(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor of a symmetric positive definite matrix; hard error otherwise."""
    require_symmetric(np.asarray(mat, dtype=float))
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky factorization failed: {exc}") from exc


def logdet_spd(mat):
    """log det of an SPD matrix via Cholesky: 2 * sum(log diag(L)).

    A (..., p, p) stack gives an array of shape (...); one matrix a float.
    """
    chol = cholesky_spd(np.asarray(mat, dtype=float))
    out = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return float(out) if out.ndim == 0 else out


def curvature_contraction(rate_matrix, grad) -> np.ndarray:
    """z-derivative of the gain rate <G_z(z'), vec(Q)> for the logdet metric,
    written in terms of the gradient value itself.

    With L = unvec(grad) (= -inverse of the accumulated information matrix)
    the derivative is vec(L Q L); it is symmetric PSD whenever Q is PSD.
    Supports batched inputs: rate_matrix (..., p, p), grad (..., p*p).
    """
    rate_matrix = np.asarray(rate_matrix, dtype=float)
    lmat = unvec(grad)
    if rate_matrix.shape[-2:] != lmat.shape[-2:]:
        raise DimensionError(
            f"rate matrix {rate_matrix.shape[-2:]} does not match gradient "
            f"matrix {lmat.shape[-2:]}"
        )
    return vec(lmat @ rate_matrix @ lmat)


class LogDetMetric:
    """D-optimal terminal metric G(z) = -log det(unvec(z)) on the vectorized
    information state of a dim x dim information matrix.

    Minimizing G maximizes the log-determinant of the accumulated information
    matrix, i.e. shrinks the volume of the estimation error ellipsoid.
    Provides the value G(z), its gradient G_z(z), and the pointwise flow of
    (value, gradient) under a fixed information rate that the hybrid solver
    steps at every node.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError("metric dimension must be >= 1")
        self.dim = dim

    def value(self, z):
        """G(z); a (..., m) batch of states gives an array of shape (...).
        A state that is not symmetric positive definite raises
        NotPositiveDefiniteError."""
        zmat = unvec(z)
        self._check_dim(zmat)
        # Z^T, the row-major (C-contiguous) view of z: it has Z's log
        # determinant and is symmetric positive definite exactly when Z is
        return -logdet_spd(np.swapaxes(zmat, -1, -2))

    def gradient(self, z) -> np.ndarray:
        """G_z(z) = -vec(Z^-T), the elementwise derivative on all p**2
        coordinates; a (..., m) batch of states gives (..., m)."""
        zmat = unvec(z)
        self._check_dim(zmat)
        try:
            inv = np.linalg.inv(zmat)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"information matrix is singular: {exc}") from exc
        return -vec(np.swapaxes(inv, -1, -2))

    def normalized_gain(self, z, z_ref) -> float:
        """Gain relative to a reference information state; zero at z = z_ref."""
        return self.value(z) - self.value(z_ref)

    def flow(self, value, grad, rate, h: float, work):
        """Advance the pointwise accumulation (value, gradient) by h at a
        fixed information rate Q, in place: the solution of
        d(value)/ds = <vec(Q), grad>, d(grad)/ds = the z-derivative of that
        gain rate, expressed through grad (curvature_contraction).

        grad and rate hold the packed entries (sym_pack) of the symmetric
        gradient matrix and of Q on their last axis; value has their leading
        shape. Any strides will do, e.g. (..., k) views of a component-major
        stack. The new value and gradient are written into value and grad,
        which are returned. work is scratch of shape (r,) + value.shape with
        r >= FLOW_WORK for a kernel to compute in: a march that passes the
        same one every step allocates nothing per step.

        The flow is closed-form: the accumulated matrix advances linearly, the
        value picks up the exact logdet increment, and the gradient is the
        exact gradient of the advanced matrix.

        Recovering the accumulated matrix from the gradient (grad encodes its
        negated inverse) keeps the step unconditionally stable and preserves
        the identity between the gradient field and the sensitivity of the
        value to the initial information state exactly.

        For p = 2 (three packed entries) the inverses and determinants are
        the closed-form 2x2 adjugate formulas; other p use LAPACK.
        """
        if grad.shape[-1] == 3:
            return _flow_2x2(value, grad, rate, h, work)
        return _flow_lapack(value, grad, rate, h)

    def _check_dim(self, zmat: np.ndarray) -> None:
        if zmat.shape[-1] != self.dim:
            raise DimensionError(
                f"expected a {self.dim}x{self.dim} information state, got {zmat.shape[-1]}"
            )


def _flow_lapack(value, grad, rate, h: float):
    """LogDetMetric.flow for any p through batched LAPACK inverses."""
    acc = -np.linalg.inv(sym_unpack(grad))  # accumulated information matrix, SPD
    acc_new = acc + h * sym_unpack(rate)
    try:
        # a positive determinant alone also admits an even number of
        # negative eigenvalues; Cholesky fails on any of them (one call
        # checks the old and the new matrices together)
        np.linalg.cholesky(np.stack([acc, acc_new]))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("information state lost positive definiteness") from exc
    logdet_old = np.linalg.slogdet(acc)[1]
    logdet_new = np.linalg.slogdet(acc_new)[1]
    value += logdet_old - logdet_new  # G(new) - G(old)
    sym_pack(-np.linalg.inv(acc_new), out=grad)
    return value, grad


def _flow_2x2(value, grad, rate, h: float, work):
    """LogDetMetric.flow for p = 2 from the packed entries (l00, l10, l11).

    grad holds L = -A^-1, so A = -adj(L) / det(L) and det(A) = 1 / det(L).
    With A' = A + h Q the value gains log det A - log det A', and the new
    gradient is -adj(A') / det(A'). Both A and A' must be positive definite:
    det > 0 and a00 > 0. Each operation is the one of the full vec(L) with
    l01 = l10, so a symmetric state gives the same bits. They run in the
    arrays of work, and value and grad are written once every check passed.
    """
    l00, l10, l11 = grad[..., 0], grad[..., 1], grad[..., 2]
    det_a, a00, a10, a11, det_new, tmp = (work[j, ...] for j in range(FLOW_WORK))
    np.multiply(l00, l11, out=det_a)
    det_a -= np.multiply(l10, l10, out=tmp)
    # a 2x2 matrix is positive definite iff its determinant and a00 are > 0
    ok = np.all(det_a > 0.0)
    np.divide(1.0, det_a, out=det_a)
    np.multiply(np.negative(l11, out=a00), det_a, out=a00)
    ok = ok and np.all(a00 > 0.0)
    a00 += np.multiply(h, rate[..., 0], out=tmp)
    np.multiply(l10, det_a, out=a10)
    a10 += np.multiply(h, rate[..., 1], out=tmp)
    np.multiply(np.negative(l00, out=a11), det_a, out=a11)
    a11 += np.multiply(h, rate[..., 2], out=tmp)
    np.multiply(a00, a11, out=det_new)
    det_new -= np.multiply(a10, a10, out=tmp)
    if not (ok and np.all(det_new > 0.0) and np.all(a00 > 0.0)):
        raise NotPositiveDefiniteError("information state lost positive definiteness")
    # G(new) - G(old) = log det A - log det A'
    value += np.subtract(np.log(det_a, out=det_a), np.log(det_new, out=tmp), out=det_a)
    scale = np.divide(1.0, det_new, out=det_new)
    # -a * scale equals a * -scale exactly
    np.multiply(a11, np.negative(scale, out=tmp), out=l00)
    np.multiply(a10, scale, out=l10)
    np.multiply(a00, tmp, out=l11)
    return value, grad
