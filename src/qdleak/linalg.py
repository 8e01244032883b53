"""Dense complex linear algebra and randomness primitives.

Everything here works on plain numpy arrays (complex128). States and
operators stay small by design — the largest object in scope is a vector of
2**14 amplitudes — so all routines are dense. Most rely on numpy/LAPACK; the
2x2 QR, which every coupling draw calls several times, is closed-form,
because numpy's per-call overhead dwarfs the arithmetic at that size.
Larger QRs test their rank on the R they compute, with no separate SVD, and
an operator on an adjacent run of subsystems is one matrix product, with no
axis permutation of the state.
Randomized routines take an explicit numpy Generator and are pure functions
of (arguments, generator state): the same seed reproduces identical bits.

A pure state's reduced DensityMatrix also keeps its Schmidt factor F
(matrix = F F^†), the amplitudes reshaped to kept x traced subsystems, when
F has fewer columns than rows: then its column count bounds the rank below
the dimension, which the eavesdropper's discrimination uses.
"""

import math
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, DimensionLimitError

# Hard ceiling on any single Hilbert-space dimension; fails fast on
# misconfigured sweeps before memory does.
DIM_LIMIT = 2 ** 14

HERMITIAN_ATOL = 1e-10

# Rank threshold of orthonormalize_qr: it calls a matrix rank-deficient when
# the smallest singular value (2x2) or some |R_ii| of its QR (larger) is at
# most this.
RANK_TOL = 1e-12


def _as_complex(a):
    return np.asarray(a, dtype=complex)


def is_hermitian(m):
    m = _as_complex(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and \
        np.max(np.abs(m - m.conj().T)) <= HERMITIAN_ATOL


def check_dim(dim):
    if dim > DIM_LIMIT:
        raise DimensionLimitError(
            f"requested dimension {dim} exceeds the maximum {DIM_LIMIT}")
    return dim


def kron(a, b):
    """Kronecker product of two matrices, at most DIM_LIMIT on each side.

    One broadcast product forms the same elementwise products np.kron does,
    so the result is bit-identical to np.kron's (signed zeros included)
    without its per-call overhead. Raises ValueError unless both operands
    are 2-D and DimensionLimitError past the ceiling.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron expects two matrices, got {a.ndim}-D and {b.ndim}-D")
    (m, n), (p, q) = a.shape, b.shape
    check_dim(m * p)
    check_dim(n * q)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def kron_all(mats):
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = kron(out, m)
    return out


def partial_trace(rho, dims, keep):
    """Trace out all subsystems except those in `keep`.

    Parameters
    ----------
    rho : (D, D) array with D = prod(dims).
    dims : sequence of int
        Local dimension of each subsystem, in tensor order.
    keep : iterable of int
        Subsystem indices to retain; the reduced state keeps their
        original relative order.

    Returns
    -------
    (d, d) array with d = prod(dims[i] for i in keep).
    """
    rho = _as_complex(rho)
    dims = list(dims)
    n = len(dims)
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"subsystem index out of range for {n} subsystems")
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"rho shape {rho.shape} does not match dims {dims}")

    letters = string.ascii_lowercase + string.ascii_uppercase
    if 2 * n > len(letters):
        raise ValueError("too many subsystems for einsum-based partial trace")
    row = list(letters[:n])
    col = [letters[n + i] if i in keep else row[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    spec = "".join(row) + "".join(col) + "->" + out
    d = int(np.prod([dims[i] for i in keep]))
    return np.einsum(spec, rho.reshape(dims + dims)).reshape(d, d)


def _schmidt_factor(amplitudes, dims, keep):
    """(d, D/d) matrix F of a pure state whose reduced state over `keep` is F F^†.

    Row i holds the amplitudes of kept basis state i against every basis
    state of the rest, so F's column count bounds the reduced state's rank.
    """
    amp = _as_complex(amplitudes).reshape(-1)
    dims = list(dims)
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError("subsystem index out of range")
    shaped = amp.reshape(dims)
    moved = np.moveaxis(shaped, keep, range(len(keep)))
    d = int(np.prod([dims[i] for i in keep]))
    return moved.reshape(d, -1)


def reduced_density(amplitudes, dims, keep):
    """Reduced density matrix of a pure state, without forming the full rho.

    Equivalent to partial_trace(outer(psi, psi*), dims, keep) but costs
    O(D * d) instead of O(D**2).
    """
    f = _schmidt_factor(amplitudes, dims, keep)
    return f @ f.conj().T


def apply_unitary(amplitudes, dims, op, targets):
    """Apply an operator on the `targets` subsystems of a state vector.

    `op` must be square with dimension prod(dims[i] for i in targets); its
    row/column ordering follows the order in which `targets` are listed.

    When the targets are an ascending run t0..t0+k-1, the amplitudes are a
    (left, d_t, right) array and the operator is one matrix product on its
    (d_t, left*right) transpose, a view when left is 1 and one C-contiguous
    copy otherwise. That is the matrix the general route (move the targets
    to the front, then flatten) builds, so both give the same bits. Any
    other target order takes the general route.
    """
    amp = _as_complex(amplitudes).reshape(-1)
    dims = list(dims)
    targets = list(targets)
    d_t = math.prod(dims[i] for i in targets)
    op = _as_complex(op)
    if op.shape != (d_t, d_t):
        raise ValueError(f"operator shape {op.shape} does not match targets {targets}")
    t0 = targets[0] if targets else 0
    if t0 >= 0 and targets == list(range(t0, t0 + len(targets))):
        left = math.prod(dims[:t0])
        right = math.prod(dims[t0 + len(targets):])
        mat = amp.reshape(left, d_t, right).transpose(1, 0, 2).reshape(d_t, left * right)
        return (op @ mat).reshape(d_t, left, right).transpose(1, 0, 2).reshape(-1)
    shaped = amp.reshape(dims)
    moved = np.moveaxis(shaped, targets, range(len(targets)))
    rest_shape = moved.shape[len(targets):]
    mat = op @ moved.reshape(d_t, -1)
    out = mat.reshape([dims[i] for i in targets] + list(rest_shape))
    out = np.moveaxis(out, range(len(targets)), targets)
    return out.reshape(-1)


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns
    -------
    w : (n,) real array, sorted in descending order.
    v : (n, n) array whose columns are the matching orthonormal eigenvectors,
        so that h == v @ diag(w) @ v.conj().T.
    """
    h = _as_complex(h)
    if not is_hermitian(h):
        raise ValueError("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def trace_norm(h):
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    h = _as_complex(h)
    if not is_hermitian(h):
        raise ValueError("trace_norm expects a Hermitian matrix")
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def orthonormalize_qr(m):
    """Nearest-unitary factor from the QR decomposition m = Q R.

    The phase convention fixes every diagonal entry of R to be real and
    positive (Mezzadri, Notices AMS 54, 2007), which makes the result unique
    and, applied to a complex Gaussian matrix, Haar-distributed.
    Already-unitary input is returned unchanged (R is then the identity).
    A 2x2 input is factored in closed form; larger ones by LAPACK.

    Raises DegeneracyError for numerically rank-deficient input. A 2x2
    input is tested exactly: smallest singular value at most RANK_TOL.
    A larger one is tested on R's diagonal, which its QR computes anyway:
    some |R_ii| at most RANK_TOL, or not a number. Since the smallest
    singular value is at most min |R_ii|, every such raise is a true rank
    deficiency; a matrix whose smallest singular value is at most RANK_TOL
    while every |R_ii| stays above it is factored, not rejected.
    """
    m = _as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if m.shape == (2, 2):
        return _orthonormalize_2x2(m)
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    abs_d = np.abs(d)
    # NaN fails the comparison, so NaN input raises too
    if not (abs_d.min() > RANK_TOL):
        raise DegeneracyError("matrix is numerically rank-deficient")
    return q * (d / abs_d).conj()


def _orthonormalize_2x2(m):
    """Closed-form orthonormalize_qr of a 2x2 matrix.

    The singular values follow from F = |m|_F**2 = s_max**2 + s_min**2 and
    |det| = s_max * s_min: s_max**2 = (F + sqrt(F**2 - 4|det|**2)) / 2 and
    s_min = |det| / s_max.
    Q's first column is the normalised first column of m; its second is the
    unit vector orthogonal to it, phased by det/|det| so that
    R[1, 1] = |det| / |m[:, 0]| is real and positive.
    """
    (a00, a01), (a10, a11) = m.tolist()
    det = a00 * a11 - a01 * a10
    abs_det = abs(det)
    col0 = abs(a00) ** 2 + abs(a10) ** 2
    fro = col0 + abs(a01) ** 2 + abs(a11) ** 2
    s_max = math.sqrt((fro + math.sqrt(max(fro * fro - 4.0 * abs_det * abs_det, 0.0))) / 2)
    if not (s_max > 0.0 and abs_det / s_max > RANK_TOL):
        raise DegeneracyError("matrix is numerically rank-deficient")
    norm0 = math.sqrt(col0)
    q00, q10 = a00 / norm0, a10 / norm0
    phase = det / abs_det
    return np.array([[q00, -phase * q10.conjugate()],
                     [q10, phase * q00.conjugate()]])


def haar_unitary(dim, rng):
    """Haar-distributed random unitary of the given dimension.

    Draws a complex Gaussian matrix and orthonormalizes it; the positive-
    diagonal-R phase fix in orthonormalize_qr is what makes the output
    distribution uniform rather than merely unitary.
    """
    check_dim(dim)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return orthonormalize_qr(z / np.sqrt(2))


def random_complementary_projectors(dim, rank0, rng):
    """Complementary orthogonal projector pair from a random real matrix.

    A real Gaussian matrix is symmetrized as (M + M.T)/2 and
    eigendecomposed; the eigenvectors of the rank0 largest eigenvalues span
    the first projector, the rest span the second. Ties have probability
    zero; if they occur the eigenvector index order decides.

    Returns
    -------
    (p0, p1) : projectors with p0 + p1 = 1, p0 @ p1 = 0, trace(p0) = rank0.
    """
    if not 1 <= rank0 < dim:
        raise ValueError(f"rank0 must satisfy 1 <= rank0 < dim, got {rank0}/{dim}")
    m = rng.standard_normal((dim, dim))
    m = (m + m.T) / 2.0
    w, v = np.linalg.eigh(m)
    v = v[:, np.argsort(w)[::-1]].astype(complex)
    p0 = v[:, :rank0] @ v[:, :rank0].conj().T
    p1 = v[:, rank0:] @ v[:, rank0:].conj().T
    return p0, p1


@dataclass(frozen=True)
class StateVector:
    """Pure state: amplitude vector plus the subsystem dimension list."""

    amplitudes: np.ndarray
    dims: tuple

    def __post_init__(self):
        amp = _as_complex(self.amplitudes).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError("subsystem dimensions must be positive")
        if amp.size != math.prod(dims):
            raise ValueError(
                f"{amp.size} amplitudes do not match dims {dims}")
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "dims", dims)

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def apply(self, op, targets):
        """New StateVector with `op` applied to the listed subsystems."""
        return StateVector(
            apply_unitary(self.amplitudes, self.dims, op, targets), self.dims)

    def reduced(self, keep):
        """Reduced DensityMatrix over the kept subsystems.

        It keeps its Schmidt factor when the kept dimension d exceeds the
        traced one D/d, the only case where the factor bounds the rank below
        d; a wider factor would be a copy of the whole state.
        """
        keep = sorted(set(keep))
        mat = reduced_density(self.amplitudes, self.dims, keep)
        factor = None
        if mat.shape[0] ** 2 > self.amplitudes.size:
            factor = _schmidt_factor(self.amplitudes, self.dims, keep)
        return DensityMatrix(mat, tuple(self.dims[i] for i in keep), factor=factor)


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix plus the subsystem dimension list.

    `factor`, when known, is a (dim, r) matrix with matrix = factor @
    factor^†; r bounds the rank. StateVector.reduced keeps the Schmidt
    factor here when r is below the dimension, so the discrimination can
    work in the span of the states instead of the whole space.
    """

    matrix: np.ndarray
    dims: tuple
    factor: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        mat = _as_complex(self.matrix)
        dims = tuple(int(d) for d in self.dims)
        d = int(np.prod(dims))
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        if self.factor is not None:
            f = _as_complex(self.factor)
            if f.ndim != 2 or f.shape[0] != d:
                raise ValueError(f"factor shape {f.shape} does not match dimension {d}")
            object.__setattr__(self, "factor", f)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def validate(self):
        """Check Hermiticity (to 1e-12), unit trace and positivity (to 1e-10).

        Raises ValueError if any is off; returns self otherwise.
        """
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise ValueError("density matrix trace is not 1 within tolerance")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        return self
