"""Dense complex linear algebra and randomness primitives.

Everything here works on plain numpy arrays (complex128). States and
operators stay small by design — the largest object in scope is a vector of
2**14 amplitudes — so all routines are dense and rely on numpy/LAPACK.
Randomized routines take an explicit numpy Generator and are pure functions
of (arguments, generator state): the same seed reproduces identical bits.
"""

import string
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DimensionLimitError

# Hard ceiling on any single Hilbert-space dimension; fails fast on
# misconfigured sweeps before memory does.
DIM_LIMIT = 2 ** 14

HERMITIAN_ATOL = 1e-10


def _as_complex(a):
    return np.asarray(a, dtype=complex)


def is_hermitian(m, atol=HERMITIAN_ATOL):
    m = _as_complex(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and \
        np.max(np.abs(m - m.conj().T)) <= atol


def check_dim(dim, max_dim=DIM_LIMIT):
    if dim > max_dim:
        raise DimensionLimitError(
            f"requested dimension {dim} exceeds the configured maximum {max_dim}")
    return dim


def kron(a, b, max_dim=DIM_LIMIT):
    """Kronecker product with a dimension-ceiling check.

    Parameters
    ----------
    a, b : (m, n) and (p, q) complex arrays.
    max_dim : int
        Raise DimensionLimitError if m*p or n*q exceeds this.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    check_dim(a.shape[0] * b.shape[0], max_dim)
    if a.ndim == 2 and b.ndim == 2:
        check_dim(a.shape[1] * b.shape[1], max_dim)
    return np.kron(a, b)


def kron_all(mats, max_dim=DIM_LIMIT):
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = kron(out, m, max_dim)
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


def reduced_density(amplitudes, dims, keep):
    """Reduced density matrix of a pure state, without forming the full rho.

    Equivalent to partial_trace(outer(psi, psi*), dims, keep) but costs
    O(D * d) instead of O(D**2).
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
    mat = moved.reshape(d, -1)
    return mat @ mat.conj().T


def apply_unitary(amplitudes, dims, op, targets):
    """Apply an operator on the `targets` subsystems of a state vector.

    `op` must be square with dimension prod(dims[i] for i in targets); its
    row/column ordering follows the order in which `targets` are listed.
    """
    amp = _as_complex(amplitudes).reshape(-1)
    dims = list(dims)
    targets = list(targets)
    d_t = int(np.prod([dims[i] for i in targets]))
    op = _as_complex(op)
    if op.shape != (d_t, d_t):
        raise ValueError(f"operator shape {op.shape} does not match targets {targets}")
    shaped = amp.reshape(dims)
    moved = np.moveaxis(shaped, targets, range(len(targets)))
    rest_shape = moved.shape[len(targets):]
    mat = op @ moved.reshape(d_t, -1)
    out = mat.reshape([dims[i] for i in targets] + list(rest_shape))
    out = np.moveaxis(out, range(len(targets)), targets)
    return out.reshape(-1)


def herm_eig(h, atol=HERMITIAN_ATOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns
    -------
    w : (n,) real array, sorted in descending order.
    v : (n, n) array whose columns are the matching orthonormal eigenvectors,
        so that h == v @ diag(w) @ v.conj().T.
    """
    h = _as_complex(h)
    if not is_hermitian(h, atol):
        raise ValueError("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def trace_norm(h, atol=HERMITIAN_ATOL):
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    h = _as_complex(h)
    if not is_hermitian(h, atol):
        raise ValueError("trace_norm expects a Hermitian matrix")
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def orthonormalize_qr(m, rank_tol=1e-12):
    """Nearest-unitary factor from the QR decomposition m = Q R.

    The phase convention fixes every diagonal entry of R to be real and
    positive, which makes the result unique and, applied to a complex
    Gaussian matrix, Haar-distributed. Already-unitary input is returned
    unchanged (R is then the identity).

    Raises DegeneracyError for numerically rank-deficient input.
    """
    m = _as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if np.linalg.svd(m, compute_uv=False)[-1] <= rank_tol:
        raise DegeneracyError("matrix is numerically rank-deficient")
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    q = q * (d / np.abs(d)).conj()
    return q


def haar_unitary(dim, rng, max_dim=DIM_LIMIT):
    """Haar-distributed random unitary of the given dimension.

    Draws a complex Gaussian matrix and orthonormalizes it; the positive-
    diagonal-R phase fix in orthonormalize_qr is what makes the output
    distribution uniform rather than merely unitary.
    """
    check_dim(dim, max_dim)
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
        if amp.size != int(np.prod(dims)):
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
        """Reduced DensityMatrix over the kept subsystems."""
        keep = sorted(set(keep))
        mat = reduced_density(self.amplitudes, self.dims, keep)
        return DensityMatrix(mat, tuple(self.dims[i] for i in keep))


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix plus the subsystem dimension list."""

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        mat = _as_complex(self.matrix)
        dims = tuple(int(d) for d in self.dims)
        d = int(np.prod(dims))
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def validate(self, herm_atol=1e-12, trace_atol=1e-10, psd_atol=1e-10):
        """Check Hermiticity, unit trace and positivity; raise ValueError if off."""
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > herm_atol:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > trace_atol or abs(np.trace(m).imag) > trace_atol:
            raise ValueError("density matrix trace is not 1 within tolerance")
        if np.linalg.eigvalsh(m).min() < -psd_atol:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        return self
