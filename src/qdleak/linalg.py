"""Dense complex linear algebra and randomness primitives.

Everything here works on plain numpy arrays (complex128). States and
operators stay small by design — the largest object in scope is a vector of
2**14 amplitudes — so all routines are dense. Most rely on numpy/LAPACK.
The 2x2 work that every coupled qubit repeats runs at scalar cost, because
numpy's per-call overhead dwarfs the arithmetic at that size: the 2x2 QR is
closed-form, and the 2x2 Haar draw forms its entries from one call's normals
in scalar arithmetic that reproduces numpy's complex rules bit for bit.
kron fills a large-times-small product by strided multiplies, which keeps
it bit-identical to np.kron. Larger QRs, square or tall, test their rank
on the R they compute, with no separate SVD, and a Haar draw of which only
the leading columns are read orthonormalizes only those. Operators act
on, and pure states reduce to, only an ascending run of adjacent
subsystems, which is what every link and layer is: one reshape isolates
the run, so an operator is one matrix product with no axis permutation of
the state, and any other order raises ValueError. partial_trace keeps any
subset.
Randomized routines take an explicit numpy Generator and are pure functions
of (arguments, generator state): the same seed reproduces identical bits.

A pure state's reduced DensityMatrix (reduced_density) carries its Schmidt
factor F (matrix = F F^†), the amplitudes as kept x traced subsystems, where
F is a view of the state; a middle run's F would copy the whole state.
Whether F's column count is low enough to be worth using is decided by its
one reader, the eavesdropper's discrimination.
"""

import math
import operator
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

# kron's strided route: a right operand of at most this many entries and a
# left one of at least this many, where one multiply per right entry costs
# less than a broadcast whose innermost loop is only the right operand's
# row (measured on 2..128-sided left operands)
_STRIDED_MAX_RIGHT = 4
_STRIDED_MIN_LEFT = 1024

# seed of kron_all; read-only because an empty product returns it
_ONE = np.ones((1, 1), dtype=complex)
_ONE.flags.writeable = False

# 1 / sqrt(2) as numpy's complex division by sqrt(2) forms it: its scale is
# 1 / (sqrt(2) + 0 * 0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _as_complex(a):
    return np.asarray(a, dtype=complex)


def _integer(name, value):
    """operator.index(value): a Python or numpy integer, else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _integers(name, values):
    """_integer of each value, as a tuple, at the cost of one map."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return tuple(_integer(name, v) for v in values)


def _dims(dims):
    """Subsystem dimensions as a tuple of positive integers, and their product."""
    dims = _integers("dims", dims)
    if min(dims, default=1) < 1:
        raise ValueError("subsystem dimensions must be positive")
    return dims, math.prod(dims)


def check_dim(dim):
    if dim > DIM_LIMIT:
        raise DimensionLimitError(
            f"requested dimension {dim} exceeds the maximum {DIM_LIMIT}")
    return dim


def kron(a, b):
    """Kronecker product of two matrices, at most DIM_LIMIT on each side.

    Each output entry is the product a[i, j] * b[k, l], the one np.kron
    forms, so the result is bit-identical to np.kron's (signed zeros
    included) without its per-call overhead. One broadcast product forms
    them (with no reshaping when an operand is 1x1), except for a large left
    operand and a small right one, where the broadcast's innermost loop
    would run over one row of the right operand: there one strided multiply
    of the left operand per entry of the right one fills the output. Raises
    ValueError unless both operands are 2-D and DimensionLimitError past the
    ceiling.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron expects two matrices, got {a.ndim}-D and {b.ndim}-D")
    (m, n), (p, q) = a.shape, b.shape
    check_dim(m * p)
    check_dim(n * q)
    if a.size == 1 or b.size == 1:
        # a 1x1 operand broadcasts to the output shape as it is
        return a * b
    if b.size > _STRIDED_MAX_RIGHT or a.size < _STRIDED_MIN_LEFT:
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)
    out = np.empty((m, p, n, q), dtype=complex)
    for k, row in enumerate(b.tolist()):
        for l, y in enumerate(row):
            np.multiply(a, y, out=out[:, k, :, l])
    return out.reshape(m * p, n * q)


def kron_all(mats):
    """Kronecker product of a sequence of matrices, left to right."""
    out = _ONE
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

    Rows and columns are ordered kept-then-traced and reshaped to
    (d, D/d, d, D/d); the trace over axes 1 and 3 sums out the rest.
    """
    rho = _as_complex(rho)
    dims, total = _dims(dims)
    n = len(dims)
    keep = sorted(set(_integers("keep", keep)))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"subsystem index out of range for {n} subsystems")
    if rho.shape != (total, total):
        raise ValueError(f"rho shape {rho.shape} does not match dims {dims}")

    order = keep + [i for i in range(n) if i not in keep]
    d = int(np.prod([dims[i] for i in keep]))
    blocks = rho.reshape(dims + dims).transpose(order + [n + i for i in order])
    return np.trace(blocks.reshape(d, total // d, d, total // d), axis1=1, axis2=3)


def _run_matrix(amplitudes, dims, run):
    """(d, left*right) matrix of a state's amplitudes over `run`, with left and right.

    `run` is a tuple r0..r0+k-1 of adjacent subsystems in ascending order
    (ValueError otherwise), so the amplitudes are a (left, d, right) array:
    row i holds those of run basis state i against every basis state of the
    rest. A view when left or right is 1, and one C-contiguous copy when
    the run touches neither end of the state.
    """
    amp = _as_complex(amplitudes).reshape(-1)
    dims, _ = _dims(dims)
    r0 = run[0] if run else 0
    r1 = r0 + len(run)
    if r0 < 0 or r1 > len(dims) or run != tuple(range(r0, r1)):
        raise ValueError(f"subsystems {list(run)} are not an ascending run "
                         f"of the {len(dims)} subsystems")
    left, d, right = math.prod(dims[:r0]), math.prod(dims[r0:r1]), math.prod(dims[r1:])
    return amp.reshape(left, d, right).transpose(1, 0, 2).reshape(d, -1), left, right


def reduced_density(amplitudes, dims, keep):
    """Reduced DensityMatrix of a pure state, with its Schmidt factor.

    Equivalent to partial_trace(outer(psi, psi*), dims, keep) but costs
    O(D * d) instead of O(D**2). `keep` names a run of adjacent subsystems,
    in any order (ValueError otherwise). The matrix is F F^† for F the
    amplitudes as a kept x traced matrix, the factor where the run touches
    an end of the state (F is a view), else None (F is a copy).
    """
    keep = tuple(sorted(set(_integers("keep", keep))))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    f, left, right = _run_matrix(amplitudes, dims, keep)
    return DensityMatrix(f @ f.conj().T, tuple(dims[i] for i in keep),
                         factor=f if left == 1 or right == 1 else None)


def apply_unitary(amplitudes, dims, op, targets):
    """Apply an operator on the `targets` subsystems of a state vector.

    The targets must be an ascending run of subsystems (ValueError
    otherwise), and `op` square with dimension prod(dims[i] for i in
    targets), its rows and columns ordered as the targets are: one matrix
    product on the run's (d_t, left*right) matrix.
    """
    targets = _integers("targets", targets)
    mat, left, right = _run_matrix(amplitudes, dims, targets)
    op = _as_complex(op)
    if op.shape != (mat.shape[0],) * 2:
        raise ValueError(f"operator shape {op.shape} does not match targets {list(targets)}")
    return (op @ mat).reshape(-1, left, right).transpose(1, 0, 2).reshape(-1)


def _hermitian(h, caller):
    """h as a complex array; ValueError naming `caller` unless it is Hermitian."""
    h = _as_complex(h)
    if not (h.ndim == 2 and h.shape[0] == h.shape[1]
            and np.max(np.abs(h - h.conj().T)) <= HERMITIAN_ATOL):
        raise ValueError(f"{caller} expects a Hermitian matrix")
    return h


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns
    -------
    w : (n,) real array, sorted in descending order.
    v : (n, n) array whose columns are the matching orthonormal eigenvectors,
        so that h == v @ diag(w) @ v.conj().T.
    """
    w, v = np.linalg.eigh(_hermitian(h, "herm_eig"))
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def trace_norm(h):
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    h = _hermitian(h, "trace_norm")
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def orthonormalize_qr(m):
    """Isometry factor Q of the thin QR decomposition m = Q R.

    `m` is square or tall (m x n with m >= n); Q has m's shape and
    orthonormal columns. The phase convention fixes every diagonal entry of
    R to be real and positive (Mezzadri, Notices AMS 54, 2007), which makes
    the result unique and, applied to a complex Gaussian matrix,
    Haar-distributed; with that convention Q's leading columns depend only
    on m's leading columns. Already-unitary input is returned unchanged
    (R is then the identity). A 2x2 input is factored in closed form;
    others by LAPACK. Wide input raises ValueError.

    Raises DegeneracyError for numerically rank-deficient input. A 2x2
    input is tested exactly: smallest singular value at most RANK_TOL.
    Any other raises for any NaN or infinite entry, and is otherwise
    tested on R's diagonal, which its QR computes anyway: some |R_ii| at
    most RANK_TOL. Since the smallest
    singular value is at most min |R_ii|, every such raise is a true rank
    deficiency; a matrix whose smallest singular value is at most RANK_TOL
    while every |R_ii| stays above it is factored, not rejected.
    """
    m = _as_complex(m)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError("expected a square or tall matrix")
    if m.shape == (2, 2):
        return _orthonormalize_2x2(m)
    # LAPACK can return a finite Q for input holding an inf
    if not np.isfinite(m).all():
        raise DegeneracyError("matrix has a non-finite entry")
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    abs_d = np.abs(d)
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
    Its divisors are complex numbers with zero imaginary part: complex /
    complex has the same rules in every Python version, complex / float
    does not.
    """
    (a00, a01), (a10, a11) = m.tolist()
    det = a00 * a11 - a01 * a10
    abs_det = abs(det)
    col0 = abs(a00) ** 2 + abs(a10) ** 2
    fro = col0 + abs(a01) ** 2 + abs(a11) ** 2
    s_max = math.sqrt((fro + math.sqrt(max(fro * fro - 4.0 * abs_det * abs_det, 0.0))) / 2)
    if not (s_max > 0.0 and abs_det / s_max > RANK_TOL):
        raise DegeneracyError("matrix is numerically rank-deficient")
    norm0 = complex(math.sqrt(col0), 0.0)
    q00, q10 = a00 / norm0, a10 / norm0
    phase = det / complex(abs_det, 0.0)
    return np.array([[q00, -phase * q10.conjugate()],
                     [q10, phase * q00.conjugate()]])


def haar_unitary(dim, rng, columns=None):
    """Haar-distributed random unitary of the given dimension, or its leading columns.

    Draws a complex Gaussian matrix and orthonormalizes it; the positive-
    diagonal-R phase fix in orthonormalize_qr is what makes the output
    distribution uniform rather than merely unitary.

    The matrix is (X + 1j*Y) / sqrt(2) for standard normal X and Y, drawn in
    that order. A 2x2 one, drawn for every coupled qubit, takes its 8
    normals in one call (the same stream) and forms the entries in scalar
    arithmetic: for nonzero x and y numpy's complex add and division by
    sqrt(2) give exactly x / sqrt(2) and y / sqrt(2) as the real and
    imaginary parts, which the real products x * _INV_SQRT2 reproduce. A draw
    holding an exact zero, whose sign numpy's complex rules decide, goes
    through numpy.

    `columns` = c < dim returns only the first c columns, a dim x c
    isometry: the same dim x dim normals are drawn, so the stream does not
    change, but only their first c columns are orthonormalized. With R's
    diagonal positive, Q's leading columns depend only on the matrix's
    leading columns, so this is the full unitary's first c columns (to
    rounding; bit for bit with one BLAS thread) at the cost of a dim x c
    QR.
    """
    dim = check_dim(_integer("dim", dim))
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if columns is not None:
        columns = _integer("columns", columns)
        if not 1 <= columns <= dim:
            raise ValueError(f"columns must be in [1, {dim}], got {columns}")
    if dim == 2:
        # the closed-form 2x2 QR costs less than a LAPACK one of a column
        g = rng.standard_normal(8)
        w = g.tolist()
        if 0.0 not in w:
            s = _INV_SQRT2
            u = orthonormalize_qr(np.array([
                [complex(w[0] * s, w[4] * s), complex(w[1] * s, w[5] * s)],
                [complex(w[2] * s, w[6] * s), complex(w[3] * s, w[7] * s)]]))
        else:
            u = orthonormalize_qr((g[:4] + 1j * g[4:]).reshape(2, 2) / np.sqrt(2))
        return u if columns is None else u[:, :columns]
    x = rng.standard_normal((dim, dim))
    y = rng.standard_normal((dim, dim))
    # a slice to None keeps every column
    return orthonormalize_qr((x[:, :columns] + 1j * y[:, :columns]) / np.sqrt(2))


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
    dim, rank0 = check_dim(_integer("dim", dim)), _integer("rank0", rank0)
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
    """Pure state: amplitude vector plus the subsystem dimensions, integers."""

    amplitudes: np.ndarray
    dims: tuple

    def __post_init__(self):
        amp = _as_complex(self.amplitudes).reshape(-1)
        dims, size = _dims(self.dims)
        if amp.size != size:
            raise ValueError(
                f"{amp.size} amplitudes do not match dims {dims}")
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix plus the subsystem dimensions, integers.

    `factor`, when known, is a (dim, r) matrix with matrix = factor @
    factor^†; r bounds the rank. reduced_density stores the Schmidt factor
    here where it is a view of the state, whatever r is; the discrimination
    works in the span of the states instead of the whole space when the two
    factors have fewer columns in total than the dimension.
    """

    matrix: np.ndarray
    dims: tuple
    factor: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        mat = _as_complex(self.matrix)
        dims, d = _dims(self.dims)
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
