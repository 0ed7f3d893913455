"""Dense complex linear algebra for small multipartite quantum states.

Everything operates on plain numpy arrays wrapped in a few thin NamedTuples.
States live on Hilbert spaces of total dimension <= ~64, so clarity and
robustness win over asymptotic performance throughout.  The exception,
``eigvalsh_2x2``, repeats LAPACK's 2 x 2 eigenvalue arithmetic over a stack.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

TOL_TRACE = 1e-10
TOL_PSD = 1e-10
TOL_UNITARY = 1e-10
TOL_MAJORIZATION = 1e-10  # slack of each partial-sum comparison in majorizes
EPS = float(np.finfo(float).eps)  # machine epsilon, the unit of rank_cutoff


class NotSquare(ValueError):
    pass


class DimMismatch(ValueError):
    pass


class NotPositive(ValueError):
    pass


class TraceZero(ValueError):
    pass


class BadSubsystemIndex(ValueError):
    pass


class NotNormalized(ValueError):
    pass


class NotUnitary(ValueError):
    pass


class ConvergenceFailure(RuntimeError):
    pass


class NotFinite(ValueError):
    pass


def validated(fields: type) -> type:
    """The NamedTuple ``fields`` as a type whose every construction runs its ``_check``.

    The returned class subclasses ``fields`` under the same name.  Its ``__new__`` builds the tuple,
    by position or by keyword with ``fields``' defaults, then calls ``_check``, which raises on an
    invalid record; ``_make`` and ``_replace`` go through ``__new__`` too.
    """
    @functools.wraps(fields.__new__)  # keeps the field signature for help() and inspect
    def __new__(cls, *args, **kwargs):
        record = fields.__new__(cls, *args, **kwargs)
        record._check()
        return record

    return type(fields.__name__, (fields,), dict(
        __slots__=(), __new__=__new__, __doc__=fields.__doc__, __module__=fields.__module__,
        _make=classmethod(lambda cls, values: cls(*values)),
    ))


class DensityOperator(NamedTuple):
    """Trace-one positive semidefinite matrix with a declared subsystem split.

    Construct through :func:`make_density`, which hermitizes, clips tiny
    negative eigenvalues and renormalizes; operations in this module preserve
    validity and build instances directly.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class SchmidtDecomposition(NamedTuple):
    """Biorthogonal expansion of a bipartite pure state.

    ``coefficients`` are the squared Schmidt coefficients not below
    ``rank_cutoff`` of the largest, in decreasing order; ``basis_a``/``basis_b``
    are complete orthonormal bases whose k-th columns pair up in the
    expansion; ``schmidt_number`` counts the retained coefficients.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    schmidt_number: int


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, so of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def is_integer(value) -> bool:
    """True for a Python or numpy integer but not a bool: the package's one rule for an integer."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_dims(dims) -> tuple[int, ...]:
    """``dims``, one integer or a sequence of them, as a tuple of ints; DimMismatch unless each is an integer >= 1."""
    dims = tuple(dims) if np.iterable(dims) else (dims,)
    if not all(is_integer(d) and d >= 1 for d in dims):
        raise DimMismatch("dimension must be >= 1" if all(map(is_integer, dims)) else f"dims {dims} are not integers")
    return tuple(map(int, dims))


def check_indices(indices, dims) -> list[int]:
    """``indices`` as a list of ints; BadSubsystemIndex unless each is an integer naming a subsystem of ``dims``."""
    indices = list(indices)
    if not all(is_integer(i) and 0 <= i < len(dims) for i in indices):
        raise BadSubsystemIndex(f"subsystem indices {indices} invalid for dims {dims}")
    return [int(i) for i in indices]


def check_unitary(u: np.ndarray) -> None:
    """Raise NotUnitary unless u is finite (NaN passes any bound test) and u^dag u = I entrywise within TOL_UNITARY."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitary(f"expected a square matrix, got shape {u.shape}")
    if not np.isfinite(u).all():
        i, j = divmod(int(np.isfinite(u).argmin()), len(u))
        raise NotUnitary(f"entry ({i}, {j}) is not finite: {u[i, j]}")
    dev = np.max(np.abs(dag(u) @ u - np.eye(u.shape[0])))
    if dev > TOL_UNITARY:
        raise NotUnitary(f"deviation from unitarity {dev:.3e} exceeds {TOL_UNITARY:.1e}")


def make_density(matrix, dims) -> DensityOperator:
    """Validate and normalize a candidate density matrix.

    The input is hermitized as (m + m^dag)/2; eigenvalues in [-TOL_PSD, 0)
    are clipped to zero and the result is renormalized to unit trace.

    Raises NotSquare, NotFinite (a NaN or infinite entry), DimMismatch,
    NotPositive (eigenvalue below -TOL_PSD) or TraceZero.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotFinite("matrix has a NaN or infinite entry")
    dims = check_dims(dims)
    if math.prod(dims) != m.shape[0]:
        raise DimMismatch(f"dims {dims} incompatible with dimension {m.shape[0]}")
    h = 0.5 * (m + dag(m))
    w, v = _eigh(h)
    if w[0] < -TOL_PSD:
        raise NotPositive(f"eigenvalue {w[0]:.3e} below -{TOL_PSD:.1e}")
    w = np.clip(w, 0.0, None)
    tr = float(w.sum())
    if tr <= TOL_TRACE:
        raise TraceZero("state has (near-)zero trace")
    h = (v * (w / tr)) @ dag(v)
    return DensityOperator(0.5 * (h + dag(h)), dims)


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product state; dims are concatenated."""
    return DensityOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state on the subsystems listed in ``keep`` (original order)."""
    dims = rho.dims
    keep = sorted(set(check_indices(keep, dims)))
    if not keep:
        raise BadSubsystemIndex(f"keep={keep} invalid for dims {dims}")
    t = rho.matrix.reshape(dims + dims)
    nsub = len(dims)
    for i in (i for i in reversed(range(len(dims))) if i not in keep):
        t = np.trace(t, axis1=i, axis2=i + nsub)
        nsub -= 1
    new_dims = tuple(dims[i] for i in keep)
    n = math.prod(new_dims)
    return DensityOperator(t.reshape(n, n), new_dims)


def permute_subsystems(rho: DensityOperator, order) -> DensityOperator:
    """Reorder the tensor factors of ``rho`` according to ``order``."""
    dims = rho.dims
    order = check_indices(order, dims)
    if sorted(order) != list(range(len(dims))):
        raise BadSubsystemIndex(f"order {order} is not a permutation of {len(dims)} subsystems")
    k = len(dims)
    t = rho.matrix.reshape(dims + dims)
    t = t.transpose(order + [i + k for i in order])
    new_dims = tuple(dims[i] for i in order)
    n = math.prod(new_dims)
    return DensityOperator(t.reshape(n, n).copy(), new_dims)


def regroup(rho: DensityOperator, block) -> DensityOperator:
    """Bipartition a multipartite state as (block | rest), merging each side.

    The subsystems in ``block`` are moved to the front (in the order given)
    and fused into a single factor; the remaining subsystems are fused into
    the second factor.  Result always has two dims.
    """
    block = check_indices(block, rho.dims)
    rest = [i for i in range(len(rho.dims)) if i not in block]
    if not block or not rest or len(set(block)) != len(block):
        raise BadSubsystemIndex(f"block {block} invalid for dims {rho.dims}")
    perm = permute_subsystems(rho, block + rest)
    na = math.prod(rho.dims[i] for i in block)
    nb = math.prod(rho.dims[i] for i in rest)
    return DensityOperator(perm.matrix, (na, nb))


def _eigh(h: np.ndarray, vectors: bool = True):
    """``np.linalg.eigh(h)``, or ``eigvalsh`` without ``vectors``; ConvergenceFailure where LAPACK does not converge."""
    try:
        return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def rank_cutoff(n: int, scale) -> float:
    """n eps scale, the ``numpy.linalg.matrix_rank`` tolerance for n eigenvalues whose largest is ``scale``.

    Every rank cut in the package zeros the entries below it (Golub and Van Loan,
    Matrix Computations, 4th ed., sec. 5.4): at q < 1 an entry x adds about x^q to Tr p^q.
    """
    return n * EPS * scale


def eig_hermitian(rho: DensityOperator):
    """Spectral decomposition of a state.

    Returns (spectrum, basis): eigenvalues sorted decreasing and cut at
    ``rank_cutoff`` of the largest, as ``spectrum`` cuts them, and the
    matching orthonormal eigenvector columns.
    """
    w, v = _eigh(rho.matrix)
    order = np.argsort(w)[::-1]
    w = w[order]
    return np.where(w < rank_cutoff(w.size, w[0]), 0.0, w), v[:, order]


def spectrum(rho: DensityOperator) -> np.ndarray:
    """Eigenvalues only, sorted decreasing; those below ``rank_cutoff`` of the largest are zeroed."""
    w = _eigh(rho.matrix, vectors=False)[::-1]
    return np.where(w < rank_cutoff(w.size, w[0]), 0.0, w)


def eigvalsh_2x2(h: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(h)`` of a (..., 2, 2) stack by ``zheevd``'s steps at n = 2; rescaled rows take LAPACK."""
    a, d, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
    with np.errstate(all="ignore"):  # 0/0 where b = 0 or a row splits; the wheres drop those entries
        br, bi = np.abs(b.real), np.abs(b.imag)
        w, v = np.maximum(br, bi), np.minimum(br, bi)
        e = w * np.sqrt(1.0 + (v / w) ** 2)
        tr, ti = (e + br) / e, bi / e
        y = tr * d
        c = np.where(bi == 0.0, d, d - 2.0 * (y - ((0.5 * tr) * y + (0.5 * ti) * (ti * d))))
        aa, ac, e2 = np.abs(a), np.abs(c), e * e
        split = ~(e > np.sqrt(aa) * np.sqrt(ac) * (0.5 * EPS)) | (e2 <= 0.25 * EPS * EPS * np.abs(a * c))
        rte, sm, adf, big = np.sqrt(e2), a + c, np.abs(a - c), ac < aa
        hi, lo = np.maximum(adf, rte + rte), np.minimum(adf, rte + rte)
        rt1 = 0.5 * (sm + np.copysign(hi * np.sqrt(1.0 + (lo / hi) ** 2), sm))
        rt2 = np.where(sm == 0.0, -rt1, (np.where(big, a, c) / rt1) * np.where(big, c, a) - (rte / rt1) * rte)
        x1, x2, scale = np.where(split, a, rt1), np.where(split, c, rt2), np.maximum(np.maximum(aa, ac), w)
        routed = ~(scale <= 1e100) | ((scale < 1e-100) != (scale == 0)) | ((w < 1e-300) != (w == 0))
    swap = x2 < x1  # dlasrt's test, which keeps equal values such as 0 and -0 in their order
    out = np.stack([np.where(swap, x2, x1), np.where(swap, x1, x2)], -1)
    if routed.any():
        out[routed] = np.linalg.eigvalsh(h[routed])
    return out


def hs_norm_sq(a) -> float:
    """Squared Hilbert-Schmidt norm Tr(A^dag A)."""
    a = np.asarray(a)
    return float(np.vdot(a, a).real)


def schmidt(psi, dims) -> SchmidtDecomposition:
    """Schmidt decomposition of a unit vector on dims [N_A, N_B]; NotFinite for a NaN or inf entry."""
    psi = np.asarray(psi, dtype=complex).ravel()
    dims = check_dims(dims)
    if len(dims) != 2 or psi.size != dims[0] * dims[1]:
        raise DimMismatch(f"vector of size {psi.size} does not split as {dims}")
    if not np.isfinite(psi).all():
        raise NotFinite("vector has a NaN or infinite entry")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise NotNormalized(f"norm {np.linalg.norm(psi):.12f} != 1")
    u, sv, vh = np.linalg.svd(psi.reshape(dims), full_matrices=True)
    lam = sv**2
    n = int(np.count_nonzero(lam >= rank_cutoff(lam.size, lam[0])))
    return SchmidtDecomposition(lam[:n], u, vh.T, n)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix.

    Consumes 2 n^2 standard normals from ``rng``: the n x n real parts in
    row-major order, then the imaginary parts (``haar_batch``'s stream).
    """
    check_dims(n)
    return haar_from_normals(rng.standard_normal(2 * n * n), n)


def haar_from_normals(z: np.ndarray, n: int) -> np.ndarray:
    """Haar unitaries from standard normals, stacked over the leading axes of z.

    The last axis of z holds 2 n^2 numbers, laid out as ``haar_unitary``
    draws them.  The QR factorization runs once over the whole stack and the
    phases of R's diagonal are moved into Q's columns.
    """
    z = np.asarray(z, dtype=float)
    z = z.reshape(*z.shape[:-1], 2, n, n)
    g = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * (d / np.abs(d))[..., None, :]


def haar_batch(rng: np.random.Generator, count: int, dims) -> list:
    """``count`` Haar unitaries for each dimension in ``dims``, one stack per dimension.

    Stream contract: one ``rng.standard_normal((count, sum 2 n^2))`` draw,
    whose row k holds side by side what ``haar_unitary(n, rng)`` would take
    for each n of ``dims`` in turn in round k.  The stacks equal such a loop
    bit for bit; one batched QR per dimension replaces it.
    """
    sizes = [2 * n * n for n in dims]
    z = rng.standard_normal((count, sum(sizes)))
    return [haar_from_normals(x, n) for x, n in zip(np.split(z, np.cumsum(sizes)[:-1], axis=1), dims)]


def random_density(dims, rng: np.random.Generator) -> DensityOperator:
    """Hilbert-Schmidt-induced random state: G G^dag / Tr, G square Ginibre."""
    dims = check_dims(dims)
    n = math.prod(dims)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ dag(g)
    m /= np.trace(m).real
    return DensityOperator(0.5 * (m + dag(m)), dims)


def random_pure(dims, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex Gaussian vector on the given dims."""
    n = math.prod(check_dims(dims))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def majorizes(p, q_vec) -> bool:
    """True iff p is majorized by q_vec (p < q_vec in the majorization order).

    Vectors are sorted decreasing and the shorter one is zero-padded; the
    check is that every partial sum of q_vec dominates the matching partial
    sum of p within TOL_MAJORIZATION.
    """
    p = np.sort(np.asarray(p, dtype=float))[::-1]
    q = np.sort(np.asarray(q_vec, dtype=float))[::-1]
    n = max(p.size, q.size)
    p = np.pad(p, (0, n - p.size))
    q = np.pad(q, (0, n - q.size))
    return bool(np.all(np.cumsum(p) <= np.cumsum(q) + TOL_MAJORIZATION))
