"""Dense linear algebra over Hermitian operator spaces.

Operators are plain ``numpy.ndarray`` matrices of double precision, real or
complex: the dtype follows the data (:func:`double`). A real symmetric
matrix is a Hermitian one, so real data need no complex arithmetic, and
every function here keeps real input real, except :func:`hermitian_basis`,
whose antisymmetric elements are imaginary. Composite spaces
H_A (x) H_B (x) ... use the A-major basis ordering: in |a> (x) |b> the left
factor index varies slowest, which is exactly the ordering produced by
``numpy.kron``. Subsystem dimensions are passed around as plain tuples.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

_SQRT2 = float(np.sqrt(2.0))

__all__ = [
    "double",
    "dag",
    "hermitian_part",
    "hermitian_part_and_skew",
    "skew",
    "partial_trace",
    "partial_trace_adjoint",
    "realign",
    "unalign",
    "project_psd",
    "hermitian_basis",
    "swap_unitary",
    "frob",
]


def double(x) -> np.ndarray:
    """x as a float64 array when its entries are real (bool, integer or
    floating), else as a complex128 one; no copy when it is either already."""
    x = np.asarray(x)
    return x.astype(float if x.dtype.kind in "biuf" else complex, copy=False)


def dag(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return x.conj().T


def frob(x: np.ndarray) -> float:
    """Frobenius norm: ``np.linalg.norm(x)`` bit for bit, for double-precision
    and integer x, from the same sums without its argument handling. As
    there, a dtype that is not inexact is cast to float first."""
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """``0.5 (X + X^dag)`` bit for bit, from one transposed pass, for a square
    floating-point X; a new C-ordered array."""
    h = np.conjugate(x.T, order="C")
    h += x
    h *= 0.5
    return h


def hermitian_part_and_skew(x: np.ndarray) -> tuple[np.ndarray, float]:
    """``(hermitian_part(X), skew(X))`` bit for bit, from one conjugate
    transpose, for a square floating-point X."""
    h = np.conjugate(x.T, order="C")
    defect = float(np.abs(x - h).max(initial=0.0))
    h += x
    h *= 0.5
    return h, defect


def skew(x: np.ndarray) -> float:
    """``max |X - X^dag|``: 0.0 exactly when X is Hermitian (or empty)."""
    return hermitian_part_and_skew(x)[1]


def partial_trace(x: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` are the subsystem dimensions in A-major order; ``keep`` is a set
    of subsystem indices whose relative order is preserved in the output.
    Preserves the scalar trace, and Hermiticity for Hermitian input.
    """
    n, side = len(dims), 1
    for d in dims:
        side *= d
    x = np.asarray(x)
    if x.shape != (side, side):
        raise ValueError(f"matrix shape {x.shape} does not match subsystem dims {tuple(dims)}")
    keep = tuple(keep)
    for k in keep:
        if not 0 <= k < n:
            raise ValueError(f"keep indices {sorted(set(keep))} out of range for {n} subsystems")
    t = x.reshape(*dims, *dims)
    # Contract row/column axes of each traced subsystem, highest index first
    # so remaining axis numbers stay valid. Its argument handling is plain
    # Python on purpose: on a 4 x 4 operator it costs as much as the work.
    removed = 0
    for sub in range(n - 1, -1, -1):
        if sub not in keep:
            t = t.trace(axis1=sub, axis2=sub + n - removed)
            removed += 1
    side = math.isqrt(t.size)
    return t.reshape(side, side)


def partial_trace_adjoint(y: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Adjoint of :func:`partial_trace`: Y (x) I on the traced subsystems.

    ``y`` is ``k x k`` with ``k`` the product of the kept dimensions, factors
    in sorted ``keep`` order. The identity factors are placed back at the
    traced positions of ``dims``.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    traced = [i for i in range(n) if i not in keep]
    k_side = math.prod(dims[i] for i in keep)
    t_side = math.prod(dims[i] for i in traced)
    y = np.asarray(y)
    if y.shape != (k_side, k_side):
        raise ValueError(f"matrix shape {y.shape} does not match kept dims")
    order = keep + traced
    z = y[:, None, :, None] * np.eye(t_side)[:, None, :]
    sub = [dims[i] for i in order]
    inverse = [order.index(i) for i in range(n)]
    z = z.reshape(*sub, *sub).transpose(*inverse, *(n + i for i in inverse))
    return z.reshape(k_side * t_side, k_side * t_side)


def realign(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """``X[(i,k),(j,l)]`` of an operator on C^m (x) C^n as ``Xr[(i,j),(k,l)]``,
    an ``m^2 x n^2`` matrix; :func:`unalign` undoes it. Both permute entries."""
    return x.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)


def unalign(xr: np.ndarray, m: int, n: int) -> np.ndarray:
    return xr.reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(m * n, m * n)


def project_psd(x: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix to a square X: the
    eigendecomposition of X's Hermitian part with its negative eigenvalues
    clipped to zero (Higham, Linear Algebra Appl. 103, 1988), real for real
    X. X is cast by :func:`double`; one that is not square raises."""
    x = double(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    w, v = np.linalg.eigh(hermitian_part(x))
    np.maximum(w, 0.0, out=w)
    return (v * w) @ dag(v)


@functools.cache
def _hermitian_indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into a d x d matrix of its diagonal, its strict upper
    triangle and the transposed (lower) positions, in the order of
    :func:`hermitian_basis`. Cached per dimension, read-only."""
    iu, ju = np.triu_indices(d, k=1)
    out = (np.arange(d) * (d + 1), iu * d + ju, ju * d + iu)
    for a in out:
        a.setflags(write=False)
    return out


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the Hermitian d x d matrices, as a ``(d^2, d, d)``
    stack: the diagonal matrix units, then the symmetric and the
    antisymmetric off-diagonal pairs of the strict upper triangle, scaled by
    1/sqrt(2)."""
    diag, upper, lower = _hermitian_indices(d)
    m = upper.size
    out = np.zeros((d * d, d * d), dtype=complex)
    out[np.arange(d), diag] = 1.0
    sym = np.arange(d, d + m)
    out[sym, upper] = out[sym, lower] = 1.0 / _SQRT2
    out[sym + m, upper] = 1j / _SQRT2
    out[sym + m, lower] = -1j / _SQRT2
    return out.reshape(d * d, d, d)


def swap_unitary(d_first: int, d_second: int) -> np.ndarray:
    """Unitary mapping |x>(x)|y> on H1 (x) H2 to |y>(x)|x> on H2 (x) H1."""
    perm = np.arange(d_first * d_second).reshape(d_first, d_second).T.reshape(-1)
    return np.eye(d_first * d_second)[perm]
