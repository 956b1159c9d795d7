"""Dense complex linear algebra over Hermitian operator spaces.

Operators are plain ``numpy.ndarray`` complex matrices. Composite spaces
H_A (x) H_B (x) ... use the A-major basis ordering: in |a> (x) |b> the left
factor index varies slowest, which is exactly the ordering produced by
``numpy.kron``. Subsystem dimensions are passed around as plain tuples.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Sequence

import numpy as np

EPS_HERM = 1e-10
_SQRT2 = float(np.sqrt(2.0))

__all__ = [
    "EPS_HERM",
    "dag",
    "kron",
    "partial_trace",
    "partial_transpose",
    "project_psd",
    "vectorize_hermitian",
    "devectorize_hermitian",
    "hermitian_basis",
    "swap_unitary",
    "frob",
]


def dag(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return x.conj().T


def frob(x: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(x))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor major (slowest index)."""
    return np.kron(np.asarray(a), np.asarray(b))


def _check_square(x: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, int]:
    x = np.asarray(x)
    side = int(np.prod(dims))
    if x.shape != (side, side):
        raise ValueError(f"matrix shape {x.shape} does not match subsystem dims {tuple(dims)}")
    return x, side


def partial_trace(x: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` are the subsystem dimensions in A-major order; ``keep`` is a set
    of subsystem indices whose relative order is preserved in the output.
    Preserves the scalar trace, and Hermiticity for Hermitian input.
    """
    x, _ = _check_square(x, dims)
    n = len(dims)
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = x.reshape(tuple(dims) * 2)
    # Contract row/column axes of each traced subsystem, highest index first
    # so remaining axis numbers stay valid.
    removed = 0
    for sub in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=sub, axis2=sub + n - removed)
        removed += 1
    side = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(side, side)


def partial_transpose(x: np.ndarray, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose the indices of one subsystem only; involutive."""
    x, side = _check_square(x, dims)
    n = len(dims)
    if subsystem < 0 or subsystem >= n:
        raise ValueError(f"subsystem {subsystem} out of range for {n} subsystems")
    t = x.reshape(tuple(dims) * 2)
    t = np.swapaxes(t, subsystem, subsystem + n)
    return t.reshape(side, side)


def _symmetrize(x: np.ndarray, eps_herm: float) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    scale = max(1.0, float(np.abs(x).max()))
    defect = float(np.abs(x - dag(x)).max())
    if defect > eps_herm * scale:
        raise ValueError(f"matrix is not Hermitian: max |X - X^dag| = {defect:.3e}")
    return 0.5 * (x + dag(x))


def project_psd(x: np.ndarray, eps_herm: float = EPS_HERM) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix.

    Symmetrizes the input (rejecting non-Hermitian matrices beyond
    ``eps_herm`` relative to the largest entry), clips negative eigenvalues
    to zero and reassembles.
    """
    h = _symmetrize(x, eps_herm)
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 0.0)
    return (v * w) @ dag(v)


@functools.cache
def _hermitian_indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into a d x d matrix of its diagonal, its strict upper
    triangle and the transposed (lower) positions, in the coordinate order of
    :func:`vectorize_hermitian`. Cached per dimension, read-only."""
    iu, ju = np.triu_indices(d, k=1)
    out = (np.arange(d) * (d + 1), iu * d + ju, ju * d + iu)
    for a in out:
        a.setflags(write=False)
    return out


def vectorize_hermitian(x: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian d x d matrix, length d^2.

    Uses an orthonormal basis of the Hermitian space: diagonal matrix units,
    then symmetric and antisymmetric off-diagonal pairs scaled by 1/sqrt(2),
    so Frobenius norms map to Euclidean norms exactly.
    """
    x = np.asarray(x)
    d = x.shape[0]
    diag, upper, _ = _hermitian_indices(d)
    flat = x.reshape(-1)
    out = np.empty(d * d)
    out[:d] = np.real(flat[diag])
    m = upper.size
    off = flat[upper]
    out[d : d + m] = _SQRT2 * np.real(off)
    out[d + m :] = _SQRT2 * np.imag(off)
    return out


def devectorize_hermitian(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize_hermitian`."""
    v = np.asarray(v, dtype=float)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    diag, upper, lower = _hermitian_indices(d)
    x = np.zeros(d * d, dtype=complex)
    x[diag] = v[:d]
    m = upper.size
    off = (v[d : d + m] + 1j * v[d + m :]) / _SQRT2
    x[upper] = off
    x[lower] = off.conj()
    return x.reshape(d, d)


def hermitian_basis(d: int) -> Iterable[np.ndarray]:
    """Orthonormal Hermitian basis in the :func:`vectorize_hermitian` order."""
    e = np.zeros(d * d)
    for k in range(d * d):
        e[k] = 1.0
        yield devectorize_hermitian(e)
        e[k] = 0.0


def swap_unitary(d_first: int, d_second: int) -> np.ndarray:
    """Unitary mapping |x>(x)|y> on H1 (x) H2 to |y>(x)|x> on H2 (x) H1."""
    side = d_first * d_second
    p = np.zeros((side, side))
    for a in range(d_first):
        for b in range(d_second):
            p[b * d_first + a, a * d_second + b] = 1.0
    return p
