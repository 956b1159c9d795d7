"""Dense reference implementations that the library's closed-form code is
tested against.

:func:`vectorize_hermitian` and :func:`devectorize_hermitian` are the
isometric real coordinates of the Hermitian space that the oracle's rows are
written in; the library itself works on operators and has no such layer.
:class:`AffineConstraintSet` holds an explicit constraint matrix M and
projects with its pseudo-inverse; it follows the constraint-set protocol of
:mod:`chancompat.feasibility`, with its dense rows as its single block of
residual rows and its multipliers as one Hermitian operator per row block,
so :func:`chancompat.feasibility.solve` and
:func:`chancompat.feasibility.certificate_bound` run on it as on the library's
sets, and a certificate of one checks on the other when their rows agree.
:func:`residual_norm`, :func:`dense_matrix`, :func:`dense_rhs` and
:func:`dense_forward` are ``||M vec(X) - b||``, M, b and ``M vec(X)`` of any
set, in dense rows; M is read off the set's adjoint.
:func:`oracle_constraints` builds M column by column from forward maps,
and :func:`marginal_oracle` and :func:`div_oracle` are the compatibility and
divisibility systems built that way.
:func:`compatibilizer_oracle` is the joint channel of Theorem 1 built by
channel composition instead of by a congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from chancompat import channels as ch
from chancompat.channels import Channel, KrausSet
from chancompat.linalg import partial_trace

# Singular values of M below this fraction of the largest are dropped, as the
# library's composition set drops them.
RCOND = 1e-10
# Relative error within which M^T tau must reproduce vec(I) for tau to count
# as the coordinates of the identity in M's row space.
ROW_SPACE_TOL = 1e-9
_SQRT2 = float(np.sqrt(2.0))


@cache
def _hermitian_plan(d: int) -> tuple[np.ndarray, ...]:
    """Index plans of :func:`vectorize_hermitian` and its inverse on the real
    view of a flat ``d x d`` complex matrix, where entry k has its real part
    at ``2k`` and its imaginary part at ``2k + 1``.

    Returns ``(gather, scale, source, target, coef)``: coordinates are
    ``view[gather] * scale``, and a matrix is ``view[target] = v[source] *
    coef`` on zeros. Cached per dimension, read-only.
    """
    iu, ju = np.triu_indices(d, k=1)
    diag, upper, lower = np.arange(d) * (d + 1), iu * d + ju, ju * d + iu
    m = upper.size
    re, im = np.arange(d, d + m), np.arange(d + m, d + 2 * m)
    half = np.full(m, 1.0 / _SQRT2)
    out = (
        np.concatenate([2 * diag, 2 * upper, 2 * upper + 1]),
        np.concatenate([np.ones(d), np.full(2 * m, _SQRT2)]),
        np.concatenate([np.arange(d), re, im, re, im]),
        np.concatenate([2 * diag, 2 * upper, 2 * upper + 1, 2 * lower, 2 * lower + 1]),
        np.concatenate([np.ones(d), half, half, half, -half]),
    )
    for a in out:
        a.setflags(write=False)
    return out


def vectorize_hermitian(x: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian d x d matrix, length d^2.

    Uses an orthonormal basis of the Hermitian space: diagonal matrix units,
    then symmetric and antisymmetric off-diagonal pairs scaled by 1/sqrt(2),
    so Frobenius norms map to Euclidean norms exactly; this is the order of
    ``chancompat.linalg.hermitian_basis``. Reads the diagonal's real part and
    the strict upper triangle. Leading batch axes are kept: a ``(..., d,
    d)`` stack gives ``(..., d^2)`` coordinates. One gather from the real
    view of the matrix.
    """
    x = np.asarray(x)
    d = x.shape[-1]
    gather, scale, _, _, _ = _hermitian_plan(d)
    flat = np.ascontiguousarray(x, dtype=complex).reshape(*x.shape[:-2], d * d)
    return flat.view(float)[..., gather] * scale


def devectorize_hermitian(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize_hermitian`: one scatter into the real view
    of the matrix."""
    v = np.asarray(v, dtype=float)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    _, _, source, target, coef = _hermitian_plan(d)
    out = np.zeros(2 * d * d)
    out[target] = v[source] * coef
    return out.view(complex).reshape(d, d)


@dataclass(frozen=True)
class AffineConstraintSet:
    """Affine constraints M vec(X) = b over Hermitian ``dim x dim`` matrices.

    The pseudo-inverse of M is precomputed once; constraint rows need not be
    linearly independent, and an inconsistent system simply projects onto its
    least-squares affine set. Columns of M are the real coordinates of
    :func:`vectorize_hermitian`. Residual rows are one block, the dense
    vector. The rows are also the coordinates of one Hermitian operator per
    row block, of the sides in ``sides`` (default: every row is a 1 x 1
    block), and b and the multipliers are held as those operators.
    ``forward``, ``project``, ``multipliers`` and ``trace_coordinates`` are
    test helpers outside the constraint-set protocol.
    """

    dim: int
    matrix: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    sides: tuple[int, ...] | None = None
    pinv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        if m.ndim != 2 or m.shape[1] != self.dim * self.dim:
            raise ValueError(
                f"constraint matrix shape {m.shape} does not match dim {self.dim}"
            )
        if m.shape[0] < 1:
            raise ValueError("constraint set needs at least one row")
        if b.shape != (m.shape[0],):
            raise ValueError(f"rhs length {b.shape} does not match {m.shape[0]} rows")
        if not (np.isfinite(m).all() and np.isfinite(b).all()):
            raise ValueError("constraints contain non-finite entries")
        sides = (1,) * m.shape[0] if self.sides is None else tuple(self.sides)
        if sum(s * s for s in sides) != m.shape[0]:
            raise ValueError(f"blocks of sides {sides} do not cover {m.shape[0]} rows")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "pinv", np.linalg.pinv(m, rcond=RCOND))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ vectorize_hermitian(x)

    def operators(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """The dense row vector v as one Hermitian operator per row block."""
        ends = np.cumsum([s * s for s in self.sides])[:-1]
        return tuple(map(devectorize_hermitian, np.split(v, ends)))

    @cached_property
    def rhs_blocks(self) -> tuple[np.ndarray, ...]:
        return self.operators(self.rhs)

    def adjoint(self, lam: tuple[np.ndarray, ...]) -> np.ndarray:
        return devectorize_hermitian(self.matrix.T @ dense_rows(lam))

    def residual_rows(self, x: np.ndarray) -> tuple[np.ndarray]:
        return (self.forward(x) - self.rhs,)

    def project(self, x: np.ndarray) -> np.ndarray:
        return x - self.correction(x)

    def multipliers(self, r: np.ndarray) -> np.ndarray:
        # pinv^T pinv = (M M^T)^+, and r - M pinv r is r's part orthogonal
        # to M's range.
        g = self.pinv @ r
        return self.pinv.T @ g + (r - self.matrix @ g)

    def residual_multipliers(self, r: tuple[np.ndarray]) -> tuple[np.ndarray, ...]:
        return self.operators(self.multipliers(r[0]))

    @cached_property
    def trace_coordinates(self) -> np.ndarray | None:
        ident = vectorize_hermitian(np.eye(self.dim))
        tau = self.pinv.T @ ident
        defect = np.linalg.norm(self.matrix.T @ tau - ident)
        return tau if defect <= ROW_SPACE_TOL * np.linalg.norm(ident) else None

    @cached_property
    def trace_scalars(self) -> tuple[float, float] | None:
        tau = self.trace_coordinates
        return None if tau is None else (float(self.rhs @ tau), float(np.linalg.norm(tau)))

    def start(self) -> np.ndarray:
        return devectorize_hermitian(self.pinv @ self.rhs)

    def correction(self, w: np.ndarray) -> np.ndarray:
        return devectorize_hermitian(self.pinv @ (self.forward(w) - self.rhs))

    def inverse_point(self) -> np.ndarray | None:
        """The one point that the last row block fixes, from one LU solve of
        its dense rows, when they are square and nonsingular and the point is
        finite; else None. For :func:`div_oracle` that block is the
        composition rows, square when ``d_A == d_B``."""
        rows = self.sides[-1] ** 2
        if rows != self.dim * self.dim:
            return None
        try:
            v = np.linalg.solve(self.matrix[-rows:], self.rhs[-rows:])
        except np.linalg.LinAlgError:
            return None
        return devectorize_hermitian(v) if np.isfinite(v).all() else None


def dense_rows(ops) -> np.ndarray:
    """A tuple of row-block operators as one dense row vector."""
    return np.concatenate([vectorize_hermitian(y) for y in ops])


def residual_norm(cons, x: np.ndarray) -> float:
    """``||M vec(X) - b||`` from a set's residual rows."""
    return float(np.sqrt(sum(np.vdot(r, r).real for r in cons.residual_rows(x))))


def dense_matrix(cons) -> np.ndarray:
    """M of any constraint set in dense rows, read off its adjoint: the row
    of a row block's k-th coordinate is ``vec(M^* lam)`` for lam the k-th
    Hermitian basis operator on that block and zero on the others."""
    blocks = cons.rhs_blocks
    rows = []
    for j, block in enumerate(blocks):
        side = block.shape[0]
        for e in np.eye(side * side):
            lam = [np.zeros_like(b, dtype=complex) for b in blocks]
            lam[j] = devectorize_hermitian(e)
            rows.append(vectorize_hermitian(cons.adjoint(tuple(lam))))
    return np.array(rows)


def dense_rhs(cons) -> np.ndarray:
    return dense_rows(cons.rhs_blocks)


def dense_forward(cons, x: np.ndarray) -> np.ndarray:
    return dense_matrix(cons) @ vectorize_hermitian(x)


def oracle_constraints(dim, forward_specs) -> AffineConstraintSet:
    """Column j is the concatenated vec(L_k(E_j)) over the variable's basis,
    for (forward map L_k, target T_k) pairs. Each T_k enters as its
    Hermitian part, whose coordinates b holds, as the library's sets do, and
    each pair is a row block: its multipliers are one operator of T_k's
    side."""
    targets = [0.5 * (np.asarray(t) + np.asarray(t).conj().T) for _, t in forward_specs]
    m = np.empty((sum(t.shape[0] ** 2 for t in targets), dim * dim))
    e = np.zeros(dim * dim)
    for col in range(dim * dim):
        e[col] = 1.0
        basis_elem = devectorize_hermitian(e)
        e[col] = 0.0
        m[:, col] = np.concatenate([vectorize_hermitian(fn(basis_elem)) for fn, _ in forward_specs])
    b = np.concatenate([vectorize_hermitian(t) for t in targets])
    return AffineConstraintSet(dim, m, b, tuple(t.shape[0] for t in targets))


def marginal_oracle(psi: Channel, phi: Channel) -> AffineConstraintSet:
    """``Tr_C X = J_psi``, ``Tr_B X = J_phi`` over the joint on A (x) B (x) C."""
    dims = (psi.dim_in, psi.dim_out, phi.dim_out)
    forward = [
        (lambda x: partial_trace(x, dims, (0, 1)), psi.choi),
        (lambda x: partial_trace(x, dims, (0, 2)), phi.choi),
    ]
    return oracle_constraints(int(np.prod(dims)), forward)


def div_oracle(psi: Channel, phi: Channel) -> AffineConstraintSet:
    """``Tr_C X = I_B``, ``J_psi * X = J_phi`` over the quotient on B (x) C."""
    db, dc = psi.dim_out, phi.dim_out
    forward = [
        (lambda x: partial_trace(x, (db, dc), (0,)), np.eye(db)),
        (lambda x: ch.compose_choi(psi, Channel(db, dc, x)).choi, phi.choi),
    ]
    return oracle_constraints(db * dc, forward)


def compatibilizer_oracle(kraus: KrausSet, theta: Channel) -> Channel:
    """theta applied to the environment leg of the Stinespring dilation."""
    dilation = ch.isometry_channel(ch.isometry_from_kraus(kraus))  # A -> B (x) E
    return ch.compose_choi(dilation, ch.tensor(ch.identity(kraus.dim_out), theta))
