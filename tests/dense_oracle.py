"""Dense reference implementations that the library's closed-form code is
tested against.

:class:`AffineConstraintSet` holds an explicit constraint matrix M and
projects with its pseudo-inverse; it follows the constraint-set protocol of
:mod:`chancompat.feasibility`, with its dense rows as a single block, so
:func:`chancompat.feasibility.solve` and
:func:`chancompat.feasibility.certificate_bound` run on it as on the library's
sets. :func:`residual_norm`, :func:`dense_rhs` and :func:`dense_forward`
are ``||M vec(X) - b||``, b and ``M vec(X)`` of any set, in dense rows.
:func:`oracle_constraints` builds M column by column from forward maps,
and :func:`marginal_oracle` and :func:`div_oracle` are the compatibility and
divisibility systems built that way.
:func:`compatibilizer_oracle` is the joint channel of Theorem 1 built by
channel composition instead of by a congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from chancompat import channels as ch
from chancompat.channels import Channel, KrausSet
from chancompat.linalg import (
    devectorize_hermitian,
    partial_trace,
    vectorize_hermitian,
)

# Singular values of M below this fraction of the largest are dropped, as the
# library's composition set drops them.
RCOND = 1e-10
# Relative error within which M^T tau must reproduce vec(I) for tau to count
# as the coordinates of the identity in M's row space.
ROW_SPACE_TOL = 1e-9


@dataclass(frozen=True)
class AffineConstraintSet:
    """Affine constraints M vec(X) = b over Hermitian ``dim x dim`` matrices.

    The pseudo-inverse of M is precomputed once; constraint rows need not be
    linearly independent, and an inconsistent system simply projects onto its
    least-squares affine set. Columns of M are the real coordinates of
    :func:`vectorize_hermitian`. Rows and multipliers are one block, the
    dense vector. ``forward``, ``project``, ``multipliers`` and
    ``trace_coordinates`` are test helpers outside the constraint-set
    protocol.
    """

    dim: int
    matrix: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
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
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "pinv", np.linalg.pinv(m, rcond=RCOND))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ vectorize_hermitian(x)

    @property
    def rhs_blocks(self) -> tuple[np.ndarray]:
        return (self.rhs,)

    def split(self, v: np.ndarray) -> tuple[np.ndarray]:
        return (v,)

    def join(self, lam: tuple[np.ndarray]) -> np.ndarray:
        return lam[0]

    def adjoint(self, lam: tuple[np.ndarray]) -> np.ndarray:
        return devectorize_hermitian(self.matrix.T @ lam[0])

    def residual_rows(self, x: np.ndarray) -> tuple[np.ndarray]:
        return (self.forward(x) - self.rhs,)

    def project(self, x: np.ndarray) -> np.ndarray:
        return x - self.correction(x)

    def multipliers(self, r: np.ndarray) -> np.ndarray:
        # pinv^T pinv = (M M^T)^+, and r - M pinv r is r's part orthogonal
        # to M's range.
        g = self.pinv @ r
        return self.pinv.T @ g + (r - self.matrix @ g)

    def residual_multipliers(self, r: tuple[np.ndarray]) -> tuple[np.ndarray]:
        return (self.multipliers(r[0]),)

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


def residual_norm(cons, x: np.ndarray) -> float:
    """``||M vec(X) - b||`` from a set's residual rows."""
    return float(np.sqrt(sum(np.vdot(r, r).real for r in cons.residual_rows(x))))


def dense_rhs(cons) -> np.ndarray:
    return cons.join(cons.rhs_blocks)


def dense_forward(cons, x: np.ndarray) -> np.ndarray:
    return cons.join(cons.residual_rows(x)) + dense_rhs(cons)


def oracle_constraints(dim, forward_specs) -> AffineConstraintSet:
    """Column j is the concatenated vec(L_k(E_j)) over the variable's basis,
    for (forward map L_k, target T_k) pairs. Each T_k enters as its
    Hermitian part, whose coordinates b holds, as the library's sets do."""
    targets = [0.5 * (np.asarray(t) + np.asarray(t).conj().T) for _, t in forward_specs]
    m = np.empty((sum(t.shape[0] ** 2 for t in targets), dim * dim))
    e = np.zeros(dim * dim)
    for col in range(dim * dim):
        e[col] = 1.0
        basis_elem = devectorize_hermitian(e)
        e[col] = 0.0
        m[:, col] = np.concatenate([vectorize_hermitian(fn(basis_elem)) for fn, _ in forward_specs])
    b = np.concatenate([vectorize_hermitian(t) for t in targets])
    return AffineConstraintSet(dim, m, b)


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
