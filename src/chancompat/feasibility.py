"""PSD-affine feasibility via Douglas-Rachford splitting.

Problems have the form: find Hermitian X >= 0 with M vec(X) = b, where vec
is the isometric real vectorization of the Hermitian space. Douglas-Rachford
splitting reflects through the Frobenius-nearest PSD projection and the
Euclidean projection onto the affine set, and its PSD iterates converge to a
point of the intersection whenever one exists.

One constraint set provides that projection in closed form without
forming or factoring M: :class:`CompositionConstraintSet`, the system
``Tr_C X = T, J_psi * X = J_phi`` on B (x) C, whose M splits into Kronecker
blocks that one SVD of the realigned J_psi inverts. With ``T = I_B`` it is
the divisibility of phi by psi. Compatibility is this system too (see
:func:`chancompat.analysis.check_compatibility`): through Theorem 1, it is
the divisibility of one channel by the complementary channel of a dilation
of the other, with ``T = J_psi`` for the identity dilation. The set holds
only this affine geometry, on Hermitian matrices, and states its
multipliers and trace coordinates in the coordinates of the dense rows (the
stacked vectorized blocks); the PSD step is :func:`solve`'s own. The tests
hold a dense set with a pseudo-inverse as the oracle it matches.

Infeasible verdicts are certified. At iteration 1 and at every
1000-iteration checkpoint the residual of the PSD iterate is turned into
Farkas multipliers lambda for the affine rows, with one part in M's range (a
PSD cone that misses a consistent affine set) and one orthogonal to it (rows
that are inconsistent on their own); :func:`certificate_bound` turns lambda
into a lower bound on ``||M vec(X) - b||`` that holds for every PSD X, and a
bound of at least ``10 * eps_feas`` ends the solve as not feasible at
tolerance. Infeasibility detection from the splitting iterates follows Liu,
Ryu & Yin (Math. Program. 2019). Weakly infeasible problems admit no such
bound. And on feasible problems near the cone boundary the best residual of
Douglas-Rachford can stay flat for thousands of iterations before it falls
again, so a plateau of the best residual between checkpoints decides
nothing: it ends the solve inconclusive, as does the iteration cap.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    devectorize_hermitian,
    project_psd,
    vectorize_hermitian,
)

__all__ = [
    "EPS_PLATEAU",
    "Status",
    "CompositionConstraintSet",
    "SolverConfig",
    "FeasibilityReport",
    "certificate_bound",
    "solve",
]

# Singular values of M below this fraction of the largest are rank noise:
# constraint matrices built from numerical channel data carry O(1e-15) junk
# directions that would otherwise be inverted and wreck the projection.
_RCOND = 1e-10
# The solver tries a certificate and tests for a plateau every this many
# iterations.
_CHECKPOINT = 1000
# A best residual that falls by less than this between two checkpoints has
# plateaued.
EPS_PLATEAU = 1e-12


class Status(enum.Enum):
    FEASIBLE = "feasible"
    NOT_FEASIBLE_AT_TOLERANCE = "not-feasible-at-tolerance"
    INCONCLUSIVE = "inconclusive"


# Every constraint set provides, besides ``dim`` and ``rhs`` (b), on
# Hermitian ``dim x dim`` matrices:
#   forward(X), adjoint(lam)  M vec(X), and devec(M^T lam) as a matrix
#   residual(X)               ||M vec(X) - b||
#   start()                   P_aff(0), for P_aff the Euclidean projection
#   correction(W)             W - P_aff(W)
#   residual_multipliers(Y)   (M M^T)^+ r + (r - M M^+ r) for r = M vec(Y) - b
#   trace_coordinates         tau with M^T tau = vec(I), or None
# The library set takes residuals as Frobenius norms of the row blocks in
# matrix form, which equal the norms of their real coordinates.


def _realign(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """``X[(i,k),(j,l)]`` of an operator on C^m (x) C^n as ``Xr[(i,j),(k,l)]``,
    an ``m^2 x n^2`` matrix; ``_unalign`` undoes it. Both permute entries."""
    return x.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)


def _unalign(xr: np.ndarray, m: int, n: int) -> np.ndarray:
    return xr.reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(m * n, m * n)


@functools.cache
def _plan(b: int, c: int) -> tuple[np.ndarray, ...]:
    """What a set on B (x) C needs of its shape alone, cached per shape and
    read-only: the flat indices with ``x.take(there) == _realign(x, b, c)``
    and ``xr.take(back) == _unalign(xr, b, c)``, ``vec(I_C)``, ``u =
    vec(I_C) / sqrt(d_C)`` and ``I - u u^T``."""
    flat = np.arange(b * b * c * c)
    trace_c = np.eye(c).ravel()
    u = trace_c / np.sqrt(c)
    out = (
        _realign(flat.reshape(b * c, b * c), b, c),
        _unalign(flat.reshape(b * b, c * c), b, c),
        trace_c,
        u,
        np.eye(c * c) - np.outer(u, u),
    )
    for arr in out:
        arr.setflags(write=False)
    return out


class CompositionConstraintSet:
    """The constraints ``Tr_C X = T``, ``J_psi * X = J_phi`` over Hermitian X
    on B (x) C, where ``*`` composes X as the Choi operator of a map B -> C
    after psi (``channels.compose_choi``), with ``dims = (d_A, d_B, d_C)``.
    The first target T (``first``) defaults to ``I_B``: trace preservation,
    so that the system is the divisibility of phi by psi. Compatibility
    passes ``J_psi`` when it divides by the identity dilation's
    complementary channel ``rho -> rho (x) I_B``, whose quotient is the joint.

    Equal to the dense system whose rows are the ``Tr_C`` block and then the
    composition block, but M is never formed. With X realigned
    to ``Xr`` (``d_B^2 x d_C^2``), composition is
    ``K Xr`` for K the ``d_A^2 x d_B^2`` realignment of J_psi, and ``Tr_C X``
    is ``sqrt(d_C) Xr u`` with ``u = vec(I_C) / sqrt(d_C)``. So M splits into
    ``K`` acting on ``Xr (I - u u^T)`` and the stack ``N = [sqrt(d_C) I; K]``
    acting on ``Xr u``, whose singular values ``sqrt(d_C + s^2)``, for K's
    singular values s, are all at least ``sqrt(d_C)``. One SVD of K gives
    both blocks' pseudo-inverses. K's singular values below ``_RCOND`` times
    M's largest, ``sqrt(s_max^2 + d_C)``, are dropped, as the dense
    pseudo-inverse drops them. The projection goes through whichever of K's
    kept and null right-singular bases is smaller; the kept one, from a thin
    SVD, when ``2 d_A^2 <= d_B^2``.
    """

    def __init__(
        self,
        dims: tuple[int, int, int],
        psi: np.ndarray,
        phi: np.ndarray,
        first: np.ndarray | None = None,
    ):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or min(dims) < 1:
            raise ValueError(f"dims must be three positive dimensions, got {dims}")
        a, b, c = dims
        first = np.eye(b) if first is None else first
        psi, phi, first = (np.asarray(m, dtype=complex) for m in (psi, phi, first))
        if psi.shape != (a * b, a * b) or phi.shape != (a * c, a * c) or first.shape != (b, b):
            raise ValueError(
                f"target shapes {psi.shape}, {phi.shape}, {first.shape} do not match dims {dims}"
            )
        if not all(np.isfinite(m).all() for m in (psi, phi, first)):
            raise ValueError("constraints contain non-finite entries")
        self.dims, self.dim = dims, b * c
        # Xr @ vec(I_C) is vec(Tr_C X), and Xr @ (I - u u^T) is Xr off u.
        self._there, self._back, self._trace_c, self._u, self._off_u = _plan(b, c)
        self._k = _realign(psi, a, b)
        self._kh = self._k.conj().T
        self._phi = _realign(phi, a, c)
        self._first = first.ravel()
        self._thin = 2 * a * a <= b * b
        left, s, right = np.linalg.svd(self._k, full_matrices=not self._thin)
        rank = int(np.count_nonzero(s > _RCOND * np.sqrt(s[0] ** 2 + c)))
        # What _gram_solve needs of every singular triplet, and K's kept ones.
        self._gram = right[: s.size].conj().T, s * s / (c * (c + s * s)), right[: s.size]
        self._left, self._s, self._right = left[:, :rank], s[:rank], right[:rank]
        # The basis that ``correction`` projects onto: the kept or the null one.
        self._basis = self._right if self._thin else right[rank:]
        self._basis_h = self._basis.conj().T
        # M^+ b, the projection of 0: N^+ on the u column, K^+ on the rest.
        y_u = self._phi @ self._u
        x_u = self._gram_solve(np.sqrt(c) * self._first + self._kh @ y_u)
        rest = self._left.conj().T @ (self._phi - np.outer(y_u, self._u)) / self._s[:, None]
        self._x0r = np.outer(x_u, self._u) + self._right.conj().T @ rest

    def _gram_solve(self, v: np.ndarray) -> np.ndarray:
        """``(N^dag N)^-1 v = (d_C I + K^dag K)^-1 v``, which is
        ``(v - V^dag diag(s^2 / (d_C + s^2)) V v) / d_C`` for K's right
        singular vectors V and singular values s."""
        right_h, weights, right = self._gram
        return v / self.dims[2] - right_h @ (weights * (right @ v))

    @cached_property
    def rhs(self) -> np.ndarray:
        return self._join(self._first, self._phi)

    def start(self) -> np.ndarray:
        return self._x0r.take(self._back)  # P_aff(0) = M^+ b, with no null-space part

    def _join(self, t: np.ndarray, yr: np.ndarray) -> np.ndarray:
        a, b, c = self.dims
        return np.concatenate(
            [vectorize_hermitian(t.reshape(b, b)), vectorize_hermitian(_unalign(yr, a, c))]
        )

    def _rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``vec(Tr_C X)`` and the realigned composition, unvectorized."""
        xr = x.take(self._there)
        return xr @ self._trace_c, self._k @ xr

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._join(*self._rows(x))

    def adjoint(self, lam: np.ndarray) -> np.ndarray:
        a, b, c = self.dims
        lam = np.asarray(lam, dtype=float)
        t = devectorize_hermitian(lam[: b * b]).ravel()
        yr = _realign(devectorize_hermitian(lam[b * b :]), a, c)
        return (np.sqrt(c) * np.outer(t, self._u) + self._kh @ yr).take(self._back)

    def residual(self, x: np.ndarray) -> float:
        t, yr = self._rows(x)
        t -= self._first
        yr -= self._phi
        return math.sqrt(np.vdot(t, t).real + np.vdot(yr, yr).real)

    def correction(self, w: np.ndarray) -> np.ndarray:
        # P_aff(W) = M^+ b + W's part in M's null space, which is
        # ``Xr (I - u u^T)`` projected onto K's null space: through the null
        # basis, or as the rest of its projection onto the kept one.
        wr = w.take(self._there) @ self._off_u
        part = self._basis_h @ (self._basis @ wr)
        if self._thin:
            part = wr - part
        part += self._x0r
        return w - part.take(self._back)

    def residual_multipliers(self, y: np.ndarray) -> np.ndarray:
        """``(M M^T)^+ r + (r - M M^+ r)`` blockwise, for Y's residual r in
        blocks ``(vec T, Yr)``: on K's block it is ``Yr`` with its part in K's
        kept range scaled by ``s^-2``; on ``N``'s, with ``g = N^+ r_u``, it is
        ``r_u + N ((N^dag N)^-1 g - g)``."""
        c = self.dims[2]
        t, yr = self._rows(y)
        t, yr = t - self._first, yr - self._phi
        y_u = yr @ self._u
        rest = yr - np.outer(y_u, self._u)
        rest += self._left @ ((self._s**-2 - 1.0)[:, None] * (self._left.conj().T @ rest))
        g = self._gram_solve(np.sqrt(c) * t + self._kh @ y_u)
        h = self._gram_solve(g) - g
        return self._join(t + np.sqrt(c) * h, rest + np.outer(y_u + self._k @ h, self._u))

    @cached_property
    def trace_coordinates(self) -> np.ndarray:
        """``(M^+)^T vec(I)``, which always exists: ``vec(I)`` lies in N's
        block, where M has full column rank. With ``h = (N^dag N)^-1
        vec(I_B)`` it is ``(d_C h, K h vec(I_C)^T)``."""
        b, c = self.dims[1:]
        h = self._gram_solve(np.eye(b).ravel())
        return self._join(c * h, np.sqrt(c) * np.outer(self._k @ h, self._u))


@dataclass(frozen=True)
class SolverConfig:
    eps_feas: float = 1e-7
    max_iter: int = 20000

    def __post_init__(self):
        if not 0 < self.eps_feas < np.inf:  # also false for nan
            raise ValueError("eps_feas must be a positive finite number")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a solve.

    ``stop_reason`` is one of ``"tolerance"`` (feasible), ``"certificate"``
    (infeasible, ``certificate`` holds the Farkas multipliers), ``"plateau"``
    (best residual stopped improving; inconclusive) and ``"iteration-cap"``
    (inconclusive). ``constraints`` is the system that ``solution`` (a
    matrix X) and ``certificate`` (multipliers for its rows) belong to;
    :func:`certificate_bound` needs it to re-check the certificate.
    """

    status: Status
    solution: np.ndarray | None
    residual_affine: float
    residual_psd: float
    iterations: int
    stop_reason: str
    certificate: np.ndarray | None = field(repr=False)
    constraints: CompositionConstraintSet = field(repr=False, compare=False)


def certificate_bound(constraints: CompositionConstraintSet, lam: np.ndarray) -> float:
    """Lower bound on ``||M vec(X) - b||`` over every PSD X, from multipliers lam.

    With ``G = devec(M^T lam)`` and ``mu = min(0, lambda_min(G))``, every PSD X
    has ``lam . (M vec(X) - b) = <G, X> - b . lam >= mu Tr X - b . lam``. When
    ``M^T tau = vec(I)``, ``Tr X = tau . (M vec(X) - b) + b . tau``, so
    ``(lam - mu tau) . (M vec(X) - b) >= delta = mu b . tau - b . lam`` and
    Cauchy-Schwarz gives ``||M vec(X) - b|| >= delta / (||lam|| + |mu| ||tau||)``.
    Returns 0.0 (no bound) when that is not positive, or when ``mu < 0`` and
    the constraints do not fix Tr X. One ``eigvalsh``; nothing from the solve
    that produced lam is used.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != constraints.rhs.shape:
        raise ValueError(
            f"multiplier shape {lam.shape} does not match {constraints.rhs.shape[0]} rows"
        )
    if not np.isfinite(lam).all():
        raise ValueError("multipliers contain non-finite entries")
    b = constraints.rhs
    g = constraints.adjoint(lam)
    mu = float(np.linalg.eigvalsh(g).min(initial=0.0))
    delta = -float(b @ lam)
    scale = float(np.linalg.norm(lam))
    if mu < 0.0:
        tau = constraints.trace_coordinates
        if tau is None:
            return 0.0
        delta += mu * float(b @ tau)
        scale -= mu * float(np.linalg.norm(tau))
    return delta / scale if delta > 0.0 else 0.0


def _psd_defect(x: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
    return max(0.0, -float(w.min(initial=0.0)))


def solve(
    constraints: CompositionConstraintSet, config: SolverConfig = SolverConfig()
) -> FeasibilityReport:
    """Decide feasibility of the PSD cone intersected with the affine set.

    Douglas-Rachford splitting on Hermitian matrices: from ``Z = P_aff(0)``
    (``start``), each iteration takes the PSD iterate ``Y = project_psd(Z)``
    and updates ``Z <- Z + P_aff(2Y - Z) - Y``, with ``P_aff`` the set's
    Euclidean projection (``W - correction(W)``). The candidate tracked for
    the verdict is the PSD iterate, which is exactly positive semidefinite by
    construction, so its affine residual ``r = M vec(Y) - b`` alone measures
    distance from feasibility. At iteration 1 and at every 1000-iteration
    checkpoint ``r`` gives multipliers ``lam = (M M^T)^+ r + (r - M M^+ r)``;
    when :func:`certificate_bound` proves every PSD X to have residual at
    least ``10 * eps_feas``, the solve stops not feasible with ``lam`` as its
    certificate. A plateau of the best residual between checkpoints, and
    exhausting ``max_iter``, end the solve inconclusive.
    """
    z = constraints.start()
    best = np.inf
    best_candidate = None
    checkpoints: list[float] = []
    status = Status.INCONCLUSIVE
    stop_reason = "iteration-cap"
    iterations = config.max_iter
    certificate = None
    infeasible_at = 10.0 * config.eps_feas

    for it in range(1, config.max_iter + 1):
        y = project_psd(z)
        r_aff = constraints.residual(y)
        if r_aff < best:
            best = r_aff
            best_candidate = y
        if r_aff < config.eps_feas:
            status, stop_reason, iterations = Status.FEASIBLE, "tolerance", it
            break
        checkpoint = it % _CHECKPOINT == 0
        if it == 1 or checkpoint:
            # The range part certifies a PSD cone that misses a consistent
            # affine set; the part orthogonal to M's range (M^T of it is 0)
            # certifies rows that are inconsistent on their own.
            lam = constraints.residual_multipliers(y)
            if certificate_bound(constraints, lam) >= infeasible_at:
                status, stop_reason = Status.NOT_FEASIBLE_AT_TOLERANCE, "certificate"
                iterations, certificate = it, lam
                break
        if checkpoint:
            checkpoints.append(best)
            if len(checkpoints) >= 2 and checkpoints[-2] - checkpoints[-1] < EPS_PLATEAU:
                # Not infeasible: the best residual can fall again later.
                stop_reason, iterations = "plateau", it
                break
        z = y - constraints.correction(2.0 * y - z)

    # Residuals are re-measured from the candidate matrix itself, never from
    # solver internals.
    candidate = best_candidate
    r_aff = constraints.residual(candidate)
    r_psd = _psd_defect(candidate)
    solution = candidate if status is Status.FEASIBLE else None
    if status is Status.FEASIBLE and not (r_aff < config.eps_feas and r_psd < config.eps_feas):
        # Defensive: the PSD-projected candidate should always satisfy both.
        status = Status.INCONCLUSIVE
        solution = None
    return FeasibilityReport(
        status, solution, r_aff, r_psd, iterations, stop_reason, certificate, constraints
    )
