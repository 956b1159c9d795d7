"""PSD-affine feasibility via Douglas-Rachford splitting.

Problems have the form: find Hermitian X >= 0 with M vec(X) = b, where vec
is the isometric real vectorization of the Hermitian space. Douglas-Rachford
splitting reflects through the Frobenius-nearest PSD projection and the
Euclidean projection onto the affine set, and its PSD iterates converge to a
point of the intersection whenever one exists.

Two constraint sets provide that projection in closed form, and neither
forms or factors M. :class:`MarginalConstraintSet` is the compatibility
system ``Tr_C X = J_psi, Tr_B X = J_phi`` on A (x) B (x) C, used when both
Choi operators have full rank. :class:`CompositionConstraintSet` is the
divisibility system ``Tr_C X = I_B, J_psi * X = J_phi`` on B (x) C, whose M
splits into Kronecker blocks that one SVD of the realigned J_psi inverts;
compatibility of a rank-deficient pair is this system for a complementary
channel (Theorem 1, see :func:`chancompat.analysis.check_compatibility`).
Both hold only this affine geometry, on Hermitian matrices, and state their
multipliers and trace coordinates in the coordinates of the dense rows (the
stacked vectorized blocks), so a certificate means the same on each; the PSD
step is :func:`solve`'s own. The tests hold a dense set with a
pseudo-inverse as the oracle both match.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    devectorize_hermitian,
    partial_trace,
    partial_trace_adjoint,
    project_psd,
    vectorize_hermitian,
)

__all__ = [
    "EPS_PLATEAU",
    "Status",
    "MarginalConstraintSet",
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
# The library sets take residuals as Frobenius norms of the row blocks in
# matrix form, which equal the norms of their real coordinates.


def _check_operands(
    dims: tuple[int, int, int], first: np.ndarray, second: np.ndarray
) -> tuple[tuple[int, int, int], np.ndarray, np.ndarray]:
    """Three positive dimensions ``(d_A, d_B, d_C)`` and two finite complex
    operators, on A (x) B and on A (x) C."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"dims must be three positive dimensions, got {dims}")
    a, b, c = dims
    first = np.asarray(first, dtype=complex)
    second = np.asarray(second, dtype=complex)
    if first.shape != (a * b, a * b) or second.shape != (a * c, a * c):
        raise ValueError(f"target shapes {first.shape}, {second.shape} do not match dims {dims}")
    if not (np.isfinite(first).all() and np.isfinite(second).all()):
        raise ValueError("constraints contain non-finite entries")
    return dims, first, second


@functools.cache
def _marginal_indices(dims: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """Flat gather/scatter indices of the marginal maps on A (x) B (x) C.

    Returns ``(gather, starts, scatter, weights)``. ``gather`` lists the
    entries of a ``side x side`` matrix that ``Tr_C``, ``Tr_B`` and ``Tr_BC``
    sum, one segment per output entry starting at ``starts`` (for
    ``numpy.add.reduceat``). Row k of ``scatter``/``weights`` names the (at
    most three) reduced entries ``(dP, dQ, dR)`` whose weighted sum is entry k
    of
    ``dP (x) I_C / d_C + dQ I_B / d_B - dR (x) I_BC / (d_B d_C)``. Cached per
    dims, read-only.
    """
    a, b, c = dims
    side = a * b * c
    idx = np.arange(side * side).reshape(a, b, c, a, b, c)
    over_c = np.diagonal(idx, axis1=2, axis2=5)  # (a, b, a, b, c)
    over_b = np.diagonal(idx, axis1=1, axis2=4)  # (a, c, a, c, b)
    over_bc = np.diagonal(over_c, axis1=1, axis2=3)  # (a, a, c, b)
    gather = np.concatenate([over_c.ravel(), over_b.ravel(), over_bc.ravel()])
    p2, q2 = (a * b) ** 2, (a * c) ** 2
    starts = np.concatenate(
        [
            np.arange(0, p2 * c, c),
            p2 * c + np.arange(0, q2 * b, b),
            p2 * c + q2 * b + np.arange(0, a * a * b * c, b * c),
        ]
    )
    al, be, ga, al2, be2, ga2 = np.indices((a, b, c, a, b, c)).reshape(6, -1)
    scatter = np.stack(
        [
            (al * b + be) * (a * b) + al2 * b + be2,
            p2 + (al * c + ga) * (a * c) + al2 * c + ga2,
            p2 + q2 + al * a + al2,
        ],
        axis=1,
    )
    same_b, same_c = be == be2, ga == ga2
    weights = np.stack([same_c / c, same_b / b, (same_b & same_c) / (-b * c)], axis=1)
    out = (gather, starts, scatter, weights.astype(complex))
    for arr in out:
        arr.setflags(write=False)
    return out


class MarginalConstraintSet:
    """The compatibility constraints ``Tr_C X = first``, ``Tr_B X = second``
    over Hermitian X on A (x) B (x) C, with ``dims = (d_A, d_B, d_C)``.

    Equal to the dense system whose rows are the two marginals' (``M`` of
    two blocks, ``rhs`` the stacked vectorized targets), but nothing is
    factored: with ``dP = P - Tr_C X``, ``dQ = Q - Tr_B X`` and
    ``dR = Tr_B dP`` for targets (P, Q) with one A-marginal, the projection is
    ``X + dP (x) I_C / d_C + dQ I_B / d_B - dR (x) I_BC / (d_B d_C)``. The two
    given targets agree on A only to rounding, so the projection uses their
    least-squares consistent pair ``first - E (x) I_B`` and
    ``second + E (x) I_C`` with ``E = (Tr_B first - Tr_C second) / (d_B +
    d_C)``, as the pseudo-inverse does, while residuals are measured against
    the given targets.
    """

    def __init__(self, dims: tuple[int, int, int], first: np.ndarray, second: np.ndarray):
        dims, first, second = _check_operands(dims, first, second)
        a, b, c = dims
        self.dims, self.first, self.second = dims, first, second
        self.dim = a * b * c
        self._targets = np.concatenate([first.ravel(), second.ravel()])
        # The consistent targets, and their common A-marginal, that the
        # projection's (dP, dQ, dR) are taken from.
        e = (partial_trace(first, (a, b), (0,)) - partial_trace(second, (a, c), (0,))) / (b + c)
        p = first - partial_trace_adjoint(e, (a, b), (0,))
        q = second + partial_trace_adjoint(e, (a, c), (0,))
        r = partial_trace(p, (a, b), (0,))
        self._anchor = np.concatenate([p.ravel(), q.ravel(), r.ravel()])

    @cached_property
    def rhs(self) -> np.ndarray:
        return self._join(self.first, self.second)

    def start(self) -> np.ndarray:
        # Not ``-correction(zero)``: negating flips the sign of zero entries,
        # which the Householder step of the first PSD projection reads.
        zero = np.zeros((self.dim, self.dim), dtype=complex)
        return zero - self.correction(zero)

    def _join(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.concatenate([vectorize_hermitian(p), vectorize_hermitian(q)])

    def _traces(self, x: np.ndarray) -> np.ndarray:
        """``Tr_C X``, ``Tr_B X`` and ``Tr_BC X``, flattened and stacked."""
        gather, starts, _, _ = _marginal_indices(self.dims)
        return np.add.reduceat(np.take(x, gather), starts)

    def _rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``Tr_C X`` and ``Tr_B X``."""
        a, b, c = self.dims
        t, cut = self._traces(x), (a * b) ** 2
        return t[:cut].reshape(a * b, a * b), t[cut : self._targets.size].reshape(a * c, a * c)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._join(*self._rows(x))

    def adjoint(self, lam: np.ndarray) -> np.ndarray:
        a, b, _ = self.dims
        lam, cut = np.asarray(lam, dtype=float), (a * b) ** 2
        u, v = devectorize_hermitian(lam[:cut]), devectorize_hermitian(lam[cut:])
        return partial_trace_adjoint(u, self.dims, (0, 1)) + partial_trace_adjoint(
            v, self.dims, (0, 2)
        )

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self._traces(x)[: self._targets.size] - self._targets))

    def correction(self, w: np.ndarray) -> np.ndarray:
        _, _, scatter, weights = _marginal_indices(self.dims)
        d = self._traces(w) - self._anchor
        return (d[scatter] * weights).sum(axis=1).reshape(self.dim, self.dim)

    def residual_multipliers(self, y: np.ndarray) -> np.ndarray:
        """``(M M^T)^+ r + (r - M M^+ r)`` in closed form, for Y's residual r
        in blocks ``(P, Q)``.

        The rows' null space is spanned by the pairs ``(R (x) I_B, -R (x)
        I_C)``; r's part in it is ``(E (x) I_B, -E (x) I_C)`` with ``E = (Tr_B
        P - Tr_C Q) / (d_B + d_C)``. On the range part ``(P', Q')``, with
        ``R' = Tr_B P'``, ``(M M^T)^+`` gives ``(P' / d_C - R' (x) I_B / (d_C
        (d_B + d_C)), Q' / d_B - R' (x) I_C / (d_B (d_B + d_C)))``.
        """
        a, b, c = self.dims
        p, q = self._rows(y)
        p, q = p - self.first, q - self.second
        e = (partial_trace(p, (a, b), (0,)) - partial_trace(q, (a, c), (0,))) / (b + c)
        e_b, e_c = partial_trace_adjoint(e, (a, b), (0,)), partial_trace_adjoint(e, (a, c), (0,))
        p, q = p - e_b, q + e_c
        r_a = partial_trace(p, (a, b), (0,)) / (b + c)
        lam_p = (p - partial_trace_adjoint(r_a, (a, b), (0,))) / c + e_b
        lam_q = (q - partial_trace_adjoint(r_a, (a, c), (0,))) / b - e_c
        return self._join(lam_p, lam_q)

    @cached_property
    def trace_coordinates(self) -> np.ndarray:
        """``(d_C vec(I_AB), d_B vec(I_AC)) / (d_B + d_C)``, the least-norm
        coordinates of the identity, which the pseudo-inverse gives."""
        a, b, c = self.dims
        return np.concatenate(
            [vectorize_hermitian(np.eye(a * b)) * c, vectorize_hermitian(np.eye(a * c)) * b]
        ) / (b + c)


def _realign(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """``X[(i,k),(j,l)]`` of an operator on C^m (x) C^n as ``Xr[(i,j),(k,l)]``,
    an ``m^2 x n^2`` matrix; ``_unalign`` undoes it. Both permute entries."""
    return x.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)


def _unalign(xr: np.ndarray, m: int, n: int) -> np.ndarray:
    return xr.reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(m * n, m * n)


class CompositionConstraintSet:
    """The divisibility constraints ``Tr_C X = I_B``, ``J_psi * X = J_phi``
    over Hermitian X on B (x) C, where ``*`` composes X as the Choi operator
    of a channel B -> C after psi (``channels.compose_choi``), with ``dims =
    (d_A, d_B, d_C)``.

    Equal to the dense system whose rows are the trace-preservation block
    and then the composition block, but M is never formed. With X realigned
    to ``Xr`` (``d_B^2 x d_C^2``), composition is
    ``K Xr`` for K the ``d_A^2 x d_B^2`` realignment of J_psi, and ``Tr_C X``
    is ``sqrt(d_C) Xr u`` with ``u = vec(I_C) / sqrt(d_C)``. So M splits into
    ``K`` acting on ``Xr (I - u u^T)`` and the stack ``N = [sqrt(d_C) I; K]``
    acting on ``Xr u``, whose singular values ``sqrt(d_C + s^2)``, for K's
    singular values s, are all at least ``sqrt(d_C)``. One SVD of K gives
    both blocks' pseudo-inverses. K's singular values below ``_RCOND`` times
    M's largest, ``sqrt(s_max^2 + d_C)``, are dropped, as the dense
    pseudo-inverse drops them.
    """

    def __init__(self, dims: tuple[int, int, int], psi: np.ndarray, phi: np.ndarray):
        dims, psi, phi = _check_operands(dims, psi, phi)
        a, b, c = dims
        self.dims, self.dim = dims, b * c
        self._k = _realign(psi, a, b)
        self._kh = self._k.conj().T
        self._phi = _realign(phi, a, c)
        self._eye = np.eye(b).ravel()
        self._u = np.eye(c).ravel() / np.sqrt(c)
        left, s, right = np.linalg.svd(self._k)
        rank = int(np.count_nonzero(s > _RCOND * np.sqrt(s[0] ** 2 + c)))
        s2 = np.zeros(b * b)
        s2[: s.size] = s * s
        # (N^dag N)^-1 = (d_C I + K^dag K)^-1, and K's kept singular triplets.
        self._gram_inv = (right.conj().T / (c + s2)) @ right
        self._left, self._s, self._right = left[:, :rank], s[:rank], right[:rank]
        self._null = right[rank:]
        # M^+ b, the projection of 0: N^+ on the u column, K^+ on the rest.
        y_u = self._phi @ self._u
        x_u = self._gram_inv @ (np.sqrt(c) * self._eye + self._kh @ y_u)
        rest = self._left.conj().T @ (self._phi - np.outer(y_u, self._u)) / self._s[:, None]
        self._x0 = _unalign(np.outer(x_u, self._u) + self._right.conj().T @ rest, b, c)

    @cached_property
    def rhs(self) -> np.ndarray:
        return self._join(self._eye, self._phi)

    def start(self) -> np.ndarray:
        return self._x0.copy()  # P_aff(0) = M^+ b, with no null-space part

    def _join(self, t: np.ndarray, yr: np.ndarray) -> np.ndarray:
        a, b, c = self.dims
        return np.concatenate(
            [vectorize_hermitian(t.reshape(b, b)), vectorize_hermitian(_unalign(yr, a, c))]
        )

    def _rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``vec(Tr_C X)`` and the realigned composition, unvectorized."""
        _, b, c = self.dims
        xr = _realign(x, b, c)
        return np.sqrt(c) * (xr @ self._u), self._k @ xr

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._join(*self._rows(x))

    def adjoint(self, lam: np.ndarray) -> np.ndarray:
        a, b, c = self.dims
        lam = np.asarray(lam, dtype=float)
        t = devectorize_hermitian(lam[: b * b]).ravel()
        yr = _realign(devectorize_hermitian(lam[b * b :]), a, c)
        return _unalign(np.sqrt(c) * np.outer(t, self._u) + self._kh @ yr, b, c)

    def residual(self, x: np.ndarray) -> float:
        t, xr = self._rows(x)
        return float(np.hypot(np.linalg.norm(t - self._eye), np.linalg.norm(xr - self._phi)))

    def correction(self, w: np.ndarray) -> np.ndarray:
        # P_aff(W) = M^+ b + W's part in M's null space, which is
        # ``Xr (I - u u^T)`` projected onto K's null space.
        _, b, c = self.dims
        wr = _realign(w, b, c)
        wr = wr - np.outer(wr @ self._u, self._u)
        return w - self._x0 - _unalign(self._null.conj().T @ (self._null @ wr), b, c)

    def residual_multipliers(self, y: np.ndarray) -> np.ndarray:
        """``(M M^T)^+ r + (r - M M^+ r)`` blockwise, for Y's residual r in
        blocks ``(vec T, Yr)``: on K's block it is ``Yr`` with its part in K's
        kept range scaled by ``s^-2``; on ``N``'s, with ``g = N^+ r_u``, it is
        ``r_u + N ((N^dag N)^-1 g - g)``."""
        c = self.dims[2]
        t, yr = self._rows(y)
        t, yr = t - self._eye, yr - self._phi
        y_u = yr @ self._u
        rest = yr - np.outer(y_u, self._u)
        rest += self._left @ ((self._s**-2 - 1.0)[:, None] * (self._left.conj().T @ rest))
        g = self._gram_inv @ (np.sqrt(c) * t + self._kh @ y_u)
        h = self._gram_inv @ g - g
        return self._join(t + np.sqrt(c) * h, rest + np.outer(y_u + self._k @ h, self._u))

    @cached_property
    def trace_coordinates(self) -> np.ndarray:
        """``(M^+)^T vec(I)``, which always exists: ``vec(I)`` lies in N's
        block, where M has full column rank. With ``h = (N^dag N)^-1
        vec(I_B)`` it is ``(d_C h, K h vec(I_C)^T)``."""
        c = self.dims[2]
        h = self._gram_inv @ self._eye
        return self._join(c * h, np.sqrt(c) * np.outer(self._k @ h, self._u))


ConstraintSet = MarginalConstraintSet | CompositionConstraintSet


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
    certificate: np.ndarray | None = field(default=None, repr=False)
    constraints: ConstraintSet | None = field(default=None, repr=False, compare=False)


def certificate_bound(constraints: ConstraintSet, lam: np.ndarray) -> float:
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


def solve(constraints: ConstraintSet, config: SolverConfig = SolverConfig()) -> FeasibilityReport:
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
    exhausting ``max_iter``, end the solve inconclusive. A system on ``0 x 0``
    matrices is decided at iteration 1: ``r = -b`` and ``lam = r``, whose
    bound is exactly ``||b||``.
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
