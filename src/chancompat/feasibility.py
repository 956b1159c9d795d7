"""PSD-affine feasibility via Douglas-Rachford splitting.

Problems have the form: find Hermitian X >= 0 with M vec(X) = b, where vec
is the isometric real vectorization of the Hermitian space. Douglas-Rachford
splitting runs on the real coordinates: it reflects through the
Frobenius-nearest PSD projection and the Euclidean projection onto the
affine set, and its PSD iterates converge to a point of the intersection
whenever one exists.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import devectorize_hermitian, project_psd, vectorize_hermitian

__all__ = [
    "EPS_PLATEAU",
    "Status",
    "AffineConstraintSet",
    "SolverConfig",
    "FeasibilityReport",
    "certificate_bound",
    "project_affine",
    "solve",
]

# Relative error within which M^T tau must reproduce vec(I) for tau to count
# as the coordinates of the identity in M's row space.
_ROW_SPACE_TOL = 1e-9
# Singular values of M below this fraction of the largest are rank noise:
# constraint matrices assembled from numerical channel data carry O(1e-15)
# junk directions that would otherwise be inverted and wreck the projection.
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


@dataclass(frozen=True)
class AffineConstraintSet:
    """Affine constraints M vec(X) = b over Hermitian ``dim x dim`` matrices.

    The pseudo-inverse of M is precomputed once; constraint rows need not be
    linearly independent, and an inconsistent system simply projects onto its
    least-squares affine set (the reported residual then never reaches the
    feasibility tolerance).
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
        object.__setattr__(self, "pinv", np.linalg.pinv(m, rcond=_RCOND))

    def residual(self, x: np.ndarray) -> float:
        """Euclidean residual ||M vec(X) - b|| of a Hermitian matrix."""
        return float(np.linalg.norm(self.matrix @ vectorize_hermitian(x) - self.rhs))

    @cached_property
    def trace_coordinates(self) -> np.ndarray | None:
        """Coordinates tau with ``M^T tau = vec(I)``, or ``None`` when the
        identity is not in M's row space (the constraints do not fix Tr X).

        Computed on first use only: most feasible solves never need it.
        """
        ident = vectorize_hermitian(np.eye(self.dim))
        tau = self.pinv.T @ ident
        defect = np.linalg.norm(self.matrix.T @ tau - ident)
        return tau if defect <= _ROW_SPACE_TOL * np.linalg.norm(ident) else None


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
    (inconclusive). ``constraints`` is the system whose coordinates
    ``solution`` and ``certificate`` are in; :func:`certificate_bound` needs
    it to re-check the certificate.
    """

    status: Status
    solution: np.ndarray | None
    residual_affine: float
    residual_psd: float
    iterations: int
    stop_reason: str
    certificate: np.ndarray | None = field(default=None, repr=False)
    constraints: AffineConstraintSet | None = field(default=None, repr=False, compare=False)


def project_affine(x: np.ndarray, constraints: AffineConstraintSet) -> np.ndarray:
    """Euclidean projection of a Hermitian matrix onto {X : M vec(X) = b}."""
    v = vectorize_hermitian(x)
    v = v - constraints.pinv @ (constraints.matrix @ v - constraints.rhs)
    return devectorize_hermitian(v)


def certificate_bound(constraints: AffineConstraintSet, lam: np.ndarray) -> float:
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
    g = devectorize_hermitian(constraints.matrix.T @ lam)
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


def solve(constraints: AffineConstraintSet, config: SolverConfig = SolverConfig()) -> FeasibilityReport:
    """Decide feasibility of the PSD cone intersected with the affine set.

    Douglas-Rachford splitting on the real coordinates ``z``: from
    ``z = P_aff(0)``, each iteration takes the PSD iterate
    ``y = vec(project_psd(devec(z)))`` and updates
    ``z <- z + P_aff(2y - z) - y``. The candidate tracked for the verdict is
    the PSD iterate, which is exactly positive semidefinite by construction,
    so its affine residual ``r = M y - b`` alone measures distance from
    feasibility. At iteration 1 and at every 1000-iteration checkpoint ``r``
    gives multipliers ``lam = pinv^T g + (r - M g)`` with ``g = pinv r``;
    when :func:`certificate_bound` proves every PSD X to have residual at
    least ``10 * eps_feas``, the solve stops not feasible with ``lam`` as its
    certificate. A plateau of the best residual between checkpoints, and
    exhausting ``max_iter``, end the solve inconclusive. A system with no
    coordinates is decided at iteration 1: ``r = -b`` and ``lam = r``, whose
    bound is exactly ``||b||``.
    """
    m, b, mp = constraints.matrix, constraints.rhs, constraints.pinv

    z = mp @ b
    best = np.inf
    best_candidate = None
    checkpoints: list[float] = []
    status = Status.INCONCLUSIVE
    stop_reason = "iteration-cap"
    iterations = config.max_iter
    certificate = None
    infeasible_at = 10.0 * config.eps_feas

    for it in range(1, config.max_iter + 1):
        y_mat = project_psd(devectorize_hermitian(z))
        y = vectorize_hermitian(y_mat)
        r = m @ y - b
        r_aff = float(np.linalg.norm(r))
        if r_aff < best:
            best = r_aff
            best_candidate = y_mat
        if r_aff < config.eps_feas:
            status, stop_reason, iterations = Status.FEASIBLE, "tolerance", it
            break
        checkpoint = it % _CHECKPOINT == 0
        if it == 1 or checkpoint:
            # The range part certifies a PSD cone that misses a consistent
            # affine set; the part orthogonal to M's range (M^T of it is 0)
            # certifies rows that are inconsistent on their own.
            g = mp @ r
            lam = mp.T @ g + (r - m @ g)
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
        w = 2.0 * y - z
        z = y - mp @ (m @ w - b)

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
