"""PSD-affine feasibility via Douglas-Rachford splitting.

Problems have the form: find Hermitian X >= 0 with M vec(X) = b, where vec
is the isometric real vectorization of the Hermitian space. Douglas-Rachford
splitting reflects through the Frobenius-nearest PSD projection and the
Euclidean projection onto the affine set, and its PSD iterates converge to a
point of the intersection whenever one exists.

The splitting is a fixed-point iteration ``z <- T(z)``, and :func:`solve`
accelerates it by type-II Anderson acceleration with memory 2 (Walker & Ni,
SIAM J. Numer. Anal. 2011; Fu, Zhang & Boyd, SIAM J. Sci. Comput. 2020):
each next point mixes the last three values of T by a least-squares fit of
the differences ``T(z) - z``. A safeguard ends it: when an extrapolated
point's ``||T(z) - z||`` exceeds that of the point it was extrapolated
from, the solve steps back to that point's plain step and runs plain
Douglas-Rachford from there. Acceleration changes only which iterates are
visited; every verdict rule below applies to every iterate. Every
evaluation of T, a rejected point's included, is one iteration and one PSD
projection.

One constraint set provides that projection in closed form without
forming or factoring M: :class:`CompositionConstraintSet`, the system
``Tr_C X = T, J_psi * X = J_phi`` on B (x) C, whose M splits into Kronecker
blocks that the realigned J_psi, K, inverts. K is factored once, on first
use, and in one place: through K's inverse when K is square and provably
well conditioned, else through one thin SVD of K. With ``T = I_B`` it is
the divisibility of phi by psi. Compatibility is this system too (see
:func:`chancompat.analysis.check_compatibility`): through Theorem 1, it is
the divisibility of one channel by the complementary channel of a dilation
of the other, with ``T = J_psi`` for the identity dilation. The set holds
only this affine geometry, on Hermitian matrices. Its rows are the
``Tr_C`` block and the composition block, and its multipliers are two
Hermitian operators on those rows' own spaces: ``Y_T`` on B and ``Y`` on
A (x) C. The PSD step is :func:`solve`'s own. The tests hold a dense set
with a pseudo-inverse as the oracle it matches.

Feasible verdicts have one rule and two candidates per iteration: a
positive semidefinite candidate whose own affine residual is below
``eps_feas`` ends the solve as its solution. The PSD iterate
``Y = project_psd(Z)`` is PSD by construction. The affine point
``P_aff(2Y - Z)``, which T already forms, satisfies the rows to rounding
when they are consistent; it counts when it has a Cholesky factor. Both
converge to a point of the intersection (Svaiter, SIAM J. Control Optim.
2011; Bauschke & Combettes, Convex Analysis and Monotone Operator Theory in
Hilbert Spaces, ch. 26). On problems with positive definite solutions the
affine point can enter the cone's interior long before Y's residual falls
below tolerance: on noisy pairs whose Y stays near the noise level past the
2000-iteration plateau, it ends the solve after tens to about a thousand.
Before the first iteration the start ``P_aff(0) = M^+ b`` is a third
candidate, at iteration 0: its Hermitian part, shifted by a rounding-level
multiple of I so that a factor can prove a start that is PSD but singular,
is factored once, and then its rows are measured. On the paper's own
feasible constructions (Theorem-1 pairs, divisible pairs, amplitude damping
on either side of 1/2) the start is the witness, and no eigendecomposition
runs. When the realigned J_psi, K, is square and nonsingular (psi is
invertible as a linear map), the composition rows alone fix the point
``x* = K^-1 J_phi``, the quotient ``phi o psi^-1`` (Wolf & Cirac, Commun.
Math. Phys. 279, 2008), and one LU solve gives it. It is offered before
the start, under the same rule, and for channel data it is the start
itself; a solve that it decides forms no factor of K. When it is refused
but its rows hold and the set is injective, it is the start, which is not
tested again.

Infeasible verdicts are certified. At iteration 1 and at every
1000-iteration checkpoint the residual of the PSD iterate is turned into
Farkas multipliers lambda for the affine rows, with one part in M's range (a
PSD cone that misses a consistent affine set) and one orthogonal to it (rows
that are inconsistent on their own); :func:`certificate_bound` turns lambda,
the pair of operators ``(Y_T, Y)``, into a lower bound on ``||M vec(X) -
b||`` that holds for every PSD X, and a bound of at least ``10 * eps_feas``
ends the solve as not feasible at tolerance. At iteration 0 the residual of
a positive definite start that the rows refuse is tried the same way: such
rows are inconsistent on their own, as no-cloning's and Example 2's are.
Infeasibility detection from the splitting iterates follows Liu, Ryu & Yin
(Math. Program. 2019). Weakly infeasible problems admit no such bound. And
on feasible problems whose solutions lie on the cone boundary the affine
point is never positive definite, and the best residual of the PSD iterate
can stay flat for thousands of iterations before it falls again, so a
plateau of the best residual between checkpoints decides nothing: it ends
the solve inconclusive, as does the iteration cap. When M is injective the
affine set is one point, and iteration 1 is already that plateau.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channels import EPS_VALID, _require_positive_ints
from .linalg import double, hermitian_part, hermitian_part_and_skew, project_psd, realign
from .linalg import unalign

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
# constraint matrices built from numerical channel data carry junk directions,
# of the order of machine epsilon, that would otherwise be inverted and wreck
# the projection.
_RCOND = 1e-10
# The solver tries a certificate and tests for a plateau every this many
# iterations.
_CHECKPOINT = 1000
# A best residual that falls by less than this between two checkpoints has
# plateaued.
EPS_PLATEAU = 1e-12
# Two differences of Anderson's fit count as one when the sine of their angle
# is below the square root of this.
_COLLINEAR = 1e-12
# The start is tested at iteration 0 shifted by this times
# ``n^2 eps max_i Re z_ii``, for eps the machine epsilon (``_shifted_start``).
_START_SHIFT = 16
_MACHINE_EPS = float(np.finfo(float).eps)


class Status(enum.Enum):
    FEASIBLE = "feasible"
    NOT_FEASIBLE_AT_TOLERANCE = "not-feasible-at-tolerance"
    INCONCLUSIVE = "inconclusive"


# Every constraint set provides, besides ``dim``, on Hermitian ``dim x dim``
# matrices:
#   start(), correction(W)    P_aff(0) and W - P_aff(W), for P_aff the
#                             Euclidean projection onto the affine set
#   inverse_point()           the one point that the composition rows fix
#                             when they are square and nonsingular, or None
#   injective                 whether M, as factored, has no null space,
#                             so that P_aff(W) = M^+ b for every W
#   residual_rows(X)          r = M vec(X) - b, as a tuple of arrays in the
#                             set's own layout, read only by ``_dot`` and
#                             residual_multipliers
# and on multipliers held as a tuple of Hermitian operators, one per row
# block, on that block's own space:
#   rhs_blocks, adjoint(lam)  b, and M^* lam as a matrix
#   residual_multipliers(r)   (M M^*)^+ r + (r - M M^+ r)
#   trace_scalars             (b . tau, ||tau||) for M^* tau = I, or None
# The bound is taken on the operators with the two tau scalars (``_bound``),
# which skips the eigensolve of an attempt that cannot certify; a report's
# certificate is their Hermitian part, formed once.


def _dot(x: tuple, y: tuple) -> float:
    """The real inner product of two tuples of arrays: sum_k Re <x_k, y_k>,
    the Frobenius one on operators."""
    return float(sum(map(np.vdot, x, y)).real)


def _target(name: str, m: np.ndarray, side: int) -> np.ndarray:
    """The Hermitian part of a target or multiplier operator m, which must be
    a finite ``side x side`` matrix; m itself if exactly Hermitian. Its dtype
    is m's, after ``linalg.double``. A skew above ``channels.EPS_VALID``, the
    bound at which channel data are valid, raises."""
    m = double(m)
    if m.shape != (side, side) or not np.isfinite(m).all():
        raise ValueError(f"{name} must be a finite {side} x {side} matrix, got {m.shape}")
    h, defect = hermitian_part_and_skew(m)
    if defect > EPS_VALID:
        raise ValueError(f"{name} is not Hermitian: max |X - X^dag| = {defect:.3e}")
    return h if defect else m


@functools.cache
def _plan(b: int, c: int, dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """What a set on B (x) C of this dtype needs of its shape alone, cached
    per shape and dtype and read-only: the flat indices with
    ``x.take(there) == realign(x, b, c)`` and ``xr.take(back) == unalign(xr,
    b, c)``, ``vec(I_C)``, ``u = vec(I_C) / sqrt(d_C)``, ``I - u u^T`` and
    ``vec(I_B)`` of the set's dtype, the default first target."""
    flat = np.arange(b * b * c * c)
    trace_c = np.eye(c).ravel()
    u = trace_c / np.sqrt(c)
    out = (
        realign(flat.reshape(b * c, b * c), b, c),
        unalign(flat.reshape(b * b, c * c), b, c),
        trace_c,
        u,
        np.eye(c * c) - np.outer(u, u),
        np.eye(b, dtype=dtype).ravel(),
    )
    for arr in out:
        arr.setflags(write=False)
    return out


class _Factors(NamedTuple):
    """What a :class:`CompositionConstraintSet` needs of K, on either route:
    whether M is ``injective``; K^+ on a block of rows (``pinv``); ``(d_C I
    + K^dag K)^-1`` (``gram_solve``), which is ``(N^dag N)^-1``; ``(K
    K^dag)^+ + (I - K K^+)`` on a block of rows (``range_solve``); and K's
    kept right-singular basis with its conjugate transpose, which a set that
    is not injective projects off (None from K's inverse)."""

    injective: bool
    pinv: Callable[[np.ndarray], np.ndarray]
    gram_solve: Callable[[np.ndarray], np.ndarray]
    range_solve: Callable[[np.ndarray], np.ndarray]
    right: tuple[np.ndarray, np.ndarray] | None


class CompositionConstraintSet:
    """The constraints ``Tr_C X = T``, ``J_psi * X = J_phi`` over Hermitian X
    on B (x) C, where ``*`` composes X as the Choi operator of a map B -> C
    after psi (``channels.compose_choi``), with ``dims = (d_A, d_B, d_C)``.
    The first target T (``first``) defaults to ``I_B``: trace preservation,
    so that the system is the divisibility of phi by psi. Compatibility
    passes ``J_psi`` when it divides by the identity dilation's
    complementary channel ``rho -> rho (x) I_B``, whose quotient is the joint.

    Equal to the dense system whose rows are the ``Tr_C`` block and then the
    composition block, but M is never formed. With X realigned to ``Xr``
    (``d_B^2 x d_C^2``, ``linalg.realign``), composition is ``K Xr`` for K
    the ``d_A^2 x d_B^2`` realignment of J_psi, the identity that
    ``channels.compose_choi`` states and computes by, and ``Tr_C X`` is
    ``sqrt(d_C) Xr u`` with ``u = vec(I_C) / sqrt(d_C)``. So M splits into
    ``K`` acting on ``Xr (I - u u^T)`` and the stack ``N = [sqrt(d_C) I; K]``
    acting on ``Xr u``, whose singular values ``sqrt(d_C + s^2)``, for K's
    singular values s, are all at least ``sqrt(d_C)``. Both blocks'
    pseudo-inverses are formed once, as ``_factors``, when ``start``,
    ``correction``, ``residual_multipliers``, ``trace_scalars`` or
    ``injective`` first reads them, and ``inverse_point`` needs only an LU
    solve of a square K. When K is square and ``_RCOND ||K^-1||_F
    sqrt(||K||_F^2 + d_C) < 1``, which proves that the cut below keeps
    every singular value, they come from K^-1: ``(K K^dag)^-1 = K^-dag
    K^-1`` on K's block, ``(d_C I + K^dag K)^-1`` on N's. Otherwise one thin
    SVD of K gives both: K's singular values below ``_RCOND`` times M's
    largest, ``sqrt(s_max^2 + d_C)``, are dropped, as the dense
    pseudo-inverse drops them. M is ``injective`` on the first route, and on
    the second when the cut keeps all ``d_B^2`` singular values or ``d_C =
    1`` (M is N alone); else ``correction`` projects off K's kept
    right-singular basis.

    The set takes its targets' common dtype: it is real when they all are.
    For real targets the real part of any solution is a solution, and every
    projection keeps real points real, so the solve runs in real arithmetic
    from its real start and decides as on the complex cast of its targets.

    The constructor checks each target as ``_target`` does: shape,
    finiteness and a skew within ``channels.EPS_VALID``, whose Hermitian part
    it keeps. :meth:`from_validated` takes the operators that channel
    validation proved, which pass those checks by construction, and checks
    nothing again.
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
        psi, phi = _target("psi", psi, a * b), _target("phi", phi, a * c)
        if first is not None:
            first = _target("first", first, b)
        self._build(dims, psi, phi, first)

    @classmethod
    def from_validated(
        cls,
        dims: tuple[int, int, int],
        psi: np.ndarray,
        phi: np.ndarray,
        first: np.ndarray | None = None,
    ) -> CompositionConstraintSet:
        """The set on targets that are already what the constructor's checks
        return, built with no second check: ``dims`` three positive integers,
        stored as ints as the constructor stores them, and each target the
        Hermitian operator that ``channels.validate_channel`` or
        ``channels.validated_eigh`` proves, of its side."""
        self = cls.__new__(cls)
        self._build(tuple(int(d) for d in dims), psi, phi, first)
        return self

    def _build(self, dims, psi, phi, first) -> None:
        """The set on checked targets."""
        a, b, c = dims
        # The targets' common dtype, taken once, so that no product of the
        # solve mixes real and complex arrays: float64 when all are real.
        dtype = np.result_type(psi, phi, psi if first is None else first)
        psi, phi = psi.astype(dtype, copy=False), phi.astype(dtype, copy=False)
        self.dims, self.dim = dims, b * c
        # Xr @ vec(I_C) is vec(Tr_C X), and Xr @ (I - u u^T) is Xr off u.
        plan = _plan(b, c, dtype)
        self._there, self._back, self._trace_c, self._u, self._off_u, self._vec_i = plan
        first = self._vec_i if first is None else first.astype(dtype, copy=False).ravel()
        self._k = realign(psi, a, b)
        self._kh = self._k.conj().T
        self._first, self._phi = first, realign(phi, a, c)
        self.rhs_blocks = first.reshape(b, b), phi

    def _well_conditioned_inverse(self) -> np.ndarray | None:
        """K^-1 when K is square and the SVD's cut would keep every singular
        value; else None. K's least singular value is at least ``1 /
        ||K^-1||_F`` and its largest at most ``||K||_F``, so the cut
        ``_RCOND sqrt(s_max^2 + d_C)`` keeps all of them when ``_RCOND
        ||K^-1||_F sqrt(||K||_F^2 + d_C) < 1``. ``math.hypot`` takes the
        norms without overflow; a square that overflows makes the bound inf,
        and the SVD then names the overflow."""
        a, b, c = self.dims
        if a != b:
            return None
        try:
            kinv = np.linalg.inv(self._k)
        except np.linalg.LinAlgError:
            return None
        norm = math.hypot(*self._k.ravel().view(float).tolist())
        bound = _RCOND * math.hypot(*kinv.ravel().view(float).tolist())
        return kinv if bound * math.sqrt(norm * norm + c) < 1.0 else None

    @cached_property
    def _factors(self) -> _Factors:
        """The one place that picks K's route: K's inverse when
        ``_well_conditioned_inverse`` gives one, else K's thin SVD, whose
        kept triplets give K^+ and ``(K K^dag)^+``, and whose every triplet
        gives ``(d_C I + K^dag K)^-1 v = (v - V^dag diag(s^2 / (d_C + s^2))
        V v) / d_C``."""
        _, b, c = self.dims
        kinv = self._well_conditioned_inverse()
        if kinv is not None:
            gram = self._kh @ self._k
            gram.reshape(-1)[:: gram.shape[0] + 1] += c
            gram_inv, range_inv = np.linalg.inv(gram), kinv.conj().T @ kinv
            return _Factors(
                True,
                functools.partial(np.matmul, kinv),
                functools.partial(np.matmul, gram_inv),
                functools.partial(np.matmul, range_inv),
                None,
            )
        left, s, right = np.linalg.svd(self._k, full_matrices=False)
        try:
            cut = _RCOND * math.sqrt(float(s[0]) ** 2 + c)
        except OverflowError:
            raise ValueError(f"psi overflows: K's largest singular value {s[0]:.3e}, squared")
        rank = int(np.count_nonzero(s > cut))
        right_h, weights = right.conj().T, s * s / (c * (c + s * s))
        # K's kept triplets. The kept right basis's conjugate transpose is the
        # first ``rank`` columns of right_h, formed once: a view in the same F
        # order.
        left, s, kept = left[:, :rank], s[:rank], right[:rank]
        left_h, kept_h, scale = left.conj().T, right_h[:, :rank], s**-2 - 1.0
        return _Factors(
            rank == b * b or c == 1,
            lambda rows: kept_h @ (left_h @ rows / s[:, None]),
            lambda v: v / c - right_h @ (weights * (right @ v)),
            lambda rows: rows + left @ (scale[:, None] * (left_h @ rows)),
            (kept, kept_h),
        )

    @property
    def injective(self) -> bool:
        return self._factors.injective

    @cached_property
    def _x0r(self) -> np.ndarray:
        """``M^+ b`` realigned, the projection of 0, formed on first use by
        ``start`` or ``correction``: N^+ on the u column, K^+ on the rest.
        ``a[:, None] * u`` is ``np.outer(a, u)``."""
        factors = self._factors
        y_u = self._phi @ self._u
        x_u = factors.gram_solve(math.sqrt(self.dims[2]) * self._first + self._kh @ y_u)
        xr = factors.pinv(self._phi - y_u[:, None] * self._u)
        xr += x_u[:, None] * self._u
        return xr

    @cached_property
    def _x0(self) -> np.ndarray:
        """``M^+ b`` as X, which ``correction`` subtracts when M is
        injective."""
        return self._x0r.take(self._back)

    def start(self) -> np.ndarray:
        return self._x0r.take(self._back)  # P_aff(0) = M^+ b, with no null-space part

    def inverse_point(self) -> np.ndarray | None:
        """``x* = K^-1 Phi`` as X on B (x) C, from one LU solve, when K is
        square (``d_A == d_B``): the one point of the composition rows when
        K is nonsingular, which is psi invertible as a linear map, and then
        the quotient ``phi o psi^-1``. None when K is not square, when the
        solve finds it singular, or when x* is not finite. ``np.linalg.solve``
        ignores overflow and division by zero and raises on an invalid value,
        so none of these cases warns."""
        a, b, _ = self.dims
        if a != b:
            return None
        try:
            xr = np.linalg.solve(self._k, self._phi)
        except np.linalg.LinAlgError:
            return None
        return xr.take(self._back) if np.isfinite(xr).all() else None

    def residual_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``vec(Tr_C X - T)`` and the realigned ``J_psi * X - J_phi``."""
        xr = x.take(self._there)
        t, yr = xr @ self._trace_c, self._k @ xr
        t -= self._first
        yr -= self._phi
        return t, yr

    def adjoint(self, lam: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """``Y_T (x) I_C`` plus the composition's adjoint of Y, for ``lam =
        (Y_T, Y)``."""
        a, _, c = self.dims
        t, y = lam
        g = math.sqrt(c) * (t.reshape(-1)[:, None] * self._u) + self._kh @ realign(y, a, c)
        return g.take(self._back)

    def correction(self, w: np.ndarray) -> np.ndarray:
        if self.injective:
            return w - self._x0  # P_aff(W) = M^+ b
        # P_aff(W) = M^+ b + W's part in M's null space, which is
        # ``Xr (I - u u^T)`` off its projection onto K's kept right basis.
        right, right_h = self._factors.right
        wr = w.take(self._there) @ self._off_u
        part = wr - right_h @ (right @ wr)
        part += self._x0r
        return w - part.take(self._back)

    def residual_multipliers(self, r: tuple) -> tuple[np.ndarray, np.ndarray]:
        """``(M M^*)^+ r + (r - M M^+ r)`` as the operators ``(Y_T, Y)``, for
        residual rows r from :meth:`residual_rows`. Blockwise on the realigned
        rows: on K's block it is ``(K K^dag)^+ + (I - K K^+)`` on ``Yr``; on
        ``N``'s, with ``g = N^+ r_u``, it is ``r_u + N ((N^dag N)^-1 g -
        g)``."""
        a, b, c = self.dims
        factors = self._factors
        t, yr = r
        y_u = yr @ self._u
        rest = factors.range_solve(yr - y_u[:, None] * self._u)
        g = factors.gram_solve(math.sqrt(c) * t + self._kh @ y_u)
        h = factors.gram_solve(g) - g
        rest += (y_u + self._k @ h)[:, None] * self._u
        return (t + math.sqrt(c) * h).reshape(b, b), unalign(rest, a, c)

    @cached_property
    def trace_scalars(self) -> tuple[float, float]:
        """``b . tau`` and ``||tau||`` for ``tau = (M^+)^T vec(I)``, which
        always exists: ``vec(I)`` lies in N's block, where M has full column
        rank. With ``h = (N^dag N)^-1 vec(I_B)``, tau is ``(d_C h, K h
        vec(I_C)^T)``."""
        c = self.dims[2]
        h = self._factors.gram_solve(self._vec_i)
        kh = self._k @ h
        b_tau = c * np.vdot(h, self._first).real
        b_tau += math.sqrt(c) * np.vdot(kh, self._phi @ self._u).real
        return float(b_tau), math.sqrt(c * c * np.vdot(h, h).real + c * np.vdot(kh, kh).real)


@dataclass(frozen=True)
class SolverConfig:
    eps_feas: float = 1e-7
    max_iter: int = 20000

    def __post_init__(self):
        # Python counts a boolean as a number; eps_feas takes none.
        eps = self.eps_feas
        if isinstance(eps, (bool, np.bool_)) or not 0 < eps < np.inf:  # also false for nan
            raise ValueError("eps_feas must be a positive finite number")
        _require_positive_ints(self, "max_iter")


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a solve.

    ``stop_reason`` is one of ``"tolerance"`` (feasible), ``"certificate"``
    (infeasible, ``certificate`` holds the Farkas multipliers), ``"plateau"``
    (best residual stopped improving; inconclusive) and ``"iteration-cap"``
    (inconclusive); a plateau at iteration 1 is proved on an injective
    set, not observed. ``candidate`` says which candidate ended a feasible
    solve: ``"psd"`` for the PSD iterate, ``"affine"`` for the affine point,
    None when the solve is not feasible. ``iterations`` 0 means the start
    decided the solve before any iteration: as the affine candidate, or as
    the residual that certified. ``rejections`` counts the extrapolated
    points that the safeguard rejected. ``constraints`` is the
    system that ``solution`` (a matrix X) and ``certificate`` belong to. The
    certificate is the Farkas multipliers as exactly Hermitian operators, one
    per row block on that block's space: ``(Y_T, Y)`` on B and on A (x) C
    for a :class:`CompositionConstraintSet`. :func:`certificate_bound`
    re-checks it on ``constraints``, or on any set with the same rows.
    """

    status: Status
    solution: np.ndarray | None
    residual_affine: float
    residual_psd: float
    iterations: int
    stop_reason: str
    candidate: str | None
    rejections: int
    certificate: tuple[np.ndarray, ...] | None = field(repr=False)
    constraints: CompositionConstraintSet = field(repr=False, compare=False)


def _bound(constraints, lam: tuple, floor: float) -> float:
    """:func:`certificate_bound` on unchecked operators. When ``b . tau
    >= 0`` or no tau exists, the bound is at most ``-b . lam / ||lam||``; a
    cap below ``floor`` returns 0.0 before G is formed."""
    delta = -_dot(constraints.rhs_blocks, lam)
    scale = math.sqrt(_dot(lam, lam))
    trace = constraints.trace_scalars
    if (trace is None or trace[0] >= 0.0) and (delta <= 0.0 or delta / scale < floor):
        return 0.0
    mu = float(np.linalg.eigvalsh(constraints.adjoint(lam)).min(initial=0.0))
    if mu < 0.0:
        if trace is None:
            return 0.0
        delta += mu * trace[0]
        scale -= mu * trace[1]
    return delta / scale if delta > 0.0 else 0.0


def certificate_bound(
    constraints: CompositionConstraintSet, multipliers: Sequence[np.ndarray]
) -> float:
    """Lower bound on ``||M vec(X) - b||`` over every PSD X, from multipliers
    lam: one Hermitian operator per row block of ``constraints``, ``(Y_T,
    Y)`` for a :class:`CompositionConstraintSet`.

    With ``G = M^* lam`` (``Y_T (x) I_C`` plus the composition's adjoint of
    Y) and ``mu = min(0, lambda_min(G))``, every PSD X has ``<lam, M vec(X)
    - b> = <G, X> - <lam, b> >= mu Tr X - <lam, b>``. When ``M^* tau = I``,
    ``Tr X = <tau, M vec(X) - b> + <tau, b>``, so ``<lam - mu tau, M vec(X)
    - b> >= delta = mu <tau, b> - <lam, b>`` and Cauchy-Schwarz gives
    ``||M vec(X) - b|| >= delta / (||lam|| + |mu| ||tau||)``. Returns 0.0 (no
    bound) when that is not positive, or when ``mu < 0`` and the constraints
    do not fix Tr X. Each operator is checked as the set's targets are: it
    must have its row block's side, be finite, and be Hermitian within
    ``channels.EPS_VALID``, and its Hermitian part is what counts. One
    ``eigvalsh``; nothing from the solve that produced lam is used. Real
    operators bound complex X too: G is then real symmetric, and ``<G, X>
    >= lambda_min(G) Tr X`` holds for every complex PSD X.
    """
    blocks = constraints.rhs_blocks
    if len(multipliers) != len(blocks):
        raise ValueError(f"expected {len(blocks)} multiplier operators, got {len(multipliers)}")
    lam = tuple(
        _target(f"multipliers[{k}]", y, rhs.shape[0])
        for k, (y, rhs) in enumerate(zip(multipliers, blocks))
    )
    return _bound(constraints, lam, 0.0)


class _Anderson:
    """Type-II Anderson acceleration of the Douglas-Rachford map T with
    memory 2 (Walker & Ni, SIAM J. Numer. Anal. 2011), and its safeguard.

    Built from the first point z and ``T(z)``; then ``step(z, T(z))`` gives
    the point after each later z. With ``g = T(z) - z`` and the last two
    differences ``dg_k``, ``dt_k`` of g and of T between consecutive points,
    gamma minimises ``||g - sum_k gamma_k dg_k||`` through its 2 x 2 normal
    equations, solved in scalars (on the newer difference alone when the two
    are collinear or only one exists), and the next point is the Hermitian
    part of ``T(z) - sum_k gamma_k dt_k``. The buffers take the iterates'
    dtype, and inner products are the real ones of their real views, the
    matrices themselves when those are real.

    The safeguard: an extrapolated point whose ``||g||`` exceeds that of the
    point it was extrapolated from (its base) is rejected. The step returns
    the base's plain step ``T(z_base)`` and ``rejections`` counts the point;
    once it is positive, the rest of the solve is plain Douglas-Rachford.
    """

    def __init__(self, z: np.ndarray, t: np.ndarray):
        self.rejections = 0
        # Two differences of g and the last g, whose roles rotate
        # (``_roles``: older difference, newer, g); the two differences of T
        # by slot; the last T. ``_g`` and ``_dt`` are their real views, one
        # row per matrix.
        g_mats, dt_mats = np.zeros((3, *t.shape), t.dtype), np.zeros((2, *t.shape), t.dtype)
        self._g, self._dt = g_mats.view(float).reshape(3, -1), dt_mats.view(float).reshape(2, -1)
        self._g_rows, self._g_mats, self._dt_mats = list(self._g), list(g_mats), list(dt_mats)
        self._roles, self._slot, self._a22 = (0, 1, 2), 0, 0.0
        np.subtract(t, z, out=self._g_mats[2])
        self._t = t
        self._base = None  # (T(z_base), ||g_base||^2) while z is extrapolated

    def step(self, z: np.ndarray, t: np.ndarray) -> np.ndarray:
        old, new, g = self._roles
        # g(z) overwrites the older difference, and g(z) - g(z_prev) the
        # previous g: the newer difference becomes the older.
        np.subtract(t, z, out=self._g_mats[old])
        rows = self._g_rows
        np.subtract(rows[old], rows[g], out=rows[g])
        self._roles = old, new, g = new, g, old
        # Five inner products from two products with the rows of g and of the
        # newer difference, and ||dg_old||^2 kept from the step before. Not
        # the Gram matrix ``G G^T``: BLAS takes that as a rank-k update,
        # several times slower on three rows.
        by_g, by_new = (self._g @ rows[g]).tolist(), (self._g @ rows[new]).tolist()
        a11, a12, a22, self._a22 = self._a22, by_new[old], by_new[new], by_new[new]
        gg = by_g[g]
        if self._base is not None and not gg <= self._base[1]:  # also for nan
            self.rejections += 1
            return self._base[0]
        slot = self._slot
        np.subtract(t, self._t, out=self._dt_mats[slot])
        self._t, self._slot = t, 1 - slot
        b1, b2 = by_g[old], by_g[new]
        det = a11 * a22 - a12 * a12
        if det > _COLLINEAR * a11 * a22:
            gammas = [(a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det]
        elif a22 > 0.0:
            gammas = [0.0, b2 / a22]
        else:
            gammas = None  # g did not change: nothing to fit
        if gammas is None or not math.isfinite(gammas[0] + gammas[1]):
            self._base = None
            return t
        # The newer difference of T is in ``slot``, the older in the other.
        if slot == 0:
            gammas.reverse()
        self._base = t, gg
        shift = (np.array(gammas) @ self._dt).view(t.dtype).reshape(t.shape)
        return hermitian_part(t - shift)


def _certificate(constraints, r: tuple, infeasible_at: float) -> tuple | None:
    """The certificate attempt on residual rows r: the Hermitian parts of the
    multiplier operators ``lam`` when their bound reaches ``infeasible_at``;
    else None. The range part of lam certifies a PSD cone that misses a
    consistent affine set; the part orthogonal to M's range (M^* of it is 0)
    certifies rows that are inconsistent on their own."""
    lam = constraints.residual_multipliers(r)
    if _bound(constraints, lam, infeasible_at) >= infeasible_at:
        return tuple(map(hermitian_part, lam))
    return None


def _positive_definite(x: np.ndarray) -> bool:
    """Whether x has a Cholesky factor. LAPACK reads one triangle of x, so
    this is the test of the Hermitian matrix that triangle defines."""
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


def _affine_candidate(constraints, x: np.ndarray, eps_feas: float) -> tuple:
    """The acceptance of an affine candidate x, as ``(x, r, ||r||,
    accepted)``. Cholesky reads one triangle, so x is factored as formed;
    when that fails, x is returned as it is, with no rows (``r`` None) and
    ``||r|| = inf``. Otherwise its Hermitian part replaces it and its rows r
    are measured, and it is accepted when ``||r|| < eps_feas`` and, factored
    once more, it still has a Cholesky factor."""
    if not _positive_definite(x):
        return x, None, math.inf, False
    x = hermitian_part(x)
    r = constraints.residual_rows(x)
    r_aff = math.sqrt(_dot(r, r))
    return x, r, r_aff, r_aff < eps_feas and _positive_definite(x)


def _shifted_start(z: np.ndarray) -> np.ndarray | None:
    """``hermitian_part(z) + delta I`` for ``delta = _START_SHIFT n^2 eps
    max_i Re z_ii`` (see :func:`solve`), or None when its least diagonal
    entry is not positive, so that it has no Cholesky factor. ``fl(a +
    delta)`` is monotone in a, so that entry is z's least, shifted. The
    result is ``hermitian_part(z + delta I)`` bit for bit: on the diagonal
    both are ``fl(Re z_ii + delta)``, off it both are ``0.5 (z_ij + conj
    z_ji)``. The diagonal is sorted once for its least and greatest entries;
    a NaN sorts last, so delta is NaN and z is refused. A 0 x 0 z, of a set
    without coordinates, has nothing to refuse."""
    n, diag = z.shape[0], np.sort(z.diagonal().real)
    least, greatest = (diag[0], diag[-1]) if n else (np.inf, 0.0)
    delta = _START_SHIFT * n * n * _MACHINE_EPS * greatest
    if not least + delta > 0.0:
        return None
    x = hermitian_part(z)
    x.reshape(-1)[:: n + 1] += delta
    return x


def _tested_start(constraints, z: np.ndarray) -> tuple | None:
    """Iteration 0's rule on a point z, as ``(x, r, ||r||)``: x is z's
    Hermitian part shifted by ``delta I`` (:func:`_shifted_start`), factored
    once, and r its residual rows. None when x has no Cholesky factor."""
    x = _shifted_start(z)
    if x is None or not _positive_definite(x):
        return None
    r = constraints.residual_rows(x)
    return x, r, math.sqrt(_dot(r, r))


def _inverse_start(constraints, eps_feas: float) -> tuple | None:
    """Iteration 0's test of ``x* = inverse_point()``, as ``(x*, tested)``,
    or None when the set offers no x* or the start must be tested.
    ``tested`` is :func:`_tested_start`'s when x*'s rows accept it. It is
    None when x* has no Cholesky factor but its rows hold on an injective
    set: x* is then the start ``M^+ b``, which would be refused again."""
    point = constraints.inverse_point()
    if point is None:
        return None
    tested = _tested_start(constraints, point)
    if tested is not None:
        return (point, tested) if tested[2] < eps_feas else None
    r = constraints.residual_rows(point)
    if math.sqrt(_dot(r, r)) < eps_feas and constraints.injective:
        return point, None
    return None


def _psd_defect(x: np.ndarray) -> float:
    w = np.linalg.eigvalsh(hermitian_part(x))
    return max(0.0, -float(w.min(initial=0.0)))


def solve(
    constraints: CompositionConstraintSet, config: SolverConfig = SolverConfig()
) -> FeasibilityReport:
    """Decide feasibility of the PSD cone intersected with the affine set.

    Douglas-Rachford splitting on Hermitian matrices: from ``Z = P_aff(0)``
    (``start``), each iteration takes the PSD iterate ``Y = project_psd(Z)``
    and evaluates the map ``T(Z) = Z + P_aff(2Y - Z) - Y``, with ``P_aff``
    the set's Euclidean projection (``W - correction(W)``). From iteration 2
    on, the next point is not ``T(Z)`` but its Anderson extrapolation with
    memory 2: the Hermitian part of ``T(Z) - sum_k gamma_k dT_k`` over the
    last two differences of T, with gamma the least-squares fit of ``g =
    T(Z) - Z`` by the differences of g. An extrapolated point whose ``||g||``
    exceeds that of its base is rejected; the solve goes on from the base's
    plain step ``T(Z_base)`` and stays plain Douglas-Rachford to its end.
    ``iterations`` counts evaluations of T, one PSD projection each, a
    rejected point's included.

    When the set offers a point ``x* = K^-1 J_phi`` (``inverse_point``: K
    square and nonsingular, and x* finite), iteration 0 tests it first,
    under the start's rule below, and only its rows can accept it: then the
    solve ends feasible with ``iterations`` 0, candidate ``"affine"`` and
    ``residual_psd`` 0.0, and forms no factor of K. For channel data x* is
    the start itself: when the set is injective (``injective``) and x*'s
    rows hold, below ``eps_feas``, but it has no Cholesky factor, the
    iterations start from x*, and the start, which would be refused again,
    is not tested. When x* is not offered or is refused otherwise,
    iteration 0 goes on from the start ``M^+ b`` as if x* had not been
    tested.

    Iteration 0 tests the start's Hermitian part shifted by ``delta I``,
    with ``delta = _START_SHIFT n^2 eps max_i Re Z_ii`` (eps the machine
    epsilon), the rounding that Cholesky's success bound allows for (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.7); it is the
    Hermitian part of ``Z + delta I`` bit for bit. A start whose least
    diagonal entry, shifted, is not positive is refused at once. Otherwise
    it is factored once, and when the factor passes its rows are measured.
    When the rows accept it, the solve ends feasible with ``iterations`` 0,
    candidate ``"affine"`` and ``residual_psd`` 0.0, and no projection or
    eigendecomposition runs. When they refuse it, its residual makes the
    certificate attempt of iteration 1, and a certificate ends the solve at
    iteration 0. Either way the stored candidate is the matrix that was
    factored, and its ``residual_psd`` is the 0.0 that the factor proves.
    Otherwise Z itself, unshifted, starts the iterations, which run as if
    the start had not been tested.

    Each iteration offers two candidates to one rule: a positive
    semidefinite candidate whose own affine residual ``r = M vec(X) - b`` is
    below ``eps_feas`` ends the solve feasible, with X as the solution and
    ``r`` as ``residual_affine``. First the PSD iterate Y, PSD by
    construction; then, once T's correction is known, the affine point
    ``P_aff(2Y - Z)``, when a Cholesky factorization shows it positive
    definite. That test reads one triangle of the point as formed. Only when
    it passes is the point's Hermitian part formed and its rows measured, so
    that rows that are inconsistent, where it is only a least-squares point,
    never accept it; and only when the rows accept it is the Hermitian part
    factored again. So the solution is the exactly Hermitian matrix that a
    Cholesky factorization accepted, and its ``residual_psd`` is the 0.0
    that the factor proves. T itself is unchanged by the test. At iteration
    1 and at every 1000-iteration checkpoint Y's ``r`` gives multipliers
    ``lam = (M M^*)^+ r + (r - M M^+ r)``, one operator per row block; when
    the bound of :func:`certificate_bound` on them proves every PSD X to have
    residual at least ``10 * eps_feas``, the solve stops not feasible with
    their Hermitian parts as its certificate. A plateau of Y's best residual
    between checkpoints, and exhausting ``max_iter``, end the solve
    inconclusive. On an ``injective`` set ``P_aff`` is the one point ``p =
    M^+ b``, so ``Z_k = P_+(p) + (k + 1) P_-(p)`` and every iteration
    repeats the first: a solve that iteration 1 leaves undecided ends there,
    on the ``"plateau"`` (``"iteration-cap"`` when ``max_iter`` is 1). Data
    whose products overflow, so that no residual is finite, raise
    ``ValueError`` at the first certificate attempt of the loop.
    """
    best = np.inf
    best_candidate = None
    checkpoints: list[float] = []
    status = Status.INCONCLUSIVE
    stop_reason = "iteration-cap"
    candidate = None
    iterations = config.max_iter
    certificate = None
    infeasible_at = 10.0 * config.eps_feas
    anderson = None
    r_psd = None  # best_candidate's PSD defect, once a Cholesky factor proves it 0.0

    # Iteration 0. When the composition rows alone fix a point x*, it is
    # offered first, under the start's rule, and accepted only by its rows;
    # for channel data it is the start itself. A refused x* whose rows hold
    # on an injective set is the start, and is not tested again. Otherwise
    # the start z: its Hermitian part, shifted, factored once.
    # When it has a factor and its rows accept it, it is the solution. Rows
    # that refuse a positive definite start are inconsistent, as in
    # no-cloning and Example 2, and its residual makes the certificate
    # attempt that iteration 1 would. Either verdict ends the solve at
    # iteration 0 on the matrix that was factored, whose PSD defect is the
    # 0.0 its factor proves; otherwise the iterates start from z itself.
    offered = _inverse_start(constraints, config.eps_feas)
    if offered is None:
        z = constraints.start()
        offered = z, _tested_start(constraints, z)
    z, tested = offered
    if tested is not None:
        x, r, r_aff = tested
        if r_aff < config.eps_feas:
            candidate, status, stop_reason = "affine", Status.FEASIBLE, "tolerance"
        else:
            certificate = _certificate(constraints, r, infeasible_at)
            if certificate is not None:
                status, stop_reason = Status.NOT_FEASIBLE_AT_TOLERANCE, "certificate"
        if status is not Status.INCONCLUSIVE:
            best, best_candidate, r_psd, iterations = r_aff, x, 0.0, 0

    # A solve decided at iteration 0 has ``iterations == 0``: no loop. Every
    # other solve has taken z from ``start``, or x* where x* is the start.
    for it in range(1, iterations + 1):
        y = project_psd(z)
        r = constraints.residual_rows(y)
        r_aff = math.sqrt(_dot(r, r))
        if r_aff < best:
            best = r_aff
            best_candidate = y
        if r_aff < config.eps_feas:
            status, stop_reason, iterations, candidate = Status.FEASIBLE, "tolerance", it, "psd"
            break
        checkpoint = it % _CHECKPOINT == 0
        if it == 1 or checkpoint:
            # The targets are finite, so only an overflow leaves no residual
            # finite by the first attempt, and then none ever is.
            if best == math.inf:
                raise ValueError("the constraint data overflow: no residual of the solve is finite")
            certificate = _certificate(constraints, r, infeasible_at)
            if certificate is not None:
                status, stop_reason = Status.NOT_FEASIBLE_AT_TOLERANCE, "certificate"
                iterations = it
                break
        if checkpoint:
            checkpoints.append(best)
            if len(checkpoints) >= 2 and checkpoints[-2] - checkpoints[-1] < EPS_PLATEAU:
                # Not infeasible: the best residual can fall again later.
                stop_reason, iterations = "plateau", it
                break
        w = 2.0 * y - z
        c = constraints.correction(w)
        # P_aff(2Y - Z), the affine point in T(z).
        x, _, r_aff, accepted = _affine_candidate(constraints, w - c, config.eps_feas)
        if accepted:
            best, best_candidate, candidate, r_psd = r_aff, x, "affine", 0.0
            status, stop_reason, iterations = Status.FEASIBLE, "tolerance", it
            break
        if constraints.injective and it < iterations:
            # P_aff is the one point M^+ b, so every later iterate repeats
            # this one's PSD iterate and affine point: a proved plateau.
            stop_reason, iterations = "plateau", it
            break
        t = y - c  # T(z)
        if anderson is None:
            # Built here, so that a solve decided at iteration 1 never builds it.
            anderson, z = _Anderson(z, t), t
        else:
            z = t if anderson.rejections else anderson.step(z, t)

    # ``best`` is the candidate matrix's own affine residual, measured by
    # ``residual_rows``. An accepted affine point's PSD defect, and a
    # certifying start's, is the 0.0 that its Cholesky factor proves; any
    # other candidate's is measured here.
    if r_psd is None:
        r_psd = _psd_defect(best_candidate)
    solution = best_candidate if status is Status.FEASIBLE else None
    if status is Status.FEASIBLE and not (best < config.eps_feas and r_psd < config.eps_feas):
        # Defensive: an accepted candidate should always satisfy both.
        status = Status.INCONCLUSIVE
        solution = candidate = None
    rejections = anderson.rejections if anderson is not None else 0
    return FeasibilityReport(
        status,
        solution,
        best,
        r_psd,
        iterations,
        stop_reason,
        candidate,
        rejections,
        certificate,
        constraints,
    )
