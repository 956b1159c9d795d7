"""Quantum channel representations and constructors.

The canonical representation is the unnormalized Choi operator

    J = sum_ij |i><j| (x) psi(|i><j|)

on H_in (x) H_out with the input index major, so ``Tr J = dim_in`` and trace
preservation reads ``Tr_out J = I_in``. Kraus and Stinespring forms are
derived views; the complementary channel is always computed from an explicit
Kraus set because it depends on the chosen dilation.

Contractions are matrix products: of Choi operators realigned by
``linalg.realign`` in :func:`apply` and :func:`compose_choi`, and of stacked
Kraus operators in :func:`choi_from_kraus` and :func:`complementary`, which
return the Hermitian part of their product and so are exactly Hermitian.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import dag, double, frob, hermitian_part, hermitian_part_and_skew, partial_trace
from .linalg import partial_trace_adjoint, realign, unalign
from .linalg import swap_unitary  # noqa: F401  (kept importable as channels.swap_unitary)

# Channel data are valid within this bound, wherever they enter: the skew,
# the CP defect (least eigenvalue) and the TP defect of a Choi operator, and
# the completeness defect of a Kraus set.
EPS_VALID = 1e-9
# Eigenvalues of a Choi operator at or below this are dropped from its Kraus
# sets.
EPS_RANK = 1e-9
# Two channels are equal when their Choi distance is below this.
EPS_EQ = 1e-8

__all__ = [
    "EPS_VALID",
    "EPS_RANK",
    "EPS_EQ",
    "Channel",
    "KrausSet",
    "StinespringIsometry",
    "cptp_defects",
    "require_finite",
    "validate_channel",
    "validated_eigh",
    "choi_rank",
    "choi_distance",
    "choi_from_kraus",
    "kraus_from_choi",
    "kraus_from_eigh",
    "isometry_from_kraus",
    "kraus_from_isometry",
    "apply",
    "compose_choi",
    "tensor",
    "complementary",
    "identity",
    "completely_depolarizing",
    "unitary_channel",
    "isometry_channel",
    "trace_out_channel",
    "output_marginal",
    "append_maximally_mixed",
    "trace_out_pair",
    "self_complementary_qubit",
    "amplitude_damping",
    "constant_channel",
    "random_measure_prepare",
    "catalysis_reduction",
    "swap_output",
    "random_unitary",
    "random_kraus",
    "random_channel",
]


@dataclass(frozen=True)
class Channel:
    """A quantum channel stored as its Choi operator.

    ``choi`` is a Hermitian ``(dim_in*dim_out) x (dim_in*dim_out)`` matrix on
    H_in (x) H_out, input-major, kept as given when it is float64 or
    complex128 (``linalg.double`` casts other dtypes): operations on real
    channels return real ones. CPTP validity is checked explicitly via
    :func:`validate_channel` rather than at construction so that
    solver-produced witnesses (accurate to a feasibility tolerance) can be
    carried by the same type.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_positive_ints(self, "dim_in", "dim_out")
        side = self.dim_in * self.dim_out
        choi = double(self.choi)
        if choi.shape != (side, side):
            raise ValueError(
                f"Choi shape {choi.shape} does not match dims {self.dim_in}x{self.dim_out}"
            )
        object.__setattr__(self, "choi", choi)


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators {K_i}, each ``dim_out x dim_in``, given as a sequence
    of matrices or as one ``(dim_env, dim_out, dim_in)`` array.

    The operators are copied once, by one ``np.array`` call, into the
    read-only ``(dim_env, dim_out, dim_in)`` array ``stack``, float64 when
    every operator is real and complex128 otherwise (``linalg.double``).
    That array is all the set holds: ``operators`` is the tuple of its
    views, and every other arrangement of them (:meth:`columns`,
    :func:`complementary`, :func:`isometry_from_kraus`) is a reshape of it.
    """

    dim_in: int
    dim_out: int
    stack: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_positive_ints(self, "dim_in", "dim_out")
        shape = (self.dim_out, self.dim_in)
        try:
            stack = double(np.array(self.stack))
        except ValueError:
            # Operators of unequal shapes, which no one array holds.
            off = next((np.shape(k) for k in self.stack if np.shape(k) != shape), None)
            if off is None:
                raise
        else:
            if not len(stack):
                raise ValueError("KrausSet needs at least one operator")
            off = stack.shape[1:]
        if off != shape:
            raise ValueError(
                f"Kraus operator shape {off} does not match {self.dim_out}x{self.dim_in}"
            )
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        """The operators, as read-only views of ``stack``."""
        return tuple(self.stack)

    @property
    def dim_env(self) -> int:
        return self.stack.shape[0]

    def columns(self) -> np.ndarray:
        """R, whose column i is ``vec K_i = sum_a |a> (x) K_i|a>``: the
        ``(dim_in*dim_out) x dim_env`` matrix ``R[(a, b), i] = K_i[b, a]``."""
        return self.stack.transpose(2, 1, 0).reshape(-1, self.dim_env)

    def completeness_defect(self) -> float:
        """``||sum_i K_i^dag K_i - I||_F``: ``V^dag V`` for V the operators
        stacked as rows."""
        v = self.stack.reshape(-1, self.dim_in)
        return _identity_defect(dag(v) @ v)


@dataclass(frozen=True)
class StinespringIsometry:
    """Isometry V: H_in -> H_out (x) H_env, rows ordered out-major."""

    dim_in: int
    dim_out: int
    dim_env: int
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_positive_ints(self, "dim_in", "dim_out", "dim_env")
        v = double(self.v)
        if v.shape != (self.dim_out * self.dim_env, self.dim_in):
            raise ValueError(
                f"isometry shape {v.shape} does not match "
                f"({self.dim_out}*{self.dim_env}) x {self.dim_in}"
            )
        object.__setattr__(self, "v", v)

    def isometry_defect(self) -> float:
        return _identity_defect(dag(self.v) @ self.v)


def _require_positive_ints(obj, *names: str) -> None:
    """Raise ``ValueError`` naming the first field of ``obj`` in ``names``
    that is not an integer at least 1: a dimension, or a count such as
    ``SolverConfig.max_iter``. Numpy integers pass (``operator.index``); a
    boolean, which Python counts as an integer, does not."""
    for name in names:
        d = getattr(obj, name)
        try:
            valid = not isinstance(d, bool) and operator.index(d) >= 1
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"{name} must be an integer at least 1, got {d!r}")


def _identity_defect(g: np.ndarray) -> float:
    """``frob(G - I)`` bit for bit, for a new square G that it overwrites:
    the identity is subtracted on the diagonal in place."""
    diagonal = g.reshape(-1)[:: g.shape[0] + 1]
    diagonal -= 1.0
    return frob(g)


def _tp_defect(channel: Channel, h: np.ndarray) -> float:
    """Distance of ``Tr_out h`` from ``I_in``; the trace is the one that
    ``linalg.partial_trace`` takes over the output factor."""
    d_in, d_out = channel.dim_in, channel.dim_out
    return _identity_defect(h.reshape(d_in, d_out, d_in, d_out).trace(axis1=1, axis2=3))


def cptp_defects(channel: Channel) -> tuple[float, float]:
    """(CP defect, TP defect) of the Choi operator's Hermitian part: most
    negative eigenvalue magnitude and Frobenius distance of the output
    partial trace from the identity. A non-finite entry raises."""
    require_finite(channel.choi, "channel")
    h = hermitian_part(channel.choi)
    wmin = float(np.linalg.eigvalsh(h)[0])
    return max(0.0, -wmin), _tp_defect(channel, h)


def require_finite(m: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless every entry of ``m`` is finite.

    Validators call it before any arithmetic on their data, which would carry
    a NaN or inf into every defect, and could warn on the way, so that the
    error names the cause."""
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has a non-finite entry")


def _proved(
    channel: Channel, h: np.ndarray, defect: float, wmin: float, atol: float, name: str
) -> np.ndarray:
    """The Hermitian operator that validation proves: the Choi operator
    itself when it is exactly Hermitian, else its Hermitian part h, as
    ``feasibility`` takes a target. Raises on the first defect above
    ``atol``: the skew ``defect``, then the CP defect ``-wmin`` and the TP
    defect, both measured on h, whose least eigenvalue is ``wmin``."""
    if not defect <= atol:
        raise ValueError(
            f"{name} has a non-Hermitian Choi operator: max |J - J^dag| = {defect:.3e}"
        )
    cp = max(0.0, -wmin)
    if not cp <= atol:
        raise ValueError(f"{name} is not completely positive: min eigenvalue -{cp:.3e}")
    tp = _tp_defect(channel, h)
    if not tp <= atol:
        raise ValueError(f"{name} is not trace preserving: TP defect {tp:.3e}")
    return h if defect else channel.choi


def _validated_finite(channel: Channel, atol: float, name: str) -> np.ndarray:
    """:func:`validate_channel` for a Choi operator already proved finite."""
    h, defect = hermitian_part_and_skew(channel.choi)
    return _proved(channel, h, defect, float(np.linalg.eigvalsh(h)[0]), atol, name)


def validate_channel(
    channel: Channel, atol: float = EPS_VALID, name: str = "channel"
) -> np.ndarray:
    """Raise ``ValueError`` unless the channel's Choi operator is finite and
    Hermitian and the channel is CPTP, each within ``atol``. Returns the
    Hermitian operator that it proved: the Choi operator itself when it is
    exactly Hermitian, else its Hermitian part, on which the CP and TP
    defects are measured. A constraint set takes it as a target unchecked
    (``CompositionConstraintSet.from_validated``)."""
    require_finite(channel.choi, name)
    return _validated_finite(channel, atol, name)


def validated_eigh(
    channel: Channel, name: str = "channel"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`validate_channel` at ``EPS_VALID``: the operator it proves and
    the eigendecomposition ``(w, v)`` of the Choi operator's Hermitian part
    that it reads, from one ``eigh``, w ascending. Raises as
    :func:`validate_channel` does."""
    require_finite(channel.choi, name)
    h, defect = hermitian_part_and_skew(channel.choi)
    w, v = np.linalg.eigh(h)
    return _proved(channel, h, defect, float(w[0]), EPS_VALID, name), w, v


def choi_distance(a: Channel, b: Channel) -> float:
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise ValueError("channel dimensions differ")
    return frob(a.choi - b.choi)


# ---------------------------------------------------------------------------
# Representation conversions
# ---------------------------------------------------------------------------


def choi_from_kraus(k: KrausSet, atol: float = EPS_VALID) -> Channel:
    """Choi operator of the channel with Kraus operators ``k``.

    ``J = R R^dag`` for R = :meth:`KrausSet.columns`. Raises if an operator
    has a non-finite entry or the set is not trace preserving within
    ``atol``.
    """
    require_finite(k.stack, "Kraus set")
    defect = k.completeness_defect()
    if not defect <= atol:
        raise ValueError(f"Kraus set violates completeness: defect {defect:.3e}")
    r = k.columns()
    return Channel(k.dim_in, k.dim_out, hermitian_part(r @ dag(r)))


def kraus_from_choi(c: Channel) -> KrausSet:
    """Canonical Kraus set from the Choi eigendecomposition.

    Eigenpairs with eigenvalue above ``EPS_RANK`` are kept. A non-finite
    entry raises, and so does a negative eigenvalue below ``-EPS_VALID``,
    which means the map is not completely positive.
    """
    require_finite(c.choi, "Choi operator")
    w, v = np.linalg.eigh(hermitian_part(c.choi))
    if not w[0] >= -EPS_VALID:
        raise ValueError(f"Choi operator has negative eigenvalue {w[0]:.3e}")
    return kraus_from_eigh(c, w, v)


def choi_rank(w: np.ndarray) -> int:
    """The number of eigenvalues above ``EPS_RANK`` in the ascending w of
    ``eigh``: the length of the set that :func:`kraus_from_eigh` gives."""
    return len(w) - int(np.searchsorted(w, EPS_RANK, side="right"))


def kraus_from_eigh(c: Channel, w: np.ndarray, v: np.ndarray) -> KrausSet:
    """``K_i = sqrt(w_i) v_i`` unvectorized, for each eigenpair of c's Choi
    operator above ``EPS_RANK``, in ascending eigenvalue order. ``eigh``
    returns ``w`` in ascending order, so those pairs are a suffix; ``w`` must
    be finite."""
    rank = choi_rank(w)
    if rank == 0:
        raise ValueError("Choi operator has no eigenvalue above the rank threshold")
    start = len(w) - rank
    cols = v[:, start:] * np.sqrt(w[start:])
    ops = cols.T.reshape(-1, c.dim_in, c.dim_out).transpose(0, 2, 1)
    return KrausSet(c.dim_in, c.dim_out, ops)


def isometry_from_kraus(k: KrausSet) -> StinespringIsometry:
    """Stack Kraus operators into V = sum_i K_i (x) |i>_env."""
    v = k.stack.transpose(1, 0, 2).reshape(k.dim_out * k.dim_env, k.dim_in)
    return StinespringIsometry(k.dim_in, k.dim_out, k.dim_env, v)


def kraus_from_isometry(v: StinespringIsometry) -> KrausSet:
    """Slice K_i = (I (x) <i|_env) V out of the isometry."""
    blocks = v.v.reshape(v.dim_out, v.dim_env, v.dim_in)
    return KrausSet(v.dim_in, v.dim_out, blocks.transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# Channel action and combination
# ---------------------------------------------------------------------------


def apply(c: Channel, rho: np.ndarray) -> np.ndarray:
    """Evaluate the channel on an operator: ``vec(rho)^T realign(J)``."""
    rho = np.asarray(rho)
    if rho.shape != (c.dim_in, c.dim_in):
        raise ValueError(f"operator shape {rho.shape} does not match dim_in {c.dim_in}")
    out = rho.reshape(-1) @ realign(c.choi, c.dim_in, c.dim_out)
    return out.reshape(c.dim_out, c.dim_out)


def compose_choi(psi: Channel, theta: Channel) -> Channel:
    """Choi operator of theta o psi: ``realign(J_theta o psi) = realign(J_psi)
    @ realign(J_theta)``, not symmetrized, as operands need not be Hermitian."""
    if psi.dim_out != theta.dim_in:
        raise ValueError(
            f"cannot compose: first output dim {psi.dim_out} != second input dim {theta.dim_in}"
        )
    a, b, c = psi.dim_in, psi.dim_out, theta.dim_out
    out = realign(psi.choi, a, b) @ realign(theta.choi, b, c)
    return Channel(a, c, unalign(out, a, c))


def tensor(c1: Channel, c2: Channel) -> Channel:
    """Parallel composition with subsystem order (A A') (x) (B B')."""
    j1 = c1.choi.reshape(c1.dim_in, c1.dim_out, c1.dim_in, c1.dim_out)
    j2 = c2.choi.reshape(c2.dim_in, c2.dim_out, c2.dim_in, c2.dim_out)
    out = np.einsum("abcd,efgh->aebfcgdh", j1, j2)
    dim_in = c1.dim_in * c2.dim_in
    dim_out = c1.dim_out * c2.dim_out
    side = dim_in * dim_out
    return Channel(dim_in, dim_out, out.reshape(side, side))


def complementary(k: KrausSet) -> Channel:
    """Environment view of the channel for this particular Kraus set.

    Implements psi_c(rho) = sum_ij Tr[K_i^dag K_j rho] |j><i| on an
    environment of dimension ``k.dim_env``; equals tracing the system
    out of the Stinespring dilation built from the same operators. Its Choi
    operator is ``S^T conj(S)`` for ``S[m, (a, j)] = K_j[m, a]``.
    """
    s = k.stack.transpose(1, 2, 0).reshape(k.dim_out, -1)
    return Channel(k.dim_in, k.dim_env, hermitian_part(s.T @ s.conj()))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def identity(d: int) -> Channel:
    w = np.eye(d).reshape(-1)
    return Channel(d, d, np.outer(w, w))


def completely_depolarizing(d: int) -> Channel:
    """Constant map rho -> Tr(rho) I/d."""
    return Channel(d, d, np.eye(d * d) / d)


def unitary_channel(u: np.ndarray) -> Channel:
    """rho -> U rho U^dag; :func:`choi_from_kraus` rejects a non-unitary U."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValueError(f"unitary matrix must be square, got shape {u.shape}")
    return choi_from_kraus(KrausSet(d, d, (u,)))


def isometry_channel(v: StinespringIsometry) -> Channel:
    """Map rho -> V rho V^dag onto the full dilated space out (x) env.

    Its Choi operator is ``w w^dag`` with ``w = sum_i |i> (x) V|i>``, built
    as is: V is not checked to be an isometry, so a V from a solver witness,
    isometric only to the witness's tolerance, gives the map it defines.
    """
    w = v.v.T.reshape(-1)
    return Channel(v.dim_in, v.dim_out * v.dim_env, np.outer(w, w.conj()))


def trace_out_channel(dims: Sequence[int], keep: Sequence[int]) -> Channel:
    """CPTP map on a composite space that traces out the subsystems not kept.

    Its Choi operator is the identity channel's Choi operator on the kept
    factors, tensored with the identity on the traced input factors: the
    adjoint of the partial trace over those factors, with the output factor
    appended last and kept.
    """
    dims = tuple(dims)
    keep = tuple(sorted(set(keep)))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    d_out = math.prod(dims[k] for k in keep)
    j = partial_trace_adjoint(identity(d_out).choi, (*dims, d_out), keep=(*keep, len(dims)))
    return Channel(math.prod(dims), d_out, j)


def output_marginal(c: Channel, out_dims: Sequence[int], keep: Sequence[int]) -> Channel:
    """Marginal channel obtained by tracing subsystems out of the output.

    ``out_dims`` factor the output space; the Choi operator of the marginal is
    the partial trace of the channel's Choi operator over the dropped output
    factors.
    """
    out_dims = tuple(out_dims)
    if math.prod(out_dims) != c.dim_out:
        raise ValueError("out_dims do not factor the output dimension")
    keep = tuple(sorted(set(keep)))
    dims = (c.dim_in,) + out_dims
    keep_full = (0,) + tuple(1 + k for k in keep)
    d_out = math.prod(out_dims[k] for k in keep)
    return Channel(c.dim_in, d_out, partial_trace(c.choi, dims, keep_full))


def append_maximally_mixed(d_sys: int, d_anc: int) -> Channel:
    """CPTP map rho -> rho (x) I/d_anc, ancilla appended after the system."""
    return tensor(identity(d_sys), constant_channel(np.eye(d_anc) / d_anc, 1))


def trace_out_pair(psi_local: Channel, phi_local: Channel) -> tuple[Channel, Channel, Channel]:
    """Compatible pair on H_A = H_B (x) H_C with an explicit compatibilizer.

    Given local channels psi_local: B -> B and phi_local: C -> C, returns
    (psi_local o Tr_C, phi_local o Tr_B, psi_local (x) phi_local). The third
    channel reproduces the first two as its output marginals.
    """
    db, dc = psi_local.dim_in, phi_local.dim_in
    to_b = trace_out_channel((db, dc), keep=(0,))
    to_c = trace_out_channel((db, dc), keep=(1,))
    psi = compose_choi(to_b, psi_local)
    phi = compose_choi(to_c, phi_local)
    return psi, phi, tensor(psi_local, phi_local)


def self_complementary_qubit(family: int, alpha: float, beta: float) -> KrausSet:
    """Two-parameter qubit Kraus families whose channel equals its own
    complementary channel.

    ``alpha`` in [0, pi], ``beta`` in [0, 2 pi]; family 1 at (0, 0) is the
    dephasing-type point used throughout the regression suite.
    """
    if not 0.0 <= alpha <= np.pi:
        raise ValueError(f"alpha={alpha} outside [0, pi]")
    if not 0.0 <= beta <= 2.0 * np.pi:
        raise ValueError(f"beta={beta} outside [0, 2 pi]")
    s, c = np.sin(alpha), np.cos(alpha)
    phase = np.exp(1j * beta)
    r = 1.0 / np.sqrt(2.0)
    if family == 1:
        k1 = np.array([[s, 0.0], [0.0, r]], dtype=complex)
        k2 = np.array([[0.0, r], [phase * c, 0.0]], dtype=complex)
    elif family == 2:
        k1 = np.array([[1.0, 0.0], [0.0, r * s]], dtype=complex)
        k2 = np.array([[0.0, r * s], [0.0, phase * c]], dtype=complex)
    else:
        raise ValueError(f"family must be 1 or 2, got {family}")
    return KrausSet(2, 2, (k1, k2))


def constant_channel(sigma: np.ndarray, dim_in: int) -> Channel:
    """Preparation map rho -> Tr(rho) sigma; self-compatible by construction."""
    sigma = double(sigma)
    return Channel(dim_in, sigma.shape[0], np.kron(np.eye(dim_in), sigma))


def random_measure_prepare(dim: int, rng: np.random.Generator) -> KrausSet:
    """Measure in a random orthonormal basis, prepare a random pure state per
    outcome. Such channels are self-compatible, which makes them valid
    ancillas for the catalysis checks."""
    basis = random_unitary(dim, rng)
    ops = []
    for k in range(dim):
        g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = g / np.linalg.norm(g)
        ops.append(np.outer(state, basis[:, k].conj()))
    return KrausSet(dim, dim, tuple(ops))


def amplitude_damping(gamma: float) -> KrausSet:
    """Qubit amplitude damping; degradable for gamma < 1/2, anti-degradable
    for gamma > 1/2."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return KrausSet(2, 2, (k0, k1))


def catalysis_reduction(theta_joint: Channel, out_dims: Sequence[int], d_anc: int) -> Channel:
    """Strip an ancilla channel out of a joint compatibilizer.

    ``theta_joint`` maps A (x) A' to B (x) B' (x) C (x) B'' with output
    subsystem dimensions ``out_dims = (dB, dB', dC, dB'')``; the reduction
    feeds I/d_anc into A' and traces out B' and B'', leaving a channel
    A -> B (x) C.
    """
    out_dims = tuple(out_dims)
    if len(out_dims) != 4:
        raise ValueError("out_dims must be (dB, dB', dC, dB'')")
    if math.prod(out_dims) != theta_joint.dim_out:
        raise ValueError("out_dims do not factor the joint output dimension")
    if theta_joint.dim_in % d_anc != 0:
        raise ValueError("ancilla dimension does not divide the joint input dimension")
    d_a = theta_joint.dim_in // d_anc
    # Feeding I/d_anc into A' averages the Choi operator over A'.
    dims = (d_a, d_anc, *out_dims)
    j = partial_trace(theta_joint.choi, dims, keep=(0, 2, 4)) / d_anc
    return Channel(d_a, out_dims[0] * out_dims[2], j)


def swap_output(c: Channel, d_first: int, d_second: int) -> Channel:
    """Swap the two output factors of a channel into X2 (x) X1 order."""
    if d_first * d_second != c.dim_out:
        raise ValueError("output factors do not multiply to dim_out")
    side = c.dim_in * c.dim_out
    j = c.choi.reshape(c.dim_in, d_first, d_second, c.dim_in, d_first, d_second)
    return Channel(c.dim_in, c.dim_out, j.transpose(0, 2, 1, 3, 5, 4).reshape(side, side))


# ---------------------------------------------------------------------------
# Random sampling (reproducible given an explicit generator)
# ---------------------------------------------------------------------------


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_kraus(dim_in: int, dim_out: int, dim_env: int, rng: np.random.Generator) -> KrausSet:
    """Haar-style CPTP sample: QR-orthonormalize a complex Gaussian matrix
    into a Stinespring isometry and slice its Kraus operators."""
    if dim_out * dim_env < dim_in:
        raise ValueError("dim_out*dim_env must be at least dim_in for an isometry")
    g = rng.standard_normal((dim_out * dim_env, dim_in)) + 1j * rng.standard_normal(
        (dim_out * dim_env, dim_in)
    )
    q, _ = np.linalg.qr(g)
    return kraus_from_isometry(StinespringIsometry(dim_in, dim_out, dim_env, q))


def random_channel(
    dim_in: int, dim_out: int, rng: np.random.Generator, dim_env: int | None = None
) -> Channel:
    if dim_env is None:
        dim_env = int(rng.integers(2, 4))
    return choi_from_kraus(random_kraus(dim_in, dim_out, dim_env, rng))
