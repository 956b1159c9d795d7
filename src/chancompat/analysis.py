"""Decision procedures for channel compatibility, divisibility and
degradability, plus the constructions relating their witnesses.

Every check is a PSD-affine feasibility problem in Choi coordinates, and
every feasible verdict returns a witness channel that is re-verified through
channel operations alone (never through solver internals), as a Choi
Frobenius distance: the ``residual`` of every check report. The paper's
pipelines, which chain these checks and constructions on sampled instances,
are in :mod:`chancompat.pipelines`. Every infeasible verdict comes from the
solver with a certificate (``stop_reason`` ``"certificate"``): the report's
Farkas multipliers prove, through
:func:`chancompat.feasibility.certificate_bound`, that every candidate of the
solved system misses its constraints by at least ten times the tolerance. A
solve that stalls on a residual plateau without a certificate is reported as
inconclusive.

Compatibility is decided through Theorem 1 (see :func:`check_compatibility`):
phi is compatible with psi exactly when phi = theta o psi_c for a channel
theta from the environment of a dilation of psi. So the check dilates,
divides phi by the complementary channel, and lifts theta to the joint by a
congruence, on whose coordinates its solver report is stated. A full-rank
pair takes the identity dilation, whose theta is the joint itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channels as ch
from .channels import Channel, KrausSet
from .feasibility import (
    CompositionConstraintSet,
    FeasibilityReport,
    SolverConfig,
    Status,
    solve,
)
from .linalg import frob
from .linalg import hermitian_basis  # noqa: F401  (perfbench's tracer patches it here)

__all__ = [
    "WITNESS_TOL",
    "CompatReport",
    "DivReport",
    "DegradabilityReport",
    "CatalysisReport",
    "check_compatibility",
    "check_divisibility",
    "check_degradable",
    "check_antidegradable",
    "check_self_degradable",
    "check_family_divisibility",
    "postprocessing_from_compatibilizer",
    "compatibilizer_from_postprocessing",
    "quotient_via_degradability",
    "compatibilizer_via_antidegradability",
    "antidegrading_map_from_compat_and_div",
    "verify_no_catalysis",
    "marginal_distances",
    "sample_degradable_kraus",
    "sample_antidegradable_kraus",
]

# Largest Choi distance at which a solved or constructed witness reproduces
# its identity: a (anti-)degrading map before a construction is built on it,
# and the constructions of the paper's pipelines. It equals the default
# ``SolverConfig.eps_feas``, so that witnesses solved at that tolerance pass.
WITNESS_TOL = 1e-7


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

# Each ``residual`` is the Choi distance that re-verifies the report's witness,
# ``None`` without one; the self-degradability distance is always given.
# ``solver.solution`` is in the coordinates of ``solver.constraints``: for a
# compatibility check, the X of its dilation (see ``check_compatibility``).


@dataclass(frozen=True)
class CompatReport:
    status: Status
    compatibilizer: Channel | None
    residual: float | None
    solver: FeasibilityReport


@dataclass(frozen=True)
class DivReport:
    status: Status
    quotient: Channel | None
    residual: float | None
    solver: FeasibilityReport


@dataclass(frozen=True)
class DegradabilityReport:
    status: Status
    degrading: Channel | None
    residual: float | None
    solver: FeasibilityReport | None = None


@dataclass(frozen=True)
class CatalysisReport:
    tensored: CompatReport
    reduced: Channel | None
    residual: float | None


def marginal_distances(joint: Channel, psi: Channel, phi: Channel) -> tuple[float, float]:
    """Choi distances of the joint channel's two output marginals from psi and
    from phi.

    Both marginals are traces of one reshape of the joint's Choi operator on
    A (x) B (x) C, the same ``trace`` calls that ``linalg.partial_trace`` makes
    for :func:`channels.output_marginal`, and raise as that path does.
    """
    a, b, c = joint.dim_in, psi.dim_out, phi.dim_out
    if b * c != joint.dim_out:
        raise ValueError("out_dims do not factor the output dimension")
    if psi.dim_in != a or phi.dim_in != a:
        raise ValueError("channel dimensions differ")
    t = joint.choi.reshape(a, b, c, a, b, c)
    marginal_b = t.trace(axis1=2, axis2=5).reshape(a * b, a * b)
    marginal_c = t.trace(axis1=1, axis2=4).reshape(a * c, a * c)
    return frob(marginal_b - psi.choi), frob(marginal_c - phi.choi)


# ---------------------------------------------------------------------------
# Core checks
# ---------------------------------------------------------------------------


def check_compatibility(
    psi: Channel, phi: Channel, config: SolverConfig = SolverConfig()
) -> CompatReport:
    """Search for a joint channel whose output marginals are psi and phi.

    The joint is the Choi operator of a channel A -> B (x) C that reproduces
    ``psi`` when C is traced out and ``phi`` when B is traced out. One
    eigendecomposition of each Choi operator validates it and gives its Choi
    rank r at ``EPS_RANK``; the minimal Kraus set, of length r, is taken
    from it only for the channel that the check dilates below.

    The check follows Theorem 1: dilate, divide, lift. For R the matrix of
    vectorized Kraus operators of a set whose range covers J_psi's, every
    PSD joint with ``Tr_C W = J_psi`` is ``(R (x) I_C) X (R (x) I_C)^dag``
    for exactly one PSD X on E (x) C, with ``Tr_C X = R^+ J_psi R^+dag``;
    its second marginal is phi exactly when X composed after the set's
    complementary channel psi_c is phi. So X is solved for on a
    :class:`CompositionConstraintSet`, and the witness is its lift
    (:func:`compatibilizer_from_postprocessing`). For a minimal Kraus set,
    ``J_psi = R R^dag`` and the system is the divisibility of phi by psi_c.
    Compatibility is symmetric, so the check dilates whichever of psi and
    phi gives the smaller space ``r d_other``, and swaps the outputs of a
    witness found through phi back. When that space is all of A (x) B (x) C
    (both Choi operators have full rank), it takes the identity dilation
    ``|b><a|`` instead: R = I, psi_c is ``rho -> rho (x) I_B``, the first
    target is J_psi, and X is the joint itself. ``solver.solution`` is in
    the coordinates of X, and the certificate ``(Y_T, Y)`` is on the rows of
    X's system: ``Y_T`` on the dilation's environment E (A (x) B for the
    identity dilation), ``Y`` on A and the other channel's output; the
    ``residual`` re-verifies the joint against the given psi and phi, so it
    includes the eigenvalue weight that the rank cut drops.
    """
    if psi.dim_in != phi.dim_in:
        raise ValueError("channels must share the input dimension")
    eig_psi, eig_phi = ch.validated_eigh(psi, name="psi"), ch.validated_eigh(phi, name="phi")
    da, db, dc = psi.dim_in, psi.dim_out, phi.dim_out
    side_psi, side_phi = ch.choi_rank(eig_psi[0]) * dc, ch.choi_rank(eig_phi[0]) * db
    swap = side_phi < side_psi
    dilated, eig, other = (phi, eig_phi, psi) if swap else (psi, eig_psi, phi)
    first = None
    if min(side_psi, side_phi) == da * db * dc:
        # Operator a d_B + b is |b><a|; nothing below needs trace preservation.
        # It takes the pair's dtype, so that the set and the lift mix no real
        # and complex operands: real for a real pair.
        dtype = np.result_type(psi.choi, phi.choi)
        ops = np.eye(da * db, dtype=dtype).reshape(-1, da, db).transpose(0, 2, 1)
        kraus, first = KrausSet(da, db, ops), psi.choi
    else:
        kraus = ch.kraus_from_eigh(dilated, *eig)
    env = ch.complementary(kraus)
    dims = (da, kraus.dim_env, other.dim_out)
    report = solve(CompositionConstraintSet(dims, env.choi, other.choi, first=first), config)
    if report.status is not Status.FEASIBLE:
        return CompatReport(report.status, None, None, report)
    theta = Channel(kraus.dim_env, other.dim_out, report.solution)
    witness = compatibilizer_from_postprocessing(kraus, theta)
    if swap:
        witness = ch.swap_output(witness, dc, db)
    return CompatReport(report.status, witness, max(marginal_distances(witness, psi, phi)), report)


def check_divisibility(
    psi: Channel, phi: Channel, config: SolverConfig = SolverConfig()
) -> DivReport:
    """Search for a quotient channel theta with phi = theta o psi.

    The variable is the Choi operator of theta: B -> C, constrained to be
    trace preserving and to satisfy the (linear) composition identity with
    the fixed ``psi``. Both constraints are products with the realigned Choi
    operators, so the system is a :class:`CompositionConstraintSet`, which
    projects in closed form from one SVD of psi's realigned Choi operator.
    """
    if psi.dim_in != phi.dim_in:
        raise ValueError("channels must share the input dimension")
    ch.validate_channel(psi, name="psi")
    ch.validate_channel(phi, name="phi")
    return _divide(psi, phi, config)


def _divide(psi: Channel, phi: Channel, config: SolverConfig) -> DivReport:
    """:func:`check_divisibility` on channels already validated, with equal
    input dimensions."""
    dims = (psi.dim_in, psi.dim_out, phi.dim_out)
    report = solve(CompositionConstraintSet(dims, psi.choi, phi.choi), config)
    if report.status is not Status.FEASIBLE:
        return DivReport(report.status, None, None, report)
    quotient = Channel(psi.dim_out, phi.dim_out, report.solution)
    residual = frob(ch.compose_choi(psi, quotient).choi - phi.choi)
    return DivReport(report.status, quotient, residual, report)


def _check_kraus_matches(psi: Channel, kraus: KrausSet) -> None:
    if (kraus.dim_in, kraus.dim_out) != (psi.dim_in, psi.dim_out):
        raise ValueError("Kraus set dimensions do not match the channel")
    ch.require_finite(psi.choi, "psi")
    dist = frob(ch.choi_from_kraus(kraus).choi - psi.choi)
    if not dist <= ch.EPS_EQ:
        raise ValueError(f"Kraus set does not represent the channel: Choi distance {dist:.3e}")


def check_degradable(
    psi: Channel, kraus: KrausSet, config: SolverConfig = SolverConfig()
) -> DegradabilityReport:
    """Degradability: does some channel map psi's output onto the output of
    its complementary channel (for this Kraus representation)?"""
    _check_kraus_matches(psi, kraus)
    psi_c = ch.complementary(kraus)
    div = check_divisibility(psi, psi_c, config)
    return DegradabilityReport(div.status, div.quotient, div.residual, div.solver)


def check_antidegradable(
    psi: Channel, kraus: KrausSet, config: SolverConfig = SolverConfig()
) -> DegradabilityReport:
    """Anti-degradability: does the complementary channel divide psi?"""
    _check_kraus_matches(psi, kraus)
    psi_c = ch.complementary(kraus)
    div = check_divisibility(psi_c, psi, config)
    return DegradabilityReport(div.status, div.quotient, div.residual, div.solver)


def check_self_degradable(kraus: KrausSet) -> DegradabilityReport:
    """Exact self-complementarity test for the given representation.

    The report's ``residual`` is the Choi distance between the channel and
    its complementary; the distance is infinite when the output and
    environment dimensions differ, since equality is then impossible for this
    representation. Equality is a distance below ``channels.EPS_EQ``.
    """
    psi = ch.choi_from_kraus(kraus)
    if kraus.dim_out != kraus.dim_env:
        return DegradabilityReport(Status.NOT_FEASIBLE_AT_TOLERANCE, None, float("inf"))
    dist = frob(psi.choi - ch.complementary(kraus).choi)
    if dist < ch.EPS_EQ:
        return DegradabilityReport(Status.FEASIBLE, ch.identity(kraus.dim_env), dist)
    return DegradabilityReport(Status.NOT_FEASIBLE_AT_TOLERANCE, None, dist)


def check_family_divisibility(
    family: Sequence[Channel], config: SolverConfig = SolverConfig()
) -> list[DivReport]:
    """Step-wise divisibility of an ordered process family.

    Each member maps the same initial space X0 to successive spaces X_k; the
    family is divisible (the dynamics Markovian) when every member divides
    its successor. Returns one report per consecutive pair, each the
    :func:`check_divisibility` of that pair. Every member is validated once,
    before any solve, under the name its first step gives it: the first
    member as ``psi``, every later one as ``phi``.
    """
    if not family:
        raise ValueError("family must contain at least one channel")
    d0 = family[0].dim_in
    for k, member in enumerate(family):
        if member.dim_in != d0:
            raise ValueError(f"family member {k} has input dim {member.dim_in}, expected {d0}")
    for k, member in enumerate(family):
        ch.validate_channel(member, name="phi" if k else "psi")
    return [_divide(family[k], family[k + 1], config) for k in range(len(family) - 1)]


# ---------------------------------------------------------------------------
# Constructive pipelines
# ---------------------------------------------------------------------------


def postprocessing_from_compatibilizer(
    compatibilizer: Channel, dim_b: int, dim_c: int
) -> tuple[Channel, Channel, float]:
    """Recover the second marginal as a post-processing of an enlarged
    complementary channel.

    From a Stinespring dilation V: A -> (B (x) C) (x) E of the compatibilizer,
    builds the enlarged complementary psi_c: A -> C (x) E by tracing out B,
    and the post-processing theta = Tr_E. Returns (psi_c, theta, residual)
    where the residual is the worse Choi distance of the two identities
    phi = theta o psi_c and psi = Tr_{C,E} of the dilation.
    """
    if dim_b * dim_c != compatibilizer.dim_out:
        raise ValueError("output factors do not multiply to the compatibilizer output dim")
    kraus = ch.kraus_from_choi(compatibilizer)
    v = ch.isometry_from_kraus(kraus)
    dilated = ch.isometry_channel(v)  # A -> B (x) C (x) E
    dims_bce = (dim_b, dim_c, v.dim_env)
    psi_c = ch.output_marginal(dilated, dims_bce, keep=(1, 2))
    theta = ch.trace_out_channel((dim_c, v.dim_env), keep=(0,))

    phi = ch.output_marginal(compatibilizer, (dim_b, dim_c), keep=(1,))
    psi = ch.output_marginal(compatibilizer, (dim_b, dim_c), keep=(0,))
    phi_rebuilt = ch.compose_choi(psi_c, theta)
    psi_rebuilt = ch.output_marginal(dilated, dims_bce, keep=(0,))
    residual = max(ch.choi_distance(phi_rebuilt, phi), ch.choi_distance(psi_rebuilt, psi))
    return psi_c, theta, residual


def compatibilizer_from_postprocessing(psi_kraus: KrausSet, theta: Channel) -> Channel:
    """Joint channel witnessing compatibility of psi with theta o psi_c.

    Applies theta to the environment leg of the dilation: the result maps
    A -> B (x) C, its first marginal is psi exactly and its second is
    theta composed with the complementary channel of this representation.
    With R the matrix whose columns are the vectorized Kraus operators
    (:meth:`channels.KrausSet.columns`), the dilation's Choi operator is
    ``vec(R) vec(R)^dag`` on A (x) B (x) E, so the result is the congruence
    ``(R (x) I_C) J_theta (R (x) I_C)^dag``.

    Computed without forming ``R (x) I_C``, as two products with R: R acts on
    the E index of J_theta's rows, ``N = (R (x) I_C) J_theta``, and then on
    those of ``N^dag``, whose conjugate transpose is the result. Equal to the
    Kronecker form up to the summation order of the products.
    """
    if theta.dim_in != psi_kraus.dim_env:
        raise ValueError(
            f"post-processing input dim {theta.dim_in} does not match environment "
            f"dim {psi_kraus.dim_env}"
        )
    r = psi_kraus.columns()
    e, c = psi_kraus.dim_env, theta.dim_out
    side = r.shape[0] * c
    n = (r @ theta.choi.reshape(e, -1)).reshape(side, e * c)
    lifted = r @ np.conjugate(n.T, order="C").reshape(e, -1)
    joint = np.conjugate(lifted.reshape(side, side).T, order="C")
    return Channel(psi_kraus.dim_in, psi_kraus.dim_out * c, joint)


def _require_finite_channels(**channels: Channel) -> None:
    """``channels.require_finite`` on each keyword's Choi operator, named by
    its keyword."""
    for name, c in channels.items():
        ch.require_finite(c.choi, name)


def quotient_via_degradability(
    psi: Channel,
    psi_c: Channel,
    degrading: Channel,
    theta_ce: Channel,
) -> Channel:
    """Quotient for phi = theta_ce o psi_c built from a degrading map.

    Requires the degradability witness to hold: degrading o psi must equal
    the given complementary channel within Choi distance ``WITNESS_TOL``.
    The returned channel is theta_ce o degrading, which divides psi into phi.
    """
    _require_finite_channels(psi=psi, psi_c=psi_c, degrading=degrading, theta_ce=theta_ce)
    defect = ch.choi_distance(ch.compose_choi(psi, degrading), psi_c)
    if not defect <= WITNESS_TOL:
        raise ValueError(
            f"invalid degradability witness: residual {defect:.3e} > {WITNESS_TOL:.1e}"
        )
    return ch.compose_choi(degrading, theta_ce)


def compatibilizer_via_antidegradability(
    psi_kraus: KrausSet,
    antidegrading: Channel,
    theta_cb: Channel,
) -> Channel:
    """Compatibilizer for (psi, theta_cb o psi) built from an anti-degrading map.

    Requires antidegrading o psi_c = psi within Choi distance
    ``WITNESS_TOL`` for the complementary of this representation; the
    environment post-processing theta_cb o antidegrading then feeds the joint
    construction.
    """
    _require_finite_channels(antidegrading=antidegrading, theta_cb=theta_cb)
    psi = ch.choi_from_kraus(psi_kraus)
    psi_c = ch.complementary(psi_kraus)
    defect = ch.choi_distance(ch.compose_choi(psi_c, antidegrading), psi)
    if not defect <= WITNESS_TOL:
        raise ValueError(
            f"invalid anti-degradability witness: residual {defect:.3e} > {WITNESS_TOL:.1e}"
        )
    theta_ce = ch.compose_choi(antidegrading, theta_cb)  # E -> B -> C
    return compatibilizer_from_postprocessing(psi_kraus, theta_ce)


def antidegrading_map_from_compat_and_div(theta_cb: Channel, theta_be: Channel) -> Channel:
    """Composition theta_cb o theta_be: the anti-degrading witness emerging
    when one channel both divides and is compatible with another."""
    return ch.compose_choi(theta_be, theta_cb)


def verify_no_catalysis(
    psi: Channel,
    phi: Channel,
    chi: Channel,
    config: SolverConfig = SolverConfig(),
) -> CatalysisReport:
    """Check that tensoring an ancilla channel cannot create compatibility.

    Runs the compatibility search on (psi (x) chi, phi (x) chi); when it is
    feasible, strips the ancilla from the joint witness by feeding a
    maximally mixed input and tracing the ancilla outputs, and verifies the
    reduced channel is a compatibilizer for the bare pair.
    """
    if psi.dim_in != phi.dim_in:
        raise ValueError("psi and phi must share the input dimension")
    big_psi = ch.tensor(psi, chi)
    big_phi = ch.tensor(phi, chi)
    compat = check_compatibility(big_psi, big_phi, config)
    if compat.status is not Status.FEASIBLE:
        return CatalysisReport(compat, None, None)
    out_dims = (psi.dim_out, chi.dim_out, phi.dim_out, chi.dim_out)
    reduced = ch.catalysis_reduction(compat.compatibilizer, out_dims, chi.dim_in)
    return CatalysisReport(compat, reduced, max(marginal_distances(reduced, psi, phi)))


# ---------------------------------------------------------------------------
# Instance sampling for the randomized suites
# ---------------------------------------------------------------------------


def sample_degradable_kraus(rng: np.random.Generator) -> KrausSet:
    """Qubit channel from a family known to be degradable: weak amplitude
    damping, the self-complementary family, or a unitary."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return ch.amplitude_damping(float(rng.uniform(0.0, 0.45)))
    if kind == 1:
        return ch.self_complementary_qubit(
            1, float(rng.uniform(0.0, np.pi)), float(rng.uniform(0.0, 2.0 * np.pi))
        )
    return KrausSet(2, 2, (ch.random_unitary(2, rng),))


def sample_antidegradable_kraus(rng: np.random.Generator) -> KrausSet:
    """Qubit channel from a family known to be anti-degradable: strong
    amplitude damping or the completely depolarizing channel."""
    if rng.integers(0, 2) == 0:
        return ch.amplitude_damping(float(rng.uniform(0.55, 0.95)))
    return ch.kraus_from_choi(ch.completely_depolarizing(2))
