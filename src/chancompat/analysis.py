"""Decision procedures for channel compatibility, divisibility and
degradability, plus the constructive pipelines relating them.

Every check is a PSD-affine feasibility problem in Choi coordinates, and
every feasible verdict returns a witness channel that is re-verified through
channel operations alone (never through solver internals). Infeasible
verdicts come in two kinds, told apart by the solver report's
``stop_reason``: certified (``"certificate"``: the report's Farkas multipliers
prove, through :func:`chancompat.feasibility.certificate_bound`, that every
candidate misses the constraints by at least ten times the tolerance) and the
uncertified ``"empty-support"`` shortcut, taken when the forced support leaves
only the zero operator. A solve that stalls on a residual plateau without a
certificate is reported as inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import channels as ch
from .channels import Channel, KrausSet
from .feasibility import AffineConstraintSet, FeasibilityReport, SolverConfig, Status, solve
from .linalg import dag, frob, hermitian_basis, partial_trace, vectorize_hermitian

__all__ = [
    "CompatReport",
    "DivReport",
    "DegradabilityReport",
    "CatalysisReport",
    "build_constraints",
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
    "marginal_deviation",
    "basis_deviation",
    "sample_degradable_kraus",
    "sample_antidegradable_kraus",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompatReport:
    status: Status
    compatibilizer: Channel | None
    marginal_residual_b: float | None
    marginal_residual_c: float | None
    solver: FeasibilityReport


@dataclass(frozen=True)
class DivReport:
    status: Status
    quotient: Channel | None
    composition_residual: float | None
    solver: FeasibilityReport


@dataclass(frozen=True)
class DegradabilityReport:
    kind: str  # "degradable" | "anti-degradable" | "self-degradable"
    status: Status
    degrading: Channel | None
    residual: float | None
    dim_env: int
    self_distance: float | None = None
    solver: FeasibilityReport | None = None


@dataclass(frozen=True)
class CatalysisReport:
    tensored: CompatReport
    reduced: Channel | None
    marginal_residual_b: float | None
    marginal_residual_c: float | None


# ---------------------------------------------------------------------------
# Constraint assembly (single builder for marginal/composition systems)
# ---------------------------------------------------------------------------


def build_constraints(
    dim: int,
    specs: Sequence[tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]],
) -> AffineConstraintSet:
    """Assemble an affine system L_k(X) = T_k over Hermitian dim x dim X.

    Each spec is a pair (map, target) where the map is Hermitian-linear. Its
    matrix in vectorized coordinates is built column by column on the
    orthonormal Hermitian basis, so ``M vec(X)`` evaluates every map exactly
    by linearity.
    """
    targets = [np.asarray(t) for _, t in specs]
    rows = sum(t.shape[0] ** 2 for t in targets)
    m = np.empty((rows, dim * dim))
    for col, basis_elem in enumerate(hermitian_basis(dim)):
        m[:, col] = np.concatenate([vectorize_hermitian(fn(basis_elem)) for fn, _ in specs])
    b = np.concatenate([vectorize_hermitian(t) for t in targets])
    return AffineConstraintSet(dim, m, b)


def _require_cptp(c: Channel, name: str, atol: float = ch.EPS_EQ) -> None:
    ch.validate_channel(c, atol=atol, name=name)


def _kernel_columns(mat: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    h = 0.5 * (mat + dag(mat))
    w, v = np.linalg.eigh(h)
    cut = tol * max(1.0, float(w[-1]))
    return v[:, w < cut]


def _compat_support(psi: Channel, phi: Channel) -> np.ndarray | None:
    """Orthonormal basis of the subspace a compatibilizer can be supported on.

    A positive semidefinite operator whose partial trace has a kernel vector
    must itself annihilate that vector tensored with anything on the traced
    factor. Restricting the search variable to the complement of the forced
    null space turns the rank-deficient instances (whose feasible set lies
    entirely on the cone boundary, stalling alternating projections) into
    well-conditioned ones. Returns ``None`` when nothing is forced.
    """
    da, db, dc = psi.dim_in, psi.dim_out, phi.dim_out
    side = da * db * dc
    null_cols = []
    for col in _kernel_columns(psi.choi).T:
        block = col.reshape(da, db)
        for c in range(dc):
            w = np.zeros((da, db, dc), dtype=complex)
            w[:, :, c] = block
            null_cols.append(w.reshape(-1))
    for col in _kernel_columns(phi.choi).T:
        block = col.reshape(da, dc)
        for b_idx in range(db):
            w = np.zeros((da, db, dc), dtype=complex)
            w[:, b_idx, :] = block
            null_cols.append(w.reshape(-1))
    if not null_cols:
        return None
    n = np.column_stack(null_cols)
    u, s, _ = np.linalg.svd(n, full_matrices=True)
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    return u[:, rank:]


def _solve_on_support(
    side: int,
    specs: Sequence[tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]],
    support: np.ndarray | None,
    config: SolverConfig,
) -> FeasibilityReport:
    """Solve the PSD-affine system, optionally restricted to a forced support."""
    if support is None or support.shape[1] == side:
        return solve(build_constraints(side, specs), config)
    u = support
    if u.shape[1] == 0:
        # Only the zero operator is admissible; measure its residual directly.
        r = float(np.linalg.norm(np.concatenate([vectorize_hermitian(t) for _, t in specs])))
        if r < config.eps_feas:
            return FeasibilityReport(
                Status.FEASIBLE, np.zeros((side, side), dtype=complex), r, 0.0, 0, "empty-support"
            )
        status = (
            Status.NOT_FEASIBLE_AT_TOLERANCE
            if r >= 10.0 * config.eps_feas
            else Status.ITERATION_LIMIT
        )
        return FeasibilityReport(status, None, r, 0.0, 0, "empty-support")
    udag = u.conj().T
    reduced = [(lambda y, fn=fn: fn(u @ y @ udag), t) for fn, t in specs]
    report = solve(build_constraints(u.shape[1], reduced), config)
    if report.solution is not None:
        report = replace(report, solution=u @ report.solution @ udag)
    return report


def marginal_deviation(joint: Channel, target: Channel, out_dims: tuple[int, int], keep: int) -> float:
    """Max deviation, over a Hermitian input basis, between a marginal of the
    joint channel and the target channel."""
    db, dc = out_dims
    worst = 0.0
    for basis_elem in hermitian_basis(joint.dim_in):
        full = ch.apply(joint, basis_elem)
        marg = partial_trace(full, (db, dc), keep=(keep,))
        worst = max(worst, frob(marg - ch.apply(target, basis_elem)))
    return worst


def basis_deviation(c1: Channel, c2: Channel) -> float:
    """Max output deviation of two channels over a Hermitian input basis."""
    if (c1.dim_in, c1.dim_out) != (c2.dim_in, c2.dim_out):
        raise ValueError("channel dimensions differ")
    return max(
        frob(ch.apply(c1, b) - ch.apply(c2, b)) for b in hermitian_basis(c1.dim_in)
    )


# ---------------------------------------------------------------------------
# Core checks
# ---------------------------------------------------------------------------


def check_compatibility(
    psi: Channel, phi: Channel, config: SolverConfig = SolverConfig()
) -> CompatReport:
    """Search for a joint channel whose output marginals are psi and phi.

    The variable is the Choi operator of a channel A -> B (x) C, constrained
    to reproduce ``psi`` when C is traced out and ``phi`` when B is traced
    out; trace preservation follows from either marginal.
    """
    if psi.dim_in != phi.dim_in:
        raise ValueError("channels must share the input dimension")
    _require_cptp(psi, "psi")
    _require_cptp(phi, "phi")
    da, db, dc = psi.dim_in, psi.dim_out, phi.dim_out
    dims = (da, db, dc)
    side = da * db * dc
    specs = [
        (lambda x: partial_trace(x, dims, keep=(0, 1)), psi.choi),
        (lambda x: partial_trace(x, dims, keep=(0, 2)), phi.choi),
    ]
    report = _solve_on_support(side, specs, _compat_support(psi, phi), config)
    if report.status is not Status.FEASIBLE:
        return CompatReport(report.status, None, None, None, report)
    witness = Channel(da, db * dc, report.solution)
    res_b = marginal_deviation(witness, psi, (db, dc), keep=0)
    res_c = marginal_deviation(witness, phi, (db, dc), keep=1)
    return CompatReport(report.status, witness, res_b, res_c, report)


def check_divisibility(
    psi: Channel, phi: Channel, config: SolverConfig = SolverConfig()
) -> DivReport:
    """Search for a quotient channel theta with phi = theta o psi.

    The variable is the Choi operator of theta: B -> C, constrained to be
    trace preserving and to satisfy the (linear) composition identity with
    the fixed ``psi``.
    """
    if psi.dim_in != phi.dim_in:
        raise ValueError("channels must share the input dimension")
    _require_cptp(psi, "psi")
    _require_cptp(phi, "phi")
    db, dc = psi.dim_out, phi.dim_out
    side = db * dc

    def compose_with_psi(x: np.ndarray) -> np.ndarray:
        theta = Channel(db, dc, x)
        return ch.compose_choi(psi, theta).choi

    constraints = build_constraints(
        side,
        [
            (lambda x: partial_trace(x, (db, dc), keep=(0,)), np.eye(db, dtype=complex)),
            (compose_with_psi, phi.choi),
        ],
    )
    report = solve(constraints, config)
    if report.status is not Status.FEASIBLE:
        return DivReport(report.status, None, None, report)
    quotient = Channel(db, dc, report.solution)
    residual = frob(ch.compose_choi(psi, quotient).choi - phi.choi)
    return DivReport(report.status, quotient, residual, report)


def _check_kraus_matches(psi: Channel, kraus: KrausSet) -> None:
    if (kraus.dim_in, kraus.dim_out) != (psi.dim_in, psi.dim_out):
        raise ValueError("Kraus set dimensions do not match the channel")
    dist = frob(ch.choi_from_kraus(kraus).choi - psi.choi)
    if dist > ch.EPS_EQ:
        raise ValueError(f"Kraus set does not represent the channel: Choi distance {dist:.3e}")


def check_degradable(
    psi: Channel, kraus: KrausSet, config: SolverConfig = SolverConfig()
) -> DegradabilityReport:
    """Degradability: does some channel map psi's output onto the output of
    its complementary channel (for this Kraus representation)?"""
    _check_kraus_matches(psi, kraus)
    psi_c = ch.complementary(kraus)
    div = check_divisibility(psi, psi_c, config)
    return DegradabilityReport(
        "degradable",
        div.status,
        div.quotient,
        div.composition_residual,
        kraus.dim_env,
        solver=div.solver,
    )


def check_antidegradable(
    psi: Channel, kraus: KrausSet, config: SolverConfig = SolverConfig()
) -> DegradabilityReport:
    """Anti-degradability: does the complementary channel divide psi?"""
    _check_kraus_matches(psi, kraus)
    psi_c = ch.complementary(kraus)
    div = check_divisibility(psi_c, psi, config)
    return DegradabilityReport(
        "anti-degradable",
        div.status,
        div.quotient,
        div.composition_residual,
        kraus.dim_env,
        solver=div.solver,
    )


def check_self_degradable(kraus: KrausSet, eps_eq: float = ch.EPS_EQ) -> DegradabilityReport:
    """Exact self-complementarity test for the given representation.

    Reports the Choi distance between the channel and its complementary; the
    distance is infinite when the output and environment dimensions differ,
    since equality is then impossible for this representation.
    """
    psi = ch.choi_from_kraus(kraus)
    if kraus.dim_out != kraus.dim_env:
        return DegradabilityReport(
            "self-degradable",
            Status.NOT_FEASIBLE_AT_TOLERANCE,
            None,
            None,
            kraus.dim_env,
            self_distance=float("inf"),
        )
    dist = frob(psi.choi - ch.complementary(kraus).choi)
    if dist < eps_eq:
        witness = ch.identity(kraus.dim_env)
        return DegradabilityReport(
            "self-degradable", Status.FEASIBLE, witness, dist, kraus.dim_env, self_distance=dist
        )
    return DegradabilityReport(
        "self-degradable",
        Status.NOT_FEASIBLE_AT_TOLERANCE,
        None,
        None,
        kraus.dim_env,
        self_distance=dist,
    )


def check_family_divisibility(
    family: Sequence[Channel], config: SolverConfig = SolverConfig()
) -> list[DivReport]:
    """Step-wise divisibility of an ordered process family.

    Each member maps the same initial space X0 to successive spaces X_k; the
    family is divisible (the dynamics Markovian) when every member divides
    its successor. Returns one report per consecutive pair.
    """
    if not family:
        raise ValueError("family must contain at least one channel")
    d0 = family[0].dim_in
    for k, member in enumerate(family):
        if member.dim_in != d0:
            raise ValueError(f"family member {k} has input dim {member.dim_in}, expected {d0}")
    return [
        check_divisibility(family[k], family[k + 1], config) for k in range(len(family) - 1)
    ]


# ---------------------------------------------------------------------------
# Constructive pipelines
# ---------------------------------------------------------------------------


def postprocessing_from_compatibilizer(
    compatibilizer: Channel, dim_b: int, dim_c: int, eps_rank: float = ch.EPS_RANK
) -> tuple[Channel, Channel, float]:
    """Recover the second marginal as a post-processing of an enlarged
    complementary channel.

    From a Stinespring dilation V: A -> (B (x) C) (x) E of the compatibilizer,
    builds the enlarged complementary psi_c: A -> C (x) E by tracing out B,
    and the post-processing theta = Tr_E. Returns (psi_c, theta, residual)
    where the residual is the worst basis deviation of the two identities
    phi = theta o psi_c and psi = Tr_{C,E} of the dilation.
    """
    if dim_b * dim_c != compatibilizer.dim_out:
        raise ValueError("output factors do not multiply to the compatibilizer output dim")
    kraus = ch.kraus_from_choi(compatibilizer, eps_rank=eps_rank)
    v = ch.isometry_from_kraus(kraus)
    dilated = ch.isometry_channel(v)  # A -> B (x) C (x) E
    dims_bce = (dim_b, dim_c, v.dim_env)
    psi_c = ch.output_marginal(dilated, dims_bce, keep=(1, 2))
    theta = ch.trace_out_channel((dim_c, v.dim_env), keep=(0,))

    phi = ch.output_marginal(compatibilizer, (dim_b, dim_c), keep=(1,))
    psi = ch.output_marginal(compatibilizer, (dim_b, dim_c), keep=(0,))
    phi_rebuilt = ch.compose_choi(psi_c, theta)
    psi_rebuilt = ch.output_marginal(dilated, dims_bce, keep=(0,))
    residual = max(basis_deviation(phi_rebuilt, phi), basis_deviation(psi_rebuilt, psi))
    return psi_c, theta, residual


def compatibilizer_from_postprocessing(psi_kraus: KrausSet, theta: Channel) -> Channel:
    """Joint channel witnessing compatibility of psi with theta o psi_c.

    Applies theta to the environment leg of the dilation: the result maps
    A -> B (x) C, its first marginal is psi exactly and its second is
    theta composed with the complementary channel of this representation.
    """
    if theta.dim_in != psi_kraus.dim_env:
        raise ValueError(
            f"post-processing input dim {theta.dim_in} does not match environment "
            f"dim {psi_kraus.dim_env}"
        )
    v = ch.isometry_channel(ch.isometry_from_kraus(psi_kraus))  # A -> B (x) E
    act_on_env = ch.tensor(ch.identity(psi_kraus.dim_out), theta)  # B (x) E -> B (x) C
    return ch.compose_choi(v, act_on_env)


def quotient_via_degradability(
    psi: Channel,
    psi_c: Channel,
    degrading: Channel,
    theta_ce: Channel,
    eps: float = 1e-7,
) -> Channel:
    """Quotient for phi = theta_ce o psi_c built from a degrading map.

    Requires the degradability witness to hold: degrading o psi must equal
    the given complementary channel within ``eps``. The returned channel is
    theta_ce o degrading, which divides psi into phi.
    """
    defect = frob(ch.compose_choi(psi, degrading).choi - psi_c.choi)
    if defect > eps:
        raise ValueError(f"invalid degradability witness: residual {defect:.3e} > {eps:.1e}")
    return ch.compose_choi(degrading, theta_ce)


def compatibilizer_via_antidegradability(
    psi_kraus: KrausSet,
    antidegrading: Channel,
    theta_cb: Channel,
    eps: float = 1e-7,
) -> Channel:
    """Compatibilizer for (psi, theta_cb o psi) built from an anti-degrading map.

    Requires antidegrading o psi_c = psi within ``eps`` for the complementary
    of this representation; the environment post-processing
    theta_cb o antidegrading then feeds the joint construction.
    """
    psi = ch.choi_from_kraus(psi_kraus)
    psi_c = ch.complementary(psi_kraus)
    defect = frob(ch.compose_choi(psi_c, antidegrading).choi - psi.choi)
    if defect > eps:
        raise ValueError(f"invalid anti-degradability witness: residual {defect:.3e} > {eps:.1e}")
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
        return CatalysisReport(compat, None, None, None)
    out_dims = (psi.dim_out, chi.dim_out, phi.dim_out, chi.dim_out)
    reduced = ch.catalysis_reduction(compat.compatibilizer, out_dims, chi.dim_in)
    res_b = marginal_deviation(reduced, psi, (psi.dim_out, phi.dim_out), keep=0)
    res_c = marginal_deviation(reduced, phi, (psi.dim_out, phi.dim_out), keep=1)
    return CatalysisReport(compat, reduced, res_b, res_c)


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
