"""The paper's constructive pipelines, run on seeded random instances.

Each pipeline samples its instances from ``rng``, decides them with the checks
of :mod:`chancompat.analysis`, rebuilds the paper's witnesses from the
verdicts and re-verifies every one as a Choi Frobenius distance. It returns
one :class:`Step` per decision and the last witness it obtained (``None`` if
none). The ``verify`` command and the acceptance suite both run these
functions.

Checks are called as ``analysis.check_...`` attributes, and ``Status`` is
read as ``feasibility.Status`` at call time; neither is imported by name, so
that a wrapper installed on those modules, or a reload of them, is seen here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analysis, channels as ch, feasibility
from .channels import Channel, KrausSet
from .feasibility import SolverConfig

__all__ = [
    "Step",
    "overall_status",
    "power_family",
    "thm1",
    "thm2i",
    "thm2ii",
    "corollary",
    "prop1",
    "nocatalysis",
    "family",
]


@dataclass(frozen=True)
class Step:
    """One decision of a pipeline; fields that do not apply are ``None``.

    Steps decided by the solver carry its ``stop_reason`` and ``iterations``.
    Steps decided by an exact check of a constructed object are feasible when
    their ``residual`` is below the step's threshold and not feasible
    otherwise.
    """

    name: str
    status: feasibility.Status
    residual: float | None = None
    stop_reason: str | None = None
    iterations: int | None = None


# What a pipeline returns: its steps and the last witness it obtained.
Outcome = tuple[list[Step], Channel | None]


def overall_status(steps: Sequence[Step]) -> feasibility.Status:
    """Feasible when every step is, not feasible when any step is, else
    inconclusive."""
    if all(s.status is feasibility.Status.FEASIBLE for s in steps):
        return feasibility.Status.FEASIBLE
    if any(s.status is feasibility.Status.NOT_FEASIBLE_AT_TOLERANCE for s in steps):
        return feasibility.Status.NOT_FEASIBLE_AT_TOLERANCE
    return feasibility.Status.INCONCLUSIVE


def _exact(name: str, residual: float, below: float, iterations: int | None = None) -> Step:
    ok = residual < below
    status = feasibility.Status.FEASIBLE if ok else feasibility.Status.NOT_FEASIBLE_AT_TOLERANCE
    return Step(name, status, residual, iterations=iterations)


def _solved(
    name: str, report: analysis.CompatReport | analysis.DivReport | analysis.DegradabilityReport
) -> Step:
    """Step decided by the solver verdict of a check."""
    solver = report.solver
    return Step(name, report.status, report.residual, solver.stop_reason, solver.iterations)


def power_family(psi: Channel, length: int) -> list[Channel]:
    """The process family psi, psi o psi, ... of the given length."""
    family = [psi]
    for _ in range(length - 1):
        family.append(ch.compose_choi(family[-1], psi))
    return family


def thm1(rng: np.random.Generator, trials: int, config: SolverConfig) -> Outcome:
    """Theorem 1, both directions: the joint built from a post-processing of
    the complementary channel has the right marginals (``reverse``), and the
    post-processing recovered from a solved compatibilizer reproduces them
    (``forward``)."""
    steps = []
    witness = None
    for t in range(trials):
        kraus = ch.random_kraus(2, 2, 2, rng)
        psi = ch.choi_from_kraus(kraus)
        theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=2 * kraus.dim_env)
        comp = analysis.compatibilizer_from_postprocessing(kraus, theta)
        phi = ch.compose_choi(ch.complementary(kraus), theta)
        residual = max(analysis.marginal_distances(comp, psi, phi))
        steps.append(_exact(f"reverse-{t}", residual, ch.EPS_VALID))
        compat = analysis.check_compatibility(psi, phi, config)
        if compat.status is not feasibility.Status.FEASIBLE:
            steps.append(_solved(f"forward-{t}", compat))
            continue
        _, _, residual = analysis.postprocessing_from_compatibilizer(compat.compatibilizer, 2, 2)
        iterations = compat.solver.iterations
        steps.append(_exact(f"forward-{t}", residual, analysis.WITNESS_TOL, iterations))
        witness = compat.compatibilizer
    return steps, witness


def thm2i(rng: np.random.Generator, trials: int, config: SolverConfig) -> Outcome:
    """Theorem 2(i): a degradable psi divides every phi compatible with it,
    and the degrading map builds the quotient."""
    steps = []
    witness = None
    for t in range(trials):
        kraus = analysis.sample_degradable_kraus(rng)
        psi = ch.choi_from_kraus(kraus)
        psi_c = ch.complementary(kraus)
        deg = analysis.check_degradable(psi, kraus, config)
        steps.append(_solved(f"degradable-{t}", deg))
        if deg.status is not feasibility.Status.FEASIBLE:
            continue
        theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=2 * kraus.dim_env)
        phi = ch.compose_choi(psi_c, theta)
        div = analysis.check_divisibility(psi, phi, config)
        steps.append(_solved(f"divisible-{t}", div))
        quotient = analysis.quotient_via_degradability(psi, psi_c, deg.degrading, theta)
        residual = ch.choi_distance(ch.compose_choi(psi, quotient), phi)
        steps.append(_exact(f"quotient-{t}", residual, analysis.WITNESS_TOL))
        witness = div.quotient or quotient
    return steps, witness


def thm2ii(rng: np.random.Generator, trials: int, config: SolverConfig) -> Outcome:
    """Theorem 2(ii): an anti-degradable psi is compatible with every phi it
    divides, and the anti-degrading map builds the compatibilizer."""
    steps = []
    witness = None
    for t in range(trials):
        kraus = analysis.sample_antidegradable_kraus(rng)
        psi = ch.choi_from_kraus(kraus)
        anti = analysis.check_antidegradable(psi, kraus, config)
        steps.append(_solved(f"antidegradable-{t}", anti))
        if anti.status is not feasibility.Status.FEASIBLE:
            continue
        theta_cb = ch.random_channel(2, 2, rng, dim_env=4)
        phi = ch.compose_choi(psi, theta_cb)
        compat = analysis.check_compatibility(psi, phi, config)
        steps.append(_solved(f"compatible-{t}", compat))
        built = analysis.compatibilizer_via_antidegradability(kraus, anti.degrading, theta_cb)
        residual = max(analysis.marginal_distances(built, psi, phi))
        steps.append(_exact(f"construction-{t}", residual, analysis.WITNESS_TOL))
        witness = compat.compatibilizer or built
    return steps, witness


def corollary(
    kraus: KrausSet, rng: np.random.Generator, trials: int, config: SolverConfig
) -> Outcome:
    """Corollary: for a self-degradable channel, post-processings of it are
    both compatible with it and divided by it."""
    psi = ch.choi_from_kraus(kraus)
    steps = []
    witness = None
    for t in range(trials):
        theta = ch.random_channel(2, 2, rng, dim_env=4)
        phi = ch.compose_choi(psi, theta)
        compat = analysis.check_compatibility(psi, phi, config)
        div = analysis.check_divisibility(psi, phi, config)
        steps.append(_solved(f"compatible-{t}", compat))
        steps.append(_solved(f"divisible-{t}", div))
        witness = compat.compatibilizer or witness
    return steps, witness


def prop1(rng: np.random.Generator, trials: int, config: SolverConfig) -> Outcome:
    """Proposition 1: when phi is both divided by and compatible with psi,
    the quotient composed with the recovered post-processing is an
    anti-degrading map of phi's enlarged complementary channel."""
    steps = []
    witness = None
    for t in range(trials):
        kraus = ch.self_complementary_qubit(
            1, float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))
        )
        psi = ch.choi_from_kraus(kraus)
        theta0 = ch.random_channel(2, 2, rng, dim_env=4)
        phi = ch.compose_choi(psi, theta0)
        div = analysis.check_divisibility(psi, phi, config)
        compat = analysis.check_compatibility(psi, phi, config)
        iterations = div.solver.iterations + compat.solver.iterations
        feasible = feasibility.Status.FEASIBLE
        if div.status is not feasible or compat.status is not feasible:
            status = feasibility.Status.INCONCLUSIVE
            steps.append(Step(f"instance-{t}", status, iterations=iterations))
            continue
        swapped = ch.swap_output(compat.compatibilizer, 2, 2)
        phi_c, theta_be, _ = analysis.postprocessing_from_compatibilizer(swapped, 2, 2)
        anti = analysis.antidegrading_map_from_compat_and_div(div.quotient, theta_be)
        residual = ch.choi_distance(ch.compose_choi(phi_c, anti), phi)
        steps.append(_exact(f"antidegrading-{t}", residual, analysis.WITNESS_TOL, iterations))
        witness = anti
    return steps, witness


def nocatalysis(rng: np.random.Generator, trials: int, config: SolverConfig) -> Outcome:
    """No catalysis: a compatibilizer of a pair tensored with an ancilla
    channel reduces to one of the bare pair."""
    steps = []
    witness = None
    for t in range(trials):
        kraus = ch.random_kraus(2, 2, 2, rng)
        psi = ch.choi_from_kraus(kraus)
        theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=2 * kraus.dim_env)
        phi = ch.compose_choi(ch.complementary(kraus), theta)
        # The ancilla must itself admit a self-compatibilizer for the
        # tensored pair to stand a chance; measure-and-prepare channels do.
        chi = ch.choi_from_kraus(ch.random_measure_prepare(2, rng))
        report = analysis.verify_no_catalysis(psi, phi, chi, config)
        if report.reduced is None:
            steps.append(_solved(f"instance-{t}", report.tensored))
            continue
        iterations = report.tensored.solver.iterations
        steps.append(_exact(f"reduction-{t}", report.residual, ch.EPS_EQ, iterations))
        witness = report.reduced
    return steps, witness


def family(channels: Sequence[Channel], config: SolverConfig) -> Outcome:
    """Step-wise divisibility of a process family; the witness is the last
    quotient found."""
    reports = analysis.check_family_divisibility(channels, config)
    steps = [_solved(f"step-{k}", r) for k, r in enumerate(reports)]
    witness = next((r.quotient for r in reversed(reports) if r.quotient is not None), None)
    return steps, witness
