"""Farkas certificates of infeasibility: soundness on feasible instances,
certification of the known infeasible kinds, and invariance under local
unitaries. Feasible instances near the PSD cone boundary never get a
not-feasible verdict."""

import numpy as np
import pytest

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat.channels import Channel, KrausSet
from chancompat.feasibility import SolverConfig, Status, certificate_bound
from chancompat.linalg import project_psd, vectorize_hermitian

CONFIG = SolverConfig()


def thm1_pair(rng, d, env):
    kraus = ch.random_kraus(d, d, env, rng)
    theta = ch.random_channel(env, d, rng, dim_env=2 * env)
    return ch.choi_from_kraus(kraus), ch.compose_choi(ch.complementary(kraus), theta)


def noisy(c: Channel, eps: float) -> Channel:
    noise = ch.constant_channel(np.eye(c.dim_out) / c.dim_out, c.dim_in)
    return Channel(c.dim_in, c.dim_out, (1 - eps) * c.choi + eps * noise.choi)


def feasible_reports():
    rng = np.random.default_rng(2024)
    reports = []
    for d, env in ((2, 2), (2, 2), (2, 4), (3, 3)):
        reports.append(an.check_compatibility(*thm1_pair(rng, d, env), CONFIG))
    for d in (2, 2, 3):
        psi = ch.random_channel(d, d, rng, dim_env=2)
        phi = ch.compose_choi(psi, ch.random_channel(d, d, rng, dim_env=d))
        reports.append(an.check_divisibility(psi, phi, CONFIG))
    psi, phi = thm1_pair(rng, 2, 2)
    reports.append(an.check_compatibility(noisy(psi, 0.01), noisy(phi, 0.01), CONFIG))
    return reports


def test_feasible_instances_are_never_certified():
    rng = np.random.default_rng(7)
    iterated = 0
    for rep in feasible_reports():
        solver = rep.solver
        assert rep.status is Status.FEASIBLE
        assert solver.stop_reason == "tolerance" and solver.certificate is None
        iterated += solver.iterations > 1
        # Multipliers built the solver's way from the residual of arbitrary
        # PSD points bound the residual of every PSD X, the solution included.
        cons = solver.constraints
        for _ in range(5):
            g = rng.standard_normal((cons.dim, cons.dim)) + 1j * rng.standard_normal(
                (cons.dim, cons.dim)
            )
            y = project_psd(0.5 * (g + g.conj().T))
            r = cons.matrix @ vectorize_hermitian(y) - cons.rhs
            lam = cons.pinv.T @ (cons.pinv @ r)
            assert certificate_bound(cons, lam) <= solver.residual_affine + 1e-12
    # The batch includes solves that attempted a certificate and went on.
    assert iterated >= 2


def seed_defect_kinds():
    rng = np.random.default_rng(11)
    kinds = []
    for gamma in rng.uniform(0.05, 0.2, size=3):
        kinds.append(("anti-degradable", ch.amplitude_damping(float(gamma))))
    for gamma in rng.uniform(0.7, 0.95, size=3):
        kinds.append(("degradable", ch.amplitude_damping(float(gamma))))
    for _ in range(3):
        kinds.append(("div-id", ch.kraus_from_choi(ch.random_channel(2, 2, rng))))
    return kinds


def check(kind: str, kraus: KrausSet):
    psi = ch.choi_from_kraus(kraus)
    if kind == "anti-degradable":
        return an.check_antidegradable(psi, kraus, CONFIG).solver
    if kind == "degradable":
        return an.check_degradable(psi, kraus, CONFIG).solver
    return an.check_divisibility(psi, ch.identity(kraus.dim_out), CONFIG).solver


@pytest.mark.parametrize("kind,kraus", seed_defect_kinds())
def test_known_infeasible_kinds_are_certified_at_first_iteration(kind, kraus):
    rep = check(kind, kraus)
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.stop_reason == "certificate" and rep.iterations == 1
    bound = certificate_bound(rep.constraints, rep.certificate)
    assert bound >= 10 * CONFIG.eps_feas
    assert bound <= rep.residual_affine + 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_identity_self_compatibility_is_certified(d):
    # No-cloning: the forced support of the pair is zero-dimensional, so the
    # solver runs on a system with no coordinates and the bound is the norm
    # of the two stacked Choi targets, sqrt(2) * d.
    rep = an.check_compatibility(ch.identity(d), ch.identity(d), CONFIG).solver
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.stop_reason == "certificate" and rep.iterations == 1
    assert rep.constraints.dim == 0
    bound = certificate_bound(rep.constraints, rep.certificate)
    assert abs(bound - np.sqrt(2.0) * d) <= 1e-12


def test_certified_verdict_survives_local_unitaries():
    rng = np.random.default_rng(5)
    for kind, kraus in seed_defect_kinds():
        u_in, u_out = ch.random_unitary(2, rng), ch.random_unitary(2, rng)
        dressed = KrausSet(2, 2, tuple(u_out @ op @ u_in for op in kraus.operators))
        for rep in (check(kind, kraus), check(kind, dressed)):
            assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
            assert rep.stop_reason == "certificate" and rep.iterations == 1


def joint_reverifies(joint, psi: Channel, phi: Channel, tol: float = 1e-6) -> bool:
    """CPTP with marginals psi and phi, from channel arithmetic alone."""
    cp, tp = ch.cptp_defects(joint)
    dims = (psi.dim_out, phi.dim_out)
    return (
        cp <= 1e-8
        and tp <= tol
        and ch.choi_distance(ch.output_marginal(joint, dims, (0,)), psi) <= tol
        and ch.choi_distance(ch.output_marginal(joint, dims, (1,)), phi) <= tol
    )


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_noisy_pairs_are_never_declared_not_feasible(eps):
    # Compatible by construction. The best residual of Douglas-Rachford can
    # stay flat for thousands of iterations before it falls again, so a
    # plateau here must end inconclusive, not infeasible.
    rng = np.random.default_rng(31)
    for _ in range(2):
        psi, phi = (noisy(c, eps) for c in thm1_pair(rng, 2, 2))
        rep = an.check_compatibility(psi, phi, CONFIG)
        assert rep.status is not Status.NOT_FEASIBLE_AT_TOLERANCE
        assert rep.solver.certificate is None
        if rep.status is Status.FEASIBLE:
            assert joint_reverifies(rep.compatibilizer, psi, phi)
        else:
            assert rep.solver.stop_reason == "plateau"


@pytest.mark.parametrize("d,env", [(2, 4), (3, 9)])
def test_full_rank_pairs_are_feasible_with_reverified_witness(d, env):
    rng = np.random.default_rng(17)
    for _ in range(3):
        psi, phi = thm1_pair(rng, d, env)
        rep = an.check_compatibility(psi, phi, CONFIG)
        assert rep.status is Status.FEASIBLE
        assert joint_reverifies(rep.compatibilizer, psi, phi)
        # Multipliers built the solver's way, range and null-space parts, from
        # the residual of an arbitrary PSD point never bound above the
        # solution's residual.
        cons = rep.solver.constraints
        n = cons.dim
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = cons.matrix @ vectorize_hermitian(project_psd(0.5 * (g + g.conj().T))) - cons.rhs
        h = cons.pinv @ r
        lam = cons.pinv.T @ h + (r - cons.matrix @ h)
        assert certificate_bound(cons, lam) <= rep.solver.residual_affine + 1e-12
