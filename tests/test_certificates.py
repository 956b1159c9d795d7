"""Farkas certificates of infeasibility: soundness on feasible instances,
certification of the known infeasible kinds, invariance under local
unitaries and under swapping the pair, and the depolarizing cloning
threshold. Feasible instances near the PSD cone boundary never get a
not-feasible verdict."""

import numpy as np
import pytest
from dense_oracle import div_oracle, marginal_oracle

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat.channels import Channel, KrausSet
from chancompat.feasibility import (
    CompositionConstraintSet,
    SolverConfig,
    Status,
    certificate_bound,
    solve,
)
from chancompat.linalg import project_psd

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
            lam = cons.residual_multipliers(y)
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
    # No-cloning. The identity's Choi operator has rank 1, so the check runs
    # through Theorem 1: the complementary channel is the trace, and no
    # channel after it gives back the identity. The certificate is stated on
    # that quotient system, whose dense oracle gives the same bound, and
    # solves the same way.
    ident = ch.identity(d)
    rep = an.check_compatibility(ident, ident, CONFIG).solver
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.stop_reason == "certificate" and rep.iterations == 1
    assert isinstance(rep.constraints, CompositionConstraintSet)
    bound = certificate_bound(rep.constraints, rep.certificate)
    assert bound >= 10 * CONFIG.eps_feas
    dense = div_oracle(ch.complementary(ch.kraus_from_choi(ident)), ident)
    assert abs(bound - certificate_bound(dense, rep.certificate)) <= 1e-12
    oracle = solve(dense, CONFIG)
    assert (oracle.stop_reason, oracle.iterations) == ("certificate", 1)
    assert abs(bound - certificate_bound(dense, oracle.certificate)) <= 1e-12


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
        lam = cons.residual_multipliers(project_psd(0.5 * (g + g.conj().T)))
        assert certificate_bound(cons, lam) <= rep.solver.residual_affine + 1e-12


def depolarizing(d: int, eta: float) -> Channel:
    """rho -> eta rho + (1 - eta) Tr(rho) I / d."""
    return Channel(d, d, eta * ch.identity(d).choi + (1 - eta) * ch.completely_depolarizing(d).choi)


@pytest.mark.parametrize("d", [2, 3])
def test_depolarizing_self_compatibility_brackets_cloning_threshold(d):
    # Optimal universal 1 -> 2 cloning: the depolarizing channel is
    # compatible with itself exactly when eta <= (d + 2) / (2 (d + 1)).
    threshold = (d + 2) / (2 * (d + 1))
    above = depolarizing(d, threshold + 1e-3)
    rep = an.check_compatibility(above, above, CONFIG).solver
    assert isinstance(rep.constraints, CompositionConstraintSet)
    assert rep.constraints.dims == (d, d * d, d)  # the joint, under its marginals
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.stop_reason == "certificate" and rep.iterations == 1
    bound = certificate_bound(rep.constraints, rep.certificate)
    assert bound >= 10 * CONFIG.eps_feas
    dense = marginal_oracle(above, above)
    assert abs(bound - certificate_bound(dense, rep.certificate)) <= 1e-12
    oracle = solve(dense, CONFIG)
    assert (oracle.stop_reason, oracle.iterations) == ("certificate", 1)
    assert abs(bound - certificate_bound(dense, oracle.certificate)) <= 1e-12

    below = depolarizing(d, threshold - 1e-3)
    rep = an.check_compatibility(below, below, CONFIG)
    assert rep.status is Status.FEASIBLE
    assert joint_reverifies(rep.compatibilizer, below, below)


def swap_pairs():
    rng = np.random.default_rng(41)
    psi, phi = thm1_pair(rng, 2, 2)
    pairs = [pytest.param(noisy(psi, 0.01), noisy(phi, 0.01), id="noisy-d2-env2")]
    pairs.append(pytest.param(*thm1_pair(rng, 2, 4), id="thm1-d2-env4"))
    compatible = depolarizing(2, 0.8), depolarizing(2, 0.4)
    pairs.append(pytest.param(*compatible, id="depolarizing-compatible"))
    incompatible = depolarizing(3, 0.8), depolarizing(3, 0.5)
    pairs.append(pytest.param(*incompatible, id="depolarizing-incompatible"))
    # Rank-deficient psi: the check goes through psi_c in this order and
    # through the second channel's complementary in the other.
    psi, phi = thm1_pair(rng, 2, 2)
    pairs.append(pytest.param(psi, phi, id="thm1-d2-env2"))
    pairs.append(pytest.param(phi, psi, id="thm1-d2-env2-reversed"))
    return pairs


@pytest.mark.parametrize("psi, phi", swap_pairs())
def test_swapping_the_pair_keeps_the_verdict(psi, phi):
    rep = an.check_compatibility(psi, phi, CONFIG)
    swapped = an.check_compatibility(phi, psi, CONFIG)
    assert swapped.status is rep.status
    assert swapped.solver.stop_reason == rep.solver.stop_reason
    if swapped.status is Status.FEASIBLE:
        joint = ch.swap_output(swapped.compatibilizer, phi.dim_out, psi.dim_out)
        assert joint_reverifies(joint, psi, phi)


def test_side_216_rank_deficient_pair_is_feasible():
    # A Theorem-1 qubit pair tensored with the qutrit depolarizing channel at
    # eta = 0.5, which is compatible with itself: A, B and C have dimension
    # 6, so the joint's Choi operator has side 216. psi has Choi rank 18 of
    # 36, and the quotient's side is 108.
    rng = np.random.default_rng(216)
    psi, phi = thm1_pair(rng, 2, 2)
    noise = depolarizing(3, 0.5)
    big_psi, big_phi = ch.tensor(psi, noise), ch.tensor(phi, noise)
    rep = an.check_compatibility(big_psi, big_phi, CONFIG)
    assert rep.status is Status.FEASIBLE
    assert rep.solver.constraints.dims == (6, 18, 6)
    assert joint_reverifies(rep.compatibilizer, big_psi, big_phi)
