"""Farkas certificates of infeasibility: soundness on feasible instances,
certification of the known infeasible kinds, invariance under local
unitaries and under swapping the pair, and the depolarizing cloning
threshold, decided within 1e-6 of it. The safeguard of the accelerated solve
ends the acceleration at a rejected point, at the cost of one projection.
Feasible instances near the PSD cone boundary never get a
not-feasible verdict, and the positive-definite affine point that ends the
noisy and near-threshold solves is the solution, while inconsistent rows
never accept it. The bound that stops a solve, taken on the set's row
blocks, is the one that the report's dense multipliers re-check to, and an
attempt skipped before its eigensolve could not have certified."""

import math
import warnings

import numpy as np
import pytest
from dense_oracle import AffineConstraintSet, div_oracle, marginal_oracle
from paths import INSTANCES, depolarizing, noisy, thm1_pair

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat import feasibility as fz
from chancompat.channels import Channel, KrausSet
from chancompat.feasibility import (
    CompositionConstraintSet,
    SolverConfig,
    Status,
    certificate_bound,
    solve,
)
from chancompat.linalg import project_psd, skew, vectorize_hermitian

CONFIG = SolverConfig()


def spy(monkeypatch, owner, name):
    """Every later call of ``owner.name``, as ``(args, result)``; the calls
    still run. The tests read costs from it: calls per iteration, and what
    each call was given or returned."""
    calls, original = [], getattr(owner, name)

    def record(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, record)
    return calls


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
    # Solves that attempt a certificate at iteration 1 and go on.
    for d in (2, 3):
        reports.append(INSTANCES[f"dep-compat-d{d}-below-1e-2"].run())
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
            lam = cons.join(cons.residual_multipliers(cons.residual_rows(y)))
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
    instance = INSTANCES[f"identity-compat-d{d}"]
    ident = instance.channels[0]
    rep = instance.run().solver
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
        lam = cons.residual_multipliers(cons.residual_rows(project_psd(0.5 * (g + g.conj().T))))
        assert certificate_bound(cons, cons.join(lam)) <= rep.solver.residual_affine + 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_depolarizing_self_compatibility_brackets_cloning_threshold(d):
    # Optimal universal 1 -> 2 cloning: the depolarizing channel is
    # compatible with itself exactly when eta <= (d + 2) / (2 (d + 1)).
    instance = INSTANCES[f"dep-compat-d{d}-above-1e-3"]
    above = instance.channels[0]
    rep = instance.run().solver
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

    instance = INSTANCES[f"dep-compat-d{d}-below-1e-3"]
    below = instance.channels[0]
    rep = instance.run()
    assert rep.status is Status.FEASIBLE
    assert joint_reverifies(rep.compatibilizer, below, below)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_depolarizing_self_compatibility_decided_within_1e6_of_cloning_threshold(d):
    # Plain Douglas-Rachford plateaus at 2 000 iterations below the
    # threshold from eta* - 1e-4 on; the accelerated solve is feasible in 4.
    instance = INSTANCES[f"dep-compat-d{d}-below-1e-6"]
    below = instance.channels[0]
    rep = instance.run()
    assert rep.status is Status.FEASIBLE and rep.solver.iterations <= 4
    assert joint_reverifies(rep.compatibilizer, below, below)

    instance = INSTANCES[f"dep-compat-d{d}-above-1e-6"]
    above = instance.channels[0]
    rep = instance.run().solver
    assert rep.stop_reason == "certificate" and rep.iterations == 1
    bound = certificate_bound(marginal_oracle(above, above), rep.certificate)
    assert bound >= 10 * CONFIG.eps_feas


def test_rejected_extrapolation_ends_acceleration():
    # A noisy qutrit Theorem-1 pair (psi unitary, phi a constant channel):
    # the safeguard rejects one extrapolated point, and the solve ends
    # feasible after 18 iterations. Acceleration that stays on after the
    # rejection needs 28; plain Douglas-Rachford needs 45.
    instance = INSTANCES["noisy-thm1-d3-env1-5.7e-3"]
    psi, phi = instance.channels
    rep = instance.run()
    assert rep.solver.rejections == 1
    assert rep.status is Status.FEASIBLE and rep.solver.iterations <= 20
    cp, tp = ch.cptp_defects(rep.compatibilizer)
    assert cp <= 1e-8 and tp <= 1e-6
    assert joint_reverifies(rep.compatibilizer, psi, phi)


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


def certified_pool():
    """Seeded certified solves, each with the dense oracle of its system:
    amplitude damping on the wrong side of gamma = 1/2, identity
    self-compatibility, dressed amplitude damping against the identity,
    example-2 divisibility and ``Tr X = -1``."""
    rng = np.random.default_rng(59)
    pool = []
    for gamma in rng.uniform(0.55, 0.9, size=2):
        kraus = ch.amplitude_damping(float(gamma))
        psi, psi_c = ch.choi_from_kraus(kraus), ch.complementary(kraus)
        solve_it = lambda psi=psi, kraus=kraus: an.check_degradable(psi, kraus, CONFIG).solver
        pool.append(pytest.param(solve_it, div_oracle(psi, psi_c), id=f"degradable-{gamma:.2f}"))
    for gamma in rng.uniform(0.1, 0.45, size=2):
        kraus = ch.amplitude_damping(float(gamma))
        psi, psi_c = ch.choi_from_kraus(kraus), ch.complementary(kraus)
        solve_it = lambda psi=psi, kraus=kraus: an.check_antidegradable(psi, kraus, CONFIG).solver
        pool.append(pytest.param(solve_it, div_oracle(psi_c, psi), id=f"anti-{gamma:.2f}"))
    for d in (2, 3):
        instance = INSTANCES[f"identity-compat-d{d}"]
        ident = instance.channels[0]
        oracle = div_oracle(ch.complementary(ch.kraus_from_choi(ident)), ident)
        solve_it = lambda instance=instance: instance.run().solver
        pool.append(pytest.param(solve_it, oracle, id=f"identity-self-d{d}"))
    for gamma in rng.uniform(0.2, 0.5, size=2):
        u_in, u_out = ch.random_unitary(2, rng), ch.random_unitary(2, rng)
        ops = ch.amplitude_damping(float(gamma)).operators
        psi = ch.choi_from_kraus(KrausSet(2, 2, tuple(u_out @ op @ u_in for op in ops)))
        solve_it = lambda psi=psi: an.check_divisibility(psi, ch.identity(2), CONFIG).solver
        oracle = div_oracle(psi, ch.identity(2))
        pool.append(pytest.param(solve_it, oracle, id=f"div-dressed-ad-{gamma:.2f}-id"))
    instance = INSTANCES["example2-div"]
    solve_it = lambda: instance.run().solver
    pool.append(pytest.param(solve_it, div_oracle(*instance.channels), id="example2-div"))
    negative = AffineConstraintSet(2, vectorize_hermitian(np.eye(2))[None], np.array([-1.0]))
    pool.append(pytest.param(lambda: solve(negative, CONFIG), negative, id="trace-minus-one"))
    return pool


@pytest.mark.parametrize("solve_it, oracle", certified_pool())
def test_stopping_bound_is_the_recheck_bound(solve_it, oracle, monkeypatch):
    attempts = spy(monkeypatch, fz, "_bound")
    rep = solve_it()
    assert rep.stop_reason == "certificate"
    (_, _, floor), stopped = attempts[-1]
    assert floor == 10 * CONFIG.eps_feas <= stopped
    monkeypatch.undo()
    recheck = certificate_bound(rep.constraints, rep.certificate)
    assert abs(stopped - recheck) <= 1e-12 * stopped
    assert abs(stopped - certificate_bound(oracle, rep.certificate)) <= 1e-12


@pytest.mark.parametrize("solve_it, oracle", certified_pool())
def test_certified_solve_vectorizes_only_the_kept_multipliers(solve_it, oracle, monkeypatch):
    calls = spy(monkeypatch, fz, "vectorize_hermitian")
    rep = solve_it()
    shapes = [np.shape(x) for (x,), _ in calls]
    if isinstance(rep.constraints, CompositionConstraintSet):
        b = rep.constraints.dims[1]
        # One gather per row block of the certificate, and nothing else.
        assert len(shapes) == 2 and shapes[0] == (b, b)
        assert sum(int(np.prod(shape)) for shape in shapes) == rep.certificate.size
    else:
        assert shapes == []


def test_residual_rows_run_once_per_iteration(monkeypatch):
    # The report's affine residual is the loop's own measurement of the
    # candidate, not a second one after the loop: the rows of every PSD
    # iterate once, and of an accepted affine point once more.
    rows = CompositionConstraintSet.residual_rows
    calls = spy(monkeypatch, CompositionConstraintSet, "residual_rows")
    for name, status in (
        ("dep-compat-d2-below-1e-3", Status.FEASIBLE),
        ("dep-compat-d2-above-1e-3", Status.NOT_FEASIBLE_AT_TOLERANCE),
    ):
        calls.clear()
        rep = INSTANCES[name].run().solver
        assert rep.status is status
        assert len(calls) == rep.iterations + (rep.candidate == "affine")
        if status is Status.FEASIBLE:
            assert rep.iterations > 1
            r = rows(rep.constraints, rep.solution)
            assert rep.residual_affine == math.sqrt(fz._dot(r, r))


@pytest.mark.parametrize("d", [2, 3])
def test_one_projection_per_iteration_when_the_safeguard_fires(d, monkeypatch):
    # A rejected extrapolated point costs one iteration, its own
    # projection; the step back to its base's plain step costs none. Just
    # above eta* no affine point ends the solve: the safeguard rejects the
    # point evaluated at iteration 17 (d = 2) or 23 (d = 3), and the plateau
    # ends the solve.
    projections = spy(monkeypatch, fz, "project_psd")
    rep = INSTANCES[f"dep-antidegradable-d{d}-above-1e-7"].run().solver
    assert rep.status is Status.INCONCLUSIVE and rep.stop_reason == "plateau"
    assert rep.rejections == 1
    assert len(projections) == rep.iterations


@pytest.mark.parametrize(
    "name",
    ["noisy-thm1-d2-env2-1e-4", "full-rank-thm1-d2-env4", "dep-antidegradable-d3-below-1e-4"],
    ids=["noisy-1e-4", "full-rank-d2", "antidegradable-d3"],
)
def test_a_solve_that_stops_on_the_affine_point_returns_it(name, monkeypatch):
    # The affine point P_aff(2Y - Z) satisfies the rows to rounding; it ends
    # the solve when it has a Cholesky factor and its own rows' residual is
    # below eps_feas. It is then the solution, exactly Hermitian, and its
    # residuals are its own.
    measured = spy(monkeypatch, CompositionConstraintSet, "residual_rows")
    projected = spy(monkeypatch, fz, "project_psd")
    rep = INSTANCES[name].run().solver
    x = rep.solution
    assert rep.status is Status.FEASIBLE and rep.stop_reason == "tolerance"
    assert rep.candidate == "affine" and rep.iterations > 1
    # Every PSD iterate's rows once, then the accepted point's, and one
    # projection per iteration.
    (_, last), _ = measured[-1]
    assert len(measured) == rep.iterations + 1 and x is last
    assert len(projected) == rep.iterations
    assert not any(x is y for _, y in projected)
    assert skew(x) == 0.0
    np.linalg.cholesky(x)
    assert rep.residual_psd == 0.0
    r = rep.constraints.residual_rows(x)
    assert rep.residual_affine == math.sqrt(fz._dot(r, r)) < CONFIG.eps_feas


def test_inconsistent_rows_never_accept_the_affine_point(monkeypatch):
    # Example 2's divisibility rows are inconsistent, so the affine point is
    # only a least-squares point, with residual sqrt(6). It is certified at
    # iteration 1, before the affine point is formed.
    instance = INSTANCES["example2-div"]
    rep = instance.run().solver
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert (rep.stop_reason, rep.iterations) == ("certificate", 1)
    # With certificates off, the affine point is positive definite at every
    # iteration, and its rows still refuse it to the iteration cap.
    monkeypatch.setattr(fz, "_bound", lambda *args: 0.0)
    factored = spy(monkeypatch, fz, "_positive_definite")
    rep = an.check_divisibility(*instance.channels, SolverConfig(max_iter=50)).solver
    assert rep.status is Status.INCONCLUSIVE and rep.stop_reason == "iteration-cap"
    assert rep.solution is None and rep.residual_affine >= 1.0
    assert [result for _, result in factored] == [True] * 50


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("eps", [1e-6, 1e-4])
def test_noisy_theorem_1_pairs_are_feasible(eps, seed):
    # The noisy pairs of the benchmark's seed-defects probe (rng [seed,
    # round]): the PSD iterate's residual stalls near 0.87 eps, so a solve
    # that tested it alone ended them inconclusive on the plateau.
    for r in range(4):
        psi, phi = (noisy(c, eps) for c in thm1_pair(np.random.default_rng([seed, r]), 2, 2))
        rep = an.check_compatibility(psi, phi, CONFIG)
        assert rep.status is Status.FEASIBLE and rep.solver.iterations < 2000
        cp, tp = ch.cptp_defects(rep.compatibilizer)
        assert cp <= 1e-8 and tp <= 1e-6
        assert max(an.marginal_distances(rep.compatibilizer, psi, phi)) <= 1e-6


@pytest.mark.parametrize("seed, index", [(107, 5), (110, 5), (116, 4)])
def test_nearly_singular_full_rank_pairs_are_feasible(seed, index):
    # Random d = 3 / env = 9 Theorem-1 pairs whose psi has lambda_min between
    # 2e-6 and 5e-5: the PSD iterate's residual stalls, and a solve that
    # tested it alone ended them on the plateau.
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        psi, phi = thm1_pair(rng, 3, 9)
    rep = an.check_compatibility(psi, phi, CONFIG)
    assert rep.status is Status.FEASIBLE and rep.solver.iterations < 1000
    assert joint_reverifies(rep.compatibilizer, psi, phi)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("delta", ["1e-4", "1e-6"], ids=["0.0001", "1e-06"])
def test_depolarizing_antidegradable_just_below_threshold(d, delta):
    # Anti-degradability on the minimal dilation, which took 1 375 iterations
    # (d = 2, delta = 1e-4) or plateaued before the affine point could stop
    # the solve.
    instance = INSTANCES[f"dep-antidegradable-d{d}-below-{delta}"]
    psi = instance.channels[0]
    kraus = ch.kraus_from_choi(psi)
    rep = instance.run()
    assert rep.status is Status.FEASIBLE and rep.solver.iterations < 100
    cp, tp = ch.cptp_defects(rep.degrading)
    assert cp <= 1e-8 and tp <= 1e-6
    assert ch.choi_distance(ch.compose_choi(ch.complementary(kraus), rep.degrading), psi) <= 1e-6


@pytest.mark.parametrize("d", [2, 3])
def test_affine_stop_is_sound_just_above_threshold(d):
    # At eta* + 1e-7 no bound reaches 10 * eps_feas, so the solves run on
    # past iteration 1 (eta* + 1e-6 is certified there, see above); neither
    # self-compatibility nor anti-degradability ends feasible.
    near = depolarizing(d, (d + 2) / (2 * (d + 1)) + 1e-7)
    for rep in (
        an.check_compatibility(near, near, CONFIG),
        an.check_antidegradable(near, ch.kraus_from_choi(near), CONFIG),
    ):
        assert rep.status is not Status.FEASIBLE and rep.solver.solution is None


def test_failed_attempts_do_not_vectorize(monkeypatch):
    # Depolarizing self-compatibility just below the cloning threshold: the
    # attempt at iteration 1 fails and the solve goes on to a feasible end.
    attempts = spy(monkeypatch, fz, "_bound")
    calls = spy(monkeypatch, fz, "vectorize_hermitian")
    rep = INSTANCES["dep-compat-d2-below-1e-3"].run()
    assert rep.status is Status.FEASIBLE and rep.solver.iterations > 1
    assert attempts and all(value < floor for (_, _, floor), value in attempts)
    assert calls == []


def test_skip_never_fires_when_b_tau_is_negative(monkeypatch):
    # Tr X = -1, and a composition system whose first target is -I_B: both
    # fix a negative trace, so b . tau < 0 and every attempt takes the
    # eigensolve, however far below the floor its cap is.
    rng = np.random.default_rng(3)
    psi = ch.random_channel(2, 2, rng, dim_env=2)
    phi = ch.compose_choi(psi, ch.random_channel(2, 2, rng))
    sets = [
        AffineConstraintSet(2, vectorize_hermitian(np.eye(2))[None], np.array([-1.0])),
        CompositionConstraintSet((2, 2, 2), psi.choi, phi.choi, first=-np.eye(2)),
    ]
    for cons in sets:
        assert cons.trace_scalars[0] < 0
        calls = spy(monkeypatch, type(cons), "adjoint")
        for _ in range(5):
            g = rng.standard_normal((cons.dim,) * 2) + 1j * rng.standard_normal((cons.dim,) * 2)
            lam = cons.residual_multipliers(cons.residual_rows(project_psd(g + g.conj().T)))
            lam = tuple(-x for x in lam)  # b . lam > 0: the cap is negative
            before = len(calls)
            fz._bound(cons, lam, 1.0)
            assert len(calls) == before + 1
        rep = solve(cons, CONFIG)
        assert rep.stop_reason == "certificate" and len(calls) == 5 + rep.iterations


@pytest.mark.parametrize("solve_it, oracle", certified_pool())
def test_skip_never_skips_an_attempt_that_certifies(solve_it, oracle, monkeypatch):
    # Multipliers from the residuals of random PSD points and of the solve's
    # own certificate, at floors on both sides of their full bound: a floored
    # bound is the full one whenever that reaches the floor, and otherwise
    # either the full one or the 0.0 of a skipped attempt.
    rep = solve_it()
    cons = rep.constraints
    rng = np.random.default_rng(17)
    lams = [cons.split(rep.certificate)]
    for _ in range(6):
        g = rng.standard_normal((cons.dim,) * 2) + 1j * rng.standard_normal((cons.dim,) * 2)
        lams.append(cons.residual_multipliers(cons.residual_rows(project_psd(g + g.conj().T))))
    calls = spy(monkeypatch, type(cons), "adjoint")
    skipped = 0
    for lam in lams:
        full = fz._bound(cons, lam, 0.0)
        floors = [10 * CONFIG.eps_feas, 0.5 * full, full, 2 * full + 1.0]
        floors += [np.nextafter(full, 0.0), np.nextafter(full, np.inf)]
        for floor in floors:
            before = len(calls)
            value = fz._bound(cons, lam, floor)
            if full >= floor:
                assert value == full
            else:
                assert value in (0.0, full)
            skipped += len(calls) == before
    # Floors above a cap skip the eigensolve, unless b . tau < 0.
    assert (skipped > 0) == (cons.trace_scalars[0] >= 0.0)


def test_certificate_bound_rejects_complex_multipliers():
    ident = ch.identity(2)
    rep = an.check_compatibility(ident, ident, CONFIG).solver
    lam = rep.certificate
    assert certificate_bound(rep.constraints, lam) >= 10 * CONFIG.eps_feas
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        for bad in (lam + 1j * lam, lam + 0j):
            with pytest.raises(ValueError, match="real"):
                certificate_bound(rep.constraints, bad)
