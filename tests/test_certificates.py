"""Farkas certificates of infeasibility: soundness on feasible instances,
certification of the known infeasible kinds, invariance under local
unitaries and under swapping the pair, and the depolarizing cloning
threshold, decided within 1e-6 of it. The safeguard of the accelerated solve
ends the acceleration at a rejected point, at the cost of one projection.
Feasible instances near the PSD cone boundary never get a
not-feasible verdict, and the positive-definite affine point that ends the
noisy and near-threshold solves is the solution, while inconsistent rows
never accept it. The bound that stops a solve, taken on the multiplier
operators as the set forms them, is the one that the report's certificate,
their Hermitian parts, re-checks to, and an attempt skipped before its
eigensolve could not have certified. ``certificate_bound`` checks each
operator of a certificate as the set checks its targets."""

import math
import warnings

import numpy as np
import pytest
from dense_oracle import AffineConstraintSet, div_oracle, marginal_oracle, vectorize_hermitian
from paths import INSTANCES, dephasing, depolarizing, noisy, thm1_pair
from test_linalg import skew

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
from chancompat.linalg import hermitian_part, project_psd, unalign

CONFIG = SolverConfig()


def spy(monkeypatch, owner, name):
    """Every later call of ``owner.name``, as ``(args, result)``; the calls
    still run. The tests read costs from it: calls per iteration, and what
    each call was given or returned."""
    calls, original = [], getattr(owner, name)

    def record(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
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
        reports.append(INSTANCES[f"dep-compat-d{d}-below-1e-2"].report)
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
            lam = cons.residual_multipliers(cons.residual_rows(y))
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
    # solves the same way: the start is positive definite, and the rows,
    # inconsistent on their own, refuse it and certify at iteration 0.
    instance = INSTANCES[f"identity-compat-d{d}"]
    ident = instance.channels[0]
    rep = instance.report.solver
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.stop_reason == "certificate" and rep.iterations == 0
    assert isinstance(rep.constraints, CompositionConstraintSet)
    bound = certificate_bound(rep.constraints, rep.certificate)
    assert bound >= 10 * CONFIG.eps_feas
    dense = div_oracle(ch.complementary(ch.kraus_from_choi(ident)), ident)
    assert abs(bound - certificate_bound(dense, rep.certificate)) <= 1e-12
    oracle = solve(dense, CONFIG)
    assert (oracle.stop_reason, oracle.iterations) == ("certificate", 0)
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
        assert certificate_bound(cons, lam) <= rep.solver.residual_affine + 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_depolarizing_self_compatibility_brackets_cloning_threshold(d):
    # Optimal universal 1 -> 2 cloning: the depolarizing channel is
    # compatible with itself exactly when eta <= (d + 2) / (2 (d + 1)).
    instance = INSTANCES[f"dep-compat-d{d}-above-1e-3"]
    above = instance.channels[0]
    rep = instance.report.solver
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
    rep = instance.report
    assert rep.status is Status.FEASIBLE
    assert joint_reverifies(rep.compatibilizer, below, below)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_depolarizing_self_compatibility_decided_within_1e6_of_cloning_threshold(d):
    # Plain Douglas-Rachford plateaus at 2 000 iterations below the
    # threshold from eta* - 1e-4 on; the accelerated solve is feasible in 4.
    instance = INSTANCES[f"dep-compat-d{d}-below-1e-6"]
    below = instance.channels[0]
    rep = instance.report
    assert rep.status is Status.FEASIBLE and rep.solver.iterations <= 4
    assert joint_reverifies(rep.compatibilizer, below, below)

    instance = INSTANCES[f"dep-compat-d{d}-above-1e-6"]
    above = instance.channels[0]
    rep = instance.report.solver
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
    rep = instance.report
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
    # Nothing is vectorized. The certificate is the Hermitian parts of the
    # multiplier operators whose bound stopped the solve, one per row block
    # and of its side, each formed once and exactly Hermitian.
    attempts = spy(monkeypatch, fz, "_bound")
    formed = spy(monkeypatch, fz, "hermitian_part")
    rep = solve_it()
    (_, kept, _), _ = attempts[-1]
    parts = [part for (x,), part in formed if any(x is y for y in kept)]
    assert len(parts) == len(kept) == len(rep.constraints.rhs_blocks)
    assert all(y is part for y, part in zip(rep.certificate, parts))
    for y, rhs in zip(rep.certificate, rep.constraints.rhs_blocks):
        assert y.shape == rhs.shape and skew(y) == 0.0


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
    # residuals are its own: its PSD defect is the 0.0 that the factor
    # proves, with no eigensolve after the last iteration.
    measured = spy(monkeypatch, CompositionConstraintSet, "residual_rows")
    projected = spy(monkeypatch, fz, "project_psd")
    eigvalsh, eigensolves = np.linalg.eigvalsh, []  # projections before each
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: eigensolves.append(len(projected)) or eigvalsh(a)
    )
    rep = INSTANCES[name].run().solver
    assert all(n < rep.iterations for n in eigensolves)
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


@pytest.mark.parametrize("name", ["ad-0.3-degradable", "large-div-d5", "ad-0.5-antidegradable"])
def test_a_solve_that_stops_at_the_start_runs_no_eigensolve(name, monkeypatch):
    # On the paper's own feasible constructions the start M^+ b is already
    # a witness. Shifted at rounding level, it has a Cholesky factor and its
    # rows accept it: the solve ends at iteration 0 on the affine candidate,
    # with no projection and no eigendecomposition, and its PSD defect is
    # the 0.0 that the factor proves. One Cholesky factorization proves it.
    constraints = INSTANCES[name].report.solver.constraints
    eigh, eigvalsh = spy(monkeypatch, np.linalg, "eigh"), spy(monkeypatch, np.linalg, "eigvalsh")
    projected = spy(monkeypatch, fz, "project_psd")
    factored = spy(monkeypatch, np.linalg, "cholesky")
    rep = solve(constraints, CONFIG)
    assert (eigh, eigvalsh, projected) == ([], [], [])
    assert len(factored) == 1
    assert (rep.status, rep.iterations, rep.candidate) == (Status.FEASIBLE, 0, "affine")
    assert rep.residual_psd == 0.0
    x = rep.solution
    assert skew(x) == 0.0
    np.linalg.cholesky(x)
    r = constraints.residual_rows(x)
    assert rep.residual_affine == math.sqrt(fz._dot(r, r)) < CONFIG.eps_feas


@pytest.mark.parametrize("name", ["identity-compat-d2", "identity-compat-d3", "example2-div"])
def test_a_start_that_certifies_runs_only_the_bounds_eigensolve(name, monkeypatch):
    # No-cloning's and Example 2's rows refuse their positive definite start,
    # whose residual certifies at iteration 0. The bound's eigvalsh of G is
    # the only eigensolve, and the start is factored once: its exactly
    # Hermitian part, shifted, the stored candidate, whose PSD defect is the
    # 0.0 that factor proves.
    constraints = INSTANCES[name].report.solver.constraints
    eigh, eigvalsh = spy(monkeypatch, np.linalg, "eigh"), spy(monkeypatch, np.linalg, "eigvalsh")
    factored = spy(monkeypatch, fz, "_positive_definite")
    rep = solve(constraints, CONFIG)
    assert (rep.status, rep.iterations, rep.stop_reason) == (
        Status.NOT_FEASIBLE_AT_TOLERANCE,
        0,
        "certificate",
    )
    assert eigh == [] and len(eigvalsh) == 1
    (((stored,), ok),) = factored
    assert ok and skew(stored) == 0.0
    assert rep.residual_psd == 0.0


def _shifted_then_hermitian(z):
    """The start shifted by delta I on a copy, then its Hermitian part: the
    two steps of ``_shifted_start`` in the other order."""
    n = z.shape[0]
    delta = fz._START_SHIFT * n * n * np.finfo(float).eps * z.diagonal().real.max()
    x = z.copy()
    x.flat[:: n + 1] += delta
    return hermitian_part(x)


@pytest.mark.parametrize("name", [n for n, i in INSTANCES.items() if i.iterations == (0, 0)])
def test_a_start_decided_solve_keeps_the_bits_of_the_shifted_start(name):
    # The start's Hermitian part shifted by delta I is the Hermitian part of
    # the start shifted by delta I, bit for bit. So a solve decided at
    # iteration 0 has the solution, or the certificate and residual, of the
    # shifted start's Hermitian part, whichever step comes first. A square
    # set offers x* = K^-1 Phi first, and on these entries x* decides.
    rep = INSTANCES[name].report.solver
    assert rep.iterations == 0
    cons = rep.constraints
    a, b, _ = cons.dims
    z = cons.inverse_point() if a == b else cons.start()
    x = _shifted_then_hermitian(z)
    assert fz._shifted_start(z).tobytes() == x.tobytes()
    r = cons.residual_rows(x)
    assert rep.residual_affine == math.sqrt(fz._dot(r, r))
    if rep.status is Status.FEASIBLE:
        assert rep.solution.tobytes() == x.tobytes()
    else:
        expected = fz._certificate(cons, r, 10.0 * CONFIG.eps_feas)
        assert [y.tobytes() for y in rep.certificate] == [y.tobytes() for y in expected]


def _fresh(cons):
    """A new set on the data of cons, with none of its factors formed."""
    a, b, _ = cons.dims
    first, phi = cons.rhs_blocks
    return CompositionConstraintSet(cons.dims, unalign(cons._k, a, b), phi, first)


def _old_shifted_start(z):
    """``_shifted_start`` by two reductions over the diagonal,
    ``max(initial=0.0)`` and ``min(initial=inf)``: the reference for its
    bytes and its refusal."""
    n, diag = z.shape[0], z.diagonal().real
    delta = fz._START_SHIFT * n * n * np.finfo(float).eps * diag.max(initial=0.0)
    if not diag.min(initial=np.inf) + delta > 0.0:
        return None
    x = hermitian_part(z)
    x.reshape(-1)[:: n + 1] += delta
    return x


def _start_points():
    """Every registry set's start and x*; points that must be refused: a
    negative diagonal entry, a zero diagonal, a NaN diagonal entry; and a
    negative entry that the shift lifts, a 0 x 0 point and a 1 x 1 one."""
    points = {}
    for name, instance in INSTANCES.items():
        cons = instance.report.solver.constraints
        points[f"{name}-start"] = cons.start()
        if cons.inverse_point() is not None:
            points[f"{name}-x*"] = cons.inverse_point()
    points["negative"] = np.diag([1.0, -1e-3, 2.0]) + 0.25j * np.eye(3, k=1)
    points["shifted-up"] = np.diag([1.0, -1e-300, 2.0]) + 0.25j * np.eye(3, k=1)
    points["zero"] = np.zeros((2, 2))
    points["nan"] = np.diag([np.nan, 1.0, 2.0])
    points["nan-last"] = np.diag([1.0, 2.0, np.nan])
    points["empty"] = np.zeros((0, 0))
    points["one"] = np.array([[3.0 + 1j]])
    return points


def test_the_shifted_start_keeps_its_bytes_and_refusals():
    # One sort of the diagonal finds both of its ends; the bytes of every
    # shifted point and every refusal are those of the two reductions.
    refused = set()
    for name, z in _start_points().items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, expected = fz._shifted_start(z), _old_shifted_start(z)
        assert (got is None) == (expected is None), name
        if got is None:
            refused.add(name)
        else:
            assert got.tobytes() == expected.tobytes() and got.dtype == expected.dtype, name
    assert {"negative", "zero", "nan", "nan-last"} <= refused
    assert not {"shifted-up", "empty", "one"} & refused


@pytest.mark.parametrize("name", [n for n, i in INSTANCES.items() if i.iterations[1] <= 50])
def test_only_a_set_that_is_not_square_forms_its_svd(name, monkeypatch):
    # A square set offers x* = K^-1 Phi first, from one LU solve. When x*
    # decides the solve, the solve runs one Cholesky factorization and no
    # eigensolve, forms no factor of K, and its solution is x* shifted, byte
    # for byte. When x* is refused, its rows hold and it is the start: it is
    # not factored again, and the set takes K's inverse and the Gram
    # matrix's, not K's SVD. A set that is not square never calls the LU
    # solve and forms its SVD once.
    cons = _fresh(INSTANCES[name].report.solver.constraints)
    svd, lu = spy(monkeypatch, np.linalg, "svd"), spy(monkeypatch, np.linalg, "solve")
    factored, inverted = spy(monkeypatch, np.linalg, "cholesky"), spy(monkeypatch, np.linalg, "inv")
    eigh, eigvalsh = spy(monkeypatch, np.linalg, "eigh"), spy(monkeypatch, np.linalg, "eigvalsh")
    rep = solve(cons, CONFIG)
    a, b, _ = cons.dims
    assert len(lu) == (a == b)
    if a != b:
        assert len(svd) == 1
    elif rep.iterations == 0:
        assert (svd, len(factored), inverted, eigh, eigvalsh) == ([], 1, [], [], [])
        assert rep.solution.tobytes() == fz._shifted_start(cons.inverse_point()).tobytes()
    else:
        # x* is factored at most once: not when its diagonal refuses it.
        shifted = fz._shifted_start(cons.inverse_point())
        assert (svd, len(factored), len(inverted)) == ([], int(shifted is not None), 2)
        assert cons.injective


@pytest.mark.parametrize("name", ["ad-0.3-degradable", "large-div-d5", "ad-0.5-antidegradable"])
def test_a_bound_after_x_star_decided_inverts_k_once(name, monkeypatch):
    # The solve leaves K unfactored; a later certificate_bound inverts K
    # once and forms no SVD, and the bound, the start and the trace scalars
    # are those of a set built afresh.
    cons = _fresh(INSTANCES[name].report.solver.constraints)
    assert solve(cons, CONFIG).iterations == 0 and "_factors" not in vars(cons)
    lam = tuple(-y for y in cons.rhs_blocks)
    svd, inverted = spy(monkeypatch, np.linalg, "svd"), spy(monkeypatch, np.linalg, "inv")
    bound = certificate_bound(cons, lam)

    def k_inverses():
        return sum(np.array_equal(args[0], cons._k) for args, _ in inverted)

    assert (svd, k_inverses()) == ([], 1) and cons.injective and "_factors" in vars(cons)
    other = _fresh(cons)
    assert bound == certificate_bound(other, lam)
    assert cons.trace_scalars == other.trace_scalars
    assert cons.start().tobytes() == other.start().tobytes()
    assert (svd, k_inverses()) == ([], 2)


def _ad(gamma):
    return ch.choi_from_kraus(ch.amplitude_damping(gamma))


def _singular_square_cases():
    dep, ident = ch.completely_depolarizing(2), ch.identity(2)
    feasible = ("feasible", "tolerance", "affine", 0)
    certified = ("not-feasible-at-tolerance", "certificate", None)
    cases = [
        pytest.param(dep, dep, feasible, id="dep-dep"),
        pytest.param(dep, ident, (*certified, 0), id="dep-id"),
    ]
    for label, gamma in (("1-1e-6", 1 - 1e-6), ("1-1e-10", 1 - 1e-10), ("1", 1.0)):
        cases += [
            pytest.param(_ad(gamma), ident, (*certified, int(gamma < 1)), id=f"ad{label}-id"),
            pytest.param(_ad(gamma), dep, feasible, id=f"ad{label}-dep"),
            pytest.param(_ad(0.5), _ad(gamma), feasible, id=f"ad0.5-ad{label}"),
        ]
    return cases


@pytest.mark.parametrize("psi, phi, path", _singular_square_cases())
def test_singular_and_nearly_singular_square_sets_keep_their_paths(psi, phi, path):
    # psi completely depolarizing, or amplitude damping at gamma = 1, has a
    # singular K: the LU solve finds it singular and offers no x*, and the
    # start decides as before. Near gamma = 1, K is nonsingular and x* may
    # be far from a PSD point. Each keeps the status, stop reason, candidate
    # and iterations it had before x* was offered, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = an.check_divisibility(psi, phi, CONFIG)
    solver = rep.solver
    assert (solver.status.value, solver.stop_reason, solver.candidate, solver.iterations) == path
    singular = np.linalg.matrix_rank(solver.constraints._k) < 4
    assert (solver.constraints.inverse_point() is None) == singular
    if rep.status is Status.FEASIBLE:
        assert rep.residual < CONFIG.eps_feas
        ch.validate_channel(rep.quotient, atol=1e-7)


@pytest.mark.parametrize("gamma", [1 - 1e-6, 1 - 1e-10])
def test_nearly_singular_self_division_is_decided_by_x_star(gamma):
    # AD(gamma) divides itself through the identity. K's singular values
    # are about sqrt(2), sqrt(1 - gamma) twice and (1 - gamma) / sqrt(2); at
    # gamma = 1 - 1e-10 the least is below the SVD's cut and M^+ b drops it.
    # Either way the shifted start M^+ b has no Cholesky factor, and the PSD
    # iterate ended the solve at iteration 1 (gamma = 1 - 1e-6) or 11
    # (gamma = 1 - 1e-10). The LU solve's x* has one: the solve ends at
    # iteration 0, and the quotient re-verifies.
    psi = _ad(gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = an.check_divisibility(psi, psi, CONFIG)
    solver = rep.solver
    assert (solver.status, solver.iterations, solver.candidate) == (Status.FEASIBLE, 0, "affine")
    start = fz._shifted_start(solver.constraints.start())
    assert start is None or not fz._positive_definite(start)
    assert rep.residual < CONFIG.eps_feas
    assert ch.choi_distance(rep.quotient, ch.identity(2)) < 1e-6


@pytest.mark.parametrize(
    "psi, phi, best",
    [
        (depolarizing(2, 0.8), depolarizing(2, 0.8 + 1e-7), 1.680541200738967e-07),
        (depolarizing(3, 0.8), depolarizing(3, 0.8 + 1e-7), 2.244334401034795e-07),
        (dephasing(0.5), dephasing(0.5 + 1e-7), 2.1213203369477496e-07),
    ],
    ids=["dep-d2-0.8", "dep-d3-0.8", "dephasing-0.5"],
)
def test_surjective_band_pairs_end_on_the_plateau(psi, phi, best):
    # psi does not divide phi, by 1e-7: K is square and nonsingular, x* is
    # the only point of the rows and it is not PSD, but no bound reaches
    # 10 eps_feas. The set is injective, so no later iteration can differ
    # from iteration 1, and the solve ends inconclusive on the plateau
    # there. Its best residual is the one that 2 000 Douglas-Rachford
    # iterations ended on, within 1e-6 relative. Capped at one iteration,
    # the same solve ends at the cap.
    solver = an.check_divisibility(psi, phi, CONFIG).solver
    assert (solver.status, solver.stop_reason) == (Status.INCONCLUSIVE, "plateau")
    assert solver.iterations == 1 and solver.residual_affine >= CONFIG.eps_feas
    assert abs(solver.residual_affine - best) <= 1e-6 * best
    capped = an.check_divisibility(psi, phi, SolverConfig(max_iter=1)).solver
    assert (capped.stop_reason, capped.iterations) == ("iteration-cap", 1)


def test_a_non_finite_x_star_is_not_offered():
    # K = [1e-320] is nonsingular, but Phi / K overflows: the LU solve
    # ignores the overflow, x* is inf, and it is not offered, with no
    # warning. A set that is not square offers none.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cons = CompositionConstraintSet((1, 1, 1), np.array([[1e-320]]), np.array([[1e300]]))
        assert cons.inverse_point() is None
    assert CompositionConstraintSet((2, 4, 2), np.eye(8) / 4, np.eye(4) / 2).inverse_point() is None


def test_a_singular_start_is_decided_by_its_shift():
    # AD(1/2) is anti-degradable through a unitary channel, so the start is
    # PSD of rank 1 in 4, and after rounding it has no Cholesky factor. The
    # shift delta = 16 n^2 eps max_i Re z_ii gives it one, and moves it by
    # ||delta I|| = sqrt(n) delta, up to the rounding of its Hermitian part.
    rep = INSTANCES["ad-0.5-antidegradable"].report.solver
    z = rep.constraints.start()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(z)
    w = np.linalg.eigvalsh(z)
    assert np.abs(w[:3]).max() < 1e-15 and w[3] > 1.0
    assert (rep.iterations, rep.candidate, rep.residual_psd) == (0, "affine", 0.0)
    n = z.shape[0]
    delta = fz._START_SHIFT * n * n * np.finfo(float).eps * z.diagonal().real.max()
    assert np.linalg.norm(rep.solution - z) <= math.sqrt(n) * delta + 1e-15


def test_a_start_without_a_factor_iterates_from_it_untouched(monkeypatch):
    # The start's diagonal is positive, so its shifted copy reaches
    # Cholesky, which refuses it. The solve then iterates from the start
    # itself, not from the copy, and the PSD iterate ends it.
    constraints = INSTANCES["noisy-psi-thm1-d3-env1-1e-6"].report.solver.constraints
    z = constraints.start()
    assert z.diagonal().real.min() > 0.0
    factored = spy(monkeypatch, fz, "_positive_definite")
    projected = spy(monkeypatch, fz, "project_psd")
    rep = solve(constraints, CONFIG)
    (shifted,), ok = factored[0]
    assert not ok and (shifted.diagonal().real > z.diagonal().real).all()
    ((first,), _) = projected[0]
    assert np.array_equal(first, z)
    assert rep.iterations == len(projected) > 0 and rep.candidate == "psd"


def test_inconsistent_rows_never_accept_the_affine_point(monkeypatch):
    # Example 2's divisibility rows are inconsistent, so the affine point is
    # only a least-squares point, with residual sqrt(6). The start is one
    # such point, and positive definite: its rows refuse it, and its
    # residual certifies at iteration 0.
    instance = INSTANCES["example2-div"]
    rep = instance.run().solver
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert (rep.stop_reason, rep.iterations) == ("certificate", 0)
    assert rep.residual_affine == pytest.approx(math.sqrt(6.0), abs=1e-9)
    # With certificates off, the start and the affine point of every
    # iteration are positive definite, and their rows still refuse them to
    # the iteration cap: one factorization each, never a second.
    monkeypatch.setattr(fz, "_bound", lambda *args: 0.0)
    factored = spy(monkeypatch, fz, "_positive_definite")
    rep = an.check_divisibility(*instance.channels, SolverConfig(max_iter=50)).solver
    assert rep.status is Status.INCONCLUSIVE and rep.stop_reason == "iteration-cap"
    assert rep.solution is None and rep.residual_affine >= 1.0
    assert [result for _, result in factored] == [True] * (1 + 50)


@pytest.mark.parametrize("name", ["dep-compat-d2-below-1e-2-cap-2", "dep-compat-d2-above-1e-7"])
def test_a_rejected_affine_point_is_factored_once_as_formed(name, monkeypatch):
    # Cholesky reads one triangle, so the affine point is factored as formed:
    # one factorization per iteration that reaches it (the plateau's last
    # iteration stops before it), and no Hermitian part of a point that
    # fails it. Neither solve accepts an affine point.
    factored = spy(monkeypatch, fz, "_positive_definite")
    formed = spy(monkeypatch, fz, "hermitian_part")
    rep = INSTANCES[name].run().solver
    assert rep.candidate is None
    assert len(factored) == rep.iterations - (rep.stop_reason == "plateau")
    failed = [x for (x,), ok in factored if not ok]
    assert failed
    assert not any(x is part for x in failed for _, part in formed)


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
    rep = instance.report
    assert rep.status is Status.FEASIBLE and rep.solver.iterations < 100
    cp, tp = ch.cptp_defects(rep.degrading)
    assert cp <= 1e-8 and tp <= 1e-6
    assert ch.choi_distance(ch.compose_choi(ch.complementary(kraus), rep.degrading), psi) <= 1e-6


@pytest.mark.parametrize("d", [2, 3])
def test_affine_stop_is_sound_just_above_threshold(d):
    # At eta* + 1e-7 no bound reaches 10 * eps_feas, so the solves run on
    # past iteration 1 (eta* + 1e-6 is certified there, see above); neither
    # self-compatibility nor anti-degradability ends feasible.
    for check in ("compat", "antidegradable"):
        rep = INSTANCES[f"dep-{check}-d{d}-above-1e-7"].report
        assert rep.status is not Status.FEASIBLE and rep.solver.solution is None


def test_failed_attempts_do_not_vectorize(monkeypatch):
    # Depolarizing self-compatibility just below the cloning threshold: the
    # attempt at iteration 1 fails and the solve goes on to a feasible end.
    # Nothing is vectorized, and no Hermitian part of a failed attempt's
    # multipliers is formed.
    attempts = spy(monkeypatch, fz, "_bound")
    formed = spy(monkeypatch, fz, "hermitian_part")
    rep = INSTANCES["dep-compat-d2-below-1e-3"].run()
    assert rep.status is Status.FEASIBLE and rep.solver.iterations > 1
    assert attempts and all(value < floor for (_, _, floor), value in attempts)
    tried = [y for (_, lam, _), _ in attempts for y in lam]
    assert formed and not any(x is y for (x,), _ in formed for y in tried)


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
    lams = [rep.certificate]
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
    # Multipliers are Hermitian operators: complex entries are theirs, an
    # anti-Hermitian part is not. An operator with one above
    # channels.EPS_VALID is rejected by name, with no ComplexWarning.
    ident = ch.identity(2)
    rep = an.check_compatibility(ident, ident, CONFIG).solver
    y_t, y = rep.certificate
    assert certificate_bound(rep.constraints, (y_t, y)) >= 10 * CONFIG.eps_feas
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"multipliers\[1\] is not Hermitian"):
            certificate_bound(rep.constraints, (y_t, y + 1j * y))


def test_certificate_bound_checks_each_operator():
    # Each operator is checked as a constraint target is, and an error names
    # it: the number of operators, the row block's side, finite entries, and
    # a skew within channels.EPS_VALID, below which the Hermitian part counts.
    rep = check("degradable", ch.amplitude_damping(0.7))
    cons = rep.constraints
    y_t, y = rep.certificate
    bound = certificate_bound(cons, (y_t, y))
    assert bound >= 10 * CONFIG.eps_feas
    for bad, message in (
        ((y_t,), "expected 2 multiplier operators, got 1"),
        ((y_t, y, y), "expected 2 multiplier operators, got 3"),
        ((y_t, y[:-1, :-1]), r"multipliers\[1\] must be a finite"),
        ((y, y_t), r"multipliers\[0\] must be a finite"),
    ):
        with pytest.raises(ValueError, match=message):
            certificate_bound(cons, bad)
    for k in range(2):
        ops = [y_t.copy(), y.copy()]
        ops[k][0, 0] = np.nan
        with pytest.raises(ValueError, match=rf"multipliers\[{k}\] must be a finite"):
            certificate_bound(cons, ops)
        ops = [y_t.copy(), y.copy()]
        ops[k][0, 1] += 1e-6
        with pytest.raises(ValueError, match=rf"multipliers\[{k}\] is not Hermitian"):
            certificate_bound(cons, ops)
        ops[k][0, 1] -= 1e-6 - 1e-12
        assert skew(ops[k]) > 0.0
        accepted = certificate_bound(cons, ops)
        ops[k] = hermitian_part(ops[k])
        assert accepted == certificate_bound(cons, ops)
        assert abs(accepted - bound) <= 1e-9 * bound
    # With Y negated, the multipliers bound nothing.
    assert certificate_bound(cons, (y_t, -y)) == 0.0
