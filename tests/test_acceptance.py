"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and recorded diagnostics.
"""

import time

import numpy as np

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat import pipelines
from chancompat.feasibility import SolverConfig, Status
from chancompat.linalg import frob

DECIDE = SolverConfig(eps_feas=1e-7, max_iter=20000)
TIGHT = SolverConfig(eps_feas=1e-10, max_iter=50000)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def feasible_trials(steps, kind, below=None):
    """Trials whose ``<kind>-<trial>`` step is feasible, with its residual
    below ``below`` when given."""
    trials = set()
    for s in steps:
        step_kind, trial = s.name.rsplit("-", 1)
        if step_kind == kind and s.status is Status.FEASIBLE:
            if below is None or s.residual < below:
                trials.add(int(trial))
    return trials


def test_criterion_01_identity_not_self_compatible():
    t0 = time.time()
    rep = an.check_compatibility(ch.identity(2), ch.identity(2), DECIDE)
    elapsed = time.time() - t0
    ok = (
        rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
        and rep.solver.residual_affine >= 1e-6
        and rep.solver.iterations <= 20000
        and elapsed < 10.0
    )
    report(
        "criterion-01 no-broadcasting incompatibility",
        ok,
        f"status={rep.status.value} residual={rep.solver.residual_affine:.3e} "
        f"iters={rep.solver.iterations} t={elapsed:.2f}s",
    )


def test_criterion_02_identity_divides_itself():
    t0 = time.time()
    rep = an.check_divisibility(ch.identity(2), ch.identity(2), DECIDE)
    elapsed = time.time() - t0
    dist = ch.choi_distance(rep.quotient, ch.identity(2)) if rep.quotient else np.inf
    ok = rep.status is Status.FEASIBLE and dist < 1e-6 and elapsed < 5.0
    report(
        "criterion-02 identity divides itself",
        ok,
        f"status={rep.status.value} quotient-dist={dist:.3e} t={elapsed:.2f}s",
    )


def test_criterion_03_example2_separation():
    t0 = time.time()
    psi, phi, compat = ch.trace_out_pair(ch.completely_depolarizing(2), ch.identity(2))
    crep = an.check_compatibility(psi, phi, DECIDE)
    drep = an.check_divisibility(psi, phi, DECIDE)
    res_b = ch.choi_distance(ch.output_marginal(compat, (2, 2), (0,)), psi)
    res_c = ch.choi_distance(ch.output_marginal(compat, (2, 2), (1,)), phi)
    elapsed = time.time() - t0
    ok = (
        crep.status is Status.FEASIBLE
        and crep.solver.residual_affine < 1e-7
        and drep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
        and max(res_b, res_c) < 1e-10
        and elapsed < 60.0
    )
    report(
        "criterion-03 compatible-but-not-divisible pair",
        ok,
        f"compat={crep.status.value} (residual {crep.solver.residual_affine:.2e}) "
        f"div={drep.status.value} analytic-marginals={max(res_b, res_c):.2e} "
        f"t={elapsed:.2f}s",
    )


def test_criterion_04_self_complementary_grid():
    t0 = time.time()
    worst_completeness = 0.0
    distances = {}
    for alpha in np.linspace(0.0, np.pi, 5):
        for beta in np.linspace(0.0, 2 * np.pi, 5):
            k = ch.self_complementary_qubit(1, alpha, beta)
            worst_completeness = max(worst_completeness, k.completeness_defect())
            distances[(round(alpha, 3), round(beta, 3))] = frob(
                ch.choi_from_kraus(k).choi - ch.complementary(k).choi
            )
    dist00 = distances[(0.0, 0.0)]
    elapsed = time.time() - t0
    ok = worst_completeness < 1e-12 and dist00 < 1e-10 and elapsed < 5.0
    report(
        "criterion-04 self-complementary family grid",
        ok,
        f"completeness<= {worst_completeness:.2e} dist(0,0)={dist00:.2e} "
        f"max-grid-dist={max(distances.values()):.2e} t={elapsed:.2f}s",
    )


def test_criterion_05_unitaries_and_depolarizing_not_self_complementary():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = np.inf
    for _ in range(20):
        u = ch.random_unitary(2, rng)
        rep = an.check_self_degradable(ch.KrausSet(2, 2, (u,)))
        worst = min(worst, rep.residual)
        assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    dep = an.check_self_degradable(ch.kraus_from_choi(ch.completely_depolarizing(2)))
    worst = min(worst, dep.residual)
    elapsed = time.time() - t0
    ok = worst > 1e-3 and dep.status is Status.NOT_FEASIBLE_AT_TOLERANCE and elapsed < 5.0
    report(
        "criterion-05 negative self-complementarity",
        ok,
        f"min-distance={worst} t={elapsed:.2f}s",
    )


def test_criterion_06_postprocessing_both_directions():
    t0 = time.time()
    rng = np.random.default_rng(606)
    n_rev = n_fwd = 0
    for _ in range(50):
        da, db, dc = (int(rng.integers(2, 4)) for _ in range(3))
        kraus = ch.random_kraus(da, db, int(rng.integers(2, 4)), rng)
        psi = ch.choi_from_kraus(kraus)
        theta = ch.random_channel(kraus.dim_env, dc, rng, dim_env=kraus.dim_env * dc)
        built = an.compatibilizer_from_postprocessing(kraus, theta)
        phi = ch.compose_choi(ch.complementary(kraus), theta)
        rev = max(
            ch.choi_distance(ch.output_marginal(built, (db, dc), (0,)), psi),
            ch.choi_distance(ch.output_marginal(built, (db, dc), (1,)), phi),
        )
        if rev < 1e-9:
            n_rev += 1
        crep = an.check_compatibility(psi, phi, TIGHT)
        if crep.status is Status.FEASIBLE:
            _, _, fwd = an.postprocessing_from_compatibilizer(crep.compatibilizer, db, dc)
            if fwd < 1e-7:
                n_fwd += 1
    elapsed = time.time() - t0
    ok = n_rev == 50 and n_fwd == 50 and elapsed < 300.0
    report(
        "criterion-06 compatibility-as-postprocessing both directions",
        ok,
        f"reverse {n_rev}/50 forward {n_fwd}/50 t={elapsed:.1f}s",
    )


def test_criterion_07_degradable_compatible_implies_divisible():
    t0 = time.time()
    steps, _ = pipelines.thm2i(np.random.default_rng(707), 50, TIGHT)
    n_deg = len(feasible_trials(steps, "degradable", below=1e-7))
    n_div = len(feasible_trials(steps, "divisible"))
    n_quot = len(feasible_trials(steps, "quotient"))
    elapsed = time.time() - t0
    ok = n_deg == 50 and n_div == 50 and n_quot == 50 and elapsed < 600.0
    report(
        "criterion-07 degradable + compatible implies divisible",
        ok,
        f"degradable {n_deg}/50 divisible {n_div}/50 quotient-valid {n_quot}/50 "
        f"t={elapsed:.1f}s",
    )


def test_criterion_08_antidegradable_divisible_implies_compatible():
    t0 = time.time()
    steps, _ = pipelines.thm2ii(np.random.default_rng(808), 50, TIGHT)
    n_anti = len(feasible_trials(steps, "antidegradable", below=1e-7))
    n_compat = len(feasible_trials(steps, "compatible", below=1e-7))
    n_built = len(feasible_trials(steps, "construction"))
    elapsed = time.time() - t0
    ok = n_anti == 50 and n_compat == 50 and n_built == 50 and elapsed < 600.0
    report(
        "criterion-08 anti-degradable + divisible implies compatible",
        ok,
        f"anti-degradable {n_anti}/50 compatible {n_compat}/50 "
        f"construction-valid {n_built}/50 t={elapsed:.1f}s",
    )


def test_criterion_09_self_degradable_equivalence_at_dephasing_point():
    t0 = time.time()
    kraus = ch.self_complementary_qubit(1, 0.0, 0.0)
    steps, _ = pipelines.corollary(kraus, np.random.default_rng(909), 20, TIGHT)
    n_ok = len(feasible_trials(steps, "compatible") & feasible_trials(steps, "divisible"))
    elapsed = time.time() - t0
    ok = n_ok == 20 and elapsed < 300.0
    report(
        "criterion-09 self-degradable equivalence",
        ok,
        f"both-feasible {n_ok}/20 t={elapsed:.1f}s",
    )


def test_criterion_10_antidegradability_from_compat_and_div():
    t0 = time.time()
    steps, _ = pipelines.prop1(np.random.default_rng(1010), 20, TIGHT)
    n_ok = len(feasible_trials(steps, "antidegrading"))
    elapsed = time.time() - t0
    ok = n_ok == 20 and elapsed < 300.0
    report(
        "criterion-10 anti-degrading witness from compat+div",
        ok,
        f"verified {n_ok}/20 t={elapsed:.1f}s",
    )


def test_criterion_11_no_catalysis():
    t0 = time.time()
    config = SolverConfig(eps_feas=1e-9, max_iter=40000)
    steps, _ = pipelines.nocatalysis(np.random.default_rng(1111), 10, config)
    n_ok = len(feasible_trials(steps, "reduction"))
    id2 = ch.identity(2)
    neg = an.verify_no_catalysis(id2, id2, id2, DECIDE)
    elapsed = time.time() - t0
    ok = (
        n_ok == 10
        and neg.tensored.status is Status.NOT_FEASIBLE_AT_TOLERANCE
        and elapsed < 600.0
    )
    report(
        "criterion-11 no catalysis of compatibility",
        ok,
        f"reductions {n_ok}/10 identity-case={neg.tensored.status.value} t={elapsed:.1f}s",
    )


def test_criterion_12_representation_roundtrips():
    t0 = time.time()
    rng = np.random.default_rng(1212)
    worst_rt = worst_comp = 0.0
    for _ in range(100):
        din = int(rng.integers(2, 5))
        dout = int(rng.integers(2, 5))
        c = ch.random_channel(din, dout, rng)
        k = ch.kraus_from_choi(c)
        v = ch.isometry_from_kraus(k)
        k2 = ch.kraus_from_isometry(v)
        worst_rt = max(worst_rt, frob(ch.choi_from_kraus(k2).choi - c.choi))
        theta = ch.random_channel(dout, 2, rng)
        comp = ch.compose_choi(c, theta)
        dev = max(
            frob(ch.apply(comp, e) - ch.apply(theta, ch.apply(c, e)))
            for e in _matrix_units(din)
        )
        worst_comp = max(worst_comp, dev)
    elapsed = time.time() - t0
    ok = worst_rt < 1e-10 and worst_comp < 1e-10 and elapsed < 60.0
    report(
        "criterion-12 representation round trips",
        ok,
        f"roundtrip<= {worst_rt:.2e} compose-vs-apply<= {worst_comp:.2e} t={elapsed:.1f}s",
    )


def _matrix_units(d):
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            yield e


def test_criterion_13_family_of_powers():
    t0 = time.time()
    psi = ch.random_channel(2, 2, np.random.default_rng(1313), dim_env=2)
    family = pipelines.power_family(psi, 4)
    reports = an.check_family_divisibility(family, TIGHT)
    dists = [
        ch.choi_distance(rep.quotient, psi) if rep.quotient is not None else np.inf
        for rep in reports
    ]
    elapsed = time.time() - t0
    ok = (
        all(rep.status is Status.FEASIBLE for rep in reports)
        and max(dists) < 1e-5
        and elapsed < 120.0
    )
    report(
        "criterion-13 divisible family of powers",
        ok,
        f"steps-feasible {sum(r.status is Status.FEASIBLE for r in reports)}/3 "
        f"max-quotient-dist={max(dists):.2e} t={elapsed:.1f}s",
    )
