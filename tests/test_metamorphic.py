"""Seeded metamorphic tests: relations between verdicts that hold whatever the
verdicts are.

* psi is degradable exactly when its complementary channel is
  anti-degradable. The complementary of the complementary (for a minimal
  Kraus set of psi^c) is psi up to an isometry on the output, so both checks
  ask the same question.
* A divisibility verdict is unchanged when the shared input and each output
  are conjugated by unitaries: theta divides the pair exactly when
  ``V_C theta V_B^dag`` divides the dressed pair. So is a compatibility
  verdict: W is a joint of the pair exactly when ``(V_B (x) V_C) W U_A`` is
  one of the dressed pair.
* psi is compatible with itself exactly when it is anti-degradable
  (Theorem 1 with phi = psi), and both checks solve the same system.
* For a self-degradable psi the two notions coincide: phi is compatible
  with psi exactly when psi divides phi (the paper's main result).
* Depolarizing noise far below the tolerance, on either channel or on both,
  moves no verdict.
"""

import numpy as np
import pytest

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat.feasibility import SolverConfig, Status, certificate_bound
from paths import depolarizing, noisy, thm1_pair
from paths import dressed as dress
from test_certificates import joint_reverifies

CONFIG = SolverConfig()


def degradability_instances():
    out = [
        pytest.param(ch.amplitude_damping(float(g)), id=f"ad-{g:.2f}")
        for g in np.linspace(0.05, 0.95, 19)
    ]
    rng = np.random.default_rng(808)
    for k in range(4):
        out.append(pytest.param(an.sample_degradable_kraus(rng), id=f"degradable-sample-{k}"))
        out.append(
            pytest.param(an.sample_antidegradable_kraus(rng), id=f"antidegradable-sample-{k}")
        )
    return out


@pytest.mark.parametrize("kraus", degradability_instances())
def test_degradable_iff_complementary_is_antidegradable(kraus):
    psi, psi_c = ch.choi_from_kraus(kraus), ch.complementary(kraus)
    degradable = an.check_degradable(psi, kraus, CONFIG)
    antidegradable = an.check_antidegradable(psi_c, ch.kraus_from_choi(psi_c), CONFIG)
    assert degradable.status is not Status.INCONCLUSIVE
    assert antidegradable.status is degradable.status


@pytest.mark.parametrize("divisible", [True, False], ids=["divisible", "not-divisible"])
def test_divisibility_verdict_is_invariant_under_unitary_dressing(divisible):
    # d_B = 3 != d_C = 2, so a dressing applied to the wrong output shows.
    rng = np.random.default_rng(909)
    psi = ch.random_channel(2, 3, rng, dim_env=2)
    phi = ch.compose_choi(psi, ch.random_channel(3, 2, rng)) if divisible else ch.identity(2)
    u_a, v_b, v_c = (ch.random_unitary(d, rng) for d in (2, 3, 2))
    bare = an.check_divisibility(psi, phi, CONFIG)
    psi_d, phi_d = dress(psi, u_a, v_b), dress(phi, u_a, v_c)
    dressed = an.check_divisibility(psi_d, phi_d, CONFIG)
    assert bare.status is not Status.INCONCLUSIVE
    assert dressed.status is bare.status
    assert (dressed.quotient is None) == (not divisible)
    if divisible:
        assert ch.choi_distance(ch.compose_choi(psi_d, dressed.quotient), phi_d) < CONFIG.eps_feas
        # The bare quotient, dressed, divides the dressed pair too.
        moved = dress(bare.quotient, v_b.conj().T, v_c)
        assert ch.choi_distance(ch.compose_choi(psi_d, moved), phi_d) < 1e-6


def compat_dressing_instances():
    rng = np.random.default_rng(910)
    eta = 2 / 3  # the qubit cloning threshold (d + 2) / (2 (d + 1))
    return [
        pytest.param(*thm1_pair(rng, 2, 2), id="thm1-rank-deficient"),
        pytest.param(*thm1_pair(rng, 2, 4), id="thm1-full-rank"),
        pytest.param(depolarizing(2, eta - 1e-3), depolarizing(2, eta - 1e-3), id="dep-below"),
        pytest.param(depolarizing(2, eta + 1e-3), depolarizing(2, eta + 1e-3), id="dep-above"),
        pytest.param(ch.identity(2), ch.identity(2), id="identity"),
    ]


@pytest.mark.parametrize("psi, phi", compat_dressing_instances())
def test_compatibility_verdict_is_invariant_under_unitary_dressing(psi, phi):
    rng = np.random.default_rng(911)
    u_a, v_b, v_c = (ch.random_unitary(2, rng) for _ in range(3))
    bare = an.check_compatibility(psi, phi, CONFIG)
    psi_d, phi_d = dress(psi, u_a, v_b), dress(phi, u_a, v_c)
    dressed = an.check_compatibility(psi_d, phi_d, CONFIG)
    assert bare.status is not Status.INCONCLUSIVE
    assert dressed.status is bare.status
    assert dressed.solver.iterations == bare.solver.iterations
    assert dressed.solver.stop_reason == bare.solver.stop_reason
    assert (dressed.compatibilizer is None) == (bare.compatibilizer is None)
    if bare.compatibilizer is not None:
        assert joint_reverifies(dressed.compatibilizer, psi_d, phi_d)
        # The bare joint, dressed, is a joint of the dressed pair too.
        moved = dress(bare.compatibilizer, u_a, np.kron(v_b, v_c))
        assert joint_reverifies(moved, psi_d, phi_d)


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.45, 0.49, 0.499, 0.5, 0.501, 0.55, 0.7, 0.9])
def test_self_compatibility_is_antidegradability(gamma):
    # Amplitude damping is anti-degradable exactly for gamma >= 1/2.
    kraus = ch.amplitude_damping(gamma)
    psi = ch.choi_from_kraus(kraus)
    compat = an.check_compatibility(psi, psi, CONFIG)
    anti = an.check_antidegradable(psi, kraus, CONFIG)
    assert anti.status is (Status.FEASIBLE if gamma >= 0.5 else Status.NOT_FEASIBLE_AT_TOLERANCE)
    assert compat.status is anti.status
    assert compat.solver.iterations == anti.solver.iterations
    assert compat.solver.stop_reason == anti.solver.stop_reason
    if anti.status is Status.FEASIBLE:
        assert joint_reverifies(compat.compatibilizer, psi, psi)
    else:
        bound = certificate_bound(anti.solver.constraints, anti.solver.certificate)
        compat_bound = certificate_bound(compat.solver.constraints, compat.solver.certificate)
        assert bound >= 10 * CONFIG.eps_feas
        assert abs(compat_bound - bound) <= 1e-9 * bound


def test_self_degradable_compatibility_is_divisibility():
    # psi equals its complementary channel for this Kraus set, so by Theorem
    # 1 phi is compatible with psi exactly when phi = theta o psi. The grid
    # crosses the eta above which a depolarizing phi is neither.
    psi = ch.choi_from_kraus(ch.self_complementary_qubit(1, 0.0, 0.0))
    seen = set()
    for eta in (0.0, 0.2, 0.3, 0.33, 0.332, 0.335, 0.34, 0.4, 0.6, 1.0):
        phi = depolarizing(2, eta)
        compat = an.check_compatibility(psi, phi, CONFIG)
        div = an.check_divisibility(psi, phi, CONFIG)
        assert div.status is not Status.INCONCLUSIVE, eta
        assert compat.status is div.status, eta
        seen.add(div.status)
    assert seen == {Status.FEASIBLE, Status.NOT_FEASIBLE_AT_TOLERANCE}


def noise_instances():
    rng = np.random.default_rng(1212)
    base = thm1_pair(rng, 2, 2)
    kraus = ch.amplitude_damping(0.7)
    below, above = depolarizing(2, 2 / 3 - 1e-3), depolarizing(2, 2 / 3 + 1e-3)
    above_d3 = depolarizing(3, 5 / 8 + 1e-3)
    example2 = ch.trace_out_pair(ch.completely_depolarizing(2), ch.identity(2))[:2]
    return [
        pytest.param(*base, id="thm1-rank-deficient"),
        pytest.param(noisy(base[0], 0.01), noisy(base[1], 0.01), id="thm1-noisy-0.01"),
        pytest.param(*thm1_pair(rng, 2, 4), id="thm1-full-rank"),
        pytest.param(below, below, id="dep-below"),
        pytest.param(above, above, id="dep-above"),
        pytest.param(above_d3, above_d3, id="dep-d3-above"),
        pytest.param(ch.identity(2), ch.identity(2), id="identity"),
        pytest.param(*example2, id="example2"),
        pytest.param(ch.choi_from_kraus(kraus), ch.complementary(kraus), id="ad-0.7-complementary"),
    ]


@pytest.mark.parametrize("psi, phi", noise_instances())
def test_verdicts_are_stable_under_noise_far_below_tolerance(psi, phi):
    for check in (an.check_compatibility, an.check_divisibility):
        status = check(psi, phi, CONFIG).status
        assert status is not Status.INCONCLUSIVE
        for eps in (1e-12, 1e-10):
            for psi_e, phi_e in (
                (noisy(psi, eps), phi),
                (psi, noisy(phi, eps)),
                (noisy(psi, eps), noisy(phi, eps)),
            ):
                assert check(psi_e, phi_e, CONFIG).status is status, (check.__name__, eps)
