"""Seeded metamorphic tests: relations between verdicts that hold whatever the
verdicts are.

* psi is degradable exactly when its complementary channel is
  anti-degradable. The complementary of the complementary (for a minimal
  Kraus set of psi^c) is psi up to an isometry on the output, so both checks
  ask the same question.
* A divisibility verdict is unchanged when the shared input and each output
  are conjugated by unitaries: theta divides the pair exactly when
  ``V_C theta V_B^dag`` divides the dressed pair.
"""

import numpy as np
import pytest

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat.feasibility import SolverConfig, Status

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


def dress(c, before, after):
    """``after o c o before`` for unitary channels ``before`` and ``after``."""
    dressed = ch.compose_choi(ch.unitary_channel(before), c)
    return ch.compose_choi(dressed, ch.unitary_channel(after))


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
