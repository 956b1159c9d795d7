"""No valid input raises: compatibility checks whose noise sits at the rank
cut ``channels.EPS_RANK``, and constraint data that overflow.

Noise of d ``EPS_RANK`` puts eigenvalues of a Choi operator on the cut, and
K, the realigned Choi operator that the quotient divides by, can then be
nearly singular. The start and the iterates carry rounding skews of up to
about 4e-8; the PSD projection takes their Hermitian part, so the checks
return reports.
"""

import numpy as np
import pytest
from paths import noisy, thm1_pair

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat.feasibility import CompositionConstraintSet, SolverConfig, Status, solve

# At the cut and 1e-3 of it to either side.
CUT_FACTORS = (1 - 1e-3, 1.0, 1 + 1e-3)


def rank_cut_checks():
    """(psi, phi) for Theorem-1 pairs at d = 2 and 3, every environment size
    from 1 to d^2 and rng seeds 0-4, with noise at d EPS_RANK times each of
    CUT_FACTORS, on both channels and on psi alone."""
    for d in (2, 3):
        for env in range(1, d * d + 1):
            for seed in range(5):
                psi, phi = thm1_pair(np.random.default_rng(seed), d, env)
                for factor in CUT_FACTORS:
                    eps = d * ch.EPS_RANK * factor
                    yield noisy(psi, eps), noisy(phi, eps)
                    yield noisy(psi, eps), phi


def test_compatibility_at_the_rank_cut_returns_reports():
    # 780 checks of pairs compatible by construction: each returns a report,
    # and none is certified not feasible. Three iterations reach the PSD
    # projections of the iterates that once raised.
    configs = [SolverConfig(eps_feas=eps, max_iter=3) for eps in (1e-7, 1e-11)]
    checks = 0
    for psi, phi in rank_cut_checks():
        for config in configs:
            solver = an.check_compatibility(psi, phi, config).solver
            assert solver.status is not Status.NOT_FEASIBLE_AT_TOLERANCE, (config, solver)
            checks += 1
    assert checks == 780


def test_a_pair_whose_rank_cut_splits_a_cluster_ends_on_the_plateau():
    # 2e-9 of noise puts three of psi's Choi eigenvalues within 6e-16 of
    # EPS_RANK, and the cut keeps one of them. K's least kept singular value
    # is 7.07e-10, and the plain Douglas-Rachford steps skew by up to 8.4e-9.
    # The best residual plateaus at 1.0676e-7, just above eps_feas = 1e-7:
    # deciding the pair needs a cut at a gap.
    psi, phi = thm1_pair(np.random.default_rng(1), 2, 1)
    pair = noisy(psi, 2e-9), noisy(phi, 2e-9)
    for eps in (1e-7, 1e-11):
        for given in (pair, pair[::-1]):
            solver = an.check_compatibility(*given, SolverConfig(eps_feas=eps)).solver
            assert solver.status is Status.INCONCLUSIVE and solver.stop_reason == "plateau"


NO_FINITE_RESIDUAL = "^the constraint data overflow: no residual of the solve is finite$"


@pytest.mark.parametrize(
    "dims, psi, phi, message",
    [
        ((1, 1, 1), [[1.0]], [[1e200]], NO_FINITE_RESIDUAL),
        ((2, 2, 2), 1e100 * np.eye(4), ch.identity(2).choi, NO_FINITE_RESIDUAL),
        ((1, 1, 1), [[1e200]], [[1.0]], r"^psi overflows: .* value 1\.000e\+200, squared$"),
    ],
    ids=["phi-1e200", "psi-1e100", "psi-1e200"],
)
def test_constraint_data_that_overflow_raise_a_named_value_error(dims, psi, phi, message):
    # Finite targets whose products overflow double precision: no residual
    # that the solve measures is finite, or K's largest singular value
    # squared is not.
    with pytest.raises(ValueError, match=message):
        solve(CompositionConstraintSet(dims, psi, phi), SolverConfig(max_iter=3))
