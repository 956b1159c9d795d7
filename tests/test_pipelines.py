import numpy as np

from chancompat import analysis, channels as ch
from chancompat.feasibility import SolverConfig, Status
from chancompat.pipelines import Step, corollary, overall_status

FEASIBLE = Step("a-0", Status.FEASIBLE, 1e-15)
NOT_FEASIBLE = Step("b-0", Status.NOT_FEASIBLE_AT_TOLERANCE, 0.5)
INCONCLUSIVE = Step("c-0", Status.INCONCLUSIVE, stop_reason="plateau", iterations=2000)


def test_overall_status():
    assert overall_status([]) is Status.FEASIBLE
    assert overall_status([FEASIBLE, FEASIBLE]) is Status.FEASIBLE
    assert overall_status([FEASIBLE, INCONCLUSIVE, NOT_FEASIBLE]) is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert overall_status([NOT_FEASIBLE, FEASIBLE]) is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert overall_status([FEASIBLE, INCONCLUSIVE]) is Status.INCONCLUSIVE
    assert overall_status([INCONCLUSIVE]) is Status.INCONCLUSIVE


def test_corollary_compatibility_steps_report_both_marginals():
    # Each step's residual is the worse marginal distance of the solved
    # compatibilizer; at this seed the phi marginal is the worse one in
    # trials 1 and 3. Solves are deterministic, so re-solving each trial's
    # pair gives the pipeline's compatibilizer.
    config = SolverConfig(eps_feas=1e-9)
    kraus = ch.self_complementary_qubit(1, 0.0, 0.0)
    psi = ch.choi_from_kraus(kraus)
    steps, _ = corollary(kraus, np.random.default_rng(0), 5, config)
    rng = np.random.default_rng(0)
    for t in range(5):
        phi = ch.compose_choi(psi, ch.random_channel(2, 2, rng, dim_env=4))
        joint = analysis.check_compatibility(psi, phi, config).compatibilizer
        step = next(s for s in steps if s.name == f"compatible-{t}")
        assert step.status is Status.FEASIBLE
        assert step.residual == max(analysis.marginal_distances(joint, psi, phi))
