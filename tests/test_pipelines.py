import json

import numpy as np
import pytest

from chancompat import analysis, channels as ch, pipelines
from chancompat.cli import main
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


# No residual is below 1e-300 except an exact 0, and one iteration ends every
# other solve at the cap: every pipeline then takes its not-feasible branch.
STARVED = SolverConfig(eps_feas=1e-300, max_iter=1)


@pytest.mark.parametrize(
    "name", ["thm1", "thm2i", "thm2ii", "corollary", "prop1", "nocatalysis", "family"]
)
def test_starved_solver_takes_the_not_feasible_branches(name):
    rng = np.random.default_rng(1)
    if name == "corollary":
        steps, witness = corollary(ch.self_complementary_qubit(1, 0.0, 0.0), rng, 2, STARVED)
    elif name == "family":
        psi = ch.random_channel(2, 2, rng, dim_env=2)
        steps, witness = pipelines.family(pipelines.power_family(psi, 3), STARVED)
    else:
        steps, witness = getattr(pipelines, name)(rng, 3, STARVED)
    assert overall_status(steps) is not Status.FEASIBLE
    for s in steps:
        if s.stop_reason is not None:
            expected = "tolerance" if s.status is Status.FEASIBLE else "iteration-cap"
            assert s.stop_reason == expected, s
    if name == "thm2ii":
        # Depolarizing draws are anti-degradable with an exactly feasible
        # first iterate, so the construction still builds a witness.
        assert [s.status for s in steps if s.name.startswith("antidegradable")] == [
            Status.INCONCLUSIVE,
            Status.FEASIBLE,
            Status.FEASIBLE,
        ]
    else:
        assert witness is None


def test_verify_exit_code_matches_a_starved_report(capsys):
    argv = ["verify", "thm1", "--trials", "1", "--eps", "1e-300", "--max-iter", "1", "--quiet"]
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], code) == ("inconclusive", 2)
