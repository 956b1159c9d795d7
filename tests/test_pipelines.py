from chancompat.feasibility import Status
from chancompat.pipelines import Step, overall_status

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
