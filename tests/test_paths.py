"""Every named instance takes its path: the status, stop reason, accepted
candidate and safeguard rejections that ``paths.INSTANCES`` states, within
its iteration bound. Together the entries cover every stop reason, both
candidates, solves with and without a rejection, and both verdicts that the
start decides at iteration 0."""

import pytest
from paths import INSTANCES

from chancompat.feasibility import Status


@pytest.mark.parametrize("name", INSTANCES)
def test_instance_takes_its_path(name):
    instance = INSTANCES[name]
    rep = instance.report.solver
    path = rep.status, rep.stop_reason, rep.candidate, rep.rejections
    assert path == instance.path()
    least, most = instance.iterations
    assert least <= rep.iterations <= most


def test_instances_cover_every_way_a_solve_ends():
    paths = [instance.path() for instance in INSTANCES.values()]
    assert {p[1] for p in paths} == {"tolerance", "certificate", "plateau", "iteration-cap"}
    assert {p[2] for p in paths if p[0] is Status.FEASIBLE} == {"psd", "affine"}
    assert {p[3] for p in paths} == {0, 1}
    starts = {i.stop_reason for i in INSTANCES.values() if i.iterations == (0, 0)}
    assert starts == {"tolerance", "certificate"}
