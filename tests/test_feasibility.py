"""The solver and the certificate bound on small dense systems, held by the
test-side :class:`dense_oracle.AffineConstraintSet`."""

import re

import numpy as np
import pytest
from dense_oracle import AffineConstraintSet, residual_norm, vectorize_hermitian

from chancompat.feasibility import SolverConfig, Status, certificate_bound, solve
from chancompat.linalg import dag, frob


def trace_constraint(d, value):
    """Single row enforcing Tr X = value in vectorized coordinates."""
    row = vectorize_hermitian(np.eye(d))
    return AffineConstraintSet(d, row.reshape(1, -1), np.array([float(value)]))


def test_trace_one_is_feasible():
    rep = solve(trace_constraint(2, 1.0))
    assert rep.status is Status.FEASIBLE
    x = rep.solution
    assert abs(np.trace(x).real - 1.0) < 1e-9
    assert np.linalg.eigvalsh(0.5 * (x + dag(x)))[0] > -1e-9
    assert rep.residual_affine < 1e-7 and rep.residual_psd < 1e-7


def test_negative_trace_is_not_feasible():
    rep = solve(trace_constraint(2, -1.0))
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.solution is None
    assert rep.residual_affine >= 1e-6


def test_system_without_coordinates_is_certified_at_iteration_zero():
    b = np.array([3.0, -4.0, 0.0])
    cons = AffineConstraintSet(0, np.empty((3, 0)), b)
    rep = solve(cons)
    # The 0 x 0 start has a Cholesky factor; the rows refuse it, and its
    # residual certifies at iteration 0.
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert (rep.stop_reason, rep.iterations) == ("certificate", 0)
    assert rep.solution is None
    assert rep.residual_affine == 5.0
    assert np.copysign(1.0, rep.residual_psd) == 1.0 and rep.residual_psd == 0.0
    assert certificate_bound(cons, rep.certificate) == pytest.approx(np.linalg.norm(b), abs=1e-15)


def test_system_without_coordinates_and_zero_rhs_is_feasible():
    rep = solve(AffineConstraintSet(0, np.empty((2, 0)), np.zeros(2)))
    assert rep.status is Status.FEASIBLE
    assert (rep.stop_reason, rep.iterations, rep.candidate) == ("tolerance", 0, "affine")
    assert rep.solution.shape == (0, 0) and rep.residual_psd == 0.0


def test_project_affine_idempotent_and_exact():
    rng = np.random.default_rng(0)
    cons = trace_constraint(3, 2.0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = 0.5 * (g + dag(g))
    p1 = cons.project(x)
    assert abs(np.trace(p1).real - 2.0) < 1e-12
    assert frob(cons.project(p1) - p1) < 1e-12
    # points already in the set are untouched
    x_in = x + (2.0 - np.trace(x).real) * np.eye(3) / 3
    assert frob(cons.project(x_in) - x_in) < 1e-12


def test_project_affine_least_norm_correction():
    cons = trace_constraint(2, 2.0)
    out = cons.project(np.zeros((2, 2)))
    assert frob(out - np.eye(2)) < 1e-12


def test_solver_determinism():
    cons = trace_constraint(2, -1.0)
    r1 = solve(cons)
    r2 = solve(cons)
    assert r1.status is r2.status
    assert r1.iterations == r2.iterations
    assert r1.residual_affine == r2.residual_affine


def test_feasible_solution_reverifies_externally():
    # Residuals must hold when recomputed from the returned matrix alone.
    rng = np.random.default_rng(1)
    d = 3
    target = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rows = []
    rhs = []
    for k in range(d * d):
        e = np.zeros(d * d)
        e[k] = 1.0
        rows.append(e)
        rhs.append(vectorize_hermitian(target)[k])
    cons = AffineConstraintSet(d, np.array(rows), np.array(rhs))
    rep = solve(cons)
    assert rep.status is Status.FEASIBLE
    assert residual_norm(cons, rep.solution) < 1e-7
    assert np.linalg.eigvalsh(0.5 * (rep.solution + dag(rep.solution)))[0] > -1e-7


def test_residual_never_worse_than_start():
    cons = trace_constraint(4, -2.0)
    rep = solve(cons)
    # the best candidate's residual cannot exceed the first iterate's
    start = residual_norm(cons, np.zeros((4, 4)))
    assert rep.residual_affine <= start + 1e-12


def test_inconsistent_rows_fall_back_to_least_squares():
    # Tr X = 1 and Tr X = 2 simultaneously: the projector still works via the
    # pseudo-inverse and the verdict is infeasible.
    d = 2
    row = vectorize_hermitian(np.eye(d))
    cons = AffineConstraintSet(d, np.vstack([row, row]), np.array([1.0, 2.0]))
    rep = solve(cons)
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE


def test_iteration_limit_status():
    # X_00 = 0 with Re X_01 = 1 is weakly infeasible: every PSD X with
    # X_00 = 0 has X_01 = 0, yet the residual tends to 0 as X_11 grows, so no
    # certificate exists and 50 iterations end at the cap.
    x00 = vectorize_hermitian(np.diag([1.0, 0.0]))
    re_x01 = vectorize_hermitian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    rows = np.array([x00, re_x01])
    cons = AffineConstraintSet(2, rows, np.array([0.0, 1.0]))
    rep = solve(cons, SolverConfig(max_iter=50))
    assert rep.status is Status.INCONCLUSIVE
    assert rep.stop_reason == "iteration-cap"
    assert rep.iterations == 50
    assert rep.solution is None and rep.certificate is None


def test_negative_trace_is_certified_at_first_iteration():
    config = SolverConfig()
    cons = trace_constraint(2, -1.0)
    rep = solve(cons, config)
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.stop_reason == "certificate" and rep.iterations == 1
    bound = certificate_bound(cons, rep.certificate)
    assert bound >= 10 * config.eps_feas
    # Every PSD X has |Tr X + 1| >= 1, and the certificate proves exactly that.
    assert abs(bound - 1.0) < 1e-12
    assert bound <= rep.residual_affine + 1e-12


def test_certificate_bound_needs_a_fixed_trace():
    # X_00 - X_11 = 1 leaves Tr X free, so multipliers whose G = diag(1, -1)
    # has a negative eigenvalue prove nothing.
    row = vectorize_hermitian(np.diag([1.0, -1.0]))
    cons = AffineConstraintSet(2, row.reshape(1, -1), np.array([1.0]))
    assert cons.trace_coordinates is None
    assert certificate_bound(cons, ([[-1.0]],)) == 0.0
    assert certificate_bound(trace_constraint(2, 1.0), ([[1.0]],)) == 0.0
    with pytest.raises(ValueError):
        certificate_bound(cons, ([[0.0]], [[0.0]]))
    with pytest.raises(ValueError):
        certificate_bound(cons, ([[np.nan]],))


def test_config_validation():
    for eps in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SolverConfig(eps_feas=eps)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_config_rejects_values_that_a_solve_cannot_run():
    # A float cap cannot be a range, and Python counts a boolean as a number
    # and as an integer; each is refused with the field's name. A numpy
    # integer is an integer.
    for kwargs, message in (
        ({"max_iter": 2.0}, "max_iter must be an integer at least 1, got 2.0"),
        ({"max_iter": 1.5}, "max_iter must be an integer at least 1, got 1.5"),
        ({"max_iter": True}, "max_iter must be an integer at least 1, got True"),
        ({"max_iter": np.True_}, "max_iter must be an integer at least 1, got "),
        ({"max_iter": 0}, "max_iter must be an integer at least 1, got 0"),
        ({"eps_feas": True}, "eps_feas must be a positive finite number"),
        ({"eps_feas": np.True_}, "eps_feas must be a positive finite number"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            SolverConfig(**kwargs)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3
    cons = trace_constraint(2, 1.0)
    assert solve(cons, SolverConfig(max_iter=np.int64(3))).status is Status.FEASIBLE


def test_constraint_set_validation():
    with pytest.raises(ValueError):
        AffineConstraintSet(2, np.zeros((1, 3)), np.zeros(1))
    with pytest.raises(ValueError):
        AffineConstraintSet(2, np.zeros((0, 4)), np.zeros(0))
    with pytest.raises(ValueError):
        AffineConstraintSet(2, np.full((1, 4), np.nan), np.zeros(1))
