"""The closed-form constraint set against dense oracles.

The oracle (``dense_oracle.oracle_constraints``) applies each forward map to
every Hermitian basis element of the variable and stores the constraint
matrix column by column. Every system gets the ``CompositionConstraintSet``,
which has no matrix: its forward map, projection, multipliers and trace
coordinates are compared with the oracle, and its solves must match the
oracle's. A compatibility pair whose Choi operators both have full rank is
the joint under its marginal rows, a composition after rho -> rho (x) I_B
with ``J_psi`` as the first target; it is checked against the marginal
oracle, also on targets whose A-marginals disagree and with a factor of
dimension 1. Every divisibility system, and the compatibility system of a
rank-deficient pair (the divisibility of the other channel by a
complementary channel, through Theorem 1), is checked against the
divisibility oracle, on dimensions with d_B != d_C and with a factor of
dimension 1, including rank-deficient and inconsistent systems. The route's
search space must contain the forced support of the pair, computed from
explicit null columns.
"""

import numpy as np
import pytest
from dense_oracle import (
    dense_forward,
    dense_rhs,
    div_oracle,
    marginal_oracle,
    oracle_constraints,
    residual_norm,
)
from paths import INSTANCES, dressed, noisy, thm1_pair

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat import feasibility as fz
from chancompat.channels import Channel
from chancompat.feasibility import (
    CompositionConstraintSet,
    SolverConfig,
    Status,
    certificate_bound,
    solve,
)
from chancompat.linalg import (
    dag,
    devectorize_hermitian,
    partial_trace,
    project_psd,
    vectorize_hermitian,
)

CONFIG = SolverConfig()


def support_oracle(psi, phi):
    """The earlier forced support: the orthogonal complement of every kernel
    vector of either Choi operator tensored with a basis vector of the traced
    factor, from a full SVD of their column stack."""
    da, db, dc = psi.dim_in, psi.dim_out, phi.dim_out

    def kernel(mat):
        w, v = np.linalg.eigh(0.5 * (mat + dag(mat)))
        return v[:, w < 1e-9 * max(1.0, w[-1])]

    null_cols = []
    for col in kernel(psi.choi).T:
        for c in range(dc):
            w = np.zeros((da, db, dc), dtype=complex)
            w[:, :, c] = col.reshape(da, db)
            null_cols.append(w.reshape(-1))
    for col in kernel(phi.choi).T:
        for b in range(db):
            w = np.zeros((da, db, dc), dtype=complex)
            w[:, b, :] = col.reshape(da, dc)
            null_cols.append(w.reshape(-1))
    if not null_cols:
        return None
    u, s, _ = np.linalg.svd(np.column_stack(null_cols), full_matrices=True)
    return u[:, int(np.count_nonzero(s > 1e-10 * s[0])) :]


def route(psi, phi):
    """The compatibility route the check should take: ``"marginal"`` when
    both Choi operators have full rank, else ``"psi"`` or ``"phi"``, the
    channel whose complementary gives the smaller quotient space (``"psi"``
    on a tie), with that channel's minimal Kraus set."""
    k_psi, k_phi = ch.kraus_from_choi(psi), ch.kraus_from_choi(phi)
    side_psi, side_phi = k_psi.dim_env * phi.dim_out, k_phi.dim_env * psi.dim_out
    if min(side_psi, side_phi) == psi.dim_in * psi.dim_out * phi.dim_out:
        return "marginal", None
    return ("phi", k_phi) if side_phi < side_psi else ("psi", k_psi)


def compat_instances():
    rng = np.random.default_rng(505)
    out = []
    for d, env in ((2, 2), (3, 3), (2, 4)):
        psi, phi = thm1_pair(rng, d, env)
        out.append(pytest.param(psi, phi, id=f"thm1-d{d}-env{env}"))
        out.append(pytest.param(noisy(psi, 0.01), noisy(phi, 0.01), id=f"noisy-d{d}-env{env}"))
    # The bare full-rank qutrit pair of this draw stalls on a plateau for
    # 2000 iterations (identically on both builders); only its noisy
    # version runs here.
    psi, phi = thm1_pair(rng, 3, 9)
    out.append(pytest.param(noisy(psi, 0.01), noisy(phi, 0.01), id="noisy-d3-env9"))
    psi, phi = thm1_pair(rng, 2, 2)
    chi = ch.choi_from_kraus(ch.random_measure_prepare(2, rng))
    out.append(pytest.param(ch.tensor(psi, chi), ch.tensor(phi, chi), id="tensored-64"))
    return out


def div_instances():
    rng = np.random.default_rng(606)
    out = []
    for d in (2, 3, 4):
        psi = ch.random_channel(d, d, rng, dim_env=2)
        phi = ch.compose_choi(psi, ch.random_channel(d, d, rng, dim_env=d))
        out.append(pytest.param(psi, phi, id=f"div-d{d}"))
    # Rows that are inconsistent on their own: certified with bound sqrt(6).
    psi, phi, _ = ch.trace_out_pair(ch.completely_depolarizing(2), ch.identity(2))
    out.append(pytest.param(psi, phi, id="example2"))
    # Rank-deficient psi: amplitude damping's (anti-)degradability on either
    # side of gamma = 1/2, its dressed version against the identity, and
    # random psi of Kraus rank 2 or 3 against the identity.
    for gamma in (0.3, 0.7):
        kraus = ch.amplitude_damping(gamma)
        psi, psi_c = ch.choi_from_kraus(kraus), ch.complementary(kraus)
        out.append(pytest.param(psi, psi_c, id=f"degradable-ad-{gamma}"))
        out.append(pytest.param(psi_c, psi, id=f"antidegradable-ad-{gamma}"))
        psi_d = dressed(psi, ch.random_unitary(2, rng), ch.random_unitary(2, rng))
        out.append(pytest.param(psi_d, ch.identity(2), id=f"dressed-ad-{gamma}-id"))
    for d in (2, 3):
        out.append(pytest.param(ch.random_channel(d, d, rng), ch.identity(d), id=f"random-d{d}-id"))
    return out


def forward_columns(cons):
    """The constraint matrix of any constraint set, one forward map per
    basis element of its variable."""
    basis = np.eye(cons.dim * cons.dim)
    return np.column_stack([dense_forward(cons, devectorize_hermitian(e)) for e in basis])


def assert_parity(report, oracle):
    cons = report.constraints
    m = forward_columns(cons)
    assert m.shape == oracle.matrix.shape
    assert np.abs(m - oracle.matrix).max() <= 1e-14
    assert np.array_equal(dense_rhs(cons), oracle.rhs)
    expected = solve(oracle, CONFIG)
    assert report.status is expected.status
    assert report.iterations == expected.iterations
    assert report.stop_reason == expected.stop_reason
    assert (report.solution is None) == (expected.solution is None)
    if report.solution is not None:
        assert np.abs(report.solution - expected.solution).max() <= 1e-12
    if report.status is Status.FEASIBLE:
        # The solution is in the coordinates of the reported constraints.
        assert report.solution.shape == (cons.dim, cons.dim)
        assert residual_norm(cons, report.solution) < CONFIG.eps_feas
    return expected


def hermitian_part(m):
    """The target a constraint set builds its rows from."""
    return 0.5 * (m + dag(m))


def support_instances():
    identities = [
        pytest.param(ch.identity(d), ch.identity(d), id=f"identity-d{d}") for d in (2, 3)
    ]
    return compat_instances() + identities


def route_oracle(psi, phi):
    """Oracle system of the route ``check_compatibility`` takes."""
    side, kraus = route(psi, phi)
    if side == "marginal":
        return marginal_oracle(psi, phi)
    return div_oracle(ch.complementary(kraus), phi if side == "psi" else psi)


def test_instances_cover_both_kinds_of_compatibility_system():
    pairs = {p.id: p.values for p in support_instances()}
    sides = {key: route(*pair)[0] for key, pair in pairs.items()}
    assert {"marginal", "psi"} <= set(sides.values())
    assert sides["thm1-d2-env2"] == sides["tensored-64"] == sides["identity-d2"] == "psi"
    psi, phi = pairs["tensored-64"]
    assert psi.dim_in * psi.dim_out * phi.dim_out == 64

    # A rank-deficient psi goes through psi_c: the quotient maps psi's
    # environment to C and its composition rows hold phi.
    psi, phi = pairs["thm1-d2-env2"]
    rank = len(ch.kraus_from_choi(psi).operators)
    assert rank < 4 == len(ch.kraus_from_choi(phi).operators)
    cons = an.check_compatibility(psi, phi, CONFIG).solver.constraints
    assert isinstance(cons, CompositionConstraintSet) and cons.dims == (2, rank, 2)
    rows = vectorize_hermitian(hermitian_part(phi.choi))
    assert np.array_equal(dense_rhs(cons)[rank * rank :], rows)

    # With the pair swapped, the full-rank first channel leaves the route to
    # the second one's complementary, and the witness's outputs are swapped
    # back from C (x) B.
    rep = an.check_compatibility(phi, psi, CONFIG)
    cons = rep.solver.constraints
    assert isinstance(cons, CompositionConstraintSet) and cons.dims == (2, rank, 2)
    rows = vectorize_hermitian(hermitian_part(phi.choi))
    assert np.array_equal(dense_rhs(cons)[rank * rank :], rows)
    lifted = an.compatibilizer_from_postprocessing(
        ch.kraus_from_choi(psi), Channel(rank, 2, rep.solver.solution)
    )
    assert np.array_equal(rep.compatibilizer.choi, ch.swap_output(lifted, 2, 2).choi)

    # Both full rank: the joint itself, under the marginal constraints as a
    # composition with rho -> rho (x) I_B whose first target is J_psi.
    psi, phi = pairs["noisy-d2-env2"]
    cons = an.check_compatibility(psi, phi, CONFIG).solver.constraints
    assert isinstance(cons, CompositionConstraintSet) and cons.dims == (2, 4, 2)
    assert np.array_equal(dense_rhs(cons), marginal_oracle(psi, phi).rhs)


@pytest.mark.parametrize("psi, phi", support_instances())
def test_support_matches_null_column_oracle(psi, phi):
    # Theorem 1 is exact: every PSD joint with the pair's marginals lies on
    # the forced support, and that support lies in the range of the route's
    # congruence, (R (x) I_C) for R the chosen channel's Kraus columns.
    dims = (psi.dim_in, psi.dim_out, phi.dim_out)
    expected = support_oracle(psi, phi)
    side, kraus = route(psi, phi)
    assert (side == "marginal") == (expected is None)
    if expected is None:
        return
    r = np.stack(kraus.operators, axis=-1).transpose(1, 0, 2).reshape(dims[0] * kraus.dim_out, -1)
    other = dims[2] if side == "psi" else dims[1]
    lift = np.kron(r, np.eye(other))
    if side == "phi":  # rows from A (x) C (x) B to A (x) B (x) C
        lift = lift.reshape(dims[0], dims[2], dims[1], -1).transpose(0, 2, 1, 3)
        lift = lift.reshape(int(np.prod(dims)), -1)
    basis = np.linalg.qr(lift)[0]
    gap = expected - basis @ (dag(basis) @ expected)
    assert np.abs(gap).max(initial=0.0) <= 1e-10


@pytest.mark.parametrize("psi, phi", compat_instances())
def test_compatibility_assembly_matches_oracle(psi, phi):
    report = an.check_compatibility(psi, phi, CONFIG).solver
    assert isinstance(report.constraints, CompositionConstraintSet)
    assert_parity(report, route_oracle(psi, phi))


def marginal_set(dims, first, second):
    """``Tr_C X = first``, ``Tr_B X = second`` on A (x) B (x) C, as
    ``check_compatibility`` builds it for a full-rank pair: the composition
    with rho -> rho (x) I_B, whose Choi operator is ``|I><I| (x) I_B``."""
    da, db, dc = dims
    gamma = np.kron(ch.identity(da).choi, np.eye(db))
    return CompositionConstraintSet((da, da * db, dc), gamma, second, first=first)


def marginal_pair(dims, shift):
    """Both marginals of a random channel A -> B (x) C, with the first one's
    A-marginal moved by ``shift * I_A``."""
    da, db, dc = dims
    joint = ch.random_channel(da, db * dc, np.random.default_rng(list(dims))).choi
    first = partial_trace(joint, dims, (0, 1)) + shift * np.eye(da * db) / db
    return first, partial_trace(joint, dims, (0, 2))


def assert_multiplier_parity(cons, oracle, y, tol):
    """The set's multipliers for Y, in blocks, against the oracle's dense
    vector within ``tol``; G and the bound from the blocks and from the
    joined vector against the oracle's."""
    lam = cons.residual_multipliers(cons.residual_rows(y))
    dense = oracle.residual_multipliers(oracle.residual_rows(y))
    vec = cons.join(lam)
    assert np.abs(vec - oracle.join(dense)).max() <= tol
    g = oracle.adjoint(oracle.split(vec))
    assert np.abs(cons.adjoint(lam) - g).max() <= 1e-13
    assert np.abs(cons.adjoint(cons.split(vec)) - g).max() <= 1e-13
    bound = certificate_bound(cons, vec)
    assert abs(bound - certificate_bound(oracle, vec)) <= 1e-12
    assert abs(bound - fz._bound(cons, lam, 0.0)) <= 1e-12 * max(1.0, bound)


# A shift of 1e-12 is the size of real disagreement (Choi operators agree to
# rounding); at 1e-6 the least-squares targets move the projection by far
# more than rounding, so dropping them fails the comparison.
@pytest.mark.parametrize(
    "shift", [0.0, 1e-12, 1e-6], ids=["consistent", "shift-1e-12", "shift-1e-6"]
)
# A dimension of 1 makes the joint a channel with a trivial input (d_A = 1)
# or a trivial output factor (d_B = 1, d_C = 1).
@pytest.mark.parametrize(
    "dims", [(2, 2, 2), (2, 3, 4), (3, 3, 3), (1, 2, 3), (2, 1, 3), (2, 3, 1)], ids=str
)
def test_marginal_set_matches_dense_oracle(dims, shift):
    first, second = marginal_pair(dims, shift)
    cons = marginal_set(dims, first, second)
    oracle = oracle_constraints(
        cons.dim,
        [
            (lambda x: partial_trace(x, dims, (0, 1)), first),
            (lambda x: partial_trace(x, dims, (0, 2)), second),
        ],
    )
    assert np.abs(forward_columns(cons) - oracle.matrix).max() <= 1e-14
    assert np.array_equal(dense_rhs(cons), oracle.rhs)
    assert np.abs(np.subtract(cons.trace_scalars, oracle.trace_scalars)).max() <= 1e-13
    rng = np.random.default_rng(1)
    for _ in range(3):
        g = rng.standard_normal((cons.dim,) * 2) + 1j * rng.standard_normal((cons.dim,) * 2)
        x = g + dag(g)
        assert np.abs(cons.correction(x) - oracle.correction(x)).max() <= 1e-13
        assert abs(residual_norm(cons, x) - residual_norm(oracle, x)) <= 1e-13
        assert_multiplier_parity(cons, oracle, project_psd(x), 1e-13)


@pytest.mark.parametrize("psi, phi", div_instances())
def test_divisibility_assembly_matches_oracle(psi, phi):
    report = an.check_divisibility(psi, phi, CONFIG).solver
    assert isinstance(report.constraints, CompositionConstraintSet)
    expected = assert_parity(report, div_oracle(psi, phi))
    if report.certificate is not None:
        bound = certificate_bound(report.constraints, report.certificate)
        assert abs(bound - certificate_bound(expected.constraints, expected.certificate)) <= 1e-12


# d_B != d_C catches a transposed factor order; a dimension of 1 leaves the
# composition block's complement of vec(I_C) empty (d_C = 1) or makes the
# realigned psi a single row (d_A = 1) or column (d_B = 1).
@pytest.mark.parametrize(
    "dims", [(2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 3, 2), (3, 2, 4), (2, 2, 1), (1, 3, 2)], ids=str
)
def test_composition_set_matches_dense_oracle(dims):
    da, db, dc = dims
    rng = np.random.default_rng(list(dims))
    psi = ch.random_channel(da, db, rng, dim_env=2)
    # A divisible target moved off M's range, so that the least-squares part
    # of the projection and the multipliers orthogonal to M's range show.
    g = rng.standard_normal((da * dc,) * 2) + 1j * rng.standard_normal((da * dc,) * 2)
    phi = Channel(
        da, dc, ch.compose_choi(psi, ch.random_channel(db, dc, rng)).choi + 1e-3 * (g + dag(g))
    )
    cons = CompositionConstraintSet(dims, psi.choi, phi.choi)
    oracle = div_oracle(psi, phi)
    assert np.abs(forward_columns(cons) - oracle.matrix).max() <= 1e-14
    assert np.array_equal(dense_rhs(cons), oracle.rhs)
    assert np.abs(np.subtract(cons.trace_scalars, oracle.trace_scalars)).max() <= 1e-13
    assert np.abs(cons.start() - oracle.start()).max() <= 1e-13
    for _ in range(3):
        g = rng.standard_normal((cons.dim,) * 2) + 1j * rng.standard_normal((cons.dim,) * 2)
        x = g + dag(g)
        assert np.abs(cons.correction(x) - oracle.correction(x)).max() <= 1e-13
        assert abs(residual_norm(cons, x) - residual_norm(oracle, x)) <= 1e-13
        y = project_psd(x)
        tol = 1e-12 * residual_norm(cons, y)
        assert_multiplier_parity(cons, oracle, y, tol)


def test_composition_set_builds_rows_from_hermitian_targets():
    rng = np.random.default_rng(8)
    psi = ch.random_channel(2, 2, rng, dim_env=2)
    phi = ch.compose_choi(psi, ch.random_channel(2, 2, rng)).choi
    # Anti-Hermitian parts of 5e-10, within the channel loader's 1e-9.
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1], skew[1, 0] = 5e-10, -5e-10
    first = np.eye(2) + skew[:2, :2]
    cons = CompositionConstraintSet((2, 2, 2), psi.choi + skew, phi + 1j * np.abs(skew), first)
    herm = CompositionConstraintSet(
        (2, 2, 2), hermitian_part(psi.choi), hermitian_part(phi), hermitian_part(first)
    )
    assert np.array_equal(dense_rhs(cons), dense_rhs(herm))
    assert np.array_equal(cons.start(), herm.start())
    project_psd(cons.start())  # a Hermitian start point
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(cons.correction(g + dag(g)), herm.correction(g + dag(g)))

    # Exactly Hermitian targets are taken bit for bit, signs of zeros too.
    exact = hermitian_part(phi)
    exact.imag[np.diag_indices(4)] = -0.0
    cons = CompositionConstraintSet((2, 2, 2), psi.choi, exact)
    realigned = exact.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    assert cons.rhs_blocks[1].tobytes() == realigned.tobytes()

    for kwargs, name in (
        ({"first": [[1.0, 0.5], [0.0, 1.0]]}, "first is not Hermitian"),
        ({"phi": phi + 1e-7 * skew / 5e-10}, "phi is not Hermitian"),
        ({"psi": np.full((4, 4), np.nan)}, "psi must be a finite 4 x 4"),
        ({"phi": np.eye(3)}, "phi must be a finite 4 x 4"),
    ):
        args = {"psi": psi.choi, "phi": phi, **kwargs}
        with pytest.raises(ValueError, match=name):
            CompositionConstraintSet((2, 2, 2), **args)


@pytest.mark.parametrize("d", [5, 6])
def test_large_divisible_pairs_are_feasible_at_iteration_one(d):
    # A dense M would be 650 x 625 (d=5) and 1332 x 1296 (d=6).
    instance = INSTANCES[f"large-div-d{d}"]
    psi, phi = instance.channels
    rep = instance.run()
    assert rep.status is Status.FEASIBLE
    assert rep.solver.iterations == 1
    assert ch.choi_distance(ch.compose_choi(psi, rep.quotient), phi) < CONFIG.eps_feas
    ch.validate_channel(rep.quotient, atol=1e-7)
