"""The closed-form constraint set against dense oracles.

The oracle (``dense_oracle.oracle_constraints``) applies each forward map to
every Hermitian basis element of the variable and stores the constraint
matrix column by column. Every system gets the ``CompositionConstraintSet``,
which has no matrix: its rows (read off its adjoint, ``dense_matrix``),
residual norm, projection, multipliers (Hermitian operators on each row
block's space, one per forward map of the oracle) and trace coordinates are
compared with the oracle, and its solves must match the oracle's. A
compatibility pair whose Choi operators both have full rank is the joint
under its marginal rows, a composition after rho -> rho (x) I_B with
``J_psi`` as the first target; it is checked against the marginal oracle,
also on targets whose A-marginals disagree and with a factor of dimension
1. Every divisibility system, and the compatibility system of a
rank-deficient pair (the divisibility of the other channel by a
complementary channel, through Theorem 1), is checked against the
divisibility oracle, on dimensions with d_B != d_C and with a factor of
dimension 1, including rank-deficient and inconsistent systems. The route's
search space must contain the forced support of the pair, computed from
explicit null columns.
"""

import inspect
import math

import numpy as np
import pytest
from dense_oracle import (
    dense_matrix,
    dense_rhs,
    div_oracle,
    marginal_oracle,
    oracle_constraints,
    residual_norm,
    vectorize_hermitian,
)
from paths import INSTANCES, depolarizing, dressed, noisy, thm1_pair
from test_certificates import spy

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat import feasibility as fz
from chancompat.channels import Channel, KrausSet
from chancompat.feasibility import (
    CompositionConstraintSet,
    SolverConfig,
    Status,
    certificate_bound,
    solve,
)
from chancompat.linalg import dag, partial_trace, project_psd

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
    # The trace map by the completely depolarizing channel: K keeps one
    # singular value of four, but with d_C = 1 M is N alone, so the set is
    # injective, as the oracle's is.
    trace = Channel(2, 1, np.eye(2))
    out.append(pytest.param(ch.completely_depolarizing(2), trace, id="trace-by-depolarizing"))
    return out


def assert_parity(report, oracle):
    cons = report.constraints
    m = dense_matrix(cons)
    assert m.shape == oracle.matrix.shape
    assert np.abs(m - oracle.matrix).max() <= 1e-14
    assert np.array_equal(dense_rhs(cons), oracle.rhs)
    # Both are injective or neither, and both offer the same point x* that
    # their composition rows fix, or none.
    assert cons.injective == oracle.injective
    point, dense_point = cons.inverse_point(), oracle.inverse_point()
    assert (point is None) == (dense_point is None)
    if point is not None:
        assert np.abs(point - dense_point).max() <= 1e-12 * np.abs(point).max()
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


@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
@pytest.mark.parametrize("psi, phi", support_instances())
def test_compatibility_extracts_a_kraus_set_only_for_the_channel_it_dilates(
    psi, phi, swap, monkeypatch
):
    # Both channels are validated and eigendecomposed, since their ranks
    # pick the route. A Kraus set is then taken from the eigendecomposition
    # of the dilated channel alone, none for the identity dilation, and it
    # is the set that kraus_from_eigh gives from validated_eigh, bit for bit.
    if swap:
        psi, phi = phi, psi
    side, kraus = route(psi, phi)
    validated = spy(monkeypatch, ch, "validated_eigh")
    taken = spy(monkeypatch, ch, "kraus_from_eigh")
    an.check_compatibility(psi, phi, CONFIG)
    ((first,), _), ((second,), _) = validated
    assert first is psi and second is phi
    if side == "marginal":
        assert taken == []
    else:
        (((channel, _, _), got),) = taken
        assert channel is (psi if side == "psi" else phi)
        assert [k.tobytes() for k in got.operators] == [k.tobytes() for k in kraus.operators]
        expected = ch.kraus_from_eigh(channel, *ch.validated_eigh(channel)[1:])
        assert [k.tobytes() for k in got.operators] == [k.tobytes() for k in expected.operators]


def operator_passes(monkeypatch):
    """``passes(m)``, for every later call: the finiteness passes
    (``require_finite``) and the Hermitian-part and skew passes (in
    validation and in a constraint set's ``_target``) on the operator m, and
    the ``eigh`` and ``eigvalsh`` calls on its Hermitian part, matched by
    value."""
    finite = spy(monkeypatch, ch, "require_finite")
    skew = spy(monkeypatch, ch, "hermitian_part_and_skew")
    skew_in_set = spy(monkeypatch, fz, "hermitian_part_and_skew")
    eigh = spy(monkeypatch, np.linalg, "eigh")
    eigvalsh = spy(monkeypatch, np.linalg, "eigvalsh")

    def on(calls, m):
        return sum(np.shape(args[0]) == m.shape and np.array_equal(args[0], m) for args, _ in calls)

    def passes(m):
        h = hermitian_part(m)
        return on(finite, m), on(skew + skew_in_set, m), on(eigh, h), on(eigvalsh, h)

    return passes


def skewed(c, size=2e-10):
    """c with an anti-Hermitian part of ``size``, within ``EPS_VALID``: its
    validation proves its Hermitian part, not c's Choi operator itself."""
    j = c.choi.astype(complex)
    j[0, 1] += size
    j[1, 0] -= size
    return Channel(c.dim_in, c.dim_out, j)


@pytest.mark.parametrize("form", ["hermitian", "skewed", "numpy-dims"])
def test_divisibility_checks_each_operator_once(form, monkeypatch):
    # Validation checks each Choi operator once, eigenvalues alone, and the
    # set takes the operator it proved with no second pass: the set that
    # the constructor builds from the same channels, bit for bit, with the
    # same Python int dimensions when the channels carry numpy integers.
    rng = np.random.default_rng(41)
    psi = ch.random_channel(2, 2, rng, dim_env=2)
    phi = ch.compose_choi(psi, ch.random_channel(2, 2, rng))
    if form == "skewed":
        psi, phi = skewed(psi), skewed(phi)
    elif form == "numpy-dims":
        psi = Channel(np.int64(2), np.int32(2), psi.choi)
        phi = Channel(np.int64(2), np.int8(2), phi.choi)
    passes = operator_passes(monkeypatch)
    cons = an.check_divisibility(psi, phi, CONFIG).solver.constraints
    assert passes(psi.choi) == passes(phi.choi) == (1, 1, 0, 1)
    direct = CompositionConstraintSet((psi.dim_in, psi.dim_out, phi.dim_out), psi.choi, phi.choi)
    assert [type(d) for d in (*cons.dims, cons.dim)] == [int] * 4
    assert (cons.dims, cons.dim) == (direct.dims, direct.dim)
    for got, want in zip(cons.rhs_blocks + (cons._k,), direct.rhs_blocks + (direct._k,)):
        assert got.tobytes() == want.tobytes()


def test_family_divisibility_checks_each_member_once(monkeypatch):
    # n checks for n members; before, each inner member was checked three
    # times: once by validation and once by each set that holds it.
    rng = np.random.default_rng(42)
    step = ch.random_channel(2, 2, rng, dim_env=3)
    family = [step]
    for _ in range(3):
        family.append(ch.compose_choi(family[-1], step))
    passes = operator_passes(monkeypatch)
    an.check_family_divisibility(family, CONFIG)
    assert [passes(member.choi) for member in family] == [(1, 1, 0, 1)] * 4


@pytest.mark.parametrize("check", [an.check_degradable, an.check_antidegradable])
@pytest.mark.parametrize("gamma", [0.3, 0.7])
def test_degradability_checks_each_operator_once(check, gamma, monkeypatch):
    # psi is proved finite once, by the test that the Kraus set represents
    # it, and then validated without that pass; its complementary channel is
    # validated once. Neither set checks them again.
    kraus = ch.amplitude_damping(gamma)
    psi, psi_c = ch.choi_from_kraus(kraus), ch.complementary(kraus)
    assert not np.array_equal(psi.choi, psi_c.choi)
    passes = operator_passes(monkeypatch)
    check(psi, kraus, CONFIG)
    assert passes(psi.choi) == passes(psi_c.choi) == (1, 1, 0, 1)


def test_degradability_raises_in_the_order_of_its_division():
    # psi's finiteness is tested before its Kraus set, and its other
    # defects after, under the name its division gives it: psi when it is
    # divided, phi, after its complementary channel, when it is the target.
    kraus = ch.amplitude_damping(0.3)
    psi = ch.choi_from_kraus(kraus).choi
    near = Channel(2, 2, psi - 5e-9 * np.eye(4))  # within EPS_EQ of the set's, not CP
    with pytest.raises(ValueError, match="^psi is not completely positive"):
        an.check_degradable(near, kraus)
    with pytest.raises(ValueError, match="^phi is not completely positive"):
        an.check_antidegradable(near, kraus)
    nan = psi.copy()
    nan[0, 0] = np.nan
    incomplete = KrausSet(2, 2, kraus.stack * 1.001)
    for check in (an.check_degradable, an.check_antidegradable):
        with pytest.raises(ValueError, match="^psi has a non-finite entry$"):
            check(Channel(2, 2, nan), incomplete)


@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
@pytest.mark.parametrize("psi, phi", support_instances())
def test_compatibility_decomposes_each_operator_once(psi, phi, swap, monkeypatch):
    # One eigh of each validates it and gives its rank, and the dilated
    # channel's Kraus set is taken from that eigh; neither operator is
    # checked again, by an eigensolve or by the set.
    if swap:
        psi, phi = phi, psi
    passes = operator_passes(monkeypatch)
    an.check_compatibility(psi, phi, CONFIG)
    # identity-dN checks a channel with itself: both counts fall on it.
    want = (2, 2, 2, 0) if np.array_equal(psi.choi, phi.choi) else (1, 1, 1, 0)
    assert passes(psi.choi) == passes(phi.choi) == want


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
    """The set's multiplier operators for Y against the oracle's, one per
    row block, within ``tol``; G and the bound from them on both sets."""
    lam = cons.residual_multipliers(cons.residual_rows(y))
    dense = oracle.residual_multipliers(oracle.residual_rows(y))
    assert [x.shape for x in lam] == [x.shape for x in dense]
    assert max(np.abs(x - z).max() for x, z in zip(lam, dense)) <= tol
    g = oracle.adjoint(lam)
    assert np.abs(cons.adjoint(lam) - g).max() <= 1e-13
    assert np.abs(cons.adjoint(dense) - g).max() <= 1e-13
    bound = certificate_bound(cons, lam)
    assert abs(bound - certificate_bound(oracle, lam)) <= 1e-12
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
    assert np.abs(dense_matrix(cons) - oracle.matrix).max() <= 1e-14
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
        # Each certificate re-checks on the other's rows.
        assert abs(bound - certificate_bound(expected.constraints, report.certificate)) <= 1e-12
        assert abs(bound - certificate_bound(report.constraints, expected.certificate)) <= 1e-12


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
    assert np.abs(dense_matrix(cons) - oracle.matrix).max() <= 1e-14
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
    assert cons.rhs_blocks[1].tobytes() == exact.tobytes()

    for kwargs, name in (
        ({"first": [[1.0, 0.5], [0.0, 1.0]]}, "first is not Hermitian"),
        ({"phi": phi + 1e-7 * skew / 5e-10}, "phi is not Hermitian"),
        ({"psi": np.full((4, 4), np.nan)}, "psi must be a finite 4 x 4"),
        ({"phi": np.eye(3)}, "phi must be a finite 4 x 4"),
        ({"dims": (2, 0, 2)}, r"dims must be three positive dimensions, got \(2, 0, 2\)"),
        ({"dims": (2, 2)}, r"dims must be three positive dimensions, got \(2, 2\)"),
    ):
        args = {"dims": (2, 2, 2), "psi": psi.choi, "phi": phi, **kwargs}
        with pytest.raises(ValueError, match=name):
            CompositionConstraintSet(**args)


@pytest.mark.parametrize("d", [5, 6])
def test_large_divisible_pairs_are_feasible_at_iteration_zero(d):
    # A dense M would be 650 x 625 (d=5) and 1332 x 1296 (d=6). The start,
    # shifted at rounding level, is the quotient: no iteration runs.
    instance = INSTANCES[f"large-div-d{d}"]
    psi, phi = instance.channels
    rep = instance.report
    assert rep.status is Status.FEASIBLE
    assert rep.solver.iterations == 0
    assert ch.choi_distance(ch.compose_choi(psi, rep.quotient), phi) < CONFIG.eps_feas
    ch.validate_channel(rep.quotient, atol=1e-7)


def _square(name):
    a, b, _ = INSTANCES[name].report.solver.constraints.dims
    return a == b


@pytest.mark.parametrize("name", [n for n in INSTANCES if not _square(n)])
def test_the_start_takes_the_conjugate_right_basis_from_the_gram_factor(name):
    # The kept right basis's conjugate transpose is a view of the whole
    # basis's, which the Gram solve holds, in the same F order, so M^+ b
    # keeps the bits of conjugate transposes formed apart from K's thin
    # SVD. A set that is not square factors K by its SVD.
    cons = INSTANCES[name].report.solver.constraints
    c = cons.dims[2]
    left, s, right = np.linalg.svd(cons._k, full_matrices=False)
    rank = np.count_nonzero(s > fz._RCOND * math.sqrt(s[0] ** 2 + c))
    y_u = cons._phi @ cons._u
    v = math.sqrt(c) * cons._first + cons._kh @ y_u
    x_u = v / c - right.conj().T @ (s * s / (c * (c + s * s)) * (right @ v))
    rest = left[:, :rank].conj().T @ (cons._phi - y_u[:, None] * cons._u) / s[:rank, None]
    x0r = x_u[:, None] * cons._u + right[:rank].conj().T @ rest
    assert cons.start().tobytes() == x0r.take(cons._back).tobytes()
    assert cons._factors.right[0].tobytes() == right[:rank].tobytes()
    assert_right_h_is_a_view_of_the_gram_factor(cons)


def assert_right_h_is_a_view_of_the_gram_factor(cons):
    # The kept conjugate transpose that correction applies lies in the very
    # array that the Gram solve applies, the whole basis's conjugate
    # transpose, as its first columns: not a second conjugate transpose.
    right, right_h = cons._factors.right
    gram_h = inspect.getclosurevars(cons._factors.gram_solve).nonlocals["right_h"]
    assert right_h.tobytes() == right.conj().T.tobytes() and right_h.flags.f_contiguous
    assert gram_h.shape == (cons._k.shape[1], min(cons._k.shape))
    assert np.shares_memory(right_h, gram_h)
    assert right_h.ctypes.data == gram_h.ctypes.data and right_h.strides == gram_h.strides


def _real_channel(d, rank, rng):
    """A random real channel on R^d: the Kraus operators of a random real
    isometry R^d -> R^(rank d)."""
    v, _ = np.linalg.qr(rng.standard_normal((rank * d, d)))
    return ch.choi_from_kraus(KrausSet(d, d, v.reshape(rank, d, d)))


def square_sets():
    """Square sets (d_A = d_B) whose K is nonsingular and provably well
    conditioned: the registry's four whose x* is refused, and seeded random
    ones, real and complex, at d = 2 and 3, with phi a channel or moved off
    the Tr_C rows so that x* is not M^+ b."""
    out = []
    for name in ("ad-0.6-degradable", "ad-0.4-antidegradable"):
        (psi,) = INSTANCES[name].channels
        phi = ch.complementary(ch.kraus_from_choi(psi))
        if name.endswith("-antidegradable"):
            psi, phi = phi, psi
        out.append(pytest.param(psi, phi, id=name))
    for name in ("div-ad-0.5-by-ad-0.3", "div-dep-d2-0.8-above-1e-6"):
        out.append(pytest.param(*INSTANCES[name].channels, id=name))
    rng = np.random.default_rng(3232)
    for d in (2, 3):
        for kind in ("real", "complex"):
            if kind == "real":
                psi, phi = _real_channel(d, d, rng), _real_channel(d, 2, rng)
                g = rng.standard_normal((d * d,) * 2)
            else:
                psi, phi = ch.random_channel(d, d, rng), ch.random_channel(d, d, rng, dim_env=2)
                g = rng.standard_normal((d * d,) * 2) + 1j * rng.standard_normal((d * d,) * 2)
            out.append(pytest.param(psi, phi, id=f"{kind}-d{d}"))
            moved = Channel(d, d, phi.choi + 1e-3 * (g + dag(g)))
            out.append(pytest.param(psi, moved, id=f"{kind}-d{d}-moved"))
    return out


@pytest.mark.parametrize("psi, phi", square_sets())
def test_a_square_set_factored_through_k_inverse_matches_the_dense_oracle(psi, phi, monkeypatch):
    # K's inverse stands in for its SVD: the start, the correction and the
    # trace scalars match the pseudo-inverse of the dense M within 1e-12
    # relative, and no SVD runs. Each solve is certified at iteration 1, and
    # its certificate re-checks to the same bound on the oracle's rows
    # within 1e-12 relative. The multipliers, and the bound on them, go
    # through (K K^dag)^-1, whose rounding grows as cond(K)^2: on the real
    # d = 3 draw (cond(K) = 116) K's SVD differs from the oracle by 9e-12 as
    # well, so they match within max(1e-12, 1e-14 cond(K)^2).
    d = psi.dim_in
    cons = CompositionConstraintSet((d, d, d), psi.choi, phi.choi)
    oracle = div_oracle(psi, phi)
    assert cons.injective and cons._factors.right is None
    s = np.linalg.svd(cons._k, compute_uv=False)
    squared = max(1e-12, 1e-14 * (s[0] / s[-1]) ** 2)

    def close(x, y, tol=1e-12):
        return np.abs(x - y).max() <= tol * np.abs(y).max()

    assert close(cons.start(), oracle.start())
    assert close(np.array(cons.trace_scalars), np.array(oracle.trace_scalars))
    rng = np.random.default_rng(d)
    for _ in range(3):
        g = rng.standard_normal((cons.dim,) * 2) + 1j * rng.standard_normal((cons.dim,) * 2)
        x = g + dag(g)
        assert close(cons.correction(x), oracle.correction(x))
        y = project_psd(x)
        lam = cons.residual_multipliers(cons.residual_rows(y))
        dense = oracle.residual_multipliers(oracle.residual_rows(y))
        assert all(close(z, w, squared) for z, w in zip(lam, dense, strict=True))
        bound = certificate_bound(cons, lam)
        assert abs(bound - certificate_bound(oracle, dense)) <= squared * bound
    svd = spy(monkeypatch, np.linalg, "svd")
    rep = solve(CompositionConstraintSet((d, d, d), psi.choi, phi.choi), CONFIG)
    assert (rep.stop_reason, rep.iterations, svd) == ("certificate", 1, [])
    bound = certificate_bound(rep.constraints, rep.certificate)
    assert bound >= 10 * CONFIG.eps_feas
    assert abs(bound - certificate_bound(oracle, rep.certificate)) <= 1e-12 * bound


@pytest.mark.parametrize("eta, rank", [(1e-10, 1), (2e-10, 4), (3e-10, None)])
def test_a_square_set_failing_the_conditioning_bound_keeps_its_svd_rank(eta, rank, monkeypatch):
    # Depolarizing d = 2 at eta has K's singular values 1 and eta, three
    # times. The LU solve finds K nonsingular and offers x* at each eta. At
    # 1e-10 and 2e-10, _RCOND ||K^-1||_F sqrt(||K||_F^2 + d_C) >= 1, so the
    # set factors K by its SVD and keeps the singular values above _RCOND
    # sqrt(s_max^2 + d_C), as before: one of four at 1e-10, all four at
    # 2e-10. The set is injective exactly when the SVD keeps all four. At
    # 3e-10 the bound proves that the cut keeps all four, and K's inverse
    # stands in.
    cons = CompositionConstraintSet((2, 2, 2), depolarizing(2, eta).choi, ch.identity(2).choi)
    assert cons.inverse_point() is not None
    svd = spy(monkeypatch, np.linalg, "svd")
    cons.start()
    assert cons.injective is (rank != 1) and len(svd) == (rank is not None)
    if rank is not None:
        s = svd[0][1][1]
        kept = cons._factors.right[0].shape[0]
        assert kept == rank == np.count_nonzero(s > fz._RCOND * math.sqrt(s[0] ** 2 + 2))
        assert_right_h_is_a_view_of_the_gram_factor(cons)
