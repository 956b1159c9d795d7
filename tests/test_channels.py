import itertools

import numpy as np
import pytest

from chancompat import channels as ch, io
from chancompat.feasibility import CompositionConstraintSet
from chancompat.linalg import dag, frob, hermitian_part, hermitian_part_and_skew, partial_trace
from chancompat.linalg import realign


def hermitian_units(d):
    """Hermitian operator basis made of matrix units symmetrized on the fly."""
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            yield e


def test_identity_choi_shape_rank_trace():
    c = ch.identity(2)
    w = np.eye(2).reshape(-1)
    assert np.allclose(c.choi, np.outer(w, w), atol=1e-14)
    assert np.linalg.matrix_rank(c.choi) == 1
    assert abs(np.trace(c.choi) - 2.0) < 1e-12


def test_depolarizing_choi_matches_direct_construction():
    # Oracle: assemble the Choi operator from the map rho -> Tr(rho) I/2
    # evaluated on matrix units.
    d = 2
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            expected += np.kron(e, np.trace(e) * np.eye(d) / d)
    assert np.allclose(expected, np.eye(4) / 2, atol=1e-15)
    assert np.allclose(ch.completely_depolarizing(2).choi, expected, atol=1e-14)


def test_unitary_channel_choi_rank_one():
    rng = np.random.default_rng(0)
    u = ch.random_unitary(3, rng)
    c = ch.unitary_channel(u)
    w = np.linalg.eigvalsh(c.choi)
    assert w[-1] > 1.0
    assert np.all(w[:-1] < 1e-10)
    assert abs(np.trace(c.choi) - 3.0) < 1e-10


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(ValueError, match="completeness"):
        ch.unitary_channel(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_kraus_from_choi_identity():
    k = ch.kraus_from_choi(ch.identity(2))
    assert k.dim_env == 1
    op = k.operators[0]
    # proportional to the identity up to a global phase
    phase = op[0, 0] / abs(op[0, 0])
    assert frob(op / phase - np.eye(2)) < 1e-12


def test_kraus_from_choi_depolarizing_roundtrip():
    c = ch.completely_depolarizing(2)
    k = ch.kraus_from_choi(c)
    assert k.dim_env == 4
    assert frob(ch.choi_from_kraus(k).choi - c.choi) < 1e-10


def test_choi_kraus_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        din = int(rng.integers(2, 5))
        dout = int(rng.integers(2, 5))
        c = ch.random_channel(din, dout, rng)
        k = ch.kraus_from_choi(c)
        assert frob(ch.choi_from_kraus(k).choi - c.choi) < 1e-10


def test_kraus_from_choi_rejects_non_cp():
    bad = ch.Channel(2, 2, np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))
    with pytest.raises(ValueError):
        ch.kraus_from_choi(bad)


def test_choi_from_kraus_rejects_incomplete():
    half = ch.KrausSet(2, 2, (np.eye(2) / 2,))
    with pytest.raises(ValueError):
        ch.choi_from_kraus(half)


def nonfinite_chois():
    """AD(0.3)'s Choi operator with a NaN pair off the diagonal, with an inf
    on the diagonal (still Hermitian), and all NaN."""
    good = ch.choi_from_kraus(ch.amplitude_damping(0.3)).choi
    nan_pair, inf_diag = good.copy(), good.copy()
    nan_pair[1, 2] = nan_pair[2, 1] = np.nan
    inf_diag[0, 0] = np.inf
    all_nan = np.full((4, 4), np.nan, dtype=complex)
    return [ch.Channel(2, 2, m) for m in (nan_pair, inf_diag, all_nan)]


# Each validator tests finiteness before any arithmetic, so a non-finite entry
# raises its own error and no RuntimeWarning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("validate", [ch.validate_channel, ch.validated_kraus])
def test_validation_rejects_a_non_finite_choi_operator(validate):
    for c in nonfinite_chois():
        with pytest.raises(ValueError, match="^psi has a non-finite entry$"):
            validate(c, name="psi")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kraus_from_choi_rejects_a_non_finite_choi_operator():
    for c in nonfinite_chois():
        with pytest.raises(ValueError, match="^Choi operator has a non-finite entry$"):
            ch.kraus_from_choi(c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cptp_defects_reject_a_non_finite_choi_operator():
    for c in nonfinite_chois():
        with pytest.raises(ValueError, match="^channel has a non-finite entry$"):
            ch.cptp_defects(c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_choi_from_kraus_rejects_a_non_finite_operator():
    ad = ch.amplitude_damping(0.3)
    for bad in (np.nan, np.inf, -np.inf):
        ops = [k.copy() for k in ad.operators]
        ops[1][0, 1] = bad
        with pytest.raises(ValueError, match="^Kraus set has a non-finite entry$"):
            ch.choi_from_kraus(ch.KrausSet(2, 2, tuple(ops)))
    nan_set = ch.KrausSet(2, 2, (np.full((2, 2), np.nan),))
    with pytest.raises(ValueError, match="^Kraus set has a non-finite entry$"):
        ch.choi_from_kraus(nan_set)


def masked_kraus_stack(c):
    """The Kraus operators that a boolean mask ``w > EPS_RANK`` keeps of the
    eigenpairs of the Choi operator's Hermitian part."""
    w, v = np.linalg.eigh(hermitian_part(c.choi))
    keep = w > ch.EPS_RANK
    cols = v[:, keep] * np.sqrt(w[keep])
    return cols.T.reshape(-1, c.dim_in, c.dim_out).transpose(0, 2, 1)


def test_kept_eigenpairs_are_the_masked_ones_bit_for_bit():
    # eigh's eigenvalues ascend, so the pairs above the rank cut are a suffix.
    rank_deficient = ch.random_channel(2, 3, np.random.default_rng(12), dim_env=2)
    for c in (ch.choi_from_kraus(ch.amplitude_damping(0.3)), ch.identity(3), rank_deficient):
        expected = masked_kraus_stack(c)
        for kraus in (ch.kraus_from_choi(c), ch.validated_kraus(c)):
            assert np.array_equal(kraus.stack, expected)
    assert ch.kraus_from_choi(rank_deficient).dim_env == 2
    # An eigenvalue at the cut is dropped, as the mask drops it.
    at_cut = ch.Channel(2, 2, np.diag([0.0, ch.EPS_RANK, 2 * ch.EPS_RANK, 1.0]))
    assert np.array_equal(ch.kraus_from_choi(at_cut).stack, masked_kraus_stack(at_cut))
    assert ch.kraus_from_choi(at_cut).dim_env == 2


def test_no_eigenvalue_above_the_cut_raises():
    message = "^Choi operator has no eigenvalue above the rank threshold$"
    for m in (np.zeros((4, 4)), ch.EPS_RANK * np.eye(4)):
        with pytest.raises(ValueError, match=message):
            ch.kraus_from_choi(ch.Channel(2, 2, m))


def test_isometry_from_kraus_single_op():
    k = ch.KrausSet(2, 2, (np.eye(2),))
    v = ch.isometry_from_kraus(k)
    assert v.dim_env == 1
    assert np.allclose(v.v, np.eye(2), atol=1e-14)


def test_isometry_from_self_complementary_kraus():
    k = ch.self_complementary_qubit(1, 0.0, 0.0)
    v = ch.isometry_from_kraus(k)
    assert v.v.shape == (4, 2)
    assert v.isometry_defect() < 1e-12


def test_kraus_isometry_roundtrip_entrywise():
    rng = np.random.default_rng(2)
    k = ch.random_kraus(3, 2, 3, rng)
    back = ch.kraus_from_isometry(ch.isometry_from_kraus(k))
    assert back.dim_env == k.dim_env
    for a, b in zip(k.operators, back.operators):
        assert frob(a - b) < 1e-14


def test_isometry_reproduces_kraus_action():
    rng = np.random.default_rng(3)
    k = ch.random_kraus(2, 3, 2, rng)
    v = ch.isometry_from_kraus(k)
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    direct = sum(op @ rho @ dag(op) for op in k.operators)
    dilated = partial_trace(v.v @ rho @ dag(v.v), (3, 2), keep=(0,))
    assert frob(direct - dilated) < 1e-12


def test_isometry_channel_applies_v_without_validating():
    rng = np.random.default_rng(3)
    v = ch.isometry_from_kraus(ch.random_kraus(2, 3, 2, rng))
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    exact = ch.isometry_channel(v)
    assert frob(ch.apply(exact, rho) - v.v @ rho @ dag(v.v)) < 1e-12
    assert frob(exact.choi - ch.choi_from_kraus(ch.KrausSet(2, 6, (v.v,))).choi) < 1e-14
    # 1.1 V is no isometry; the map is still rho -> (1.1 V) rho (1.1 V)^dag.
    scaled = ch.StinespringIsometry(2, 3, 2, 1.1 * v.v)
    assert frob(ch.apply(ch.isometry_channel(scaled), rho) - 1.21 * v.v @ rho @ dag(v.v)) < 1e-12


def test_apply_identity_and_depolarizing():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = 0.5 * (g + dag(g))
    assert frob(ch.apply(ch.identity(2), rho) - rho) < 1e-13
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    assert frob(ch.apply(ch.completely_depolarizing(2), ket0) - np.eye(2) / 2) < 1e-13


def test_apply_self_complementary_on_ground_state():
    # At the dephasing-type point the first Kraus kills |0> and the second
    # maps it to |1>, so the channel sends |0><0| to |1><1|.
    k = ch.self_complementary_qubit(1, 0.0, 0.0)
    c = ch.choi_from_kraus(k)
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    expected = np.zeros((2, 2), dtype=complex)
    expected[1, 1] = 1.0
    assert frob(ch.apply(c, ket0) - expected) < 1e-13


def test_apply_preserves_trace_and_positivity():
    rng = np.random.default_rng(5)
    c = ch.random_channel(3, 2, rng)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ dag(g)
    out = ch.apply(c, rho)
    assert abs(np.trace(out) - np.trace(rho)) < 1e-10
    assert np.linalg.eigvalsh(0.5 * (out + dag(out)))[0] > -1e-10


def test_compose_with_identity():
    rng = np.random.default_rng(6)
    psi = ch.random_channel(2, 3, rng)
    assert frob(ch.compose_choi(psi, ch.identity(3)).choi - psi.choi) < 1e-12
    assert frob(ch.compose_choi(ch.identity(2), psi).choi - psi.choi) < 1e-12


def test_compose_into_depolarizing_is_absorbing():
    rng = np.random.default_rng(7)
    psi = ch.random_channel(3, 2, rng)
    out = ch.compose_choi(psi, ch.completely_depolarizing(2))
    expected = ch.Channel(3, 2, np.kron(np.eye(3), np.eye(2) / 2))
    assert frob(out.choi - expected.choi) < 1e-12


def test_compose_agrees_with_sequential_apply():
    rng = np.random.default_rng(8)
    for _ in range(10):
        psi = ch.random_channel(2, 3, rng)
        theta = ch.random_channel(3, 2, rng)
        comp = ch.compose_choi(psi, theta)
        worst = max(
            frob(ch.apply(comp, e) - ch.apply(theta, ch.apply(psi, e)))
            for e in hermitian_units(2)
        )
        assert worst < 1e-10


def partial_transpose(x, dims, subsystem):
    """Transpose the indices of one subsystem only; involutive."""
    side = int(np.prod(dims))
    assert x.shape == (side, side) and 0 <= subsystem < len(dims)
    t = np.swapaxes(x.reshape(tuple(dims) * 2), subsystem, subsystem + len(dims))
    return t.reshape(side, side)


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + dag(g))


def test_partial_transpose_swap():
    w = np.eye(2).reshape(-1)
    rho = np.outer(w, w)  # sum_ij |ii><jj|
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    assert np.allclose(partial_transpose(rho, (2, 2), 1), swap, atol=1e-14)


def test_partial_transpose_product_operator():
    rng = np.random.default_rng(3)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    out = partial_transpose(np.kron(a, b), (2, 3), 1)
    assert np.allclose(out, np.kron(a, b.T), atol=1e-13)


def test_partial_transpose_involution():
    rng = np.random.default_rng(4)
    x = random_hermitian(6, rng)
    once = partial_transpose(x, (2, 3), 0)
    twice = partial_transpose(once, (2, 3), 0)
    assert np.array_equal(twice, x)


def test_compose_matches_link_product_formula():
    # Independent oracle: evaluate the partial-trace/partial-transpose form
    # of the composition directly.
    rng = np.random.default_rng(9)
    psi = ch.random_channel(2, 2, rng)
    theta = ch.random_channel(2, 3, rng)
    da, db, dc = 2, 2, 3
    jp_tb = partial_transpose(psi.choi, (da, db), 1)
    big = np.kron(jp_tb, np.eye(dc)) @ np.kron(np.eye(da), theta.choi)
    oracle = partial_trace(big, (da, db, dc), keep=(0, 2))
    assert frob(oracle - ch.compose_choi(psi, theta).choi) < 1e-10


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError, match="first output dim 2 != second input dim 3"):
        ch.compose_choi(ch.identity(2), ch.identity(3))
    with pytest.raises(ValueError, match=r"operator shape \(3, 3\) does not match dim_in 2"):
        ch.apply(ch.identity(2), np.eye(3))


def test_tensor_identities():
    out = ch.tensor(ch.identity(2), ch.identity(3))
    assert frob(out.choi - ch.identity(6).choi) < 1e-12


def test_tensor_factorizes_on_product_inputs():
    rng = np.random.default_rng(10)
    c1 = ch.random_channel(2, 2, rng)
    c2 = ch.random_channel(3, 2, rng)
    t = ch.tensor(c1, c2)
    assert (t.dim_in, t.dim_out) == (6, 4)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.5 * (a + dag(a))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = 0.5 * (b + dag(b))
        lhs = ch.apply(t, np.kron(a, b))
        rhs = np.kron(ch.apply(c1, a), ch.apply(c2, b))
        assert frob(lhs - rhs) < 1e-10


def test_tensor_marginal_consistency():
    rng = np.random.default_rng(11)
    psi = ch.random_channel(2, 2, rng)
    chi = ch.random_channel(2, 3, rng)
    t = ch.tensor(psi, chi)
    for _ in range(5):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = 0.5 * (g + dag(g))
        lhs = partial_trace(ch.apply(t, rho), (2, 3), keep=(0,))
        rhs = ch.apply(psi, partial_trace(rho, (2, 2), keep=(0,)))
        assert frob(lhs - rhs) < 1e-10


def test_complementary_of_unitary_forgets_everything():
    rng = np.random.default_rng(12)
    u = ch.random_unitary(2, rng)
    comp = ch.complementary(ch.KrausSet(2, 2, (u,)))
    assert (comp.dim_in, comp.dim_out) == (2, 1)
    # psi_c(rho) = Tr(rho) on a one-dimensional environment
    assert frob(comp.choi - np.eye(2)) < 1e-12


def test_complementary_matches_dilation_trace():
    rng = np.random.default_rng(13)
    for _ in range(10):
        k = ch.random_kraus(2, 3, 2, rng)
        comp = ch.complementary(k)
        v = ch.isometry_from_kraus(k)
        worst = 0.0
        for e in hermitian_units(2):
            big = v.v @ e @ dag(v.v)
            env = partial_trace(big, (3, 2), keep=(1,))
            worst = max(worst, frob(ch.apply(comp, e) - env))
        assert worst < 1e-10


def test_complementary_is_cptp():
    rng = np.random.default_rng(14)
    for _ in range(10):
        k = ch.random_kraus(int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        cp, tp = ch.cptp_defects(ch.complementary(k))
        assert cp < 1e-10 and tp < 1e-10


def test_self_complementary_families_equal_their_complement():
    for family in (1, 2):
        for alpha in np.linspace(0.0, np.pi, 5):
            for beta in np.linspace(0.0, 2 * np.pi, 5):
                k = ch.self_complementary_qubit(family, alpha, beta)
                assert k.completeness_defect() < 1e-12
                dist = frob(ch.choi_from_kraus(k).choi - ch.complementary(k).choi)
                assert dist < 1e-8


def test_self_complementary_parameter_range():
    with pytest.raises(ValueError):
        ch.self_complementary_qubit(1, -0.1, 0.0)
    with pytest.raises(ValueError):
        ch.self_complementary_qubit(3, 0.0, 0.0)


def test_trace_out_pair_marginals():
    psi, phi, compat = ch.trace_out_pair(
        ch.completely_depolarizing(2), ch.identity(2)
    )
    for c in (psi, phi, compat):
        cp, tp = ch.cptp_defects(c)
        assert cp < 1e-10 and tp < 1e-10
    # the product channel reproduces both marginals
    left = ch.output_marginal(compat, (2, 2), keep=(0,))
    right = ch.output_marginal(compat, (2, 2), keep=(1,))
    assert frob(left.choi - psi.choi) < 1e-10
    assert frob(right.choi - phi.choi) < 1e-10


def test_trace_out_channel_action():
    # Every keep subset, the empty one included, of each dims tuple; the
    # action on every matrix unit is the partial trace.
    for dims in [(2,), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2), (2, 8)]:
        for r in range(len(dims) + 1):
            for keep in itertools.combinations(range(len(dims)), r):
                c = ch.trace_out_channel(dims, keep)
                for e in hermitian_units(int(np.prod(dims))):
                    want = partial_trace(e, dims, keep)
                    assert np.abs(ch.apply(c, e) - want).max() <= 1e-15, (dims, keep)


def test_append_maximally_mixed_action():
    for d_sys, d_anc in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]:
        c = ch.append_maximally_mixed(d_sys, d_anc)
        assert (c.dim_in, c.dim_out) == (d_sys, d_sys * d_anc)
        for e in hermitian_units(d_sys):
            want = np.kron(e, np.eye(d_anc) / d_anc)
            assert np.abs(ch.apply(c, e) - want).max() <= 1e-15, (d_sys, d_anc)


def test_output_marginal_matches_composed_trace():
    rng = np.random.default_rng(17)
    c = ch.random_channel(2, 6, rng)
    direct = ch.output_marginal(c, (2, 3), keep=(1,))
    composed = ch.compose_choi(c, ch.trace_out_channel((2, 3), keep=(1,)))
    assert frob(direct.choi - composed.choi) < 1e-12


def test_catalysis_reduction_strips_product_ancilla():
    rng = np.random.default_rng(18)
    # joint = (compatibilizer of a pair) (x) (self-compatibilizer of chi)
    psi_local = ch.completely_depolarizing(2)
    phi_local = ch.identity(2)
    psi, phi, compat = ch.trace_out_pair(psi_local, phi_local)
    sigma = np.eye(2) / 2
    xi = ch.constant_channel(np.kron(sigma, sigma), 2)  # A' -> B' B''
    joint0 = ch.tensor(compat, xi)  # (A A') -> (B C) (B' B'')
    # permute output (B, C, B', B'') -> (B, B', C, B'')
    perm = (0, 2, 1, 3)
    dims_src = (2, 2, 2, 2)
    p = np.zeros((16, 16))
    for idx in itertools.product(*[range(d) for d in dims_src]):
        src = int(np.ravel_multi_index(idx, dims_src))
        tgt = int(
            np.ravel_multi_index(
                tuple(idx[q] for q in perm), tuple(dims_src[q] for q in perm)
            )
        )
        p[tgt, src] = 1.0
    joint = ch.compose_choi(joint0, ch.unitary_channel(p))
    reduced = ch.catalysis_reduction(joint, (2, 2, 2, 2), d_anc=2)
    assert (reduced.dim_in, reduced.dim_out) == (4, 4)
    # Same as feeding I/d_anc into A' and tracing out B' and B''.
    fed = ch.compose_choi(ch.append_maximally_mixed(4, 2), joint)
    composed = ch.compose_choi(fed, ch.trace_out_channel((2, 2, 2, 2), (0, 2)))
    assert np.abs(reduced.choi - composed.choi).max() <= 1e-14
    assert frob(ch.output_marginal(reduced, (2, 2), keep=(0,)).choi - psi.choi) < 1e-10
    assert frob(ch.output_marginal(reduced, (2, 2), keep=(1,)).choi - phi.choi) < 1e-10


def test_amplitude_damping_is_cptp():
    for gamma in (0.0, 0.3, 1.0):
        k = ch.amplitude_damping(gamma)
        assert k.completeness_defect() < 1e-12


def test_constant_channel_and_measure_prepare():
    rng = np.random.default_rng(19)
    sigma = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    c = ch.constant_channel(sigma, 3)
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    assert frob(ch.apply(c, rho) - sigma) < 1e-13
    k = ch.random_measure_prepare(2, rng)
    assert k.completeness_defect() < 1e-12


def test_random_channel_is_cptp_and_reproducible():
    c1 = ch.random_channel(2, 3, np.random.default_rng(99))
    c2 = ch.random_channel(2, 3, np.random.default_rng(99))
    assert np.array_equal(c1.choi, c2.choi)
    cp, tp = ch.cptp_defects(c1)
    assert cp < 1e-10 and tp < 1e-10


def test_validate_channel_flags_violations():
    bad_cp = ch.Channel(2, 2, np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        ch.validate_channel(bad_cp)
    bad_tp = ch.Channel(2, 2, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        ch.validate_channel(bad_tp)
    # An anti-Hermitian part leaves the CP and TP defects, which read the
    # Hermitian part, at zero.
    skew = 0.5 * ch.identity(2).choi + 0.25 * np.eye(4)
    skew[0, 1], skew[1, 0] = 0.3, -0.3
    bad_herm = ch.Channel(2, 2, skew)
    assert ch.cptp_defects(bad_herm) == pytest.approx((0.0, 0.0), abs=1e-15)
    for validate in (ch.validate_channel, ch.validated_kraus):
        with pytest.raises(ValueError, match="non-Hermitian Choi operator"):
            validate(bad_herm)


def two_pass_defects(c, name):
    """The skew, CP and TP defects from a separate conjugate transpose each
    for the Hermitian part and the skew, and the message that each defect
    raises."""
    h = 0.5 * (c.choi + dag(c.choi))
    skew = float(np.abs(c.choi - dag(c.choi)).max(initial=0.0))
    cp = max(0.0, -float(np.linalg.eigvalsh(h)[0]))
    tp = frob(partial_trace(h, (c.dim_in, c.dim_out), (0,)) - np.eye(c.dim_in))
    return (skew, cp, tp), (
        f"{name} has a non-Hermitian Choi operator: max |J - J^dag| = {skew:.3e}",
        f"{name} is not completely positive: min eigenvalue -{cp:.3e}",
        f"{name} is not trace preserving: TP defect {tp:.3e}",
    )


def defective_channels():
    rng = np.random.default_rng(31)
    good = ch.random_channel(2, 3, rng)
    noise = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    skewed = good.choi + 1e-6 * (noise - dag(noise))
    shifted = good.choi - 1e-6 * np.eye(6)  # not CP, and not TP
    scaled = good.choi * (1 + 1e-6)  # CP, not TP
    return [ch.Channel(2, 3, m) for m in (good.choi, skewed, shifted, scaled)]


def test_one_pass_validation_matches_the_two_pass_defects():
    # A valid channel, then one that fails each check first: the skew, CP
    # and TP tests, in the order in which validation raises.
    first_failures = []
    for c in defective_channels():
        (skew, cp, tp), messages = two_pass_defects(c, "psi")
        h, defect = hermitian_part_and_skew(c.choi)
        assert np.array_equal(h, 0.5 * (c.choi + dag(c.choi))) and defect == skew
        assert ch.cptp_defects(c) == (cp, tp)
        failed = [k for k, d in enumerate((skew, cp, tp)) if d > 1e-9]
        first_failures.append(failed[0] if failed else None)
        for validate in (ch.validate_channel, ch.validated_kraus):
            if failed:
                with pytest.raises(ValueError) as err:
                    validate(c, name="psi")
                assert str(err.value) == messages[failed[0]]
            else:
                validate(c, name="psi")
    assert first_failures == [None, 0, 1, 2]


def test_unitary_complementary_collapses_environment():
    rng = np.random.default_rng(20)
    u = ch.random_unitary(3, rng)
    c = ch.unitary_channel(u)
    comp = ch.complementary(ch.kraus_from_choi(c))
    assert comp.dim_out == 1
    assert np.linalg.matrix_rank(comp.choi) <= 3


# ---------------------------------------------------------------------------
# The matrix-product kernels against their index-loop forms
# ---------------------------------------------------------------------------


def einsum_compose(jp, jt, a, b, c):
    out = np.einsum("ibjd,bcdn->icjn", jp.reshape(a, b, a, b), jt.reshape(b, c, b, c))
    return out.reshape(a * c, a * c)


def einsum_apply(j, rho, a, b):
    return np.einsum("imjn,ij->mn", j.reshape(a, b, a, b), rho)


def outer_choi(k):
    side = k.dim_in * k.dim_out
    j = np.zeros((side, side), dtype=complex)
    for op in k.operators:
        w = op.T.reshape(-1)
        j += np.outer(w, w.conj())
    return j


def einsum_complementary(k):
    stack = np.stack(k.operators)
    out = np.einsum("jma,imb->ajbi", stack, stack.conj())
    return out.reshape(k.dim_in * k.dim_env, k.dim_in * k.dim_env)


def assert_rel_close(actual, expected, rtol=1e-13):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


DIMS = [(2, 3, 5), (3, 2, 4), (5, 3, 2), (1, 2, 3), (2, 1, 3), (3, 3, 1), (4, 16, 16)]


@pytest.mark.parametrize("dims", DIMS)
def test_compose_and_apply_match_index_loops_on_arbitrary_operators(dims):
    # Non-Hermitian, non-CP operands: composition and evaluation are linear
    # in the Choi operator and must not assume anything of it.
    a, b, c = dims
    rng = np.random.default_rng(sum(d * 10**i for i, d in enumerate(dims)))
    jp, jt = complex_gaussian(rng, (a * b, a * b)), complex_gaussian(rng, (b * c, b * c))
    out = ch.compose_choi(ch.Channel(a, b, jp), ch.Channel(b, c, jt))
    assert (out.dim_in, out.dim_out) == (a, c)
    assert_rel_close(out.choi, einsum_compose(jp, jt, a, b, c))
    rho = complex_gaussian(rng, (a, a))
    assert_rel_close(ch.apply(ch.Channel(a, b, jp), rho), einsum_apply(jp, rho, a, b))
    # Real operators evaluate as complex ones do.
    assert_rel_close(ch.apply(ch.Channel(a, b, jp), rho.real), einsum_apply(jp, rho.real, a, b))


@pytest.mark.parametrize("dims", DIMS)
def test_gram_constructions_match_index_loops(dims):
    d_in, d_out, env = dims
    k = ch.random_kraus(d_in, d_out, env, np.random.default_rng(d_in + 7 * d_out + 49 * env))
    assert_rel_close(ch.choi_from_kraus(k).choi, outer_choi(k))
    comp = ch.complementary(k)
    assert (comp.dim_in, comp.dim_out) == (d_in, env)
    assert_rel_close(comp.choi, einsum_complementary(k))


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 9, 3), (4, 16, 16)])
def test_composition_set_rows_are_compose_choi(dims):
    # The set's composition block is compose_choi's product, realigned.
    a, b, c = dims
    rng = np.random.default_rng(b)
    psi, x = ch.random_channel(a, b, rng), ch.random_channel(b, c, rng)
    cons = CompositionConstraintSet(dims, psi.choi, np.zeros((a * c, a * c)))
    expected = realign(ch.compose_choi(psi, x).choi, a, c)
    assert_rel_close(cons.residual_rows(x.choi)[1], expected, rtol=1e-15)


def test_gram_constructions_are_exactly_hermitian():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        a, b, c = (int(x) for x in rng.integers(1, 5, size=3))
        k = ch.random_kraus(a, b, max(c, -(-a // b)), rng)
        made = [
            ch.choi_from_kraus(k),
            ch.complementary(k),
            ch.random_channel(b, a, rng, dim_env=b),
            ch.unitary_channel(ch.random_unitary(a, rng)),
        ]
        for j in (m.choi for m in made):
            assert np.array_equal(j, j.conj().T)
        # A set built on exactly Hermitian targets keeps them bit for bit.
        psi, phi = made[0], made[1]
        first = ch.random_channel(1, psi.dim_out, rng).choi
        cons = CompositionConstraintSet((a, psi.dim_out, phi.dim_out), psi.choi, phi.choi, first)
        assert cons.rhs_blocks[0].tobytes() == first.tobytes()
        assert cons.rhs_blocks[1].tobytes() == phi.choi.tobytes()


# ---------------------------------------------------------------------------
# Defects and Kraus arrangements against their generic forms
# ---------------------------------------------------------------------------

DEFECT_DIMS = [(1, 3), (2, 2), (3, 2), (4, 4)]


def norm(x):
    return float(np.linalg.norm(x))


def generic_tp_defect(h, d_in, d_out):
    return norm(partial_trace(h, (d_in, d_out), (0,)) - np.eye(d_in))


def generic_completeness_defect(ops, d_in):
    v = np.concatenate(ops)
    return norm(dag(v) @ v - np.eye(d_in))


def defect_instances(d_in, d_out):
    """Kraus sets on (d_in, d_out), complete or scaled off completeness, with
    their Choi operators: CPTP, CP and not TP, and with a skew part."""
    rng = np.random.default_rng(7 * d_in + d_out)
    for env in (1, 2, 5):
        if d_out * env < d_in:
            continue
        k = ch.random_kraus(d_in, d_out, env, rng)
        for scale in (1.0, 1 + 1e-6, 0.5):
            ks = ch.KrausSet(d_in, d_out, tuple(scale * op for op in k.operators))
            r = ks.columns()
            choi = r @ dag(r)
            noise = rng.standard_normal(choi.shape) + 1j * rng.standard_normal(choi.shape)
            for j in (choi, choi + 1e-7 * noise):
                yield ks, ch.Channel(d_in, d_out, j)


@pytest.mark.parametrize("d_in, d_out", DEFECT_DIMS)
def test_tp_and_completeness_defects_match_the_partial_trace_forms(d_in, d_out):
    for k, c in defect_instances(d_in, d_out):
        h = 0.5 * (c.choi + dag(c.choi))
        tp = generic_tp_defect(h, d_in, d_out)
        assert ch._tp_defect(c, h) == tp
        cp = max(0.0, -float(np.linalg.eigvalsh(h)[0]))
        assert ch.cptp_defects(c) == (cp, tp)
        ops = [np.array(op) for op in k.operators]
        assert k.completeness_defect() == generic_completeness_defect(ops, d_in)
        v = ch.isometry_from_kraus(k)
        assert v.isometry_defect() == norm(dag(v.v) @ v.v - np.eye(d_in))


def stacked_forms(k):
    """columns, complementary, completeness defect and isometry of a Kraus set
    from ``np.stack``/``np.concatenate`` of copies of its operators."""
    ops = [np.array(op) for op in k.operators]
    stack = np.stack(ops)
    s = stack.transpose(1, 2, 0).reshape(k.dim_out, -1)
    return (
        stack.transpose(2, 1, 0).reshape(-1, len(ops)),
        0.5 * (s.T @ s.conj() + dag(s.T @ s.conj())),
        generic_completeness_defect(ops, k.dim_in),
        np.stack(ops, axis=1).reshape(k.dim_out * len(ops), k.dim_in),
    )


def kraus_stack_cases(tmp_path):
    rng = np.random.default_rng(61)
    unitary = ch.KrausSet(3, 3, (ch.random_unitary(3, rng),))  # r = 1
    wide = ch.random_kraus(2, 2, 5, rng)  # r > d_out
    rect = ch.random_kraus(3, 2, 4, rng)
    path = tmp_path / "wide.json"
    io.save_channel(str(path), wide)
    _, reloaded, _ = io.load_channel(str(path))
    extracted = ch.kraus_from_choi(ch.choi_from_kraus(rect))
    return [unitary, wide, rect, reloaded, extracted]


def test_kraus_arrangements_are_the_stacked_forms_bit_for_bit(tmp_path):
    for k in kraus_stack_cases(tmp_path):
        columns, comp, defect, iso = stacked_forms(k)
        assert np.array_equal(k.columns(), columns)
        assert k.columns().tobytes() == columns.tobytes()
        assert ch.complementary(k).choi.tobytes() == comp.tobytes()
        assert k.completeness_defect() == defect
        assert ch.isometry_from_kraus(k).v.tobytes() == iso.tobytes()
        gram = columns @ dag(columns)
        assert ch.choi_from_kraus(k).choi.tobytes() == (0.5 * (gram + dag(gram))).tobytes()


def test_kraus_operators_are_read_only_views_of_one_stack(tmp_path):
    for k in kraus_stack_cases(tmp_path):
        assert k.stack.shape == (k.dim_env, k.dim_out, k.dim_in)
        assert all(np.shares_memory(op, k.stack) for op in k.operators)
        with pytest.raises(ValueError, match="read-only"):
            k.operators[-1][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            k.stack[0, 0, 0] = 1.0
    # The stack is a copy: writing into the arrays a set was built from
    # leaves the set and its arrangements unchanged.
    ops = [np.array(op) for op in ch.amplitude_damping(0.3).operators]
    k = ch.KrausSet(2, 2, ops)
    before = k.columns().copy()
    ops[0][:] = 0.0
    assert np.array_equal(k.columns(), before) and k.completeness_defect() < 1e-15


def test_a_kraus_array_and_its_operators_give_one_set():
    # A tuple or list of operators and the (dim_env, dim_out, dim_in) array
    # that holds them give the same set: a read-only copy of that array as
    # the stack, and its views as the operators.
    array = np.array(ch.random_kraus(3, 2, 4, np.random.default_rng(62)).stack)
    sets = [ch.KrausSet(3, 2, given) for given in (tuple(array), list(array), array)]
    for k in sets:
        assert k.dim_env == 4 and k.stack.shape == array.shape
        assert k.stack.tobytes() == array.tobytes() and not np.shares_memory(k.stack, array)
        assert not k.stack.flags.writeable
        assert len(k.operators) == 4 and all(op.base is k.stack for op in k.operators)
        assert ch.choi_from_kraus(k).choi.tobytes() == ch.choi_from_kraus(sets[0]).choi.tobytes()
    # Operators of mismatched shapes, given apart or as one array, and no
    # operator at all still raise.
    with pytest.raises(ValueError, match=r"Kraus operator shape \(2, 2\) does not match 2x3"):
        ch.KrausSet(3, 2, (array[0], np.eye(2)))
    with pytest.raises(ValueError, match=r"Kraus operator shape \(3, 2\) does not match 2x3"):
        ch.KrausSet(3, 2, array.transpose(0, 2, 1))
    with pytest.raises(ValueError, match=r"Kraus operator shape \(2,\) does not match 2x2"):
        ch.KrausSet(2, 2, np.eye(2))
    for empty in ((), np.zeros((0, 2, 3))):
        with pytest.raises(ValueError, match="at least one operator"):
            ch.KrausSet(3, 2, empty)


def generic_trace_scalars(cons):
    """``trace_scalars`` from a fresh real ``vec(I_B)``, as it was formed
    before the set took the cached one of its dtype."""
    a, b, c = cons.dims
    t, phi = cons.rhs_blocks
    h = cons._gram_solve(np.eye(b).ravel())
    kh = cons._k @ h
    b_tau = c * np.vdot(h, t.ravel()).real
    b_tau += np.sqrt(c) * np.vdot(kh, realign(phi, a, c) @ (np.eye(c).ravel() / np.sqrt(c))).real
    return float(b_tau), float(np.sqrt(c * c * np.vdot(h, h).real + c * np.vdot(kh, kh).real))


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (2, 3, 4), (3, 9, 3), (4, 2, 16)])
def test_default_first_target_is_the_identity_bit_for_bit(dims):
    a, b, c = dims
    rng = np.random.default_rng(sum(dims))
    psi, phi = ch.random_channel(a, b, rng), ch.random_channel(a, c, rng)
    # Complex targets, real ones (the real part of a CPTP map's Choi
    # operator is one too), and both mixed: the default is vec(I_B) of the
    # targets' common dtype.
    cases = [
        (psi.choi, phi.choi, complex),
        (psi.choi.real, phi.choi.real, float),
        (psi.choi, phi.choi.real, complex),
        (psi.choi.real, phi.choi, complex),
    ]
    for j_psi, j_phi, dtype in cases:
        default = CompositionConstraintSet(dims, j_psi, j_phi)
        given = CompositionConstraintSet(dims, j_psi, j_phi, first=np.eye(b))
        for x, y in zip(default.rhs_blocks, given.rhs_blocks, strict=True):
            assert x.dtype == y.dtype == dtype and x.tobytes() == y.tobytes()
        assert default.start().dtype == dtype
        assert default.start().tobytes() == given.start().tobytes()
        assert default.trace_scalars == given.trace_scalars == generic_trace_scalars(given)
        # The default target is shared by every set of its shape and dtype:
        # it is read-only.
        with pytest.raises(ValueError, match="read-only"):
            default.rhs_blocks[0][0] = 2.0
        again = CompositionConstraintSet(dims, j_psi, j_phi)
        assert np.shares_memory(again.rhs_blocks[0], default.rhs_blocks[0])
        assert again.rhs_blocks[0].tobytes() == np.eye(b, dtype=dtype).tobytes()
