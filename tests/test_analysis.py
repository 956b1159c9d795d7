import re

import numpy as np
import pytest
from dense_oracle import (
    compatibilizer_oracle,
    dense_forward,
    dense_rhs,
    residual_norm,
    vectorize_hermitian,
)
from paths import INSTANCES
from test_assembly import marginal_set

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat.feasibility import (
    CompositionConstraintSet,
    SolverConfig,
    Status,
    solve,
)
from chancompat.linalg import frob, partial_trace

TIGHT = SolverConfig(eps_feas=1e-10, max_iter=50000)


def example2_pair():
    return ch.trace_out_pair(ch.completely_depolarizing(2), ch.identity(2))


def _random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def test_constraint_builder_matches_direct_evaluation():
    # M vec(X) must evaluate the declared linear maps exactly: the two
    # marginals of a joint on A (x) B (x) C, and the trace over C and the
    # composition after psi of a quotient on B (x) C. The check runs the
    # forward maps on channels. M is read off the set's adjoint, and the
    # set's own residual rows have the norm of the direct residual.
    rng = np.random.default_rng(0)
    for dims in ((2, 2, 2), (2, 3, 2)):
        da, db, dc = dims
        psi = ch.random_channel(da, db, rng)
        marginal = marginal_set(dims, np.eye(da * db), np.eye(da * dc))
        composition = CompositionConstraintSet(dims, psi.choi, np.eye(da * dc))
        for _ in range(5):
            x = _random_hermitian(da * db * dc, rng)
            expected = np.concatenate(
                [
                    vectorize_hermitian(partial_trace(x, dims, keep=(0, 1))),
                    vectorize_hermitian(partial_trace(x, dims, keep=(0, 2))),
                ]
            )
            assert np.allclose(dense_forward(marginal, x), expected, atol=1e-12)
            direct = np.linalg.norm(expected - dense_rhs(marginal))
            assert abs(residual_norm(marginal, x) - direct) <= 1e-12
            y = _random_hermitian(db * dc, rng)
            expected = np.concatenate(
                [
                    vectorize_hermitian(partial_trace(y, (db, dc), keep=(0,))),
                    vectorize_hermitian(ch.compose_choi(psi, ch.Channel(db, dc, y)).choi),
                ]
            )
            assert np.allclose(dense_forward(composition, y), expected, atol=1e-12)
            direct = np.linalg.norm(expected - dense_rhs(composition))
            assert abs(residual_norm(composition, y) - direct) <= 1e-12


def test_identity_is_not_self_compatible():
    rep = an.check_compatibility(ch.identity(2), ch.identity(2))
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.compatibilizer is None
    assert rep.solver.residual_affine >= 1e-6


def test_example2_pair_is_compatible():
    psi, phi, compat = example2_pair()
    rep = an.check_compatibility(psi, phi)
    assert rep.status is Status.FEASIBLE
    assert rep.residual < 1e-7
    # the analytic product compatibilizer satisfies the marginal equations
    # without any solver involvement
    res_b = ch.choi_distance(ch.output_marginal(compat, (2, 2), (0,)), psi)
    res_c = ch.choi_distance(ch.output_marginal(compat, (2, 2), (1,)), phi)
    assert max(res_b, res_c) < 1e-10


def test_depolarizing_selfcompatible():
    dep = ch.completely_depolarizing(2)
    rep = an.check_compatibility(dep, dep)
    assert rep.status is Status.FEASIBLE


def test_compatibility_status_is_symmetric():
    rng = np.random.default_rng(1)
    kraus = ch.random_kraus(2, 2, 2, rng)
    psi = ch.choi_from_kraus(kraus)
    theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=4)
    phi = ch.compose_choi(ch.complementary(kraus), theta)
    assert (
        an.check_compatibility(psi, phi).status
        is an.check_compatibility(phi, psi).status
    )
    id2 = ch.identity(2)
    assert (
        an.check_compatibility(id2, dep := ch.completely_depolarizing(2)).status
        is an.check_compatibility(dep, id2).status
    )


def test_compatibility_input_validation():
    with pytest.raises(ValueError):
        an.check_compatibility(ch.identity(2), ch.identity(3))
    bad = ch.Channel(2, 2, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        an.check_compatibility(bad, ch.identity(2))


@pytest.mark.parametrize("d", [2, 3])
def test_full_rank_pair_is_theorem_1_with_the_identity_dilation(d):
    # Depolarizing self-compatibility just below the cloning threshold: both
    # Choi operators have full rank, so the check divides by the identity
    # dilation's complementary channel rho -> rho (x) I_B with J_psi as the
    # first target, which is the joint under its marginal rows, and the
    # identity lift returns the solution unchanged.
    instance = INSTANCES[f"dep-compat-d{d}-below-1e-3"]
    dep = instance.channels[0]
    rep = instance.report
    assert rep.status is Status.FEASIBLE
    assert np.array_equal(rep.compatibilizer.choi, rep.solver.solution)
    marginal = marginal_set((d, d, d), dep.choi, dep.choi)
    rng = np.random.default_rng(d)
    for _ in range(3):
        x = _random_hermitian(d**3, rng)
        rows = zip(rep.solver.constraints.residual_rows(x), marginal.residual_rows(x))
        assert all(np.array_equal(r, s) for r, s in rows)
    direct = solve(marginal)
    assert direct.iterations == rep.solver.iterations
    assert np.array_equal(direct.solution, rep.solver.solution)


def test_input_checks_raise():
    id2, id3 = ch.identity(2), ch.identity(3)
    ad = ch.amplitude_damping(0.3)
    with pytest.raises(ValueError, match="input dimension"):
        an.check_divisibility(id2, id3)
    with pytest.raises(ValueError, match="output factors"):
        an.postprocessing_from_compatibilizer(ch.identity(4), 3, 2)
    with pytest.raises(ValueError, match="does not match environment"):
        an.compatibilizer_from_postprocessing(ad, id3)
    # Weak amplitude damping is not anti-degradable, so the identity is no
    # anti-degrading map for it.
    with pytest.raises(ValueError, match="anti-degradability witness"):
        an.compatibilizer_via_antidegradability(ad, id2, id2)
    with pytest.raises(ValueError, match="input dimension"):
        an.verify_no_catalysis(id2, id3, id2)


def test_identity_divides_itself_with_identity_quotient():
    rep = an.check_divisibility(ch.identity(2), ch.identity(2))
    assert rep.status is Status.FEASIBLE
    assert ch.choi_distance(rep.quotient, ch.identity(2)) < 1e-6
    assert rep.residual < 1e-7


def test_example2_pair_is_not_divisible():
    psi, phi, _ = example2_pair()
    rep = an.check_divisibility(psi, phi)
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.quotient is None


def test_divisibility_construct_then_recover():
    rng = np.random.default_rng(2)
    for _ in range(5):
        psi = ch.random_channel(2, 2, rng)
        theta0 = ch.random_channel(2, 2, rng, dim_env=4)
        phi = ch.compose_choi(psi, theta0)
        rep = an.check_divisibility(psi, phi)
        assert rep.status is Status.FEASIBLE
        assert frob(ch.compose_choi(psi, rep.quotient).choi - phi.choi) < 1e-7


def test_degradable_self_complementary():
    kraus = ch.self_complementary_qubit(1, 0.0, 0.0)
    psi = ch.choi_from_kraus(kraus)
    rep = an.check_degradable(psi, kraus, TIGHT)
    assert rep.status is Status.FEASIBLE
    assert rep.residual < 1e-7
    # the witness genuinely degrades psi onto its complementary
    psi_c = ch.complementary(kraus)
    assert frob(ch.compose_choi(psi, rep.degrading).choi - psi_c.choi) < 1e-7


def test_degradable_unitary_channel():
    rng = np.random.default_rng(3)
    u = ch.random_unitary(2, rng)
    kraus = ch.KrausSet(2, 2, (u,))
    rep = an.check_degradable(ch.choi_from_kraus(kraus), kraus, TIGHT)
    assert rep.status is Status.FEASIBLE


def test_strong_amplitude_damping_antidegradable_not_degradable():
    # gamma > 1/2 pushes more information to the environment than to the
    # output, which flips degradability into anti-degradability.
    kraus = ch.amplitude_damping(0.75)
    psi = ch.choi_from_kraus(kraus)
    anti = an.check_antidegradable(psi, kraus, TIGHT)
    assert anti.status is Status.FEASIBLE
    psi_c = ch.complementary(kraus)
    assert frob(ch.compose_choi(psi_c, anti.degrading).choi - psi.choi) < 1e-7
    deg = an.check_degradable(psi, kraus, SolverConfig(eps_feas=1e-7, max_iter=20000))
    assert deg.status is Status.NOT_FEASIBLE_AT_TOLERANCE


def test_antidegradable_depolarizing():
    dep = ch.completely_depolarizing(2)
    kraus = ch.kraus_from_choi(dep)
    rep = an.check_antidegradable(dep, kraus, TIGHT)
    assert rep.status is Status.FEASIBLE


def test_antidegradable_identity_fails():
    kraus = ch.KrausSet(2, 2, (np.eye(2, dtype=complex),))
    rep = an.check_antidegradable(ch.identity(2), kraus)
    assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE


def test_antidegradable_self_complementary():
    kraus = ch.self_complementary_qubit(1, 0.0, 0.0)
    rep = an.check_antidegradable(ch.choi_from_kraus(kraus), kraus, TIGHT)
    assert rep.status is Status.FEASIBLE


def test_degradable_rejects_mismatched_kraus():
    kraus = ch.amplitude_damping(0.3)
    with pytest.raises(ValueError):
        an.check_degradable(ch.identity(2), kraus)
    with pytest.raises(ValueError, match="dimensions do not match"):
        an.check_degradable(ch.identity(3), kraus)


def test_self_degradable_family_point():
    rep = an.check_self_degradable(ch.self_complementary_qubit(1, 0.0, 0.0))
    assert rep.status is Status.FEASIBLE
    assert rep.residual < 1e-10
    assert rep.degrading is not None


def test_self_degradable_rejects_unitary_and_depolarizing():
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = ch.random_unitary(2, rng)
        rep = an.check_self_degradable(ch.KrausSet(2, 2, (u,)))
        assert rep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
        assert rep.residual > 1e-3
    dep = an.check_self_degradable(ch.kraus_from_choi(ch.completely_depolarizing(2)))
    assert dep.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert dep.residual > 1e-3
    # Output and environment are both qubits here, so the distance to the
    # complementary channel is finite; for gamma = 0.3 it is far from 0.
    ad = an.check_self_degradable(ch.amplitude_damping(0.3))
    assert ad.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert ad.degrading is None
    assert abs(ad.residual - 0.698) < 1e-3


def test_postprocessing_from_compatibilizer_on_example2():
    _, _, compat = example2_pair()
    psi_c, theta, residual = an.postprocessing_from_compatibilizer(compat, 2, 2)
    assert residual < 1e-9
    assert theta.dim_out == 2
    assert psi_c.dim_in == 4


def test_postprocessing_from_constant_compatibilizer():
    sigma = np.kron(np.eye(2) / 2, np.eye(2) / 2)
    compat = ch.constant_channel(sigma, 2)
    _, _, residual = an.postprocessing_from_compatibilizer(compat, 2, 2)
    assert residual < 1e-9


def test_postprocessing_from_solver_compatibilizer():
    rng = np.random.default_rng(5)
    kraus = ch.random_kraus(2, 2, 2, rng)
    psi = ch.choi_from_kraus(kraus)
    theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=4)
    phi = ch.compose_choi(ch.complementary(kraus), theta)
    rep = an.check_compatibility(psi, phi, TIGHT)
    assert rep.status is Status.FEASIBLE
    _, _, residual = an.postprocessing_from_compatibilizer(rep.compatibilizer, 2, 2)
    assert residual < 1e-7


def test_compatibilizer_from_postprocessing_marginals():
    rng = np.random.default_rng(6)
    kraus = ch.random_kraus(2, 2, 2, rng)
    psi = ch.choi_from_kraus(kraus)
    psi_c = ch.complementary(kraus)
    # identity post-processing: marginals are psi and psi_c exactly
    built = an.compatibilizer_from_postprocessing(kraus, ch.identity(kraus.dim_env))
    assert ch.choi_distance(ch.output_marginal(built, (2, kraus.dim_env), (0,)), psi) < 1e-9
    assert ch.choi_distance(ch.output_marginal(built, (2, kraus.dim_env), (1,)), psi_c) < 1e-9
    # constant post-processing: second marginal is the constant channel
    sigma = np.array([[0.6, 0.0], [0.0, 0.4]], dtype=complex)
    const = ch.constant_channel(sigma, kraus.dim_env)
    built = an.compatibilizer_from_postprocessing(kraus, const)
    assert ch.choi_distance(ch.output_marginal(built, (2, 2), (0,)), psi) < 1e-9
    const_2 = ch.constant_channel(sigma, 2)
    assert ch.choi_distance(ch.output_marginal(built, (2, 2), (1,)), const_2) < 1e-9
    # random post-processing
    theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=4)
    built = an.compatibilizer_from_postprocessing(kraus, theta)
    phi = ch.compose_choi(psi_c, theta)
    assert ch.choi_distance(ch.output_marginal(built, (2, 2), (0,)), psi) < 1e-9
    assert ch.choi_distance(ch.output_marginal(built, (2, 2), (1,)), phi) < 1e-9


@pytest.mark.parametrize(
    "d_in,d_out,env,d_c", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 4, 2), (3, 2, 5, 4)], ids=str
)
def test_compatibilizer_congruence_matches_dilation_oracle(d_in, d_out, env, d_c):
    # The congruence (R (x) I_C) J_theta (R (x) I_C)^dag against theta
    # applied to the environment leg of the Stinespring dilation by channel
    # composition.
    rng = np.random.default_rng([d_in, d_out, env, d_c])
    kraus = ch.random_kraus(d_in, d_out, env, rng)
    theta = ch.random_channel(env, d_c, rng, dim_env=3)
    built = an.compatibilizer_from_postprocessing(kraus, theta)
    expected = compatibilizer_oracle(kraus, theta)
    assert (built.dim_in, built.dim_out) == (d_in, d_out * d_c)
    assert np.abs(built.choi - expected.choi).max() <= 1e-12


def kron_lift(kraus, theta):
    """The congruence through the Kronecker product ``R (x) I_C``."""
    lift = np.kron(kraus.columns(), np.eye(theta.dim_out))
    return lift @ theta.choi @ lift.conj().T


@pytest.mark.parametrize(
    "d_in,d_out,env,d_c",
    [
        (2, 2, 1, 2),
        (3, 3, 1, 2),
        (2, 3, 2, 2),
        (3, 2, 4, 2),
        (2, 2, 2, 4),
        (2, 2, 4, 4),
        (4, 4, 4, 4),
    ],
    ids=str,
)
def test_compatibilizer_congruence_matches_the_kronecker_lift(d_in, d_out, env, d_c):
    # Environment dimension 1, d_A != d_B, C != B, and a side-16 joint; the
    # congruence is linear, so a non-Hermitian J_theta is lifted too.
    rng = np.random.default_rng([7, d_in, d_out, env, d_c])
    kraus = ch.random_kraus(d_in, d_out, env, rng)
    theta = ch.random_channel(env, d_c, rng, dim_env=2)
    side = env * d_c
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    for choi in (theta.choi, g):
        built = an.compatibilizer_from_postprocessing(kraus, ch.Channel(env, d_c, choi))
        expected = kron_lift(kraus, ch.Channel(env, d_c, choi))
        assert (built.dim_in, built.dim_out) == (d_in, d_out * d_c)
        assert built.choi.flags.c_contiguous
        assert np.abs(built.choi - expected).max() <= 1e-15 * max(1.0, np.abs(expected).max())


def test_swapped_compatibility_witness_is_the_kronecker_lift():
    # Example 2: phi has Choi rank 2 of 8, so the check dilates phi, lifts
    # through its non-square R and swaps the outputs back.
    psi, phi, _ = example2_pair()
    rep = an.check_compatibility(psi, phi)
    assert rep.status is Status.FEASIBLE
    kraus = ch.kraus_from_eigh(phi, *ch.validated_eigh(phi)[1:])
    assert rep.solver.constraints.dims == (4, kraus.dim_env, psi.dim_out)
    theta = ch.Channel(kraus.dim_env, psi.dim_out, rep.solver.solution)
    joint = ch.Channel(4, phi.dim_out * psi.dim_out, kron_lift(kraus, theta))
    expected = ch.swap_output(joint, phi.dim_out, psi.dim_out).choi
    assert np.abs(rep.compatibilizer.choi - expected).max() <= 1e-15
    assert rep.residual <= 1e-7


def output_marginal_distances(joint, psi, phi):
    """Both marginal distances through two ``output_marginal`` channels."""
    dims = (psi.dim_out, phi.dim_out)
    return (
        ch.choi_distance(ch.output_marginal(joint, dims, (0,)), psi),
        ch.choi_distance(ch.output_marginal(joint, dims, (1,)), phi),
    )


@pytest.mark.parametrize("d_a,d_b,d_c", [(1, 2, 3), (2, 2, 2), (2, 3, 4), (3, 2, 2), (4, 4, 1)])
def test_marginal_distances_match_the_output_marginals_bit_for_bit(d_a, d_b, d_c):
    rng = np.random.default_rng([d_a, d_b, d_c])
    joint = ch.random_channel(d_a, d_b * d_c, rng, dim_env=4)
    psi = ch.random_channel(d_a, d_b, rng, dim_env=4)
    phi = ch.random_channel(d_a, d_c, rng, dim_env=4)
    assert an.marginal_distances(joint, psi, phi) == output_marginal_distances(joint, psi, phi)
    psi_m, phi_m = (ch.output_marginal(joint, (d_b, d_c), (k,)) for k in (0, 1))
    assert an.marginal_distances(joint, psi_m, phi_m) == (0.0, 0.0)


def test_marginal_distances_raise_on_mismatched_dimensions():
    rng = np.random.default_rng(5)
    joint = ch.random_channel(2, 6, rng)
    psi, phi = ch.random_channel(2, 2, rng), ch.random_channel(2, 3, rng)
    cases = [
        (joint, psi, ch.random_channel(2, 2, rng)),  # output dims 2 * 2 != 6
        (joint, ch.random_channel(3, 2, rng), phi),  # psi's input
        (joint, psi, ch.random_channel(3, 3, rng)),  # phi's input
    ]
    for args in cases:
        with pytest.raises(ValueError) as expected:
            output_marginal_distances(*args)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            an.marginal_distances(*args)


def test_quotient_via_degradability():
    rng = np.random.default_rng(7)
    kraus = ch.self_complementary_qubit(1, 0.4, 1.1)
    psi = ch.choi_from_kraus(kraus)
    psi_c = ch.complementary(kraus)
    lam = ch.identity(2)  # valid degrading map for a self-complementary channel
    theta = ch.random_channel(2, 2, rng, dim_env=4)
    phi = ch.compose_choi(psi_c, theta)
    quotient = an.quotient_via_degradability(psi, psi_c, lam, theta)
    assert ch.choi_distance(ch.compose_choi(psi, quotient), phi) < 1e-8
    # constant theta gives a constant quotient
    sigma = np.eye(2, dtype=complex) / 2
    const = ch.constant_channel(sigma, 2)
    quotient = an.quotient_via_degradability(psi, psi_c, lam, const)
    assert frob(quotient.choi - ch.constant_channel(sigma, 2).choi) < 1e-9


def test_quotient_via_degradability_rejects_bad_witness():
    kraus = ch.amplitude_damping(0.75)  # not degradable
    psi = ch.choi_from_kraus(kraus)
    psi_c = ch.complementary(kraus)
    with pytest.raises(ValueError):
        an.quotient_via_degradability(psi, psi_c, ch.identity(2), ch.identity(2))


def nan_channel(d_in, d_out):
    return ch.Channel(d_in, d_out, np.full((d_in * d_out,) * 2, np.nan, dtype=complex))


# The checks below test finiteness before any arithmetic, so non-finite data
# raise an error that names them, and no RuntimeWarning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("check", [an.check_degradable, an.check_antidegradable])
def test_kraus_match_rejects_non_finite_data(check):
    kraus = ch.amplitude_damping(0.3)
    inf_choi = ch.choi_from_kraus(kraus).choi.copy()
    inf_choi[0, 0] = np.inf
    for psi in (nan_channel(2, 2), ch.Channel(2, 2, inf_choi)):
        with pytest.raises(ValueError, match="^psi has a non-finite entry$"):
            check(psi, kraus)
    nan_kraus = ch.KrausSet(2, 2, (np.full((2, 2), np.nan),))
    with pytest.raises(ValueError, match="^Kraus set has a non-finite entry$"):
        check(ch.choi_from_kraus(kraus), nan_kraus)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quotient_via_degradability_rejects_a_non_finite_witness():
    kraus = ch.self_complementary_qubit(1, 0.4, 1.1)
    psi, psi_c, lam = ch.choi_from_kraus(kraus), ch.complementary(kraus), ch.identity(2)
    theta = ch.random_channel(2, 2, np.random.default_rng(7), dim_env=4)
    args = {"psi": psi, "psi_c": psi_c, "degrading": lam, "theta_ce": theta}
    for name, value in args.items():
        bad = dict(args, **{name: nan_channel(value.dim_in, value.dim_out)})
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
            an.quotient_via_degradability(**bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compatibilizer_via_antidegradability_rejects_a_non_finite_witness():
    kraus = ch.kraus_from_choi(ch.completely_depolarizing(2))
    anti = an.check_antidegradable(ch.choi_from_kraus(kraus), kraus, TIGHT).degrading
    theta_cb = ch.random_channel(2, 2, np.random.default_rng(8), dim_env=4)
    with pytest.raises(ValueError, match="^antidegrading has a non-finite entry$"):
        an.compatibilizer_via_antidegradability(kraus, nan_channel(4, 2), theta_cb)
    with pytest.raises(ValueError, match="^theta_cb has a non-finite entry$"):
        an.compatibilizer_via_antidegradability(kraus, anti, nan_channel(2, 2))
    nan_kraus = ch.KrausSet(2, 2, (np.full((2, 2), np.nan),) * 4)
    with pytest.raises(ValueError, match="^Kraus set has a non-finite entry$"):
        an.compatibilizer_via_antidegradability(nan_kraus, anti, theta_cb)


def test_compatibilizer_via_antidegradability():
    rng = np.random.default_rng(8)
    kraus = ch.kraus_from_choi(ch.completely_depolarizing(2))
    psi = ch.choi_from_kraus(kraus)
    anti = an.check_antidegradable(psi, kraus, TIGHT)
    assert anti.status is Status.FEASIBLE
    theta_cb = ch.random_channel(2, 2, rng, dim_env=4)
    phi = ch.compose_choi(psi, theta_cb)
    built = an.compatibilizer_via_antidegradability(kraus, anti.degrading, theta_cb)
    assert ch.choi_distance(ch.output_marginal(built, (2, 2), (0,)), psi) < 1e-8
    assert ch.choi_distance(ch.output_marginal(built, (2, 2), (1,)), phi) < 1e-8


def test_antidegrading_map_composition():
    assert (
        frob(
            an.antidegrading_map_from_compat_and_div(ch.identity(2), ch.identity(2)).choi
            - ch.identity(2).choi
        )
        < 1e-12
    )
    rng = np.random.default_rng(9)
    theta_cb = ch.random_channel(2, 3, rng)
    const = ch.constant_channel(np.eye(2, dtype=complex) / 2, 4)
    out = an.antidegrading_map_from_compat_and_div(theta_cb, const)
    expected = ch.constant_channel(ch.apply(theta_cb, np.eye(2) / 2), 4)
    assert frob(out.choi - expected.choi) < 1e-10


def test_prop1_pipeline_on_self_complementary_instance():
    rng = np.random.default_rng(10)
    kraus = ch.self_complementary_qubit(1, 0.9, 2.0)
    psi = ch.choi_from_kraus(kraus)
    theta0 = ch.random_channel(2, 2, rng, dim_env=4)
    phi = ch.compose_choi(psi, theta0)
    div = an.check_divisibility(psi, phi, TIGHT)
    compat = an.check_compatibility(psi, phi, TIGHT)
    assert div.status is Status.FEASIBLE and compat.status is Status.FEASIBLE
    swapped = ch.swap_output(compat.compatibilizer, 2, 2)
    phi_c, theta_be, _ = an.postprocessing_from_compatibilizer(swapped, 2, 2)
    anti = an.antidegrading_map_from_compat_and_div(div.quotient, theta_be)
    assert ch.choi_distance(ch.compose_choi(phi_c, anti), phi) < 1e-7


def test_family_divisibility_powers():
    psi = ch.random_channel(2, 2, np.random.default_rng(11), dim_env=2)
    family = [psi]
    for _ in range(2):
        family.append(ch.compose_choi(family[-1], psi))
    reports = an.check_family_divisibility(family, TIGHT)
    assert len(reports) == 2
    for rep in reports:
        assert rep.status is Status.FEASIBLE
        assert ch.choi_distance(rep.quotient, psi) < 1e-5


def test_family_divisibility_detects_pathological_step():
    psi, phi, _ = example2_pair()
    reports = an.check_family_divisibility([ch.identity(4), psi, phi])
    assert reports[0].status is Status.FEASIBLE
    assert reports[1].status is Status.NOT_FEASIBLE_AT_TOLERANCE


def _power_family(n):
    psi = ch.random_channel(2, 2, np.random.default_rng(11), dim_env=2)
    family = [psi]
    for _ in range(n - 1):
        family.append(ch.compose_choi(family[-1], psi))
    return family


def test_family_divisibility_validates_each_member_once(monkeypatch):
    # Each member is validated once, before any solve: the first as psi and
    # every later one as phi, the names its first step gives it. Validating
    # step by step would take 2n - 2 validations, every inner member twice.
    family = _power_family(4)
    names, validate = [], ch.validate_channel
    monkeypatch.setattr(
        ch, "validate_channel", lambda c, name: names.append((c, name)) or validate(c, name=name)
    )
    reports = an.check_family_divisibility(family)
    assert [name for _, name in names] == ["psi", "phi", "phi", "phi"]
    assert all(c is member for (c, _), member in zip(names, family))
    assert [rep.status for rep in reports] == [Status.FEASIBLE] * 3


@pytest.mark.parametrize(
    "defect, message",
    [(np.nan, "phi has a non-finite entry"), (1e-6, "phi is not trace preserving")],
    ids=["non-finite", "non-tp"],
)
def test_an_invalid_inner_member_raises_before_any_solve(defect, message, monkeypatch):
    family = _power_family(4)
    bad = family[2].choi.copy()
    bad[0, 0] += defect
    family[2] = ch.Channel(2, 2, bad)
    solves = []
    monkeypatch.setattr(an, "solve", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match=f"^{message}"):
        an.check_family_divisibility(family)
    assert solves == []


def test_family_divisibility_edge_cases():
    assert an.check_family_divisibility([ch.identity(2)]) == []
    with pytest.raises(ValueError):
        an.check_family_divisibility([])
    with pytest.raises(ValueError):
        an.check_family_divisibility([ch.identity(2), ch.identity(3)])


def test_no_catalysis_reduction_recovers_marginals():
    rng = np.random.default_rng(12)
    kraus = ch.random_kraus(2, 2, 2, rng)
    psi = ch.choi_from_kraus(kraus)
    theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=4)
    phi = ch.compose_choi(ch.complementary(kraus), theta)
    chi = ch.choi_from_kraus(ch.random_measure_prepare(2, rng))
    rep = an.verify_no_catalysis(psi, phi, chi, SolverConfig(eps_feas=1e-9, max_iter=40000))
    assert rep.tensored.status is Status.FEASIBLE
    assert rep.residual < 1e-8


def test_no_catalysis_trivial_ancilla():
    rng = np.random.default_rng(13)
    kraus = ch.random_kraus(2, 2, 2, rng)
    psi = ch.choi_from_kraus(kraus)
    theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=4)
    phi = ch.compose_choi(ch.complementary(kraus), theta)
    chi = ch.identity(1)
    rep = an.verify_no_catalysis(psi, phi, chi, TIGHT)
    assert rep.tensored.status is Status.FEASIBLE
    assert rep.residual < 1e-8


def test_no_catalysis_identity_negative_case():
    id2 = ch.identity(2)
    rep = an.verify_no_catalysis(id2, id2, id2)
    assert rep.tensored.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert rep.reduced is None


def test_sampled_degradable_and_antidegradable_families():
    rng = np.random.default_rng(14)
    for _ in range(6):
        k = an.sample_degradable_kraus(rng)
        assert k.completeness_defect() < 1e-10
        k = an.sample_antidegradable_kraus(rng)
        assert k.completeness_defect() < 1e-10
