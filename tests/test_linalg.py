import itertools

import numpy as np
import pytest
from dense_oracle import devectorize_hermitian, vectorize_hermitian

from chancompat import channels as ch
from chancompat.linalg import (
    dag,
    double,
    frob,
    hermitian_basis,
    hermitian_part,
    hermitian_part_and_skew,
    partial_trace,
    partial_trace_adjoint,
    project_psd,
    swap_unitary,
)


def skew(x: np.ndarray) -> float:
    """``max |X - X^dag|``, the skew half of ``hermitian_part_and_skew``:
    0.0 exactly when X is Hermitian (or empty)."""
    return hermitian_part_and_skew(x)[1]


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + dag(g))


def ket(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


# The A-major basis ordering of composite spaces is numpy.kron's.
def test_kron_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_projector():
    p0 = np.outer(ket(0, 2), ket(0, 2))
    p1 = np.outer(ket(1, 2), ket(1, 2))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |01><01|
    assert np.array_equal(np.kron(p0, p1), expected)


def test_kron_diagonal():
    out = np.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.array_equal(out, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_partial_trace_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    out = partial_trace(rho, (2, 2), keep=(0,))
    assert np.allclose(out, np.outer(ket(0, 2), ket(0, 2)), atol=1e-14)


def test_partial_trace_maximally_entangled_gives_identity():
    w = np.eye(2).reshape(-1)
    rho = np.outer(w, w)  # sum_ij |ii><jj|
    out = partial_trace(rho, (2, 2), keep=(0,))
    assert np.allclose(out, np.eye(2), atol=1e-14)


def test_partial_trace_normalized_ancilla():
    rng = np.random.default_rng(0)
    rho_a = random_hermitian(3, rng)
    x = np.kron(rho_a, np.eye(2) / 2)
    assert np.allclose(partial_trace(x, (3, 2), keep=(0,)), rho_a, atol=1e-12)


def test_partial_trace_all_subsystems_equals_trace():
    rng = np.random.default_rng(1)
    x = random_hermitian(12, rng)
    out = partial_trace(x, (2, 3, 2), keep=())
    assert abs(out[0, 0] - np.trace(x)) < 1e-12


def test_partial_trace_kron_marginal_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        out = partial_trace(np.kron(a, b), (2, 3), keep=(0,))
        assert frob(out - np.trace(b) * a) < 1e-12
        out2 = partial_trace(np.kron(a, b), (2, 3), keep=(1,))
        assert frob(out2 - np.trace(a) * b) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 3), keep=(0,))
    with pytest.raises(ValueError, match=r"^keep indices \[2\] out of range for 2 subsystems$"):
        partial_trace(np.eye(6), (2, 3), keep=(2,))


def test_project_psd_eigenvalue_clipping():
    out = project_psd(np.diag([1.0, -1.0]))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)


def test_project_psd_fixed_point():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = g @ dag(g)
    assert frob(project_psd(psd) - psd) < 1e-12


def test_project_psd_all_negative():
    assert np.allclose(project_psd(-np.eye(2)), np.zeros((2, 2)), atol=1e-14)


def test_project_psd_is_nearest_psd_point():
    # Any other PSD matrix must be at least as far in Frobenius norm.
    rng = np.random.default_rng(6)

    def assert_nearest(x):
        p = project_psd(x)
        assert np.linalg.eigvalsh(p)[0] >= -1e-12
        for _ in range(25):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            other = g @ dag(g)
            assert frob(x - p) <= frob(x - other) + 1e-10
        return p

    assert_nearest(random_hermitian(4, rng))
    # X need not be Hermitian: its projection is its Hermitian part's, bit
    # for bit.
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert assert_nearest(x).tobytes() == project_psd(hermitian_part(x)).tobytes()


def test_project_psd_rejects_a_matrix_that_is_not_square():
    for x in (np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2)), [[1.0, 0.0]]):
        with pytest.raises(ValueError, match="expected a square matrix"):
            project_psd(x)
    # Input from outside is cast as everywhere else: integers become float64.
    p = project_psd([[1, 0], [0, -1]])
    assert p.dtype == float and np.array_equal(p, np.diag([1.0, 0.0]))


def test_double_keeps_double_data_and_casts_the_rest():
    # Real entries become float64 and any others complex128; an array that
    # is either already is returned as it is.
    for x in (np.eye(2), np.eye(2, dtype=complex)):
        assert double(x) is x
    cases = [
        (np.eye(2, dtype=int), float),
        (np.eye(2, dtype=bool), float),
        (np.eye(2, dtype=np.float32), float),
        ([[1, 2]], float),
        (np.eye(2, dtype=np.complex64), complex),
        ([[1, 2j]], complex),
    ]
    for given, dtype in cases:
        assert double(given).dtype == dtype


def test_project_psd_keeps_real_input_real():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((5, 5))
    x = g + g.T
    p = project_psd(x)
    assert p.dtype == float and np.linalg.eigvalsh(p)[0] >= -1e-12
    assert np.abs(p - project_psd(x.astype(complex))).max() <= 1e-12


def _same_bits(a, b):
    """Equal entries with equal signs of zero, in real and imaginary parts."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def _with_signed_zeros(x):
    """x with some entries (and, if complex, imaginary parts) set to -0.0."""
    x = x.copy()
    x.flat[::3] = -0.0
    if np.iscomplexobj(x):
        x.imag.flat[1::5] = -0.0
    return x


@pytest.mark.parametrize("side", [1, 4, 27, 64, 256])
def test_hermitian_part_is_the_average_bit_for_bit(side):
    rng = np.random.default_rng(side)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    c_order = _with_signed_zeros(g)
    real = _with_signed_zeros(g.real)
    for x in (c_order, c_order.T, c_order.conj().T, real, real.T):
        before = x.copy()
        h = hermitian_part(x)
        assert _same_bits(h, 0.5 * (x + x.conj().T))
        assert h.dtype == x.dtype and h.flags.c_contiguous
        assert _same_bits(x, before)  # the input is not modified
    # Exactly Hermitian input keeps its values, though not always its signs
    # of zero: feasibility's targets therefore skip the average when skew is 0.
    herm = hermitian_part(c_order)
    assert np.array_equal(hermitian_part(herm), herm)


@pytest.mark.parametrize("side", [1, 4, 27, 64])
def test_hermitian_part_and_skew_are_the_two_pass_values_bit_for_bit(side):
    rng = np.random.default_rng(200 + side)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    c_order = _with_signed_zeros(g)
    real = _with_signed_zeros(g.real)
    for x in (c_order, c_order.T, real, hermitian_part(c_order)):
        before = x.copy()
        h, defect = hermitian_part_and_skew(x)
        assert _same_bits(h, hermitian_part(x)) and h.flags.c_contiguous
        assert defect == float(np.abs(x - x.conj().T).max(initial=0.0))
        assert _same_bits(x, before)


@pytest.mark.parametrize("side", [1, 4, 27, 64])
def test_skew_is_the_largest_anti_hermitian_entry(side):
    rng = np.random.default_rng(100 + side)
    x = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    for m in (x, x.T, x.real):
        assert skew(m) == float(np.abs(m - m.conj().T).max(initial=0.0))
    h = hermitian_part(x)
    assert skew(h) == 0.0 and skew(h.real) == 0.0 and skew(np.eye(side)) == 0.0
    assert skew(np.zeros((0, 0))) == 0.0
    y = h.copy()
    y[0, -1] += 1e-12j
    assert skew(y) > 0.0


def frob_inputs(rng):
    z = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    big = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    yield from (z, z.real, z.T, z.real.T, z[1::2, ::3], z.T[::2], z.imag[:, 1:4])
    yield from (big, big.T, big[::3, 1::2], big.reshape(4, 8, 8)[:, ::2].transpose(2, 0, 1))
    yield from (rng.integers(-9, 10, size=(6, 6)), rng.integers(-9, 10, size=(6, 6)).T)
    yield from (np.arange(12, dtype=np.int8).reshape(3, 4)[:, ::2], np.eye(3, dtype=bool))
    yield from (np.zeros((0, 0)), np.zeros((0, 3), dtype=complex), np.zeros(0, dtype=int))
    yield from (np.array(-2.5), np.array(3 - 4j), [[1.0, 2.0], [3.0, 4.0]], 5)


def test_frob_is_numpy_norm_bit_for_bit():
    # The generic form is the oracle: the same sums, with its argument handling.
    rng = np.random.default_rng(44)
    for x in frob_inputs(rng):
        got, want = frob(x), float(np.linalg.norm(x))
        assert type(got) is float and got.hex() == want.hex(), x


@pytest.mark.parametrize("d_in, d_out, env", [(2, 3, 5), (3, 2, 2), (1, 4, 3), (4, 1, 4)])
def test_kraus_columns_match_an_einsum_oracle(d_in, d_out, env):
    # R[(a, b), i] = K_i[b, a]: column i is vec K_i = sum_a |a> (x) K_i|a>.
    k = ch.random_kraus(d_in, d_out, env, np.random.default_rng(d_in + 10 * d_out + 100 * env))
    r = k.columns()
    oracle = np.einsum("iba->abi", np.array(k.operators)).reshape(d_in * d_out, env)
    assert r.shape == (d_in * d_out, env) and np.array_equal(r, oracle)
    assert np.array_equal(ch.choi_from_kraus(k).choi, hermitian_part(oracle @ dag(oracle)))


# The real Hermitian vectorization is the dense oracle's own coordinate
# system; the library keeps only hermitian_basis, tested against it.
def test_vectorize_identity():
    v = vectorize_hermitian(np.eye(2))
    expected = np.zeros(4)
    expected[:2] = 1.0
    assert np.allclose(v, expected, atol=1e-15)


def test_vectorize_isometry_and_roundtrip():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        x = random_hermitian(d, rng)
        v = vectorize_hermitian(x)
        assert abs(np.linalg.norm(v) - frob(x)) < 1e-12
        assert frob(devectorize_hermitian(v) - x) < 1e-12


def test_vectorize_preserves_inner_products():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = random_hermitian(3, rng)
        y = random_hermitian(3, rng)
        hs = np.trace(dag(x) @ y).real
        eu = vectorize_hermitian(x) @ vectorize_hermitian(y)
        assert abs(hs - eu) < 1e-12


def test_hermitian_basis_is_orthonormal():
    basis = list(hermitian_basis(3))
    assert len(basis) == 9
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ip = np.trace(dag(a) @ b).real
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-13


def test_hermitian_basis_is_the_devectorized_unit_basis():
    for d in (1, 2, 3, 5):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        for k, elem in enumerate(basis):
            e = np.zeros(d * d)
            e[k] = 1.0
            assert np.array_equal(elem, devectorize_hermitian(e))


def test_vectorize_inverts_the_basis_for_any_dtype():
    for d in (1, 2, 3, 5):
        coords = vectorize_hermitian(hermitian_basis(d))
        assert np.array_equal(coords, np.eye(d * d))
    # Real and non-contiguous input give the coordinates of the same matrix.
    rng = np.random.default_rng(13)
    x = random_hermitian(4, rng)
    assert np.array_equal(vectorize_hermitian(x.real), vectorize_hermitian(x.real + 0j))
    assert np.array_equal(vectorize_hermitian(x.T.conj()), vectorize_hermitian(x.conj().T.copy()))
    assert np.abs(devectorize_hermitian(vectorize_hermitian(x.real)) - x.real).max() <= 1e-15


def test_vectorize_keeps_batch_axes():
    rng = np.random.default_rng(11)
    stack = np.array([[random_hermitian(3, rng) for _ in range(4)] for _ in range(2)])
    out = vectorize_hermitian(stack)
    assert out.shape == (2, 4, 9)
    for i in range(2):
        for j in range(4):
            assert np.array_equal(out[i, j], vectorize_hermitian(stack[i, j]))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 3, 3)])
def test_partial_trace_adjoint_identity(dims):
    # Re Tr(Y^dag L(X)) = Re Tr(L*(Y)^dag X) for every choice of kept
    # subsystems, with L the partial trace.
    rng = np.random.default_rng(sum(dims))
    side = int(np.prod(dims))
    for r in range(len(dims) + 1):
        for keep in itertools.combinations(range(len(dims)), r):
            k_side = int(np.prod([dims[i] for i in keep]))
            for _ in range(3):
                x = random_hermitian(side, rng)
                y = random_hermitian(k_side, rng)
                adj = partial_trace_adjoint(y, dims, keep)
                assert adj.shape == (side, side)
                lhs = np.trace(dag(y) @ partial_trace(x, dims, keep)).real
                assert abs(lhs - np.trace(dag(adj) @ x).real) < 1e-12


def test_partial_trace_adjoint_is_kron_with_identity():
    rng = np.random.default_rng(12)
    a = random_hermitian(2, rng)
    # Keeping subsystem 1 of (3, 2): the identity goes on the left.
    assert np.allclose(partial_trace_adjoint(a, (3, 2), (1,)), np.kron(np.eye(3), a), atol=1e-15)
    # Keeping subsystem 0 of (2, 3): the identity goes on the right.
    b = random_hermitian(2, rng)
    assert np.allclose(partial_trace_adjoint(b, (2, 3), (0,)), np.kron(b, np.eye(3)), atol=1e-15)
    with pytest.raises(ValueError):
        partial_trace_adjoint(np.eye(3), (2, 3), (0,))
    with pytest.raises(ValueError, match=r"^keep indices \[-1\] out of range for 2 subsystems$"):
        partial_trace_adjoint(np.eye(2), (2, 3), (-1,))
    # One k x k matrix only: a stack of them is rejected.
    with pytest.raises(ValueError):
        partial_trace_adjoint(np.array([b, b]), (2, 3), (0,))


def test_swap_unitary_moves_factors():
    rng = np.random.default_rng(9)
    for d1, d2 in [(2, 3), (3, 2), (2, 2)]:
        a = random_hermitian(d1, rng)
        b = random_hermitian(d2, rng)
        p = swap_unitary(d1, d2)
        assert np.allclose(p @ np.kron(a, b) @ p.T, np.kron(b, a), atol=1e-13)
        # swap_output is conjugation of the output by the same unitary.
        c = ch.random_channel(2, d1 * d2, rng)
        conj = np.kron(np.eye(2), p)
        assert np.array_equal(ch.swap_output(c, d1, d2).choi, conj @ c.choi @ conj.T)
