"""Real channels are solved in real arithmetic, on the same path as their
complex cast.

Every check on real data is run twice: on the data as built, which are
float64 from the Choi operator to the witness, and on the same arrays cast to
complex128, Kraus sets included (cast, not recomputed: a complex
eigendecomposition may pick another Kraus set of a degenerate Choi operator).
Both solves must end the same way after the same iterations, and their
solutions and certificates must agree to rounding. For real targets the real
part of any solution is a solution, and every projection keeps real points
real, so the real solve visits the real points of the complex one.
"""

import numpy as np
import pytest
from paths import INSTANCES, cloning_threshold, depolarizing

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat.channels import Channel, KrausSet
from chancompat.feasibility import SolverConfig, Status, certificate_bound

# Real and complex solves of the same data agree to this.
PARITY_TOL = 1e-12


def cast(c: Channel) -> Channel:
    return Channel(c.dim_in, c.dim_out, c.choi.astype(complex))


def cast_kraus(k: KrausSet) -> KrausSet:
    return KrausSet(k.dim_in, k.dim_out, k.stack.astype(complex))


def run(check: str, channels, kraus: KrausSet | None = None, config=SolverConfig()):
    """The check's report; (anti-)degradability takes the given Kraus set,
    or psi's from ``kraus_from_choi``, as ``paths.Instance`` does."""
    if check == "compat":
        return an.check_compatibility(*channels, config)
    if check == "div":
        return an.check_divisibility(*channels, config)
    (psi,) = channels
    kraus = ch.kraus_from_choi(psi) if kraus is None else kraus
    fn = {"degradable": an.check_degradable, "antidegradable": an.check_antidegradable}[check]
    return fn(psi, kraus, config)


def witness(report) -> Channel | None:
    for name in ("compatibilizer", "quotient", "degrading"):
        if hasattr(report, name):
            return getattr(report, name)
    raise AssertionError(f"no witness field on {type(report).__name__}")


def arrays(report) -> list[np.ndarray]:
    """Every array the report carries: solution, certificate operators and
    the witness's Choi operator, those that exist."""
    solver = report.solver
    out = [] if solver.solution is None else [solver.solution]
    out += list(solver.certificate or ())
    w = witness(report)
    return out if w is None else [*out, w.choi]


def path(report) -> tuple:
    s = report.solver
    return s.status, s.iterations, s.stop_reason, s.candidate, s.rejections


def assert_parity(real, cplx):
    """``real`` (of real data) and ``cplx`` (of their complex cast) end the
    same way, with the same arrays to rounding, and with the dtypes of their
    data. An inconclusive solve has no arrays, and only its path is
    compared: the rounding of its iterates differs from the first
    eigendecomposition on, and near the cone boundary 2 000 iterations carry
    that apart to a few percent of its best residual."""
    assert path(real) == path(cplx)
    got, want = arrays(real), arrays(cplx)
    assert len(got) == len(want)
    assert got or real.status is Status.INCONCLUSIVE
    for x, y in zip(got, want):
        assert x.dtype == float and y.dtype == complex
        assert x.shape == y.shape
        assert np.abs(x - y).max(initial=0.0) <= PARITY_TOL
    if real.solver.certificate is not None:
        real_bound, cplx_bound = (
            certificate_bound(r.solver.constraints, r.solver.certificate) for r in (real, cplx)
        )
        assert real_bound >= 1e-6 and abs(real_bound - cplx_bound) <= PARITY_TOL


REAL_ENTRIES = [
    name
    for name, instance in INSTANCES.items()
    if all(c.choi.dtype == float for c in instance.channels)
]


def test_real_entries_cover_every_check_and_way_to_end():
    """The registry's real entries are most of it, and exercise each check
    and each way a solve ends."""
    real = [INSTANCES[name] for name in REAL_ENTRIES]
    assert len(real) >= 25
    assert {i.check for i in real} == {"compat", "div", "degradable", "antidegradable"}
    assert {i.stop_reason for i in real} == {"tolerance", "certificate", "plateau", "iteration-cap"}
    assert {i.candidate for i in real} == {None, "psd", "affine"}


@pytest.mark.parametrize("name", REAL_ENTRIES)
def test_registry_entry_solves_as_its_complex_cast(name):
    instance = INSTANCES[name]
    real = instance.report
    channels = tuple(map(cast, instance.channels))
    kraus = None
    if instance.check not in ("compat", "div"):
        kraus = cast_kraus(ch.kraus_from_choi(*instance.channels))
    cplx = run(instance.check, channels, kraus, instance.config)
    assert_parity(real, cplx)


# The benchmark's known-infeasible kinds, at the ends of its parameter
# ranges: AD anti-degradability for gamma in [0.32, 0.45], AD degradability
# for gamma in [0.55, 0.6], and no-cloning at d = 2 and 3.
PLATEAU_KINDS = [
    ("antidegradable", 0.32),
    ("antidegradable", 0.45),
    ("degradable", 0.55),
    ("degradable", 0.6),
]


@pytest.mark.parametrize("check, gamma", PLATEAU_KINDS)
def test_amplitude_damping_kind_solves_as_its_complex_cast(check, gamma):
    kraus = ch.amplitude_damping(gamma)
    psi = ch.choi_from_kraus(kraus)
    assert psi.choi.dtype == kraus.stack.dtype == float
    real = run(check, (psi,), kraus)
    cplx = run(check, (cast(psi),), cast_kraus(kraus))
    assert real.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert_parity(real, cplx)


@pytest.mark.parametrize("d", [2, 3])
def test_no_cloning_solves_as_its_complex_cast(d):
    ident = ch.identity(d)
    real = run("compat", (ident, ident))
    cplx = run("compat", (cast(ident), cast(ident)))
    assert real.solver.iterations == 0 and real.solver.stop_reason == "certificate"
    assert_parity(real, cplx)


def test_mixed_data_are_solved_complex_as_their_complex_cast():
    """A complex psi with the real identity as phi, the benchmark's
    ``div-damping-id``: the set takes complex128 once, and the solve is the
    complex cast's bit for bit."""
    rng = np.random.default_rng(5)
    kraus = ch.amplitude_damping(0.3)
    u_in, u_out = ch.random_unitary(2, rng), ch.random_unitary(2, rng)
    psi = ch.choi_from_kraus(KrausSet(2, 2, u_out @ kraus.stack @ u_in))
    ident = ch.identity(2)
    assert psi.choi.dtype == complex and ident.choi.dtype == float
    mixed = run("div", (psi, ident))
    cplx = run("div", (psi, cast(ident)))
    assert mixed.status is Status.NOT_FEASIBLE_AT_TOLERANCE
    assert path(mixed) == path(cplx)
    for x, y in zip(arrays(mixed), arrays(cplx), strict=True):
        assert x.dtype == y.dtype == complex and x.tobytes() == y.tobytes()
    # The other way round, a real psi dividing a complex phi.
    damping = ch.choi_from_kraus(kraus)
    phi = ch.compose_choi(damping, ch.unitary_channel(u_out))
    mixed, cplx = run("div", (damping, phi)), run("div", (cast(damping), phi))
    assert mixed.status is Status.FEASIBLE and path(mixed) == path(cplx)
    for x, y in zip(arrays(mixed), arrays(cplx), strict=True):
        assert x.dtype == y.dtype == complex and x.tobytes() == y.tobytes()


def dephasing(kappa: float) -> Channel:
    """Qubit dephasing: rho_01 -> kappa rho_01, the diagonal kept."""
    j = np.zeros((4, 4))
    j[0, 0] = j[3, 3] = 1.0
    j[0, 3] = j[3, 0] = kappa
    return Channel(2, 2, j)


# Lambda_t divides Lambda_s exactly when |kappa(s)| <= |kappa(t)|.
DEPHASING_PAIRS = [(0.9, 0.5), (0.9, -0.9), (-0.7, 0.3), (0.5, 0.9), (0.3, -0.7), (0.0, 0.4)]


@pytest.mark.parametrize("kappa_t, kappa_s", DEPHASING_PAIRS)
def test_dephasing_divisibility_solves_as_its_complex_cast(kappa_t, kappa_s):
    pair = dephasing(kappa_t), dephasing(kappa_s)
    real = run("div", pair)
    cplx = run("div", tuple(map(cast, pair)))
    divisible = abs(kappa_s) <= abs(kappa_t)
    assert real.status is (Status.FEASIBLE if divisible else Status.NOT_FEASIBLE_AT_TOLERANCE)
    assert_parity(real, cplx)


def test_real_constructors_and_conversions_stay_real():
    """Real data stay float64 through every constructor and conversion that
    keeps them real; random and unitary constructors are complex."""
    real = [
        ch.identity(3).choi,
        ch.completely_depolarizing(2).choi,
        ch.amplitude_damping(0.2).stack,
        ch.constant_channel(np.eye(2) / 2, 3).choi,
        ch.trace_out_channel((2, 3), keep=(1,)).choi,
        ch.append_maximally_mixed(2, 2).choi,
        depolarizing(2, cloning_threshold(2)).choi,
        ch.complementary(ch.amplitude_damping(0.2)).choi,
        ch.kraus_from_choi(ch.identity(2)).stack,
        ch.isometry_from_kraus(ch.amplitude_damping(0.2)).v,
        ch.Channel(1, 1, [[1]]).choi,
        ch.KrausSet(1, 1, [np.ones((1, 1), dtype=int)]).stack,
    ]
    assert all(m.dtype == float for m in real)
    rng = np.random.default_rng(0)
    cplx = [
        ch.random_channel(2, 2, rng).choi,
        ch.unitary_channel(np.eye(2)).choi,
        ch.self_complementary_qubit(1, 0.3, 0.0).stack,
        ch.KrausSet(2, 2, (np.eye(2), 1j * np.zeros((2, 2)))).stack,
    ]
    assert all(m.dtype == complex for m in cplx)
    # A float64 Choi operator is kept as given, not copied.
    j = ch.identity(2).choi
    assert Channel(2, 2, j).choi is j
