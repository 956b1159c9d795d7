"""Seeded instances of the four benchmark workloads, each with a ground truth.

A workload is a list of *rounds*; a round holds an instance of every kind
the workload mixes, drawn from ``numpy.random.default_rng([seed, round])``,
so the same seed gives the same instances. Every instance carries the verdict
it must get and where that verdict comes from:

* ``construction``: the benchmark builds a witness (joint channel, quotient)
  from channel arithmetic and certifies it in set-up, before any check runs;
* ``theory``: a theorem fixes the verdict (amplitude damping is degradable
  exactly for gamma <= 1/2, no channel inverts a non-unitary channel,
  no-cloning, the paper's pipelines).

Where a kind's solver cost depends on the instance (iteration counts of
random full-rank pairs run from tens to over ten thousand), the workload keeps
a parameter range on which its cost is steady, or a fixed base instance that
the seed *dresses* with random unitaries before and after. Local unitaries
leave every verdict unchanged and map the solver's iterates onto each other,
so a kind costs about the same at every seed. Instances on which the solver
fails (inconclusive at the iteration cap) or whose cost is heavy-tailed are
collected in the ``seed-defects`` probe instead, which is not a benchmark
workload: the benchmark's workloads are chosen so that no check fails.

The solver never supplies a ground truth. A returned witness is re-verified
here from the returned operator alone: complete positivity and trace
preservation, then the marginal or composition identity, through
``chancompat.channels`` arithmetic. The checks' own residual fields are not
read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat import cli
from chancompat import io as cio
from chancompat.channels import Channel, KrausSet

# Witness tolerances. Checks solve to an affine residual below 1e-7 (the
# solver's default eps_feas), which bounds the Choi distance of each identity;
# the PSD-projected candidate is PSD up to rounding.
CP_TOL = 1e-8
IDENTITY_TOL = 1e-6
# Ground-truth witnesses built in set-up are exact up to rounding.
CERT_TOL = 1e-9

# Solver statuses by verdict; anything else counts as inconclusive.
_FEASIBLE = {"feasible"}
_INFEASIBLE = {"not-feasible-at-tolerance"}


@dataclass
class Instance:
    kind: str
    expect: str  # "feasible" | "infeasible"
    source: str  # "construction" | "theory"
    call: Callable[[], Any] = field(repr=False)
    verdict: Callable[[Any], str] = field(repr=False)
    witness_ok: Callable[[Any], bool] = field(repr=False)
    fingerprint: str = ""


@dataclass
class CliResult:
    code: int
    stdout: str


def _fingerprint(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Channel):
            part = part.choi
        if isinstance(part, KrausSet):
            part = np.stack(part.operators)
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def _verdict(status) -> str:
    value = status.value
    if value in _FEASIBLE:
        return "feasible"
    if value in _INFEASIBLE:
        return "infeasible"
    return "inconclusive"


# ---------------------------------------------------------------------------
# Re-verification through channel arithmetic
# ---------------------------------------------------------------------------


def cptp_ok(c: Channel, tp_tol: float = IDENTITY_TOL) -> bool:
    cp, tp = ch.cptp_defects(c)
    return cp <= CP_TOL and tp <= tp_tol


def _close(a: Channel, b: Channel, tol: float = IDENTITY_TOL) -> bool:
    return (a.dim_in, a.dim_out) == (b.dim_in, b.dim_out) and ch.choi_distance(a, b) <= tol


def joint_ok(joint: Channel | None, psi: Channel, phi: Channel, tol: float = IDENTITY_TOL) -> bool:
    """``joint`` is CPTP with output marginals ``psi`` and ``phi``."""
    if joint is None or joint.dim_out != psi.dim_out * phi.dim_out:
        return False
    dims = (psi.dim_out, phi.dim_out)
    return (
        cptp_ok(joint, tol)
        and _close(ch.output_marginal(joint, dims, (0,)), psi, tol)
        and _close(ch.output_marginal(joint, dims, (1,)), phi, tol)
    )


def quotient_ok(quotient: Channel | None, psi: Channel, phi: Channel, tol: float = IDENTITY_TOL) -> bool:
    """``quotient`` is CPTP and ``quotient o psi == phi``."""
    if quotient is None or quotient.dim_in != psi.dim_out:
        return False
    return cptp_ok(quotient, tol) and _close(ch.compose_choi(psi, quotient), phi, tol)


def _certify(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"ground-truth certification failed: {what}")


# ---------------------------------------------------------------------------
# Instance constructions
# ---------------------------------------------------------------------------


def thm1_pair(rng, d: int, env: int) -> tuple[Channel, Channel, Channel]:
    """Theorem 1 pair (psi, theta o psi^c) with its joint channel.

    The joint applies theta to the environment leg of psi's Stinespring
    dilation, built here from channel arithmetic and certified.
    """
    kraus = ch.random_kraus(d, d, env, rng)
    psi = ch.choi_from_kraus(kraus)
    theta = ch.random_channel(env, d, rng, dim_env=2 * env)
    phi = ch.compose_choi(ch.complementary(kraus), theta)
    dilation = ch.isometry_channel(ch.isometry_from_kraus(kraus))
    joint = ch.compose_choi(dilation, ch.tensor(ch.identity(d), theta))
    _certify(joint_ok(joint, psi, phi, CERT_TOL), f"Theorem 1 joint, d={d}, env={env}")
    return psi, phi, joint


def noisy_joint(psi: Channel, phi: Channel, joint: Channel, eps: float) -> tuple[Channel, Channel, Channel]:
    """Mix a compatible pair with eps of completely depolarizing noise.

    The joint (1-eps)^2 J + eps(1-eps)(psi(.) (x) I/dC + I/dB (x) phi(.))
    + eps^2 I/(dB dC) is CPTP and has the noisy pair as marginals.
    """
    da, db, dc = psi.dim_in, psi.dim_out, phi.dim_out
    noise_b = ch.constant_channel(np.eye(db) / db, da)
    noise_c = ch.constant_channel(np.eye(dc) / dc, da)
    psi_eps = Channel(da, db, (1 - eps) * psi.choi + eps * noise_b.choi)
    phi_eps = Channel(da, dc, (1 - eps) * phi.choi + eps * noise_c.choi)
    psi_mixed = ch.compose_choi(psi, ch.append_maximally_mixed(db, dc))
    mixed_phi = ch.swap_output(ch.compose_choi(phi, ch.append_maximally_mixed(dc, db)), dc, db)
    noise_bc = ch.constant_channel(np.eye(db * dc) / (db * dc), da)
    choi = (
        (1 - eps) ** 2 * joint.choi
        + eps * (1 - eps) * (psi_mixed.choi + mixed_phi.choi)
        + eps**2 * noise_bc.choi
    )
    joint_eps = Channel(da, db * dc, choi)
    _certify(joint_ok(joint_eps, psi_eps, phi_eps, CERT_TOL), f"noisy joint, eps={eps}")
    return psi_eps, phi_eps, joint_eps


def measure_prepare_pair(rng, d: int) -> tuple[Channel, Channel]:
    """Measure-and-prepare channel chi and its self-compatibilizer.

    chi measures in a random basis and prepares a random pure state per
    outcome; preparing that state twice gives a joint whose two marginals
    both equal chi.
    """
    basis = ch.random_unitary(d, rng)
    states = []
    for _ in range(d):
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        states.append(g / np.linalg.norm(g))
    chi = ch.choi_from_kraus(
        KrausSet(d, d, tuple(np.outer(s, basis[:, k].conj()) for k, s in enumerate(states)))
    )
    twice = KrausSet(
        d, d * d, tuple(np.outer(np.kron(s, s), basis[:, k].conj()) for k, s in enumerate(states))
    )
    self_joint = ch.choi_from_kraus(twice)
    _certify(joint_ok(self_joint, chi, chi, CERT_TOL), "measure-prepare self-compatibilizer")
    return chi, self_joint


def tensored_joint(joint: Channel, dims_bc: tuple[int, int], self_joint: Channel, d_anc: int) -> Channel:
    """Joint channel of (psi (x) chi, phi (x) chi) from the two joints.

    ``joint (x) self_joint`` has outputs B C B' C''; reordering them to
    (B B') (C C'') gives a compatibilizer of the tensored pair.
    """
    db, dc = dims_bc
    perm = np.kron(np.kron(np.eye(db), ch.swap_unitary(dc, d_anc)), np.eye(d_anc))
    return ch.compose_choi(ch.tensor(joint, self_joint), ch.unitary_channel(perm))


def dress(c: Channel, u_in: np.ndarray, u_out: np.ndarray) -> Channel:
    """The channel ``u_out . c(u_in . u_in^dag) . u_out^dag``."""
    return ch.compose_choi(ch.compose_choi(ch.unitary_channel(u_in), c), ch.unitary_channel(u_out))


def dress_kraus(k: KrausSet, rng) -> KrausSet:
    """A Kraus set with random unitaries applied before and after."""
    u_in, u_out = ch.random_unitary(k.dim_in, rng), ch.random_unitary(k.dim_out, rng)
    return KrausSet(k.dim_in, k.dim_out, tuple(u_out @ op @ u_in for op in k.operators))


def dressed_pair(rng, psi: Channel, phi: Channel, joint: Channel) -> tuple[Channel, Channel]:
    """A compatible pair dressed with one input and two output unitaries.

    The joint is dressed with the input unitary and the tensor product of the
    output unitaries and certified again.
    """
    u_in = ch.random_unitary(psi.dim_in, rng)
    u_b, u_c = ch.random_unitary(psi.dim_out, rng), ch.random_unitary(phi.dim_out, rng)
    psi, phi, joint = dress(psi, u_in, u_b), dress(phi, u_in, u_c), dress(joint, u_in, np.kron(u_b, u_c))
    _certify(joint_ok(joint, psi, phi, CERT_TOL), "dressed joint")
    return psi, phi


def _rank(c: Channel, tol: float = 1e-6) -> int:
    return int(np.count_nonzero(np.linalg.eigvalsh(c.choi) > tol))


# ---------------------------------------------------------------------------
# Instances of library checks
# ---------------------------------------------------------------------------


def compat_instance(kind, psi, phi, expect, source) -> Instance:
    return Instance(
        kind,
        expect,
        source,
        call=lambda: an.check_compatibility(psi, phi),
        verdict=lambda r: _verdict(r.status),
        witness_ok=lambda r: joint_ok(r.compatibilizer, psi, phi),
        fingerprint=_fingerprint(kind, psi, phi),
    )


def div_instance(kind, psi, phi, expect, source) -> Instance:
    return Instance(
        kind,
        expect,
        source,
        call=lambda: an.check_divisibility(psi, phi),
        verdict=lambda r: _verdict(r.status),
        witness_ok=lambda r: quotient_ok(r.quotient, psi, phi),
        fingerprint=_fingerprint(kind, psi, phi),
    )


def degradability_instance(kind, kraus: KrausSet, anti: bool, expect) -> Instance:
    psi = ch.choi_from_kraus(kraus)
    psi_c = ch.complementary(kraus)
    fn = an.check_antidegradable if anti else an.check_degradable
    src, dst = (psi_c, psi) if anti else (psi, psi_c)
    return Instance(
        kind,
        expect,
        "theory",
        call=lambda: fn(psi, kraus),
        verdict=lambda r: _verdict(r.status),
        witness_ok=lambda r: quotient_ok(r.degrading, src, dst),
        fingerprint=_fingerprint(kind, kraus),
    )


def family_instance(rng, steps: int) -> Instance:
    psi = ch.random_channel(2, 2, rng, dim_env=2)
    family = [psi]
    for _ in range(steps - 1):
        family.append(ch.compose_choi(family[-1], psi))
    for k in range(steps - 1):
        _certify(quotient_ok(psi, family[k], family[k + 1], CERT_TOL), f"family step {k}")

    def verdict(reports):
        verdicts = {_verdict(r.status) for r in reports}
        if verdicts == {"feasible"}:
            return "feasible"
        return "inconclusive" if "inconclusive" in verdicts else "infeasible"

    def witness_ok(reports):
        return all(quotient_ok(r.quotient, family[k], family[k + 1]) for k, r in enumerate(reports))

    return Instance(
        f"family-{steps}",
        "feasible",
        "construction",
        call=lambda: an.check_family_divisibility(family),
        verdict=verdict,
        witness_ok=witness_ok,
        fingerprint=_fingerprint("family", *family),
    )


def no_catalysis_instance(rng) -> Instance:
    """Tensored compatibility at side (2*2)^3 = 64."""
    psi, phi, joint = thm1_pair(rng, 2, 2)
    chi, self_joint = measure_prepare_pair(rng, 2)
    big_psi, big_phi = ch.tensor(psi, chi), ch.tensor(phi, chi)
    big_joint = tensored_joint(joint, (2, 2), self_joint, 2)
    _certify(joint_ok(big_joint, big_psi, big_phi, CERT_TOL), "tensored joint")

    def witness_ok(report):
        return joint_ok(report.tensored.compatibilizer, big_psi, big_phi) and joint_ok(
            report.reduced, psi, phi
        )

    return Instance(
        "nocatalysis-64",
        "feasible",
        "construction",
        call=lambda: an.verify_no_catalysis(psi, phi, chi),
        verdict=lambda r: _verdict(r.tensored.status),
        witness_ok=witness_ok,
        fingerprint=_fingerprint("nocat", psi, phi, chi),
    )


def divisible_pair(rng, d: int) -> tuple[Channel, Channel]:
    psi = ch.random_channel(d, d, rng, dim_env=2)
    theta = ch.random_channel(d, d, rng, dim_env=d)
    phi = ch.compose_choi(psi, theta)
    _certify(quotient_ok(theta, psi, phi, CERT_TOL), f"divisible pair d={d}")
    return psi, phi


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def round_exact_feasible(rng, tiny: bool, workdir: str, r: int) -> list[Instance]:
    out = []
    for d, env in ((2, 2), (3, 3)):
        if tiny and d > 2:
            continue
        psi, phi, _ = thm1_pair(rng, d, env)
        out.append(compat_instance(f"thm1-d{d}", psi, phi, "feasible", "construction"))
    for d in (2, 3, 4):
        if tiny and d > 2:
            continue
        psi, phi = divisible_pair(rng, d)
        out.append(div_instance(f"div-d{d}", psi, phi, "feasible", "construction"))
    out.append(
        degradability_instance(
            "ad-degradable", ch.amplitude_damping(float(rng.uniform(0.05, 0.5))), False, "feasible"
        )
    )
    out.append(
        degradability_instance(
            "ad-antidegradable", ch.amplitude_damping(float(rng.uniform(0.5, 0.95))), True, "feasible"
        )
    )
    out.append(family_instance(rng, 4))
    if not tiny:
        out.append(no_catalysis_instance(rng))
    return out


# Amplitude-damping ranges on which the plateau check stopped at its first
# checkpoint pair (2 000 iterations) on all of 200 samples each: div(AD, id)
# dressed, the degradability checks undressed (dressing them sent 1 in 200 to
# 12 000 iterations). Nearer gamma = 0 or 1 the iteration count varies from
# 2 000 to the cap: 11 of 80 dressed div(AD, id) samples over 0.2..0.8 took
# 3 000 to 12 000. Those instances are in ``seed-defects``.
ANTI_LT_HALF = (0.32, 0.45)
DEG_GT_HALF = (0.55, 0.6)
DIV_ID = (0.2, 0.5)


def round_plateau_infeasible(rng, tiny: bool, workdir: str, r: int) -> list[Instance]:
    out = []
    if not tiny:
        kraus = dress_kraus(ch.amplitude_damping(float(rng.uniform(*DIV_ID))), rng)
        psi = ch.choi_from_kraus(kraus)
        # Only unitary channels have a channel inverse; rank >= 2 is not unitary.
        _certify(_rank(psi) >= 2, "div(psi, id) needs a non-unitary psi")
        out.append(div_instance("div-damping-id", psi, ch.identity(2), "infeasible", "theory"))
        out.append(
            degradability_instance(
                "ad-antidegradable-lt-half",
                ch.amplitude_damping(float(rng.uniform(*ANTI_LT_HALF))),
                True,
                "infeasible",
            )
        )
    out.append(
        degradability_instance(
            "ad-degradable-gt-half",
            ch.amplitude_damping(float(rng.uniform(*DEG_GT_HALF))),
            False,
            "infeasible",
        )
    )
    for d in (2, 3):
        ident = ch.identity(d)
        out.append(compat_instance(f"identity-self-d{d}", ident, ident, "infeasible", "theory"))
    return out


# Base Theorem-1 pairs of the near-boundary kinds: (d, env, base index, noise)
# with the solver's iteration count, the same under any dressing.
NEAR_BOUNDARY_BASE_SEED = 77
NEAR_BOUNDARY_KINDS = {
    "full-rank-thm1-d2": (2, 4, 7, 0.0),  # 598 iterations
    "full-rank-thm1-d3": (3, 9, 2, 0.0),  # 240 iterations
    "noisy-thm1-0.01": (2, 2, 6, 1e-2),  # 1011 iterations
    "noisy-thm1-0.1": (2, 2, 6, 1e-1),  # 54 iterations
}


def near_boundary_base(d: int, env: int, index: int, eps: float) -> tuple[Channel, Channel, Channel]:
    psi, phi, joint = thm1_pair(np.random.default_rng([NEAR_BOUNDARY_BASE_SEED, index]), d, env)
    return noisy_joint(psi, phi, joint, eps) if eps else (psi, phi, joint)


def round_near_boundary(rng, tiny: bool, workdir: str, r: int) -> list[Instance]:
    out = []
    for kind, base in NEAR_BOUNDARY_KINDS.items():
        if tiny and kind != "full-rank-thm1-d2":
            continue
        psi, phi = dressed_pair(rng, *near_boundary_base(*base))
        out.append(compat_instance(kind, psi, phi, "feasible", "construction"))
    return out


def round_seed_defects(rng, tiny: bool, workdir: str, r: int) -> list[Instance]:
    """Instances the solver gets wrong or inconclusive, or only after
    thousands of iterations: the noisy Theorem-1 family stops at the
    iteration cap, and so do some amplitude-damping checks near gamma = 0 or 1
    and some ``div(random psi, id)`` checks."""
    psi, phi, joint = thm1_pair(rng, 2, 2)
    out = []
    for eps in (1e-8, 1e-6, 1e-4):
        if tiny and eps != 1e-4:
            continue
        psi_e, phi_e, _ = noisy_joint(psi, phi, joint, eps)
        out.append(compat_instance(f"noisy-thm1-{eps:g}", psi_e, phi_e, "feasible", "construction"))
    if tiny:
        return out
    out.append(
        degradability_instance(
            "ad-antidegradable-near-0", ch.amplitude_damping(float(rng.uniform(0.05, 0.2))), True, "infeasible"
        )
    )
    out.append(
        degradability_instance(
            "ad-degradable-near-1", ch.amplitude_damping(float(rng.uniform(0.7, 0.95))), False, "infeasible"
        )
    )
    psi = ch.random_channel(2, 2, rng)
    _certify(_rank(psi) >= 2, "div(psi, id) needs a non-unitary psi")
    out.append(div_instance("div-random-id", psi, ch.identity(2), "infeasible", "theory"))
    for d, env in ((2, 4), (3, 9)):
        psi, phi, _ = thm1_pair(rng, d, env)
        out.append(compat_instance(f"random-full-rank-thm1-d{d}", psi, phi, "feasible", "construction"))
    return out


# -- cli-reports -------------------------------------------------------------

PIPELINES = ("thm1", "thm2i", "thm2ii", "corollary", "prop1", "nocatalysis", "family")


def run_cli(argv: list[str]) -> CliResult:
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def _report(res: CliResult) -> dict | None:
    lines = res.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


_EXIT = {"feasible": 0, "not-feasible-at-tolerance": 1, "inconclusive": 2}


def _cli_verdict(res: CliResult) -> str:
    doc = _report(res)
    if doc is None or _EXIT.get(doc.get("status")) != res.code:
        return "error"
    return {"feasible": "feasible", "not-feasible-at-tolerance": "infeasible"}.get(
        doc["status"], "inconclusive"
    )


def _reloaded_witness(res: CliResult) -> Channel | None:
    doc = _report(res)
    if doc is None or "witness" not in doc:
        return None
    try:
        channel, _ = cio.channel_from_json(doc["witness"], atol=IDENTITY_TOL)
    except cio.LoadError:
        return None
    return channel


def cli_check_instance(kind, source, argv, files, witness_ok: Callable[[Channel], bool]) -> Instance:
    def ok(res):
        witness = _reloaded_witness(res)
        return witness is not None and witness_ok(witness)

    contents = []
    for path in files:
        with open(path, "rb") as fh:
            contents.append(fh.read())
    return Instance(
        kind,
        "feasible",
        source,
        call=lambda: run_cli(argv),
        verdict=_cli_verdict,
        witness_ok=ok,
        fingerprint=_fingerprint(kind, *contents),
    )


def cli_verify_instance(pipeline: str, seed: int) -> Instance:
    def ok(res):
        doc = _report(res)
        witness = _reloaded_witness(res)
        steps = doc.get("steps", [])
        return (
            witness is not None
            and cptp_ok(witness)
            and bool(steps)
            and all(s.get("status") == "feasible" for s in steps)
        )

    argv = ["verify", pipeline, "--seed", str(seed), "--trials", "1"]
    return Instance(
        f"verify-{pipeline}",
        "feasible",
        "theory",
        call=lambda: run_cli(argv),
        verdict=_cli_verdict,
        witness_ok=ok,
        fingerprint=_fingerprint(*argv),
    )


def round_cli_reports(rng, tiny: bool, workdir: str, r: int) -> list[Instance]:
    out = []

    def check(kind, source, witness_ok, *channels):
        """Write the channel files of one ``check`` command and wrap it."""
        files = []
        for i, c in enumerate(channels):
            files.append(os.path.join(workdir, f"r{r}-{kind}-{i}.json"))
            cio.save_channel(files[-1], c)
        what = kind.split("-")[1]
        out.append(cli_check_instance(kind, source, ["check", what, *files], files, witness_ok))

    # psi in Kraus form, phi in Choi form.
    psi, phi, _ = thm1_pair(rng, 2, 2)
    check("check-compat", "construction", lambda w: joint_ok(w, psi, phi), ch.kraus_from_choi(psi), phi)
    psi_d, phi_d = divisible_pair(rng, 2)
    check("check-div", "construction", lambda w: quotient_ok(w, psi_d, phi_d), psi_d, phi_d)
    if tiny:
        out.append(cli_verify_instance("thm1", int(rng.integers(2**31))))
        return out

    # The example-2 pair (depolarizing o Tr_C, Tr_B) with its product joint.
    psi_e, phi_e, joint_e = ch.trace_out_pair(ch.completely_depolarizing(2), ch.identity(2))
    _certify(joint_ok(joint_e, psi_e, phi_e, CERT_TOL), "example-2 pair")
    check("check-compat-example2", "construction", lambda w: joint_ok(w, psi_e, phi_e), psi_e, phi_e)

    deg = ch.amplitude_damping(float(rng.uniform(0.05, 0.5)))
    deg_psi, deg_c = ch.choi_from_kraus(deg), ch.complementary(deg)
    check("check-degradable", "theory", lambda w: quotient_ok(w, deg_psi, deg_c), deg)
    # Choi form: the CLI extracts a Kraus set from the eigendecomposition of
    # the loaded operator, which is entrywise the saved one, so the same
    # extraction here gives the same complementary channel.
    anti = ch.choi_from_kraus(ch.amplitude_damping(float(rng.uniform(0.5, 0.95))))
    anti_c = ch.complementary(ch.kraus_from_choi(anti))
    check("check-antidegradable", "theory", lambda w: quotient_ok(w, anti_c, anti), anti)

    # A self-complementary Kraus set; the witness is the identity degrading map.
    sc = ch.self_complementary_qubit(1, float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
    sc_psi, sc_c = ch.choi_from_kraus(sc), ch.complementary(sc)
    _certify(_close(sc_psi, sc_c, CERT_TOL), "self-complementary channel")
    check("check-selfdeg", "theory", lambda w: quotient_ok(w, sc_psi, sc_c), sc)
    for pipeline in PIPELINES:
        out.append(cli_verify_instance(pipeline, int(rng.integers(2**31))))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    build_round: Callable[..., list[Instance]]
    pool_rounds: int  # rounds generated in set-up; the run cycles through them


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-feasible", round_exact_feasible, 16),
        Workload("plateau-infeasible", round_plateau_infeasible, 24),
        Workload("near-boundary", round_near_boundary, 8),
        Workload("cli-reports", round_cli_reports, 16),
    )
}

# Runs like a workload (``--workload seed-defects``) but is not one of the
# benchmark's: its checks fail by design.
PROBES = {"seed-defects": Workload("seed-defects", round_seed_defects, 4)}


def build_pool(name: str, seed: int, workdir: str, tiny: bool = False) -> list[list[Instance]]:
    """Generate and certify the rounds of a workload; same seed, same rounds."""
    wl = WORKLOADS.get(name) or PROBES[name]
    rounds = 1 if tiny else wl.pool_rounds
    return [wl.build_round(np.random.default_rng([seed, r]), tiny, workdir, r) for r in range(rounds)]
