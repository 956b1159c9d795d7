"""Named solver instances, each with the path its solve must take.

A path is what the solver's report says about how the solve ended: its
``status`` and ``stop_reason``, the ``candidate`` that ended a feasible solve
(``"psd"``, the PSD iterate, or ``"affine"``, the affine point, which at
iteration 0 is the shifted start), the number of extrapolated points the
safeguard rejected (``rejections``), and a bound on ``iterations``, stated
as loosely as the path allows. ``test_paths.py`` asserts every entry of
:data:`INSTANCES`, so a solver change that moves an instance off its path
fails one test, named after the instance. Tests that
rely on a path take their instance from :data:`INSTANCES` by name and read the
report's fields; none patches the solver to learn which path it took. Each
entry solves once for all the tests that only read its report
(:attr:`Instance.report`); a test that spies on the solver or counts its
calls makes a fresh solve (:meth:`Instance.run`).

The builders of the solver-path families (Theorem-1 pairs, noise, dressing,
depolarizing channels) are defined here once. Each draws from its rng in one
fixed order, so that every seeded instance built from them is the same array
wherever it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat.channels import Channel
from chancompat.feasibility import SolverConfig, Status


def thm1_pair(rng, d, env):
    """A Theorem-1 pair ``(psi, theta o psi^c)``, compatible by construction:
    psi from a random Kraus set of ``env`` operators on C^d, then theta."""
    kraus = ch.random_kraus(d, d, env, rng)
    theta = ch.random_channel(env, d, rng, dim_env=2 * env)
    return ch.choi_from_kraus(kraus), ch.compose_choi(ch.complementary(kraus), theta)


def noisy(c: Channel, eps: float) -> Channel:
    """c mixed with eps of the completely depolarizing channel."""
    noise = ch.constant_channel(np.eye(c.dim_out) / c.dim_out, c.dim_in)
    return Channel(c.dim_in, c.dim_out, (1 - eps) * c.choi + eps * noise.choi)


def dressed(c: Channel, before: np.ndarray, after: np.ndarray) -> Channel:
    """``after o c o before`` for the unitary channels of ``before`` and
    ``after``."""
    out = ch.compose_choi(ch.unitary_channel(before), c)
    return ch.compose_choi(out, ch.unitary_channel(after))


def depolarizing(d: int, eta: float) -> Channel:
    """rho -> eta rho + (1 - eta) Tr(rho) I / d."""
    noise = ch.completely_depolarizing(d).choi
    return Channel(d, d, eta * ch.identity(d).choi + (1 - eta) * noise)


def dephasing(kappa: float) -> Channel:
    """Qubit dephasing: rho_01 -> kappa rho_01, the diagonal kept."""
    j = np.zeros((4, 4))
    j[0, 0] = j[3, 3] = 1.0
    j[0, 3] = j[3, 0] = kappa
    return Channel(2, 2, j)


def cloning_threshold(d: int) -> float:
    """eta* = (d + 2) / (2 (d + 1)): the depolarizing channel is compatible
    with itself, and anti-degradable, exactly when eta <= eta* (optimal
    universal 1 -> 2 cloning)."""
    return (d + 2) / (2 * (d + 1))


@dataclass(frozen=True)
class Instance:
    """One check and the path its solve must take. ``check`` is the name
    ``chancompat check`` gives it; ``channels`` are its arguments (psi and
    phi, or psi alone for (anti-)degradability, on psi's minimal Kraus set, as
    the CLI takes a Choi file). ``iterations`` bounds the report's count,
    both ends included."""

    check: str
    channels: tuple[Channel, ...]
    status: Status
    stop_reason: str
    candidate: str | None
    rejections: int
    iterations: tuple[int, float]
    config: SolverConfig = SolverConfig()

    def run(self):
        """A fresh solve: the check's report, whose ``solver`` is the solve's
        report."""
        if self.check == "compat":
            return an.check_compatibility(*self.channels, self.config)
        if self.check == "div":
            return an.check_divisibility(*self.channels, self.config)
        (psi,) = self.channels
        check = {"degradable": an.check_degradable, "antidegradable": an.check_antidegradable}
        return check[self.check](psi, ch.kraus_from_choi(psi), self.config)

    @cached_property
    def report(self):
        """:meth:`run`'s report, made on first use and shared by every test
        that only reads it."""
        return self.run()

    def path(self) -> tuple:
        return self.status, self.stop_reason, self.candidate, self.rejections


def _feasible(check, channels, candidate, iterations, rejections=0):
    status = Status.FEASIBLE
    return Instance(check, channels, status, "tolerance", candidate, rejections, iterations)


def _certified(check, channels, at=1):
    status = Status.NOT_FEASIBLE_AT_TOLERANCE
    return Instance(check, channels, status, "certificate", None, 0, (at, at))


def _plateau(check, channels):
    return Instance(check, channels, Status.INCONCLUSIVE, "plateau", None, 1, (2, math.inf))


def _instances() -> dict[str, Instance]:
    out = {}
    # The start, shifted at rounding level, ends the solve at iteration 0 as
    # the affine point: AD(0.3) is degradable, and random divisible pairs at
    # d = 5 and 6, where a dense M would be 650 x 625 and 1 332 x 1 296. None
    # of these starts has a Cholesky factor unshifted. AD(1/2) is
    # anti-degradable through a unitary channel, so its start is singular,
    # of rank 1 in 4.
    ad = ch.choi_from_kraus(ch.amplitude_damping(0.3))
    out["ad-0.3-degradable"] = _feasible("degradable", (ad,), "affine", (0, 0))
    for d in (5, 6):
        rng = np.random.default_rng(700 + d)
        psi = ch.random_channel(d, d, rng, dim_env=2)
        phi = ch.compose_choi(psi, ch.random_channel(d, d, rng, dim_env=d))
        out[f"large-div-d{d}"] = _feasible("div", (psi, phi), "affine", (0, 0))
    ad = ch.choi_from_kraus(ch.amplitude_damping(0.5))
    out["ad-0.5-antidegradable"] = _feasible("antidegradable", (ad,), "affine", (0, 0))
    # A start with a positive diagonal and no Cholesky factor: the solve
    # iterates from it untouched, and the PSD iterate ends it at iteration 4.
    # A Theorem-1 pair whose psi alone carries 1e-6 of noise, so that psi
    # has full Choi rank and the check divides by the identity dilation.
    psi, phi = thm1_pair(np.random.default_rng(0), 3, 1)
    pair = noisy(psi, 1e-6), phi
    out["noisy-psi-thm1-d3-env1-1e-6"] = _feasible("compat", pair, "psd", (1, 4))
    # Depolarizing self-compatibility around eta*. Below it, the PSD iterate
    # ends the solve after the certificate attempt at iteration 1 failed (at
    # iteration 4); within 1e-6 of eta*, where plain Douglas-Rachford
    # plateaus, by iteration 4. Above it, a certificate at iteration 1.
    below = [("1e-2", (2, 3), math.inf), ("1e-3", (2, 3), math.inf), ("1e-6", (2, 3, 4), 4)]
    for delta, dims, most in below:
        for d in dims:
            dep = depolarizing(d, cloning_threshold(d) - float(delta))
            feasible = _feasible("compat", (dep, dep), "psd", (2, most))
            out[f"dep-compat-d{d}-below-{delta}"] = feasible
    for delta, dims in (("1e-3", (2, 3)), ("1e-6", (2, 3, 4))):
        for d in dims:
            dep = depolarizing(d, cloning_threshold(d) + float(delta))
            out[f"dep-compat-d{d}-above-{delta}"] = _certified("compat", (dep, dep))
    # The positive definite affine point ends the solve while the PSD
    # iterate's residual is still above eps_feas: on noisy and full-rank
    # Theorem-1 pairs (37 and 11 iterations), and on depolarizing
    # anti-degradability just below eta* (9 to 14), where the PSD iterate
    # alone needed up to 1 375 or plateaued.
    pair = tuple(noisy(c, 1e-4) for c in thm1_pair(np.random.default_rng(4), 2, 2))
    out["noisy-thm1-d2-env2-1e-4"] = _feasible("compat", pair, "affine", (2, math.inf))
    pair = thm1_pair(np.random.default_rng(17), 2, 4)
    out["full-rank-thm1-d2-env4"] = _feasible("compat", pair, "affine", (2, math.inf))
    for d in (2, 3):
        for delta in ("1e-4", "1e-6"):
            dep = depolarizing(d, cloning_threshold(d) - float(delta))
            feasible = _feasible("antidegradable", (dep,), "affine", (2, 99))
            out[f"dep-antidegradable-d{d}-below-{delta}"] = feasible
    # The safeguard rejects one extrapolated point, and the affine point ends
    # the solve at iteration 18. Acceleration that stays on after the
    # rejection needs 28; plain Douglas-Rachford needs 45.
    pair = tuple(noisy(c, 5.7e-3) for c in thm1_pair(np.random.default_rng(3), 3, 1))
    out["noisy-thm1-d3-env1-5.7e-3"] = _feasible("compat", pair, "affine", (1, 20), rejections=1)
    # A certificate at iteration 0, from the residual of a positive definite
    # start that the rows refuse: no-cloning, and Example 2's divisibility
    # rows, which are inconsistent on their own.
    for d in (2, 3):
        out[f"identity-compat-d{d}"] = _certified("compat", (ch.identity(d),) * 2, at=0)
    psi, phi, _ = ch.trace_out_pair(ch.completely_depolarizing(2), ch.identity(2))
    out["example2-div"] = _certified("div", (psi, phi), at=0)
    # Square sets, (2, 2, 2), whose x* = K^-1 J_phi is refused: amplitude
    # damping on the wrong side of gamma = 1/2, AD(0.5) dividing AD(0.3)
    # (psi and phi in the CLI's order), and depolarizing d = 2 at 0.8
    # dividing 0.8 + 1e-6. x* is the quotient, which is not CP, so neither it
    # nor the start has a Cholesky factor, and iteration 1 certifies.
    for gamma, check in ((0.6, "degradable"), (0.4, "antidegradable")):
        ad = ch.choi_from_kraus(ch.amplitude_damping(gamma))
        out[f"ad-{gamma}-{check}"] = _certified(check, (ad,))
    pair = tuple(ch.choi_from_kraus(ch.amplitude_damping(g)) for g in (0.5, 0.3))
    out["div-ad-0.5-by-ad-0.3"] = _certified("div", pair)
    pair = depolarizing(2, 0.8), depolarizing(2, 0.8 + 1e-6)
    out["div-dep-d2-0.8-above-1e-6"] = _certified("div", pair)
    # Just above eta*, no bound reaches 10 eps_feas and no affine point ends
    # the solve: the safeguard rejects one point, and the best residual
    # plateaus (at iteration 2 000).
    for d in (2, 3):
        dep = depolarizing(d, cloning_threshold(d) + 1e-7)
        out[f"dep-antidegradable-d{d}-above-1e-7"] = _plateau("antidegradable", (dep,))
        out[f"dep-compat-d{d}-above-1e-7"] = _plateau("compat", (dep, dep))
    # Feasible at iteration 4 without the cap.
    dep = depolarizing(2, cloning_threshold(2) - 1e-2)
    cap = SolverConfig(max_iter=2)
    out["dep-compat-d2-below-1e-2-cap-2"] = Instance(
        "compat", (dep, dep), Status.INCONCLUSIVE, "iteration-cap", None, 0, (2, 2), cap
    )
    return out


INSTANCES = _instances()
