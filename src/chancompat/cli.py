"""Command-line surface: construct channels, run checks, verify pipelines.

Every check/verify command prints a single JSON report to stdout and exits
with 0 (feasible/verified), 1 (not feasible at tolerance), 2 (inconclusive)
or 3 (input/usage error); the report's ``status`` is the value of the
:class:`~chancompat.feasibility.Status` that decides the exit code. Human
diagnostics go to stderr. ``verify`` runs a pipeline of
:mod:`chancompat.pipelines` and serializes its step records. Reports of solver
checks say why the solver stopped. Every not-feasible verdict is certified:
the report carries the Farkas multipliers and the residual lower bound they
prove. A solve that stalls on a residual plateau without a certificate is
inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from typing import Any

import numpy as np

from . import analysis, channels as ch, io, pipelines
from .channels import Channel, KrausSet
from .feasibility import EPS_PLATEAU, FeasibilityReport, SolverConfig, Status, certificate_bound

EXTRACTED_WARNING = (
    "Kraus representation extracted from the Choi eigendecomposition; "
    "degradability statements refer to this representation"
)

_EXIT_CODES = {Status.FEASIBLE: 0, Status.NOT_FEASIBLE_AT_TOLERANCE: 1, Status.INCONCLUSIVE: 2}

# The default --eps of ``verify``; ``check`` takes ``SolverConfig``'s. It is
# a margin: the exact steps check witnesses built on solved ones at
# ``WITNESS_TOL`` (``EPS_EQ`` for ``reduction``), and a solve that iterates
# may accept a witness up to --eps away. The sampled instances do not need
# it: at --eps 1e-7, every pipeline with --trials 1 over seeds 1-20 gives
# the steps it gives at 1e-9, each solve decided at iteration 0 or 1 and
# the largest step residual 4.4e-12, so no exact step misses its threshold.
_VERIFY_EPS = 1e-9


def _config(args: argparse.Namespace, default_eps: float = SolverConfig.eps_feas) -> SolverConfig:
    eps = args.eps if args.eps is not None else default_eps
    return SolverConfig(eps_feas=eps, max_iter=args.max_iter)


def _finite(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _solver_fields(solver: FeasibilityReport, quiet: bool) -> dict[str, Any]:
    """Why the solver stopped, which candidate ended a feasible solve, how
    many extrapolated points the safeguard rejected and, for a certified
    verdict, the certificate: its multipliers, one Hermitian operator per row
    block (``[Y_T, Y]``) in the channel file's matrix format, and the
    residual bound recomputed from them."""
    doc: dict[str, Any] = {
        "stop_reason": solver.stop_reason,
        "candidate": solver.candidate,
        "rejections": solver.rejections,
    }
    if solver.certificate is not None:
        cert: dict[str, Any] = {
            "residual_lower_bound": certificate_bound(solver.constraints, solver.certificate)
        }
        if not quiet:
            cert["multipliers"] = [io.matrix_to_json(y) for y in solver.certificate]
        doc["certificate"] = cert
    return doc


def _emit(
    command: str,
    status: Status,
    *,
    residuals: dict[str, float | None],
    iterations: int,
    config: SolverConfig,
    seed: int | None = None,
    witness: Channel | KrausSet | None = None,
    warnings: list[str] | None = None,
    quiet: bool = False,
    solver: FeasibilityReport | None = None,
    steps: list[pipelines.Step] | None = None,
    extra: dict[str, Any] | None = None,
) -> int:
    doc: dict[str, Any] = {
        "command": command,
        "status": status.value,
        "residuals": {k: _finite(v) for k, v in residuals.items()},
        "iterations": iterations,
        "config": {
            "eps_feas": config.eps_feas,
            "max_iter": config.max_iter,
            "eps_plateau": EPS_PLATEAU,
            "seed": seed,
        },
        "warnings": warnings or [],
    }
    if witness is not None and status is Status.FEASIBLE and not quiet:
        doc["witness"] = io.channel_to_json(witness)
    if solver is not None:
        doc.update(_solver_fields(solver, quiet))
    if extra:
        doc.update(extra)
    if steps is not None:
        doc["steps"] = [_step_json(s) for s in steps]
    # One string, so a report that cannot be encoded leaves stdout empty.
    print(json.dumps(doc, allow_nan=False))
    return _EXIT_CODES[status]


def _kraus_of(path: str, warnings: list[str]) -> tuple[Channel, KrausSet]:
    channel, kraus, _ = io.load_channel(path)
    if kraus is None:
        kraus = ch.kraus_from_choi(channel)
        warnings.append(EXTRACTED_WARNING)
    return channel, kraus


# ---------------------------------------------------------------------------
# make / complement
# ---------------------------------------------------------------------------


def _write_or_print(obj: Channel | KrausSet, out: str | None, label: str) -> None:
    if out is None:
        print(json.dumps(io.channel_to_json(obj, label)))
    else:
        io.save_channel(out, obj, label)


def cmd_make(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "identity":
        _write_or_print(ch.identity(args.dim), args.output, f"identity-{args.dim}")
    elif kind == "depolarizing":
        _write_or_print(
            ch.completely_depolarizing(args.dim), args.output, f"depolarizing-{args.dim}"
        )
    elif kind == "unitary":
        if args.matrix is not None:
            channel = io.load_json(
                args.matrix,
                lambda doc: ch.unitary_channel(io.matrix_from_json(doc, "unitary matrix")),
            )
        else:
            u = ch.random_unitary(args.dim, np.random.default_rng(args.seed))
            channel = ch.unitary_channel(u)
        _write_or_print(channel, args.output, "unitary")
    elif kind == "selfcomp":
        kraus = ch.self_complementary_qubit(args.family, args.alpha, args.beta)
        _write_or_print(
            kraus, args.output, f"selfcomp-{args.family}-a{args.alpha}-b{args.beta}"
        )
    elif kind == "example2":
        psi, phi, compat = ch.trace_out_pair(
            ch.completely_depolarizing(args.dim_b), ch.identity(args.dim_c)
        )
        stem = args.output[:-5] if args.output.endswith(".json") else args.output
        io.save_channel(f"{stem}.psi.json", psi, "depolarizing-marginal")
        io.save_channel(f"{stem}.phi.json", phi, "identity-marginal")
        io.save_channel(f"{stem}.compatibilizer.json", compat, "product-compatibilizer")
        print(
            f"wrote {stem}.psi.json, {stem}.phi.json, {stem}.compatibilizer.json",
            file=sys.stderr,
        )
    return 0


def cmd_complement(args: argparse.Namespace) -> int:
    warnings: list[str] = []
    _, kraus = _kraus_of(args.channel, warnings)
    comp = ch.complementary(kraus)
    for w in warnings:
        print(f"note: {w}", file=sys.stderr)
    _write_or_print(comp, args.output, "complementary")
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    config = _config(args)
    what = args.what
    warnings: list[str] = []
    extra = None
    if what in ("compat", "div"):
        a, _, _ = io.load_channel(args.channels[0])
        b, _, _ = io.load_channel(args.channels[1])
        if what == "compat":
            report = analysis.check_compatibility(a, b, config)
            witness = report.compatibilizer
        else:
            report = analysis.check_divisibility(a, b, config)
            witness = report.quotient
    else:
        channel, kraus = _kraus_of(args.channels[0], warnings)
        if what == "selfdeg":
            report = analysis.check_self_degradable(kraus)
            if kraus.dim_out != kraus.dim_env:
                warnings.append(
                    "output and environment dimensions differ; equality is impossible "
                    "for this representation"
                )
        else:
            report = (
                analysis.check_degradable if what == "degradable" else analysis.check_antidegradable
            )(channel, kraus, config)
        witness = report.degrading
        extra = {"environment_dim": kraus.dim_env}
    solver = report.solver
    residuals = {"verification": report.residual}
    if solver is not None:
        residuals = {"affine": solver.residual_affine, "psd": solver.residual_psd, **residuals}
    return _emit(
        f"check {what}",
        report.status,
        residuals=residuals,
        iterations=0 if solver is None else solver.iterations,
        config=config,
        witness=witness,
        warnings=warnings,
        quiet=args.quiet,
        solver=solver,
        extra=extra,
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


_SAMPLED = {
    "thm1": pipelines.thm1,
    "thm2i": pipelines.thm2i,
    "thm2ii": pipelines.thm2ii,
    "prop1": pipelines.prop1,
    "nocatalysis": pipelines.nocatalysis,
}


def _step_json(step: pipelines.Step) -> dict[str, Any]:
    """A step's fields in declaration order; unset (``None``) ones dropped.
    Every field is a scalar, so the dict is read off the fields directly
    rather than deep-copied by ``dataclasses.asdict``."""
    doc = {f.name: v for f in fields(step) if (v := getattr(step, f.name)) is not None}
    doc["status"] = step.status.value
    if "residual" in doc:
        doc["residual"] = _finite(step.residual)
    return doc


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config(args, default_eps=_VERIFY_EPS)
    rng = np.random.default_rng(args.seed)
    if args.pipeline == "family":
        if args.inputs:
            family = [io.load_channel(path)[0] for path in args.inputs]
        else:
            family = pipelines.power_family(ch.random_channel(2, 2, rng, dim_env=2), args.steps)
        steps, witness = pipelines.family(family, config)
    elif args.pipeline == "corollary":
        kraus = ch.self_complementary_qubit(args.family, args.alpha, args.beta)
        steps, witness = pipelines.corollary(kraus, rng, args.trials, config)
    else:
        steps, witness = _SAMPLED[args.pipeline](rng, args.trials, config)
    residuals = [r for s in steps if (r := _finite(s.residual)) is not None]
    return _emit(
        f"verify {args.pipeline}",
        pipelines.overall_status(steps),
        residuals={"verification": max(residuals) if residuals else None},
        iterations=sum(s.iterations or 0 for s in steps),
        config=config,
        seed=args.seed,
        witness=witness,
        quiet=args.quiet,
        steps=steps,
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_GLOBAL_DEFAULTS = {"eps": None, "max_iter": SolverConfig.max_iter, "seed": 0, "quiet": False}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Shared by every main call. That leaks nothing between calls because
    # parse_args returns a new namespace and main fills in the defaults.
    # Global flags live on a parent parser so they are accepted both before
    # and after the subcommand name. Defaults are suppressed so the subparser
    # cannot clobber a value given before the subcommand; they are filled in
    # after parsing.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--eps", type=float, help="feasibility tolerance")
    common.add_argument("--max-iter", type=int, help="solver iteration cap")
    common.add_argument("--seed", type=int, help="seed for randomized pipelines")
    common.add_argument("--quiet", action="store_true", help="omit witness matrices")

    parser = argparse.ArgumentParser(
        prog="chancompat",
        parents=[common],
        description="Decide and certify compatibility, divisibility and "
        "degradability of quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make", parents=[common], help="emit constructor channels as JSON")
    mk.add_argument("kind", choices=["identity", "depolarizing", "unitary", "selfcomp", "example2"])
    mk.add_argument("--dim", type=int, default=2)
    mk.add_argument("--dim-b", type=int, default=2)
    mk.add_argument("--dim-c", type=int, default=2)
    mk.add_argument("--family", type=int, choices=[1, 2], default=1)
    mk.add_argument("--alpha", type=float, default=0.0)
    mk.add_argument("--beta", type=float, default=0.0)
    mk.add_argument("--matrix", help="JSON file with a unitary matrix")
    mk.add_argument("-o", "--output", help="output channel file")
    mk.set_defaults(func=cmd_make)

    chk = sub.add_parser("check", parents=[common], help="run a decision procedure")
    chk.add_argument(
        "what", choices=["compat", "div", "degradable", "antidegradable", "selfdeg"]
    )
    chk.add_argument("channels", nargs="+", help="channel JSON files")
    chk.set_defaults(func=cmd_check)

    comp = sub.add_parser("complement", parents=[common], help="emit the complementary channel")
    comp.add_argument("channel")
    comp.add_argument("-o", "--output")
    comp.set_defaults(func=cmd_complement)

    ver = sub.add_parser("verify", parents=[common], help="run a constructive pipeline")
    ver.add_argument("pipeline", choices=sorted([*_SAMPLED, "corollary", "family"]))
    ver.add_argument("inputs", nargs="*", help="channel files (family pipeline only)")
    ver.add_argument("--trials", type=int, default=5)
    ver.add_argument("--steps", type=int, default=4, help="family length for random families")
    ver.add_argument("--family", type=int, choices=[1, 2], default=1)
    ver.add_argument("--alpha", type=float, default=0.0)
    ver.add_argument("--beta", type=float, default=0.0)
    ver.set_defaults(func=cmd_verify)
    return parser


def _usage_error(args: argparse.Namespace) -> str | None:
    """Argument combinations the parser cannot reject by itself: wrong file
    counts, ``make`` dimensions no channel file can carry, a ``make
    example2`` with no ``-o`` for its three files, and ``verify`` runs that
    would check nothing and so report a vacuous success."""
    if args.command == "make":
        for flag, dim in (("--dim", args.dim), ("--dim-b", args.dim_b), ("--dim-c", args.dim_c)):
            if dim < 1:
                return f"make {flag} must be at least 1"
        if args.kind == "example2" and args.output is None:
            return "make example2 requires -o; it emits three files"
    elif args.command == "check":
        need = 2 if args.what in ("compat", "div") else 1
        if len(args.channels) != need:
            return f"check {args.what} takes {need} channel file(s)"
    elif args.command == "verify":
        if args.pipeline != "family":
            if args.trials < 1:
                return "verify --trials must be at least 1"
        elif args.inputs:
            if len(args.inputs) < 2:
                return "verify family takes at least 2 channel files"
        elif args.steps < 2:
            return "verify family --steps must be at least 2"
    return None


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The argument parser is built once per process, on the first call, and
    reused by every later call. Errors the parser rejects (after printing
    the usage to stderr) return 3, as every usage error does; ``--help`` 0.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code else 0
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    problem = _usage_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except (io.LoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
