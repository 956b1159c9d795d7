"""Command-line surface: construct channels, run checks, verify pipelines.

Every check/verify command prints a single JSON report to stdout and exits
with 0 (feasible/verified), 1 (not feasible at tolerance), 2 (inconclusive)
or 3 (input/usage error). Human diagnostics go to stderr. Reports of solver
checks say why the solver stopped. A not-feasible verdict from the solver is
always certified: the report carries the Farkas multipliers and the residual
lower bound they prove. A solve that stalls on a residual plateau without a
certificate is inconclusive. The one uncertified not-feasible verdict, an
empty forced support, carries ``HEURISTIC_WARNING``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from . import analysis, channels as ch, io
from .channels import Channel, KrausSet
from .feasibility import FeasibilityReport, SolverConfig, Status, certificate_bound

HEURISTIC_WARNING = (
    "infeasibility is heuristic: declared without a dual certificate, from an empty "
    "forced support"
)
# Solver stop reasons whose not-feasible verdict has no certificate.
_UNCERTIFIED = {"empty-support"}
EXTRACTED_WARNING = (
    "Kraus representation extracted from the Choi eigendecomposition; "
    "degradability statements refer to this representation"
)

_STATUS_STRINGS = {
    Status.FEASIBLE: "feasible",
    Status.NOT_FEASIBLE_AT_TOLERANCE: "not-feasible-at-tolerance",
    Status.ITERATION_LIMIT: "inconclusive",
}
_EXIT_CODES = {"feasible": 0, "not-feasible-at-tolerance": 1, "inconclusive": 2}


def _config(args: argparse.Namespace, default_eps: float = 1e-7) -> SolverConfig:
    eps = args.eps if args.eps is not None else default_eps
    return SolverConfig(eps_feas=eps, max_iter=args.max_iter)


def _finite(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _solver_fields(solver: FeasibilityReport, quiet: bool) -> dict[str, Any]:
    """Why the solver stopped and, for a certified verdict, the certificate
    with the residual bound recomputed from its multipliers."""
    doc: dict[str, Any] = {"stop_reason": solver.stop_reason}
    if solver.certificate is not None:
        cert: dict[str, Any] = {
            "residual_lower_bound": certificate_bound(solver.constraints, solver.certificate)
        }
        if not quiet:
            cert["multipliers"] = solver.certificate.tolist()
        doc["certificate"] = cert
    return doc


def _emit(
    command: str,
    status: Status | str,
    *,
    residuals: dict[str, float | None],
    iterations: int,
    config: SolverConfig,
    seed: int | None = None,
    witness: Channel | KrausSet | None = None,
    warnings: list[str] | None = None,
    quiet: bool = False,
    solver: FeasibilityReport | None = None,
    steps: list[dict[str, Any]] | None = None,
    extra: dict[str, Any] | None = None,
) -> int:
    status_str = status if isinstance(status, str) else _STATUS_STRINGS[status]
    warnings = list(warnings or [])
    if solver is not None:
        reasons = [solver.stop_reason]
    else:
        reasons = [s.get("stop_reason") for s in steps or () if s["status"] == status_str]
    if status_str == "not-feasible-at-tolerance" and _UNCERTIFIED.intersection(reasons):
        warnings.append(HEURISTIC_WARNING)
    doc: dict[str, Any] = {
        "command": command,
        "status": status_str,
        "residuals": {k: _finite(v) for k, v in residuals.items()},
        "iterations": iterations,
        "config": {
            "eps_feas": config.eps_feas,
            "max_iter": config.max_iter,
            "eps_plateau": config.eps_plateau,
            "seed": seed,
        },
        "warnings": warnings,
    }
    if witness is not None and status_str == "feasible" and not quiet:
        doc["witness"] = io.channel_to_json(witness)
    if solver is not None:
        doc.update(_solver_fields(solver, quiet))
    if extra:
        doc.update(extra)
    if steps is not None:
        doc["steps"] = steps
    json.dump(doc, sys.stdout, allow_nan=False)
    print()
    return _EXIT_CODES[status_str]


def _load(path: str) -> tuple[Channel, KrausSet | None]:
    channel, kraus, _ = io.load_channel(path)
    return channel, kraus


def _kraus_of(path: str, warnings: list[str]) -> tuple[Channel, KrausSet]:
    channel, kraus = _load(path)
    if kraus is None:
        kraus = ch.kraus_from_choi(channel)
        warnings.append(EXTRACTED_WARNING)
    return channel, kraus


# ---------------------------------------------------------------------------
# make / complement
# ---------------------------------------------------------------------------


def _write_or_print(obj: Channel | KrausSet, out: str | None, label: str) -> None:
    if out is None:
        json.dump(io.channel_to_json(obj, label), sys.stdout)
        print()
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
            with open(args.matrix) as fh:
                u = io.matrix_from_json(json.load(fh), "unitary matrix")
        else:
            rng = np.random.default_rng(args.seed)
            u = ch.random_unitary(args.dim, rng)
        _write_or_print(ch.unitary_channel(u), args.output, "unitary")
    elif kind == "selfcomp":
        kraus = ch.self_complementary_qubit(args.family, args.alpha, args.beta)
        _write_or_print(
            kraus, args.output, f"selfcomp-{args.family}-a{args.alpha}-b{args.beta}"
        )
    elif kind == "example2":
        psi, phi, compat = ch.trace_out_pair(
            ch.completely_depolarizing(args.dim_b), ch.identity(args.dim_c)
        )
        if args.output is None:
            raise ValueError("make example2 requires -o; it emits three files")
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
    if what == "compat":
        a, _ = _load(args.channels[0])
        b, _ = _load(args.channels[1])
        report = analysis.check_compatibility(a, b, config)
        verification = None
        if report.marginal_residual_b is not None:
            verification = max(report.marginal_residual_b, report.marginal_residual_c)
        return _emit(
            "check compat",
            report.status,
            residuals={
                "affine": report.solver.residual_affine,
                "psd": report.solver.residual_psd,
                "verification": verification,
            },
            iterations=report.solver.iterations,
            config=config,
            witness=report.compatibilizer,
            quiet=args.quiet,
            solver=report.solver,
        )
    if what == "div":
        a, _ = _load(args.channels[0])
        b, _ = _load(args.channels[1])
        report = analysis.check_divisibility(a, b, config)
        return _emit(
            "check div",
            report.status,
            residuals={
                "affine": report.solver.residual_affine,
                "psd": report.solver.residual_psd,
                "verification": report.composition_residual,
            },
            iterations=report.solver.iterations,
            config=config,
            witness=report.quotient,
            quiet=args.quiet,
            solver=report.solver,
        )
    if what in ("degradable", "antidegradable"):
        warnings: list[str] = []
        channel, kraus = _kraus_of(args.channels[0], warnings)
        fn = analysis.check_degradable if what == "degradable" else analysis.check_antidegradable
        report = fn(channel, kraus, config)
        return _emit(
            f"check {what}",
            report.status,
            residuals={
                "affine": report.solver.residual_affine,
                "psd": report.solver.residual_psd,
                "verification": report.residual,
            },
            iterations=report.solver.iterations,
            config=config,
            witness=report.degrading,
            warnings=warnings,
            quiet=args.quiet,
            solver=report.solver,
            extra={"environment_dim": report.dim_env},
        )
    # selfdeg
    warnings = []
    _, kraus = _kraus_of(args.channels[0], warnings)
    report = analysis.check_self_degradable(kraus)
    if report.self_distance is not None and not math.isfinite(report.self_distance):
        warnings.append(
            "output and environment dimensions differ; equality is impossible "
            "for this representation"
        )
    return _emit(
        "check selfdeg",
        report.status,
        residuals={"verification": report.self_distance},
        iterations=0,
        config=config,
        witness=report.degrading,
        warnings=warnings,
        quiet=args.quiet,
        extra={"environment_dim": report.dim_env},
    )


# ---------------------------------------------------------------------------
# verify pipelines
# ---------------------------------------------------------------------------


def _steps_status(steps: list[dict[str, Any]]) -> str:
    statuses = [s["status"] for s in steps]
    if all(s == "feasible" for s in statuses):
        return "feasible"
    if any(s == "not-feasible-at-tolerance" for s in statuses):
        return "not-feasible-at-tolerance"
    return "inconclusive"


def _step(name: str, ok: bool, residual: float | None, **extra: Any) -> dict[str, Any]:
    """Step decided by an exact check of a constructed object."""
    doc = {"name": name, "status": "feasible" if ok else "not-feasible-at-tolerance"}
    if residual is not None:
        doc["residual"] = _finite(residual)
    doc.update(extra)
    return doc


def _solver_step(
    name: str, status: Status, residual: float | None, solver: FeasibilityReport
) -> dict[str, Any]:
    """Step decided by a solver verdict: its status, stop reason and iterations."""
    doc: dict[str, Any] = {"name": name, "status": _STATUS_STRINGS[status]}
    if residual is not None:
        doc["residual"] = _finite(residual)
    doc["stop_reason"] = solver.stop_reason
    doc["iterations"] = solver.iterations
    return doc


def verify_thm1(args: argparse.Namespace, config: SolverConfig, rng) -> tuple[list[dict], Any]:
    steps = []
    witness = None
    for t in range(args.trials):
        kraus = ch.random_kraus(2, 2, 2, rng)
        psi = ch.choi_from_kraus(kraus)
        theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=2 * kraus.dim_env)
        comp = analysis.compatibilizer_from_postprocessing(kraus, theta)
        phi = ch.compose_choi(ch.complementary(kraus), theta)
        res_b = analysis.marginal_deviation(comp, psi, (2, 2), keep=0)
        res_c = analysis.marginal_deviation(comp, phi, (2, 2), keep=1)
        steps.append(_step(f"reverse-{t}", max(res_b, res_c) < 1e-9, max(res_b, res_c)))
        compat = analysis.check_compatibility(psi, phi, config)
        if compat.status is not Status.FEASIBLE:
            steps.append(_solver_step(f"forward-{t}", compat.status, None, compat.solver))
            continue
        _, _, residual = analysis.postprocessing_from_compatibilizer(
            compat.compatibilizer, 2, 2
        )
        steps.append(
            _step(f"forward-{t}", residual < 1e-7, residual, iterations=compat.solver.iterations)
        )
        witness = compat.compatibilizer
    return steps, witness


def verify_thm2i(args: argparse.Namespace, config: SolverConfig, rng) -> tuple[list[dict], Any]:
    steps = []
    witness = None
    for t in range(args.trials):
        kraus = analysis.sample_degradable_kraus(rng)
        psi = ch.choi_from_kraus(kraus)
        psi_c = ch.complementary(kraus)
        deg = analysis.check_degradable(psi, kraus, config)
        steps.append(_solver_step(f"degradable-{t}", deg.status, deg.residual, deg.solver))
        if deg.status is not Status.FEASIBLE:
            continue
        theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=2 * kraus.dim_env)
        phi = ch.compose_choi(psi_c, theta)
        div = analysis.check_divisibility(psi, phi, config)
        steps.append(
            _solver_step(f"divisible-{t}", div.status, div.composition_residual, div.solver)
        )
        quotient = analysis.quotient_via_degradability(psi, psi_c, deg.degrading, theta)
        residual = analysis.basis_deviation(ch.compose_choi(psi, quotient), phi)
        steps.append(_step(f"quotient-{t}", residual < 1e-7, residual))
        witness = div.quotient or quotient
    return steps, witness


def verify_thm2ii(args: argparse.Namespace, config: SolverConfig, rng) -> tuple[list[dict], Any]:
    steps = []
    witness = None
    for t in range(args.trials):
        kraus = analysis.sample_antidegradable_kraus(rng)
        psi = ch.choi_from_kraus(kraus)
        anti = analysis.check_antidegradable(psi, kraus, config)
        steps.append(_solver_step(f"antidegradable-{t}", anti.status, anti.residual, anti.solver))
        if anti.status is not Status.FEASIBLE:
            continue
        theta_cb = ch.random_channel(2, 2, rng, dim_env=4)
        phi = ch.compose_choi(psi, theta_cb)
        compat = analysis.check_compatibility(psi, phi, config)
        verification = None
        if compat.status is Status.FEASIBLE:
            verification = max(compat.marginal_residual_b, compat.marginal_residual_c)
        steps.append(_solver_step(f"compatible-{t}", compat.status, verification, compat.solver))
        built = analysis.compatibilizer_via_antidegradability(kraus, anti.degrading, theta_cb)
        res_b = analysis.marginal_deviation(built, psi, (2, 2), keep=0)
        res_c = analysis.marginal_deviation(built, phi, (2, 2), keep=1)
        steps.append(_step(f"construction-{t}", max(res_b, res_c) < 1e-7, max(res_b, res_c)))
        witness = compat.compatibilizer or built
    return steps, witness


def verify_corollary(args: argparse.Namespace, config: SolverConfig, rng) -> tuple[list[dict], Any]:
    kraus = ch.self_complementary_qubit(args.family, args.alpha, args.beta)
    psi = ch.choi_from_kraus(kraus)
    steps = []
    witness = None
    for t in range(args.trials):
        theta = ch.random_channel(2, 2, rng, dim_env=4)
        phi = ch.compose_choi(psi, theta)
        compat = analysis.check_compatibility(psi, phi, config)
        div = analysis.check_divisibility(psi, phi, config)
        steps.append(
            _solver_step(
                f"compatible-{t}", compat.status, compat.marginal_residual_b, compat.solver
            )
        )
        steps.append(
            _solver_step(f"divisible-{t}", div.status, div.composition_residual, div.solver)
        )
        witness = compat.compatibilizer or witness
    return steps, witness


def verify_prop1(args: argparse.Namespace, config: SolverConfig, rng) -> tuple[list[dict], Any]:
    steps = []
    witness = None
    for t in range(args.trials):
        kraus = ch.self_complementary_qubit(
            1, float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))
        )
        psi = ch.choi_from_kraus(kraus)
        theta0 = ch.random_channel(2, 2, rng, dim_env=4)
        phi = ch.compose_choi(psi, theta0)
        div = analysis.check_divisibility(psi, phi, config)
        compat = analysis.check_compatibility(psi, phi, config)
        iterations = div.solver.iterations + compat.solver.iterations
        if div.status is not Status.FEASIBLE or compat.status is not Status.FEASIBLE:
            steps.append(
                {"name": f"instance-{t}", "status": "inconclusive", "iterations": iterations}
            )
            continue
        swapped = ch.swap_output(compat.compatibilizer, 2, 2)
        phi_c, theta_be, _ = analysis.postprocessing_from_compatibilizer(swapped, 2, 2)
        anti = analysis.antidegrading_map_from_compat_and_div(div.quotient, theta_be)
        residual = analysis.basis_deviation(ch.compose_choi(phi_c, anti), phi)
        steps.append(
            _step(f"antidegrading-{t}", residual < 1e-7, residual, iterations=iterations)
        )
        witness = anti
    return steps, witness


def verify_nocatalysis(args: argparse.Namespace, config: SolverConfig, rng) -> tuple[list[dict], Any]:
    steps = []
    witness = None
    for t in range(args.trials):
        kraus = ch.random_kraus(2, 2, 2, rng)
        psi = ch.choi_from_kraus(kraus)
        theta = ch.random_channel(kraus.dim_env, 2, rng, dim_env=2 * kraus.dim_env)
        phi = ch.compose_choi(ch.complementary(kraus), theta)
        # The ancilla must itself admit a self-compatibilizer for the
        # tensored pair to stand a chance; measure-and-prepare channels do.
        chi = ch.choi_from_kraus(ch.random_measure_prepare(2, rng))
        report = analysis.verify_no_catalysis(psi, phi, chi, config)
        solver = report.tensored.solver
        if report.reduced is None:
            steps.append(_solver_step(f"instance-{t}", report.tensored.status, None, solver))
            continue
        worst = max(report.marginal_residual_b, report.marginal_residual_c)
        steps.append(_step(f"reduction-{t}", worst < 1e-8, worst, iterations=solver.iterations))
        witness = report.reduced
    return steps, witness


def verify_family(args: argparse.Namespace, config: SolverConfig, rng) -> tuple[list[dict], Any]:
    if args.inputs:
        family = [_load(path)[0] for path in args.inputs]
    else:
        psi = ch.random_channel(2, 2, rng, dim_env=2)
        family = [psi]
        for _ in range(args.steps - 1):
            family.append(ch.compose_choi(family[-1], psi))
    reports = analysis.check_family_divisibility(family, config)
    steps = [
        _solver_step(f"step-{k}", rep.status, rep.composition_residual, rep.solver)
        for k, rep in enumerate(reports)
    ]
    witness = next((r.quotient for r in reversed(reports) if r.quotient is not None), None)
    return steps, witness


_PIPELINES = {
    "thm1": verify_thm1,
    "thm2i": verify_thm2i,
    "thm2ii": verify_thm2ii,
    "corollary": verify_corollary,
    "prop1": verify_prop1,
    "nocatalysis": verify_nocatalysis,
    "family": verify_family,
}


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config(args, default_eps=1e-9)
    rng = np.random.default_rng(args.seed)
    steps, witness = _PIPELINES[args.pipeline](args, config, rng)
    status = _steps_status(steps)
    residuals = [s.get("residual") for s in steps if s.get("residual") is not None]
    return _emit(
        f"verify {args.pipeline}",
        status,
        residuals={"verification": max(residuals) if residuals else None},
        iterations=sum(s.get("iterations", 0) for s in steps),
        config=config,
        seed=args.seed,
        witness=witness if status == "feasible" else None,
        quiet=args.quiet,
        steps=steps,
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_GLOBAL_DEFAULTS = {"eps": None, "max_iter": 20000, "seed": 0, "quiet": False}


def _build_parser() -> argparse.ArgumentParser:
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
    ver.add_argument("pipeline", choices=sorted(_PIPELINES))
    ver.add_argument("inputs", nargs="*", help="channel files (family pipeline only)")
    ver.add_argument("--trials", type=int, default=5)
    ver.add_argument("--steps", type=int, default=4, help="family length for random families")
    ver.add_argument("--family", type=int, choices=[1, 2], default=1)
    ver.add_argument("--alpha", type=float, default=0.0)
    ver.add_argument("--beta", type=float, default=0.0)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if args.command == "check":
        need = 2 if args.what in ("compat", "div") else 1
        if len(args.channels) != need:
            print(f"error: check {args.what} takes {need} channel file(s)", file=sys.stderr)
            return 3
    try:
        return args.func(args)
    except (io.LoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
