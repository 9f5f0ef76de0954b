"""Command line front end: every analysis as a subcommand emitting JSON (or
CSV for grid dumps) with reproducible seeds and script-friendly exit codes."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .mapping import (
    estimate_bloch_constant,
    lambda_set,
    load_mapping,
    mapping_to_dict,
    mu_grid_rows,
)
from .extremal import (
    counterexample_family,
    extreme_necessity,
    membership,
    midpoint_check,
    sharpening_exponent,
    verify_sharpening,
)
from .support import (
    FalsifierStatus,
    LinearFunctional,
    bonk_constants,
    decompose_support_point,
    dilation_bound,
    functional_eval,
    lift_to_derivative,
    perturbation_falsifier,
    support_certificate,
    verify_bonk_constants,
)
from .series import differentiate

EXIT_CODES = {"OK": 0, "ERROR": 1, "FLAGGED": 2}


@dataclass
class CommandResult:
    status: str
    payload: dict | None
    diagnostics: list = field(default_factory=list)
    render: str = "json"
    out_path: str | None = None


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _scalar_json(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if not math.isfinite(v):
            raise ValueError("payload contains a non-finite number")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _render_json(v, indent="") -> str:
    if isinstance(v, (complex, np.complexfloating)):
        v = [v.real, v.imag]
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = indent + "  "
        items = [f"{inner}{json.dumps(str(k))}: {_render_json(x, inner)}"
                 for k, x in v.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        seq = list(v)
        if all(not isinstance(x, (dict, list, tuple, np.ndarray)) for x in seq):
            return "[" + ", ".join(_scalar_json(x) for x in seq) + "]"
        inner = indent + "  "
        items = [f"{inner}{_render_json(x, inner)}" for x in seq]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return _scalar_json(v)


def _render_csv(payload: dict) -> str:
    lines = [",".join(payload["header"])]
    for row in payload["rows"]:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines)


def _parse_complex(text: str) -> complex:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []
    if len(values) in (1, 2) and all(math.isfinite(v) for v in values):
        return complex(*values)
    raise _ArgumentError(f"complex values are written 're' or 're,im' with finite parts, got {text!r}")


def _parse_grid(text: str):
    parts = text.lower().split("x")
    if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
        r, t = int(parts[0]), int(parts[1])
        if r > 0 and t > 0:
            return r, t
    raise _ArgumentError(f"grid sizes are written RxT, e.g. 64x128, got {text!r}")


def _input_mapping(args):
    if args.mapping is not None and args.family_a is not None:
        raise _ArgumentError("--mapping and --family-a are mutually exclusive")
    if args.mapping is not None:
        return load_mapping(args.mapping)
    if args.family_a is not None:
        return counterexample_family(args.family_a)
    raise _ArgumentError("a mapping is required: pass --mapping FILE or --family-a VALUE")


def _load_functional(path: str) -> LinearFunctional:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed functional file {path}: {exc}") from exc
    return LinearFunctional.from_dict(data)


def _grid_kwargs(args):
    if args.grid is None:
        return {}
    r, t = args.grid
    return {"n_radii": r, "n_angles": t}


def _cmd_beta(args) -> CommandResult:
    f = _input_mapping(args)
    est = estimate_bloch_constant(f, **_grid_kwargs(args))
    payload = {
        "beta": est.value,
        "accuracy": est.accuracy,
        "argmax": [est.argmax.real, est.argmax.imag],
        "norm": abs(f.value_at_origin) + est.value,
    }
    return CommandResult("OK", payload)


def _cmd_mu_grid(args) -> CommandResult:
    f = _input_mapping(args)
    rows = mu_grid_rows(f, **_grid_kwargs(args))
    payload = {"header": ["re", "im", "mu"], "rows": rows}
    return CommandResult("OK", payload, render="csv")


def _cmd_lambda(args) -> CommandResult:
    f = _input_mapping(args)
    rep = lambda_set(f, args.tol, **_grid_kwargs(args))
    status = "FLAGGED" if rep.flagged else "OK"
    diags = ["Bloch norm exceeds one beyond tolerance; level-set points are unreliable"] \
        if rep.flagged else []
    return CommandResult(status, rep.to_dict(), diags)


def _cmd_membership(args) -> CommandResult:
    rep = membership(_input_mapping(args))
    status = "FLAGGED" if rep.marginal else "OK"
    diags = ["norm sits on the unit sphere within optimizer accuracy"] if rep.marginal else []
    return CommandResult(status, rep.to_dict(), diags)


def _cmd_counterexample(args) -> CommandResult:
    if args.family_a is None:
        raise _ArgumentError("counterexample requires --family-a VALUE")
    return CommandResult("OK", mapping_to_dict(counterexample_family(args.family_a)))


def _cmd_midpoint(args) -> CommandResult:
    if args.a is None:
        raise _ArgumentError("midpoint requires --a VALUE (the family parameter to test)")
    f = _input_mapping(args)
    return CommandResult("OK", {"a": args.a, "is_midpoint": midpoint_check(f, args.a)})


def _cmd_extreme_check(args) -> CommandResult:
    rep = extreme_necessity(_input_mapping(args), args.tol)
    return CommandResult("OK", rep.to_dict())


def _cmd_sharpen(args) -> CommandResult:
    if args.z0 is None or args.delta0 is None:
        raise _ArgumentError("sharpen requires --z0 RE[,IM] and --delta0 VALUE")
    f = _input_mapping(args)
    result = sharpening_exponent(f, args.z0, args.delta0, args.n_max)
    if result is None:
        return CommandResult("FLAGGED", {"status": "NOT_FOUND"},
                             ["no exponent up to n-max closed the bound; input flagged for review"])
    verified = verify_sharpening(f, result)
    payload = {"status": "FOUND", **result.to_dict(), "verified_margin": verified}
    if verified <= 0.0:
        return CommandResult("FLAGGED", payload,
                             ["independent grid re-check lost the positive margin"])
    return CommandResult("OK", payload)


def _cmd_functional(args) -> CommandResult:
    if args.functional is None:
        raise _ArgumentError("this subcommand requires --functional FILE")
    L = _load_functional(args.functional)
    f = _input_mapping(args)
    value = functional_eval(L, f)
    payload = {"value": [value.real, value.imag]}
    if args.lift:
        lifted = lift_to_derivative(L)
        lifted_value = functional_eval(lifted, (differentiate(f.h), differentiate(f.g)))
        payload["lift"] = {
            **lifted.to_dict(),
            "value_on_derivatives": [lifted_value.real, lifted_value.imag],
        }
    if args.eps is not None:
        K, actual = dilation_bound(L, f, args.eps)
        payload["dilation"] = {"eps": args.eps, "K": K, "actual": actual}
    return CommandResult("OK", payload)


def _cmd_certify_support(args) -> CommandResult:
    f = _input_mapping(args)
    cert = support_certificate(f, args.samples or 10000, args.seed, args.tol)
    if cert is None:
        return CommandResult("OK", {"status": "NONE"})
    return CommandResult("OK", {"status": "CERTIFIED", **cert.to_dict()})


def _cmd_bonk(args) -> CommandResult:
    if args.m is None:
        raise _ArgumentError("bonk requires --m VALUE (the nonnegative level M)")
    bc = bonk_constants(args.m)
    n = args.samples or 10 ** 5
    slack = verify_bonk_constants(bc, n_samples=n, seed=args.seed)
    payload = {**bc.to_dict(), "verified_min_slack": slack, "verification_samples": n}
    return CommandResult("OK", payload)


def _cmd_falsify(args) -> CommandResult:
    if args.functional is None:
        raise _ArgumentError("falsify requires --functional FILE")
    L = _load_functional(args.functional)
    f = _input_mapping(args)
    outcome = perturbation_falsifier(L, f, args.tol)
    if outcome.status is FalsifierStatus.CONSTRUCTION_FAILED:
        return CommandResult("FLAGGED", outcome.to_dict(), [outcome.message])
    return CommandResult("OK", outcome.to_dict())


def _cmd_decompose(args) -> CommandResult:
    d = decompose_support_point(_input_mapping(args), args.tol)
    if d is None:
        return CommandResult("OK", {"status": "NONE"})
    return CommandResult("OK", {"status": "DECOMPOSED", **d.to_dict()})


_HANDLERS = {
    "beta": _cmd_beta,
    "mu-grid": _cmd_mu_grid,
    "lambda": _cmd_lambda,
    "membership": _cmd_membership,
    "counterexample": _cmd_counterexample,
    "midpoint": _cmd_midpoint,
    "extreme-check": _cmd_extreme_check,
    "sharpen": _cmd_sharpen,
    "functional": _cmd_functional,
    "certify-support": _cmd_certify_support,
    "bonk": _cmd_bonk,
    "falsify": _cmd_falsify,
    "decompose": _cmd_decompose,
}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--mapping", metavar="FILE",
                        help="mapping spec JSON with h/g coefficient lists")
    common.add_argument("--family-a", type=float, metavar="A",
                        help="build the quadratic counterexample family member f_A")
    common.add_argument("--tol", type=float, default=1e-6)
    common.add_argument("--samples", type=int)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--grid", type=_parse_grid, metavar="RxT",
                        help="polar grid sizes, radii x angles (default 64x128)")
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    common.add_argument("--threads", type=int, metavar="N",
                        help="worker cap; computations are vectorized in-process, "
                             "so this is accepted for script compatibility")

    parser = _Parser(prog="blochmap",
                     description="Bloch constants, unit level sets and support "
                                 "certificates for planar harmonic mappings")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "beta": "Bloch constant, accuracy and norm",
        "mu-grid": "CSV dump re,im,mu over a polar grid",
        "lambda": "locate and classify the unit level set of mu",
        "membership": "Bloch-type ball membership report",
        "counterexample": "emit the family member f_A as mapping JSON",
        "midpoint": "check f against the family midpoint identity at --a",
        "extreme-check": "necessary-condition screen for extreme points",
        "sharpen": "search the sharpened weighted-derivative bound exponent",
        "functional": "evaluate a coefficient functional on a mapping",
        "certify-support": "support-point certificate over sampled ball members",
        "bonk": "boundary annulus constants for level --m",
        "falsify": "dilation-plus-bump improvement against a functional",
        "decompose": "peel the unimodular constant off a support-point candidate",
    }
    for name in _HANDLERS:
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "midpoint":
            p.add_argument("--a", type=float, help="family parameter to test against")
        if name == "sharpen":
            p.add_argument("--z0", type=_parse_complex, metavar="RE[,IM]")
            p.add_argument("--delta0", type=float)
            p.add_argument("--n-max", type=int, default=8, dest="n_max")
        if name in ("functional", "falsify"):
            p.add_argument("--functional", metavar="FILE",
                           help="functional spec JSON with A/B weight lists")
        if name == "functional":
            p.add_argument("--lift", action="store_true",
                           help="also report the derivative-side lift and its value")
            p.add_argument("--eps", type=float,
                           help="also report the dilation bound at this eps")
        if name == "bonk":
            p.add_argument("--m", type=float, help="nonnegative level M")
    return parser


def run(argv) -> CommandResult:
    """Parse arguments and execute one subcommand; never raises for user
    errors, which come back as ERROR results with a diagnostic."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        result = _HANDLERS[args.command](args)
        result.out_path = args.out
        return result
    except _ArgumentError as exc:
        return CommandResult("ERROR", None, [str(exc)])
    except (ValueError, RuntimeError, OSError) as exc:
        return CommandResult("ERROR", None, [str(exc)])


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else list(argv))
    if result.status == "ERROR" and not result.diagnostics:
        result.diagnostics = ["unspecified error"]
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    if result.payload is not None:
        text = (_render_csv(result.payload) if result.render == "csv"
                else _render_json(result.payload))
        if result.out_path:
            with open(result.out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            try:
                print(text)
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_CODES[result.status]


if __name__ == "__main__":
    sys.exit(main())
