"""Command line front end: every analysis as a subcommand emitting JSON (or
CSV for grid dumps) with reproducible seeds and script-friendly exit codes."""

from __future__ import annotations

import argparse
import functools
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
    text: str | None = None


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _json_default(v):
    # json.dumps hook: complex values as [re, im], numpy values as Python ones
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    raise TypeError(f"cannot serialize {type(v).__name__}")


# rows per "%" call of the CSV renderer
CSV_BLOCK_ROWS = 4096


def _render_csv(payload: dict) -> str:
    # one %-format per block of rows: "%.17g" writes the same text as
    # format(x, ".17g")
    row_format = ",".join(["%.17g"] * len(payload["header"]))
    rows = np.asarray(payload["rows"], dtype=float)
    lines = [",".join(payload["header"])]
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS]
        lines.append("\n".join([row_format] * len(block)) % tuple(block.ravel().tolist()))
    return "\n".join(lines)


def _render(result: CommandResult) -> str:
    if result.render == "csv":
        return _render_csv(result.payload)
    try:
        return json.dumps(result.payload, indent=2, allow_nan=False, default=_json_default)
    except ValueError as exc:
        raise ValueError("payload contains a non-finite number") from exc


def _parse_complex(text: str) -> complex:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []
    if len(values) in (1, 2) and all(math.isfinite(v) for v in values):
        return complex(*values)
    raise _ArgumentError(f"complex values are written 're' or 're,im' with finite parts, got {text!r}")


def _parse_grid(text: str) -> dict:
    # the grid keywords of the analyses; without --grid they keep their defaults
    parts = text.lower().split("x")
    if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
        r, t = int(parts[0]), int(parts[1])
        if r > 0 and t > 0:
            return {"n_radii": r, "n_angles": t}
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


def _cmd_beta(args) -> CommandResult:
    f = _input_mapping(args)
    est = estimate_bloch_constant(f, **args.grid)
    payload = {
        "beta": est.value,
        "accuracy": est.accuracy,
        "argmax": [est.argmax.real, est.argmax.imag],
        "norm": abs(f.value_at_origin) + est.value,
    }
    return CommandResult("OK", payload)


def _cmd_mu_grid(args) -> CommandResult:
    f = _input_mapping(args)
    rows = mu_grid_rows(f, **args.grid)
    payload = {"header": ["re", "im", "mu"], "rows": rows}
    return CommandResult("OK", payload, render="csv")


def _cmd_lambda(args) -> CommandResult:
    f = _input_mapping(args)
    rep = lambda_set(f, args.tol, **args.grid)
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
    # sharpening_exponent returns only witnesses whose dense-grid margin
    # exceeds MARGIN_FLOOR, so a found witness is never flagged
    return CommandResult("OK", {"status": "FOUND", **result.to_dict()})


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
    cert = support_certificate(f, args.samples, args.seed, args.tol)
    if cert is None:
        return CommandResult("OK", {"status": "NONE"})
    return CommandResult("OK", {"status": "CERTIFIED", **cert.to_dict()})


def _cmd_bonk(args) -> CommandResult:
    if args.m is None:
        raise _ArgumentError("bonk requires --m VALUE (the nonnegative level M)")
    bc = bonk_constants(args.m)
    slack = verify_bonk_constants(bc, n_samples=args.samples, seed=args.seed)
    payload = {**bc.to_dict(), "verified_min_slack": slack, "verification_samples": args.samples}
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


# add_argument settings of every option a subcommand can read
_OPTIONS = {
    "--mapping": {"metavar": "FILE", "help": "mapping spec JSON with h/g coefficient lists"},
    "--family-a": {"type": float, "metavar": "A",
                   "help": "build the quadratic counterexample family member f_A"},
    "--tol": {"type": float, "default": 1e-6},
    "--samples": {"type": int},
    "--seed": {"type": int, "default": 0},
    "--grid": {"type": _parse_grid, "default": {}, "metavar": "RxT",
               "help": "polar grid sizes, radii x angles (default 64x128)"},
    "--a": {"type": float, "help": "family parameter to test against"},
    "--z0": {"type": _parse_complex, "metavar": "RE[,IM]"},
    "--delta0": {"type": float},
    "--n-max": {"type": int, "default": 8},
    "--functional": {"metavar": "FILE", "help": "functional spec JSON with A/B weight lists"},
    "--lift": {"action": "store_true",
               "help": "also report the derivative-side lift and its value"},
    "--eps": {"type": float, "help": "also report the dilation bound at this eps"},
    "--m": {"type": float, "help": "nonnegative level M"},
    "--out": {"metavar": "FILE", "help": "write output here instead of stdout"},
}

_MAPPING = ("--mapping", "--family-a")

# subcommand -> (handler, help, the options it reads besides --out); an
# option nothing reads is an "unrecognized arguments" error
_COMMANDS = {
    "beta": (_cmd_beta, "Bloch constant, accuracy and norm", (*_MAPPING, "--grid")),
    "mu-grid": (_cmd_mu_grid, "CSV dump re,im,mu over a polar grid", (*_MAPPING, "--grid")),
    "lambda": (_cmd_lambda, "locate and classify the unit level set of mu",
               (*_MAPPING, "--tol", "--grid")),
    "membership": (_cmd_membership, "Bloch-type ball membership report", _MAPPING),
    "counterexample": (_cmd_counterexample, "emit the family member f_A as mapping JSON",
                       ("--family-a",)),
    "midpoint": (_cmd_midpoint, "check f against the family midpoint identity at --a",
                 (*_MAPPING, "--a")),
    "extreme-check": (_cmd_extreme_check, "necessary-condition screen for extreme points",
                      (*_MAPPING, "--tol")),
    "sharpen": (_cmd_sharpen, "search the sharpened weighted-derivative bound exponent",
                (*_MAPPING, "--z0", "--delta0", "--n-max")),
    "functional": (_cmd_functional, "evaluate a coefficient functional on a mapping",
                   (*_MAPPING, "--functional", "--lift", "--eps")),
    "certify-support": (_cmd_certify_support,
                        "support-point certificate over sampled ball members",
                        (*_MAPPING, "--tol", "--samples", "--seed")),
    "bonk": (_cmd_bonk, "boundary annulus constants for level --m",
             ("--m", "--samples", "--seed")),
    "falsify": (_cmd_falsify, "dilation-plus-bump improvement against a functional",
                (*_MAPPING, "--functional", "--tol")),
    "decompose": (_cmd_decompose, "peel the unimodular constant off a support-point candidate",
                  (*_MAPPING, "--tol")),
}

# --samples has a default per subcommand
_SAMPLES = {"certify-support": 10000, "bonk": 10 ** 5}


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args reads the parser and never changes it
    parser = _Parser(prog="blochmap",
                     description="Bloch constants, unit level sets and support "
                                 "certificates for planar harmonic mappings")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in (*options, "--out"):
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(handler=handler)
        if name in _SAMPLES:
            p.set_defaults(samples=_SAMPLES[name])
    return parser


def run(argv) -> CommandResult:
    """Parse arguments, execute one subcommand, render its payload and write
    it to ``--out`` if given; never raises for user errors, which come back
    as ERROR results with a diagnostic.  A payload that cannot be rendered (a
    non-finite number) or an ``--out`` file that cannot be written is such
    an error too."""
    try:
        args = _build_parser().parse_args(argv)
        result = args.handler(args)
        result.out_path = args.out
        if result.payload is not None:
            result.text = _render(result)
            if result.out_path:
                with open(result.out_path, "w", encoding="utf-8") as fh:
                    fh.write(result.text + "\n")
        return result
    except (_ArgumentError, ValueError, RuntimeError, OSError) as exc:
        return CommandResult("ERROR", None, [str(exc)])


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else list(argv))
    if result.status == "ERROR" and not result.diagnostics:
        result.diagnostics = ["unspecified error"]
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    if result.text is not None and not result.out_path:
        try:
            print(result.text)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_CODES[result.status]


if __name__ == "__main__":
    sys.exit(main())
