"""Command line interface: compute, crosscheck, bench and gf modes.

Weights come either from a JSON document (see parse_weights) or from a
named model (dmr, four, rogers) with --param key=value arguments.  All
values are exact; a value written as text (a rational, a decoration, a
--param value, a --sweep bound) is read by parse_polynomial alone.  Exit
codes: 0 success or agreement, 1 engine disagreement, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from fractions import Fraction
from functools import cache
from math import inf

from .errors import LatPolyError, SchemaError, _check_size
from .symbolic import LaurentPolynomial, _whole, parse_polynomial, sym
from .orthopoly import WeightSpec, _weight
from .engines import (
    DEFAULT_BRUTE_CAP,
    StripQuery,
    brute_force,
    cheb_ct,
    generating_function,
    rho_ct,
    transfer_matrix,
    viennot_ct,
)
from .closedforms import DmrParams, FourWeightParams, RogersParams


# -- weights JSON -------------------------------------------------------------

def _parse_decoration(value, pointer: str) -> LaurentPolynomial:
    if isinstance(value, dict):
        extra = set(value) - {"sym", "shift"}
        if extra:
            raise SchemaError(pointer, f"unknown keys {sorted(extra)}")
        if "sym" not in value:
            raise SchemaError(pointer, "missing 'sym'")
        shift = value.get("shift", 0)
        if isinstance(shift, bool) or not isinstance(shift, int):
            raise SchemaError(f"{pointer}/shift", "integer required")
        try:
            value = sym(value["sym"]) + shift
        except (TypeError, ValueError) as exc:  # a name that is not a str, or not a name
            raise SchemaError(f"{pointer}/sym", str(exc)) from None
    try:
        return _weight(value, "the value")
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from None


def _parse_rational(value, pointer: str) -> Fraction:
    poly = _parse_decoration(value, pointer)
    if not poly.is_rational:
        raise SchemaError(pointer, f"exact rational required, got {value!r}")
    return poly.as_fraction()


def _parse_decoration_map(doc, key: str, lo: int, L: int) -> dict:
    raw = doc.get(key)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise SchemaError(f"/{key}", "object of height: expression required")
    out = {}
    for height, value in raw.items():
        pointer = f"/{key}/{height}"
        if not (height.isascii() and height.isdigit()) or (height[0] == "0" and height != "0"):
            raise SchemaError(pointer, f"height keys are canonical decimals, got {height!r}")
        if len(height) > len(str(L)) or not lo <= int(height) <= L:  # no int() of a long key
            raise SchemaError(pointer, f"height must be in [{lo}, {L}]")
        out[int(height)] = _parse_decoration(value, pointer)
    return out


def parse_weights(text: str) -> WeightSpec:
    """Build a WeightSpec from its JSON document.

    Schema: {"b": rational, "lambda": rational, "L": int,
             "across_decorations": {height: expr},
             "down_decorations": {height: expr}}
    Heights are canonical decimals ("0", "12", no leading zero).
    Rationals are ints or texts of rational constants, expressions ints,
    texts or {"sym": name, "shift": int}; every text is read by
    parse_polynomial, and floats are rejected.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number past int()'s digit limit
        raise SchemaError("", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("", "invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError("", "top-level object required")
    allowed = {"b", "lambda", "L", "across_decorations", "down_decorations"}
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"/{sorted(unknown)[0]}", "unknown key")
    for key in ("b", "lambda", "L"):
        if key not in doc:
            raise SchemaError(f"/{key}", "missing required key")
    try:
        _check_size(doc["L"], "L")
    except ValueError as exc:
        raise SchemaError("/L", str(exc)) from None
    b = _parse_rational(doc["b"], "/b")
    lam = _parse_rational(doc["lambda"], "/lambda")
    across = _parse_decoration_map(doc, "across_decorations", 0, doc["L"])
    down = _parse_decoration_map(doc, "down_decorations", 1, doc["L"])
    return WeightSpec(doc["L"], b, lam, across, down)  # every part is checked


def weights_to_json(w: WeightSpec) -> dict:
    """Inverse of parse_weights up to canonical rendering."""
    return {
        "b": str(w.background_b),
        "lambda": str(w.background_lambda),
        "L": w.strip_height,
        "across_decorations": {str(h): v.render()
                               for h, v in sorted(w.across_decorations.items())},
        "down_decorations": {str(h): v.render()
                             for h, v in sorted(w.down_decorations.items())},
    }


# -- models and jobs ----------------------------------------------------------

# A model's first field is its half-length (r or n) and it has a strip
# height L; --param KEY=VALUE sets the field KEY.
_MODELS = {"dmr": DmrParams, "four": FourWeightParams, "rogers": RogersParams}


def _param_value(text: str):
    """A model parameter: 'inf' or a polynomial expression, a constant one
    as its int or Fraction."""
    if text == "inf":
        return inf
    poly = parse_polynomial(text)
    return _whole(poly.as_fraction()) if poly.is_rational else poly


def _model_params(name: str, pairs) -> dict:
    """Constructor arguments of model ``name`` from --param KEY=VALUE pairs."""
    keys = {f.name for f in fields(_MODELS[name])}
    params = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep:
            raise ValueError(f"--param needs KEY=VALUE, got {pair!r}")
        if key not in keys:
            raise ValueError(f"unknown parameter {key!r} for model {name}")
        params[key] = ([parse_polynomial(part) for part in text.split(",")]
                       if key == "kappas" else _param_value(text))
    return params


def _symbolic_weights(L: int) -> WeightSpec:
    """Dyck background with a free symbol decorating every height."""
    return WeightSpec(
        L, 0, 1,
        across={i: sym(f"b{i}") for i in range(L + 1)},
        down={i: sym(f"l{i}") for i in range(1, L + 1)},
    )


def _weights_file(args) -> WeightSpec | None:
    """The --weights file, which --L may only repeat, or None; refuses a negative --L."""
    if not args.weights:
        if args.L is not None:
            _check_size(args.L, "--L")
        return None
    with open(args.weights) as handle:
        w = parse_weights(handle.read())
    if args.L is not None and args.L != w.strip_height:
        raise ValueError(f"--L {args.L} contradicts weights file L={w.strip_height}")
    return w


def _model_jobs(args, var, values):
    # a model fixes its weights and query; crosscheck has no --y-start/--y-end
    given = {"--weights": args.weights, "--L": args.L, "--t": args.t,
             "--y-start": getattr(args, "y_start", 0) or None,
             "--y-end": getattr(args, "y_end", 0) or None}
    refused = [flag for flag, value in given.items() if value is not None]
    if refused:
        raise ValueError(f"--model takes no {', '.join(refused)}")
    cls = _MODELS[args.model]
    params = _model_params(args.model, args.param or [])
    half = fields(cls)[0].name
    if var is not None:
        if var not in ("r", "n", "L"):
            raise ValueError(f"model bench sweeps r, n or L, not {var}")
        key = "L" if var == "L" else half
        if key in params:
            raise ValueError(f"--sweep {var} takes no --param {key}")
        made = {}
    else:
        model = cls(**params)
        key, top = half, getattr(model, half)
        made = {top: model}
        values = range(top + 1) if args.mode == "crosscheck" else [top]
    for value in values:
        # no query or weights: _query makes them only for the engines that read them
        yield (f"model={args.model};{key}={value}", None, None,
               made.get(value) or cls(**{**params, key: value}))


def _jobs(args, var=None, values=()):
    """(label, query, weights, model) of every job: the one query of compute,
    the crosscheck grid (every t' <= t and height pair, or every r' <= r),
    or one job per value of the bench sweep."""
    if args.model:
        yield from _model_jobs(args, var, values)
        return
    if var in ("t", "L") and getattr(args, var) is not None:
        raise ValueError(f"--sweep {var} takes no --{var}")
    fixed = _weights_file(args)
    L = fixed.strip_height if fixed is not None else args.L
    if L is None and args.mode != "crosscheck" and var != "L":
        raise ValueError("need --weights, --model, or --L for symbolic weights")
    if args.mode == "compute":
        points = [(args.t or 0, args.y_start, args.y_end, L)]
    elif args.mode == "crosscheck":
        heights = [L] if fixed is not None else range((3 if L is None else L) + 1)
        t_max = 6 if args.t is None else _check_size(args.t, "--t")
        points = [(t, y0, y1, h) for h in heights for t in range(t_max + 1)
                  for y0 in range(h + 1) for y1 in range(h + 1)]
    elif var == "t":
        points = [(v, args.y_start, args.y_end, L) for v in values]
    elif var == "L":
        if fixed is not None:
            raise ValueError("bench over L cannot use a fixed weights file")
        t = 6 if args.t is None else args.t
        points = [(t, min(args.y_start, v), min(args.y_end, v), v) for v in values]
    else:
        raise ValueError(f"weights bench sweeps t or L, not {var}")
    for t, y0, y1, h in points:
        q = StripQuery(t, y0, y1, h)
        yield q.label(), q, fixed if fixed is not None else _symbolic_weights(h), None


# -- engines ------------------------------------------------------------------

def _query(q, w, model) -> tuple:
    """The query and weights of a job.  A model job carries neither: its
    weights are the model's own, built on first use and kept on it, so a
    closed-form constant term reads the same WeightSpec."""
    if model is None:
        return q, w
    w = model.weight_spec()
    return StripQuery(2 * getattr(model, fields(model)[0].name), 0, 0, w.strip_height), w


# Each entry looks its engine up by name when it runs, so a replaced or
# wrapped module attribute is the one that is called.
_ENGINES = {
    "brute": lambda q, w, model, cap: brute_force(*_query(q, w, model), cap=cap),
    "tmatrix": lambda q, w, model, cap: transfer_matrix(*_query(q, w, model)),
    "viennot-ct": lambda q, w, model, cap: viennot_ct(*_query(q, w, model)),
    "rho-ct": lambda q, w, model, cap: rho_ct(*_query(q, w, model)),
    "cheb-ct": lambda q, w, model, cap: cheb_ct(*_query(q, w, model)),
    "closed-form": lambda q, w, model, cap: model.closed_form(),
    "closed-sum": lambda q, w, model, cap: model.closed_sum(),
}
GENERIC_ENGINES = ("brute", "tmatrix", "viennot-ct", "rho-ct")


def _engines(args, model_default, default) -> list:
    names = args.engines.split(",") if args.engines else (model_default if args.model else default)
    for name in names:
        if name not in _ENGINES:
            raise ValueError(f"unknown engine {name!r}")
        if name.startswith("closed") and not args.model:
            raise ValueError(f"engine {name} needs --model")
    return names


def _timed_runs(jobs, engines, cap):
    """(label, {engine: (value, microseconds)}) for every job."""
    for label, q, w, model in jobs:
        results = {}
        for engine in engines:
            start = time.perf_counter_ns()
            value = _ENGINES[engine](q, w, model, cap)
            results[engine] = (value, (time.perf_counter_ns() - start) // 1000)
        yield label, results


# -- subcommands --------------------------------------------------------------

def _cmd_compute(args) -> int:
    engines = _engines(args, ["closed-form"], ["tmatrix"])
    if len(engines) != 1:
        raise ValueError("compute takes exactly one engine; use crosscheck for several")
    (label, q, w, model), = _jobs(args)
    value = _ENGINES[engines[0]](q, w, model, args.cap)
    if args.format == "json":
        print(json.dumps({"query": label, "engine": engines[0],
                          "value": value.render()}, indent=2, sort_keys=True))
    else:
        print(value.latex() if args.format == "latex" else value.render())
    return 0


def _cmd_crosscheck(args) -> int:
    if args.format == "latex":
        raise ValueError("crosscheck prints plain or json, not latex")
    engines = _engines(args, ["brute", "closed-form", "closed-sum"], GENERIC_ENGINES)
    report = []
    for label, results in _timed_runs(_jobs(args), engines, args.cap):
        rendered = {e: value.render() for e, (value, _) in results.items()}
        report.append({"query": label, "engines": rendered,
                       "micros": {e: micros for e, (_, micros) in results.items()},
                       "agree": len(set(rendered.values())) == 1})
    first_bad = next((row for row in report if not row["agree"]), None)

    if args.format == "json":
        print(json.dumps({"queries": report, "agree": first_bad is None},
                         indent=2, sort_keys=True))
    else:
        for row in report:
            print(f"{row['query']}  {'ok' if row['agree'] else 'MISMATCH'}")
        print(f"crosscheck: {len(report)} queries, "
              f"{'all agree' if first_bad is None else 'DISAGREEMENT'}")
    if first_bad is not None:
        print(f"first disagreement at {first_bad['query']}:", file=sys.stderr)
        for engine, text in first_bad["engines"].items():
            print(f"  {engine}: {text}", file=sys.stderr)
        return 1
    return 0


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("t", "L", "r", "n"):
        raise ValueError("sweep must be var:lo:hi with var in t, L, r, n")
    var = parts[0]
    lo, hi = (_check_size(_param_value(p), f"sweep {var} bound", lo=-inf) for p in parts[1:])
    if lo > hi:
        raise ValueError("sweep range is empty")
    return var, range(lo, hi + 1)


def _cmd_bench(args) -> int:
    var, values = _parse_sweep(args.sweep)
    engines = _engines(args, ["closed-form", "closed-sum"], ["rho-ct"])
    rows = list(_timed_runs(_jobs(args, var, values), engines, args.cap))
    print("query,engine,micros,terms")
    for label, results in rows:
        for engine, (value, micros) in results.items():
            print(f"{label},{engine},{max(micros, 1)},{value.term_count()}")
    return 0


def _cmd_gf(args) -> int:
    w = _weights_file(args)
    if w is None:
        if args.L is None:
            raise ValueError("gf needs --weights or --L")
        w = _symbolic_weights(args.L)
    series = generating_function(args.y_start, args.y_end, w.strip_height,
                                 w, args.order)
    if args.format == "json":
        doc = {"var": "x", "order": series.truncation_order,
               "coefficients": {str(e): c.render()
                                for e, c in sorted(series.coefficients().items())}}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(series.latex() if args.format == "latex" else series.render())
    return 0


_FLAGS = {
    "--t": dict(type=int, help="path length (or maximum)"),
    "--L": dict(type=int, help="strip height"),
    "--y-start": dict(type=int, default=0),
    "--y-end": dict(type=int, default=0),
    "--weights": dict(help="weights JSON file"),
    "--model": dict(choices=tuple(_MODELS)),
    "--param": dict(action="append", metavar="KEY=VALUE",
                    help="model parameter (repeatable)"),
    "--engines": dict(help="comma separated engine list"),
    "--format": dict(choices=("plain", "json", "latex"), default="plain"),
    "--cap": dict(type=int, default=DEFAULT_BRUTE_CAP, help="brute force enumeration cap on t"),
    "--order": dict(type=int, default=8, help="series truncation order"),
    "--sweep": dict(required=True, metavar="VAR:LO:HI",
                    help="sweep variable and range, e.g. t:1:10"),
}

# mode -> (handler, help, the flags it reads)
_COMMANDS = {
    "compute": (_cmd_compute, "one query, one engine",
                "--t --L --y-start --y-end --weights --model --param --engines --format --cap"),
    "crosscheck": (_cmd_crosscheck, "run several engines and compare",
                   "--t --L --weights --model --param --engines --format --cap"),
    "bench": (_cmd_bench, "time engines over a sweep, emit CSV",
              "--t --L --y-start --y-end --weights --model --param --engines --cap --sweep"),
    "gf": (_cmd_gf, "truncated generating function",
           "--L --y-start --y-end --weights --format --order"),
}


# mode -> its subcommand's parser, filled in by _parser()
_SUBPARSERS: dict = {}


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused; each subcommand's
    parser is kept in _SUBPARSERS as it is built."""
    parser = argparse.ArgumentParser(
        prog="latpoly",
        description="Exact strip lattice path weight polynomials.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, help_text, flags) in _COMMANDS.items():
        p = _SUBPARSERS[mode] = sub.add_parser(mode, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Run one command line; returns its exit code.

    A command line that starts with a mode is parsed once, by that mode's
    own parser; leftover arguments get the top-level parser's error, as
    a full parse would give them.  Anything else (no arguments, -h, an
    unknown mode) goes through the top-level parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    if argv and argv[0] in _SUBPARSERS:
        args, extra = _SUBPARSERS[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(mode=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.mode][0](args)
    except (LatPolyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
