"""Command-line surface: generation, cut construction, the brute-force
oracle, the verification suite, and external family checking.

Exit codes: 0 success / all checks pass, 1 a property or expected-value
violation was found, 2 usage error, 3 resource cap exceeded, 130
interrupted (Ctrl-C; no report is written).  Every JSON
report embeds the tool version and the fully resolved configuration, and
is deterministic given the flags except for elapsed fields.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .checks import run_all
from .cuts import (
    STRUCTURE,
    SUBSTRUCTURE,
    apply_cut,
    family_from_json,
    family_to_json,
    k1_cut,
    k11_cut,
    k1m_cut,
    validate_family,
)
from .errors import LabelParseError, ParameterError, ResourceCapError
from .graph import build_graph, export
from .labels import DSC, FDSC, Dim, format_label, make_dim, parse_label
from .oracle import exact_structure_connectivity, reference_value

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERRUPTED = 130


def _emit_bytes(data: bytes, out: str | None) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _emit_json(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_module_address(text: str, dim: Dim) -> int:
    if len(text) != dim.half or any(ch not in "01" for ch in text):
        raise ParameterError(
            f"module address must be {dim.half} binary characters, got {text!r}"
        )
    return int(text, 2)


def cmd_gen(args) -> int:
    dim = make_dim(args.d)
    g = build_graph(dim, args.variant)
    _emit_bytes(export(g, args.format), args.out)
    return EXIT_OK


def _census_json(report, dim: Dim) -> dict:
    return {
        "removed_vertices": report.removed_vertex_count,
        "component_count": report.census.component_count,
        "component_sizes": report.census.component_sizes,
        "surviving": report.census.surviving,
        "is_cut": report.is_cut,
        "isolated": (
            format_label(report.isolated_target, dim)
            if report.isolated_target is not None
            else None
        ),
    }


def cmd_cut(args) -> int:
    dim = make_dim(args.d)
    config = {
        "command": "cut",
        "d": args.d,
        "pattern": args.pattern,
        "m": args.m,
        "module": args.module,
        "u": args.u,
        "verify": args.verify,
    }
    inapplicable = ("u",) if args.pattern == "k1m" else ("m", "module")
    for flag in inapplicable:
        if getattr(args, flag) is not None:
            raise ParameterError(f"--{flag} does not apply to pattern {args.pattern}")
    if args.pattern == "k1m":
        if args.m is None:
            raise ParameterError("pattern k1m needs --m")
        b1 = 0 if args.module is None else _parse_module_address(args.module, dim)
        family, u = k1m_cut(dim, args.m, b1)
    else:
        u = 0 if args.u is None else parse_label(args.u, dim)
        family = (k1_cut if args.pattern == "k1" else k11_cut)(u, dim)
    ok, violation = validate_family(family, dim)
    result = {
        "version": __version__,
        "config": config,
        "u": format_label(u, dim),
        "family_size": len(family),
        "validated": ok,
        "violation": violation,
        "family": family_to_json(family, dim),
    }
    exit_code = EXIT_OK if ok else EXIT_VIOLATION
    if args.verify:
        g = build_graph(dim, FDSC)
        report = apply_cut(g, family)
        result["report"] = _census_json(report, dim)
        if not report.is_cut:
            exit_code = EXIT_VIOLATION
    _emit_json(result, args.out)
    return exit_code


def cmd_oracle(args) -> int:
    dim = make_dim(args.d)
    g = build_graph(dim, FDSC)
    result = exact_structure_connectivity(g, args.m, args.mode, args.budget)
    expected = reference_value(args.d, args.m, args.mode)
    consistent = True
    if expected is not None:
        if result.value is not None:
            consistent = result.value == expected
        else:
            consistent = result.proven_lower_bound <= expected
    payload = result.to_json()
    payload["version"] = __version__
    payload["config"] = {
        "command": "oracle",
        "d": args.d,
        "m": args.m,
        "mode": args.mode,
        "budget": args.budget,
    }
    payload["expected"] = expected
    payload["consistent"] = consistent
    _emit_json(payload, args.out)
    return EXIT_OK if consistent else EXIT_VIOLATION


def cmd_lemmas(args) -> int:
    dim = make_dim(args.d)
    report = run_all(dim)
    payload = report.to_json()
    payload["version"] = __version__
    payload["config"] = {"command": "lemmas", "d": args.d}
    _emit_json(payload, args.out)
    return EXIT_OK if report.overall else EXIT_VIOLATION


def cmd_verify(args) -> int:
    dim = make_dim(args.d)
    with open(args.family, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParameterError(f"family file is not valid JSON: {exc}") from exc
    family = family_from_json(obj, dim)
    ok, violation = validate_family(family, dim, args.variant)
    payload = {
        "version": __version__,
        "config": {
            "command": "verify",
            "d": args.d,
            "variant": args.variant,
            "family": args.family,
        },
        "family_size": len(family),
        "validated": ok,
        "violation": violation,
    }
    if not ok:
        _emit_json(payload, args.out)
        return EXIT_VIOLATION
    g = build_graph(dim, args.variant)
    report = apply_cut(g, family)
    payload["report"] = _census_json(report, dim)
    _emit_json(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdsc",
        description=(
            "Folded divide-and-swap cube toolkit: graph generation, "
            "star-pattern fault cuts, brute-force connectivity oracle, and "
            "a verification suite."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="materialize a graph and export it")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--variant", choices=[FDSC, DSC], default=FDSC)
    p.add_argument("--format", choices=["edges", "dot"], default="edges")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cut", help="build an explicit fault family")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--pattern", choices=["k1", "k11", "k1m"], required=True)
    p.add_argument("--m", type=int, help="leaf count for pattern k1m")
    p.add_argument("--module", help="module address (n/2 binary chars) for k1m")
    p.add_argument("--u", help="target vertex label (k1, k11); default all-zero")
    p.add_argument("--verify", action="store_true", help="apply the cut on the built graph")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("oracle", help="exact pattern connectivity by exhaustive search")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=[STRUCTURE, SUBSTRUCTURE], default=STRUCTURE)
    p.add_argument("--budget", type=int, required=True, help="largest family size to search")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("lemmas", help="run the verification suite")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("verify", help="validate and apply a family from JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--variant", choices=[FDSC, DSC], default=FDSC)
    p.add_argument("--family", required=True, help="path to a family JSON file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, LabelParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
