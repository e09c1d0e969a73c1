"""Command-line front end.

Subcommands: build (dump a representation as JSON), tables (classification
tables), verify (identity suites), decompose (blade/outer coefficients of
a matrix file), eval (chain expressions), classify-reflection.  Exit codes:
0 success, 1 verification failure, 2 usage error or unreadable input, 141
(128 + SIGPIPE) when the reader of stdout closes it early, as in
``sga build | head -1``; that case prints nothing.  Identical arguments and
seed produce byte-identical output.

Matrices are written sparse, as {"shape": [nrows, ncols], "entries":
[[i, j, value], ...]} over their nonzero entries, one entry per line.
``decompose --input`` reads that form (however it is indented), a dense
list of rows, or an {"entries": dense rows} object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .blades import decompose_multivector, spinor_outer_decompose
from .elements import ForbiddenProduct, FormalSum
from .expressions import evaluate_chain
from .matrices import Matrix
from .representation import (
    METRIC_CHOICES,
    ODD_MODES,
    RepConfig,
    Signature,
    build_representation,
)
from .scalars import Scalar
from .suites import DEFAULT_SEED, EXTRA_SUITES, SUITES, run_suite
from .symmetry import axis_reflection_classify
from .tables import (
    COMMUTATION_FIELDS,
    CONJUGATION_FIELDS,
    METRIC_FIELDS,
    conjugation_symmetry_table,
    gamma_commutation_table,
    metric_symmetry_table,
    period8_check,
    render_csv,
    render_markdown,
    rows_to_json,
)


class UsageError(Exception):
    pass


def _add_signature_args(parser):
    parser.add_argument("-K", "--spacelike", type=int, default=3)
    parser.add_argument("-M", "--timelike", type=int, default=0)
    parser.add_argument(
        "--timelike-axes",
        type=str,
        default=None,
        help="comma-separated axis list; default: the last M axes",
    )
    parser.add_argument("--metric", choices=METRIC_CHOICES, default="standard")
    parser.add_argument(
        "--odd-mode",
        choices=[m.replace("_", "-") for m in ODD_MODES],
        default="project",
    )


def _rep_from_args(args):
    axes = None
    if args.timelike_axes:
        axes = tuple(int(x) for x in args.timelike_axes.split(","))
    sig = Signature(
        spacelike=args.spacelike, timelike=args.timelike, timelike_axes=axes
    )
    return build_representation(
        RepConfig(signature=sig, metric=args.metric, odd_mode=args.odd_mode.replace("-", "_"))
    )


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe fails here, inside main, not at exit


def _json_dumps(obj, indent=""):
    """json.dumps(obj, indent=2, sort_keys=True), except that each [i, j, value]
    entry of a sparse matrix object goes on one line."""
    if not (isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj)):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    inner = indent + "  "
    items = []
    for key in sorted(obj):
        value = obj[key]
        if key == "entries" and "shape" in obj and isinstance(value, list) and value:
            lines = ",\n".join(f"{inner}  {json.dumps(e, sort_keys=True)}" for e in value)
            text = f"[\n{lines}\n{inner}]"
        else:
            text = _json_dumps(value, inner)
        items.append(f"{inner}{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


# ---------------------------------------------------------------- subcommands


def cmd_build(args):
    rep = _rep_from_args(args)
    _emit(args, _json_dumps(rep.to_json()))
    return 0


def cmd_tables(args):
    kinds = ("metric", "commutation", "conjugation") if args.kind == "all" else (args.kind,)
    sections = []
    payload = {}
    for kind in kinds:
        if kind == "metric":
            rows = metric_symmetry_table(args.max_dim)
            fields, title, key = METRIC_FIELDS, "Spinor metric symmetry", "N"
        elif kind == "commutation":
            rows = gamma_commutation_table(args.max_dim)
            fields, title, key = COMMUTATION_FIELDS, "Vector transpose sign", "N"
        else:
            rows = conjugation_symmetry_table(args.km_min, args.km_max)
            fields, title, key = (
                CONJUGATION_FIELDS,
                "Conjugation operator symmetry",
                "K-M",
            )
        if args.metric != "both":
            wanted = 0 if args.metric == "standard" else 1
            fields = (fields[wanted],)
        if args.format == "md":
            sections.append(render_markdown(rows, title, fields, key))
        elif args.format == "csv":
            sections.append(render_csv(rows, fields, key))
        else:
            payload[kind] = rows_to_json(rows)
        if args.check_period8:
            report = period8_check(rows)
            if not report["ok"]:
                print(f"period-8 violation in {kind} table", file=sys.stderr)
                return 1
    _emit(args, _json_dumps(payload) if args.format == "json" else "\n".join(sections))
    return 0


def cmd_verify(args):
    checks = run_suite(args.suite, seed=args.seed)
    failed = [c for c in checks if not c.ok]
    if args.format == "json":
        _emit(
            args,
            _json_dumps(
                {
                    "suite": args.suite,
                    "checks": [
                        {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
                    ],
                    "passed": len(checks) - len(failed),
                    "failed": len(failed),
                }
            ),
        )
    else:
        lines = []
        for c in checks:
            status = "PASS" if c.ok else "FAIL"
            line = f"{status}  {c.name}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        lines.append(
            f"{len(checks) - len(failed)}/{len(checks)} checks passed in suite '{args.suite}'"
        )
        _emit(args, "\n".join(lines))
    return 1 if failed else 0


def cmd_decompose(args):
    rep = _rep_from_args(args)
    with open(args.input) as fh:
        data = json.load(fh)
    matrix = Matrix.from_json(data)
    if args.basis == "blades":
        coeffs = decompose_multivector(rep, matrix)
        payload = {blade.label(): c.to_json() for blade, c in sorted(
            coeffs.items(), key=lambda kv: (kv[0].grade, kv[0].label())
        )}
    else:
        coeffs = spinor_outer_decompose(rep, matrix)
        payload = {
            f"{a},{b}": c.to_json()
            for (a, b), c in sorted(coeffs.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
        }
    _emit(args, _json_dumps(payload))
    return 0


def cmd_eval(args):
    rep = _rep_from_args(args)
    try:
        result = evaluate_chain(rep, args.expression, forbidden_as_zero=args.forbidden_as_zero)
    except ForbiddenProduct as exc:
        print(f"forbidden product: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, FormalSum):
        payload = {
            "species": "formal_sum",
            "terms": [
                {"species": t.species, "value": _payload_json(t.payload)}
                for t in result.terms
            ],
        }
    else:
        payload = {"species": result.species, "value": _payload_json(result.payload)}
    _emit(args, _json_dumps(payload))
    return 0


def _payload_json(p):
    return p.to_json()


def cmd_classify(args):
    rep = _rep_from_args(args)
    if args.generators.strip() == "scalar":
        generators = "scalar"
    else:
        generators = [int(x) for x in args.generators.split(",")]
    _emit(args, axis_reflection_classify(rep, generators))
    return 0


# ---------------------------------------------------------------- entry point


def _parser():
    parser = argparse.ArgumentParser(
        prog="sga",
        description=(
            "Exact kernel for spinors, Clifford algebras, their outer-product "
            "algebra, and the mod-8 classification tables."
        ),
        epilog="The SGA_MAX_DIM environment variable overrides the matrix dimension cap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "build",
        help='dump all matrices of a representation as JSON, each as sparse '
             '{"shape": [rows, cols], "entries": [[i, j, value], ...]}',
    )
    _add_signature_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("tables", help="emit the classification tables")
    p.add_argument("--max-dim", type=int, default=17)
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.add_argument("--metric", choices=("standard", "alternative", "both"), default="both")
    p.add_argument("--kind", choices=("metric", "commutation", "conjugation", "all"), default="all")
    p.add_argument("--km-min", type=int, default=-4)
    p.add_argument("--km-max", type=int, default=12)
    p.add_argument("--check-period8", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument(
        "--suite",
        choices=sorted(SUITES) + sorted(EXTRA_SUITES) + ["all"],
        default="all",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("decompose", help="decompose a matrix from a JSON file")
    _add_signature_args(p)
    p.add_argument(
        "--input",
        required=True,
        help='JSON matrix: sparse {"shape", "entries": [[i, j, value], ...]} as build '
             'writes it, a dense list of rows, or {"entries": dense rows}',
    )
    p.add_argument("--basis", choices=("blades", "outer"), default="blades")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("eval", help="evaluate a chain expression")
    _add_signature_args(p)
    p.add_argument("expression")
    p.add_argument("--forbidden-as-zero", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "classify-reflection", help="classify a product of axes as P, T, PT or neither"
    )
    _add_signature_args(p)
    p.add_argument(
        "--generators",
        required=True,
        help="comma-separated axis indices, or 'scalar' for the embedded scalar axis",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_classify)

    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
