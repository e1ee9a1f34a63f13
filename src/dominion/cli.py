"""Command-line surface: compute, oracle, generate, perturb, verify-tables.

Exit codes are a stable contract: 0 success, 1 usage or parse error,
2 verification mismatch (two computation paths disagreed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext

from . import closed_form, dp, families, oracle, perturbation
from .errors import DominionError, MismatchError, NoClosedFormError, ParseError
from .tree import DominationSummary, Tree, parse_edge_list, write_edge_list

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

PERTURB_COLUMNS = (
    "h",
    "X",
    "m1",
    "gamma_before",
    "gamma_after",
    "zeta_before",
    "zeta_after",
    "envelope",
    "holds",
)


@dataclass(frozen=True)
class ReportRow:
    """One computed result; `zeta` is a decimal string so arbitrarily large
    counts survive any output format. `method` names the path that produced
    the values."""

    family: str
    n_vertices: int
    gamma: int
    zeta: str
    method: str


# Precision large enough that integer products and sums never round.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])
_SPLIT_BITS = 4096  # counts up to this size convert directly


def _digits(count: int) -> str:
    """Exact decimal form of an int of any size. `str(int)` refuses ints
    above the interpreter's digit limit, which stays on for parsing input,
    and `Decimal(int)` takes quadratic time, so large counts are split."""
    with localcontext(_EXACT):
        return str(_decimal(count, {}))


def _decimal(n: int, powers: dict[int, Decimal]) -> Decimal:
    """`n` as a Decimal, converted by bit halves: n = high * 2^half + low."""
    bits = n.bit_length()
    if bits <= _SPLIT_BITS:
        return Decimal(n)
    half = bits // 2
    if half not in powers:
        powers[half] = Decimal(2) ** half
    return _decimal(n >> half, powers) * powers[half] + _decimal(n & ((1 << half) - 1), powers)


def _looks_like_spec(text: str) -> bool:
    kind = text.partition(":")[0].strip()
    return ":" in text and kind in families.KINDS


def _read_tree(path: str) -> Tree:
    """Parse the edge-list file at `path`, which a CLI input names when it is
    not a family spec."""
    if not os.path.exists(path):
        raise ParseError(f"{path!r} is neither a family spec nor an existing file")
    try:
        with open(path, encoding="utf-8-sig") as handle:
            contents = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_edge_list(contents)


def compute_row(text: str) -> ReportRow:
    """DP result for the input; family specs with a closed form are
    cross-checked against it and raise MismatchError on disagreement. A
    closed form for gamma only is checked on gamma, and the row reports
    that the count came from the DP. A family spec takes its DP state from
    its kind's `fold`, with no tree built; an edge-list file is parsed into a
    tree and folded."""
    method = "dp"
    if _looks_like_spec(text):
        spec = families.parse_family_spec(text)
        family = families.FAMILIES[spec.kind]
        n_vertices, state = family.size(spec), family.fold(spec)
        source, dp_result = spec.spec_string(), dp.root_summary(state)
        gamma_formula = closed_form.GAMMA_FORMULAS.get(spec.kind)
        if gamma_formula is not None:
            formula = DominationSummary(gamma_formula(spec), dp_result.zeta)
        else:
            try:
                formula, method = closed_form.summary_for(spec), "closed_form"
            except NoClosedFormError:
                formula = dp_result
        if formula != dp_result:
            raise MismatchError(
                f"{source}: closed form gives (gamma={_digits(formula.gamma)}, zeta={_digits(formula.zeta)}) "
                f"but the dynamic program gives "
                f"(gamma={_digits(dp_result.gamma)}, zeta={_digits(dp_result.zeta)})"
            )
    else:
        tree = _read_tree(text)
        source, n_vertices, dp_result = text, tree.vertex_count, dp.dp_count(tree)
    return ReportRow(source, n_vertices, dp_result.gamma, _digits(dp_result.zeta), method)


def _emit_row(row: ReportRow, fmt: str) -> None:
    # str(), and so json.dumps, refuses ints past the 4300-digit limit, which
    # a binary spec's vertex count and gamma pass from h = 14284 on.
    fields = vars(row)
    text = {name: _digits(value) if isinstance(value, int) else value for name, value in fields.items()}
    if fmt == "json":  # json.dumps's layout, with the ints unquoted
        items = (f"{json.dumps(name)}: {text[name] if isinstance(value, int) else json.dumps(value)}"
                 for name, value in fields.items())
        print("{" + ", ".join(items) + "}")
    elif fmt == "csv":
        csv.writer(sys.stdout).writerows([text.keys(), text.values()])
    else:  # human labels drop the n_ prefix: "vertices"
        for name, value in text.items():
            print(f"{name.removeprefix('n_'):<10} {value}")


def _cmd_compute(args) -> int:
    _emit_row(compute_row(args.input), args.format)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if _looks_like_spec(args.input):
        spec = families.parse_family_spec(args.input)
        # The spec's checks come first, as in every command (the height, then
        # the vertex limit), then a size over the cap, all before building.
        families._check_size(spec)
        oracle._check_cap(families.FAMILIES[spec.kind].size(spec), args.cap)
        source, tree = spec.spec_string(), families.build_tree(spec)
    else:
        source, tree = args.input, _read_tree(args.input)
    if args.format == "enumerate":
        for members in oracle.enumerate_min_sets(tree, cap=args.cap).sets:
            print(" ".join(str(v) for v in members))
    else:
        summary = oracle.oracle_count(tree, cap=args.cap)
        row = ReportRow(source, tree.vertex_count, summary.gamma, _digits(summary.zeta), "oracle")
        _emit_row(row, args.format)
    return EXIT_OK


def _cmd_generate(args) -> int:
    tree = families.build_tree(families.parse_family_spec(args.spec))
    if args.out == "-":
        write_edge_list(tree, sys.stdout)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                write_edge_list(tree, handle)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out!r}: {exc.strerror or exc}") from None
    return EXIT_OK


def _cmd_perturb(args) -> int:
    h = args.height
    if args.seed is not None and args.random_size is None:
        raise ParseError("--seed is only used with --random-size")
    if args.all_single_leaves:
        leaf_sets = [{leaf} for leaf in perturbation._single_leaves(h)]
    elif args.random_size is not None:
        leaf_sets = [perturbation.random_leaf_subset(h, args.random_size, args.seed or 0)]
    else:  # no selection flag, like --delete "", deletes nothing
        leaf_sets = [families._leaf_set(args.delete) if args.delete else ()]
    reports = [perturbation.analyze_deletion(h, x) for x in leaf_sets]
    writer = csv.writer(sys.stdout)
    writer.writerow(PERTURB_COLUMNS)
    for rep in reports:  # the fields in declaration order, which is PERTURB_COLUMNS's
        height, deleted, m1, *counts, holds = vars(rep).values()
        writer.writerow([height, families.format_leaf_set(deleted), m1, *map(_digits, counts), str(holds).lower()])
    return EXIT_OK


# Table 1 checks the alternating combs three ways; table 2 checks each
# family's formula against the DP.
_TABLE1_SPECS = [f"{kind}:n={n}" for kind in ("alt-even", "alt-odd") for n in range(2, 11)]
_TABLE2_SPECS = [
    text
    for n in range(4, 11)
    for text in (f"comb:n={n}", f"uniform:n={n},r=2", f"interior:n={n}",
                 f"alt-even:n={n}", f"alt-odd:n={n}")
] + [f"binary:h={h}" for h in range(1, 7)]


def _check_cell(table: int, text: str) -> dict:
    """One verification record, as `verify-tables --json` prints it."""
    spec = families.parse_family_spec(text)
    tree = families.build_tree(spec)
    results = {"closed_form": closed_form.summary_for(spec), "dp": dp.dp_count(tree)}
    if table == 1:
        results["oracle"] = oracle.oracle_count(tree)
    methods = {name: {"gamma": summary.gamma, "zeta": _digits(summary.zeta)} for name, summary in results.items()}
    return {"table": table, "family": text, "ok": len(set(results.values())) == 1, "methods": methods}


def _cmd_verify(args) -> int:
    cells = [_check_cell(1, text) for text in _TABLE1_SPECS] + [_check_cell(2, text) for text in _TABLE2_SPECS]
    failures = [cell for cell in cells if not cell["ok"]]
    # every cell checks two quantities, gamma and zeta
    t1, t2 = 2 * len(_TABLE1_SPECS), 2 * len(_TABLE2_SPECS)
    if args.format == "json":
        print(json.dumps({"ok": not failures, "table1_cells": t1, "table2_cells": t2, "cells": cells}))
    else:
        for cell in failures:
            parts = ", ".join(f"{name}=(gamma={m['gamma']}, zeta={m['zeta']})" for name, m in cell["methods"].items())
            print(f"MISMATCH {cell['family']}: {parts}")
        print(f"table 1: {t1} cells checked (alternating combs, n=2..10, 3 methods)")
        print(f"table 2: {t2} cells checked (family formulas vs dynamic program)")
        print("all checks passed" if not failures else f"{len(failures)} records disagree")
    return EXIT_OK if not failures else EXIT_MISMATCH


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, keeping argparse's 2 for mismatches
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_JSON = ("json", "emit JSON")
_CSV = ("csv", "emit CSV")


def _add_format_flags(parser, *formats) -> None:
    """One mutually exclusive --NAME per (name, help) pair, stored as `format`."""
    group = parser.add_mutually_exclusive_group()
    for name, text in formats:
        group.add_argument(f"--{name}", dest="format", action="store_const", const=name, help=text)
    parser.set_defaults(format="human")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dominion",
        description="Exact domination numbers and minimum-dominating-set counts for trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="gamma and zeta via the dynamic program (plus formula cross-check)"
    )
    p_compute.add_argument("input", help="edge-list file or family spec such as binary:h=3")
    _add_format_flags(p_compute, _JSON, _CSV)
    p_compute.set_defaults(func=_cmd_compute)

    p_oracle = sub.add_parser("oracle", help="brute-force count or enumeration (small trees)")
    p_oracle.add_argument("input", help="edge-list file or family spec")
    p_oracle.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP,
                          help="vertex-count limit (default %(default)s)")
    _add_format_flags(
        p_oracle, _JSON, _CSV, ("enumerate", "print every minimum dominating set, one per line")
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    p_generate = sub.add_parser("generate", help="write a family as an edge-list file")
    p_generate.add_argument("spec", help="family spec, e.g. uniform:n=3,r=2")
    p_generate.add_argument("out", help="output path, or - for stdout")
    p_generate.set_defaults(func=_cmd_generate)

    p_perturb = sub.add_parser(
        "perturb", help="leaf-deletion reports for complete binary trees (CSV)"
    )
    p_perturb.add_argument("--h", dest="height", type=int, required=True, help="tree height")
    group = p_perturb.add_mutually_exclusive_group()
    group.add_argument("--delete", help="leaves to delete, e.g. b8+b11")
    group.add_argument("--random-size", type=int, help="draw a random leaf set of this size")
    group.add_argument("--all-single-leaves", action="store_true",
                       help="one report per bottom-level leaf")
    p_perturb.add_argument("--seed", type=int,
                           help="seed for --random-size, which it needs (default 0)")
    p_perturb.set_defaults(func=_cmd_perturb)

    p_verify = sub.add_parser(
        "verify-tables", help="recompute every reference cell several ways; exit 2 on mismatch"
    )
    _add_format_flags(p_verify, _JSON)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except DominionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
