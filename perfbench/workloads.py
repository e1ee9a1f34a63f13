"""Workload definitions: seeded inputs, the ops of one pass, and their references.

Every workload is a fixed list of ops; one pass runs each op once, in order.
An op either runs the CLI in a child process (`argv`) or calls the package in
the benchmark's own process (`call`). Its `check` compares the output with a
reference prepared outside the measured process: closed forms for the
families, and values recorded from the seed commit (``refs.json``, written by
``make_refs.py``) for random trees and random leaf sets.

The workload seed selects one of a pool of input sets (``seed % pool size``),
because the seed-commit references exist only for the pooled inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

REFS = Path(__file__).with_name("refs.json")


class Scale(NamedTuple):
    """Input sizes; `full` is what the benchmark measures, `tiny` is for smoke tests."""

    binary_h: int
    # Above ~65k vertices the count passes Python's 4300-digit str limit and
    # `compute` fails at the seed commit; the size stays above it so that the
    # failure keeps being counted.
    random_n: int
    path_n: int  # a multiple of 3, so that the path's count has the closed form 1
    perturb_h: int
    leaf_sets: int
    oracle_ns: tuple
    oracle_gamma: int  # oracle work is sum(C(n, k), k <= gamma): fixing gamma fixes it per seed
    comb_count: int
    comb_enum: int
    pool: int


SCALES = {
    "full": Scale(17, 250_000, 300_000, 10, 200, (22, 23, 24), 9, 11, 10, 32),
    "tiny": Scale(5, 40, 30, 4, 8, (8, 9, 10), 3, 5, 4, 4),
}

WORKLOADS = ("compute-large", "edge-list-io", "perturb-sweep", "oracle-crosscheck")


@dataclass(frozen=True)
class Op:
    """One operation. `check` receives the CLI's stdout text (for `argv` ops)
    or the return value of `call` (for in-process ops) and says whether it
    matches the reference."""

    kind: str
    vertices: int
    check: Callable[[object], bool]
    argv: tuple = ()
    call: Callable[[], object] | None = None


def digest(text: str) -> str:
    """Short fingerprint of a reference value; counts can run to 16k digits."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def binary_ref(h: int) -> tuple[int, int]:
    return (2 ** (h + 2) + 3) // 7, 3 if h >= 3 and h % 3 == 0 else 1


def path_ref(n: int) -> tuple[int, int]:
    if n % 3:
        raise ValueError("the path reference needs n divisible by 3")
    return n // 3, 1  # the only optimum takes the middle vertex of each triple


def comb_ref(n: int) -> tuple[int, int]:
    return n, 2**n


def report_text(rep) -> str:
    """Every field of a LeafDeletionReport but the deleted set itself."""
    return (
        f"{rep.h}|{len(rep.deleted)}|{rep.m1}|{rep.gamma_before}|{rep.zeta_before}|"
        f"{rep.gamma_after}|{rep.zeta_after}|{rep.envelope}|{rep.bound_holds}"
    )


def leaf_sets(h: int, count: int, pool_index: int) -> list[frozenset]:
    """Seeded bottom-level leaf sets of sizes 1 .. 2^h - 1, so sibling pairs occur."""
    rng = random.Random(pool_index)
    first = 1 << h
    return [
        frozenset(f"b{k}" for k in rng.sample(range(first, 2 * first), rng.randrange(1, first)))
        for _ in range(count)
    ]


def load_refs(scale: str, seed: int) -> tuple[int, dict, dict]:
    """(pool index, pooled entry, scale-level refs) for the workload seed."""
    with open(REFS, encoding="utf-8") as handle:
        refs = json.load(handle)[scale]
    index = seed % SCALES[scale].pool
    return index, refs["pool"][index], refs


def compute_check(family: str, vertices: int, gamma: int, zeta: int | str, method: str):
    """Check of `compute --json` output; `zeta` is the count or its digest."""
    expected = {
        "family": family,
        "n_vertices": vertices,
        "gamma": gamma,
        "zeta": zeta if isinstance(zeta, str) else digest(str(zeta)),
        "method": method,
    }

    def check(stdout: str) -> bool:
        try:
            row = json.loads(stdout)
        except ValueError:
            return False
        if isinstance(row, dict) and isinstance(row.get("zeta"), str):
            row["zeta"] = digest(row["zeta"])
        return row == expected

    return check


def file_check(path: Path, expected: str):
    """Check of `generate`: silent stdout and an edge list with the reference digest."""

    def check(stdout: str) -> bool:
        try:
            return stdout == "" and digest(path.read_text(encoding="utf-8")) == expected
        except OSError:
            return False

    return check


def build(workload: str, scale_name: str, seed: int, tmp: Path) -> tuple[int, list[Op]]:
    """(pool index, ops of one pass) for a workload; `tmp` holds its files."""
    scale = SCALES[scale_name]
    index, entry, refs = load_refs(scale_name, seed)
    rand = entry["random"]
    rspec = f"random:n={scale.random_n},seed={entry['random_seed']}"
    bspec = f"binary:h={scale.binary_h}"
    bsize = 2 ** (scale.binary_h + 1) - 1
    if workload == "compute-large":
        pspec = f"path:n={scale.path_n}"
        return index, [
            Op(f"compute {bspec}", bsize, compute_check(bspec, bsize, *binary_ref(scale.binary_h), "closed_form"),
               argv=("compute", "--json", bspec)),
            Op(f"compute random:n={scale.random_n}", scale.random_n,
               compute_check(rspec, rand["vertices"], rand["gamma"], rand["zeta"], "dp"),
               argv=("compute", "--json", rspec)),
            Op(f"compute {pspec}", scale.path_n, compute_check(pspec, scale.path_n, *path_ref(scale.path_n), "dp"),
               argv=("compute", "--json", pspec)),
        ]
    if workload == "edge-list-io":
        rfile, bfile = tmp / "random.edges", tmp / "binary.edges"
        return index, [
            Op("generate random", scale.random_n, file_check(rfile, rand["edge_list"]),
               argv=("generate", rspec, str(rfile))),
            Op("compute random file", scale.random_n,
               compute_check(str(rfile), rand["vertices"], rand["gamma"], rand["zeta"], "dp"),
               argv=("compute", "--json", str(rfile))),
            Op("generate binary", bsize, file_check(bfile, refs["binary_edge_list"]),
               argv=("generate", bspec, str(bfile))),
            Op("compute binary file", bsize, compute_check(str(bfile), bsize, *binary_ref(scale.binary_h), "dp"),
               argv=("compute", "--json", str(bfile))),
        ]
    from dominion import cli, families, oracle, perturbation  # only in-process workloads load it

    if workload == "perturb-sweep":
        h = scale.perturb_h
        return index, [
            Op(f"analyze_deletion h={h}", 2 ** (h + 1) - 1,
               lambda rep, ref=ref: digest(report_text(rep)) == ref,
               call=lambda victims=victims: perturbation.analyze_deletion(h, victims))
            for victims, ref in zip(leaf_sets(h, scale.leaf_sets, index), entry["perturb"], strict=True)
        ]
    if workload == "oracle-crosscheck":
        ops = [
            Op(f"oracle_count random:n={n}", n, lambda got, want=(gamma, zeta): (got.gamma, got.zeta) == want,
               call=lambda n=n, s=s: oracle.oracle_count(families.random_tree(n, s)))
            for n, s, gamma, zeta in entry["oracle"]
        ]
        c, e = scale.comb_count, scale.comb_enum
        ops.append(Op(f"oracle_count comb:n={c}", 2 * c, lambda got: (got.gamma, got.zeta) == comb_ref(c),
                      call=lambda: oracle.oracle_count(families.make_uniform_pendant(c, 1))))
        ops.append(Op(f"enumerate_min_sets comb:n={e}", 2 * e, lambda got: _witnesses_ok(got, e),
                      call=lambda: oracle.enumerate_min_sets(families.make_uniform_pendant(e, 1))))
        ops.append(Op("verify-tables", 0, _verify_ok, call=lambda: _run_in_process(cli, "verify-tables", "--json")))
        return index, ops
    raise ValueError(f"unknown workload {workload!r}")


def _witnesses_ok(witnesses, n: int) -> bool:
    gamma, zeta = comb_ref(n)
    sets = witnesses.sets
    return witnesses.gamma == gamma and len(set(sets)) == zeta and all(len(w) == gamma for w in sets)


def _run_in_process(cli, *argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def _verify_ok(result: tuple[int, str]) -> bool:
    code, stdout = result
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    return code == 0 and payload.get("ok") is True and (
        payload.get("table1_cells"), payload.get("table2_cells")) == (36, 82)


def import_package(root: Path) -> None:
    """Make the package under `root/src` importable in this process."""
    src = str((root / "src").resolve())
    if src not in sys.path:
        sys.path.insert(0, src)
