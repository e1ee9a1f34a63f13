"""Write refs.json: reference values for every pooled input of every scale.

The values come from the package under ./src; the checked-in file was made at
the seed commit, so later commits are checked against seed-commit values.
Run from the repository root (takes a few minutes for the full scale):

    python3 perfbench/make_refs.py

This is a reference process, never a measured one, so it lifts the
int-to-str digit limit that `dominion compute` runs into on large random trees.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def _oracle_tree(dp, families, n: int, gamma: int, start: int) -> list:
    """First random tree from seed `start` on whose gamma is the target, so
    that every pooled input gives the oracle the same amount of work."""
    for seed in range(start, start + 10_000):
        result = dp.dp_count(families.random_tree(n, seed))
        if result.gamma == gamma:
            return [n, seed, result.gamma, result.zeta]
    raise RuntimeError(f"no random tree on {n} vertices with gamma {gamma}")


def scale_refs(name: str) -> dict:
    from dominion import dp, families, perturbation, tree

    scale = workloads.SCALES[name]
    pool = []
    for index in range(scale.pool):
        rand = families.random_tree(scale.random_n, index)
        result = dp.dp_count(rand)
        pool.append({
            "random_seed": index,
            "random": {
                "vertices": rand.vertex_count,
                "gamma": result.gamma,
                "zeta": workloads.digest(str(result.zeta)),
                "edge_list": workloads.digest(tree.to_edge_list(rand)),
            },
            "oracle": [_oracle_tree(dp, families, n, scale.oracle_gamma, 1000 * index) for n in scale.oracle_ns],
            "perturb": [
                workloads.digest(workloads.report_text(perturbation.analyze_deletion(scale.perturb_h, victims)))
                for victims in workloads.leaf_sets(scale.perturb_h, scale.leaf_sets, index)
            ],
        })
        print(f"{name}: pool entry {index + 1}/{scale.pool}", file=sys.stderr)
    binary = tree.to_edge_list(families.make_complete_binary(scale.binary_h))
    return {"binary_edge_list": workloads.digest(binary), "pool": pool}


def main() -> None:
    sys.set_int_max_str_digits(0)
    workloads.import_package(Path.cwd())
    refs = {name: scale_refs(name) for name in workloads.SCALES}
    with open(workloads.REFS, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
