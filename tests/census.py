"""The output census: what `expected_hset` and `critical_exponent` answer on
seeded disjoint unions of small patterns, with one digest per power family.

Each census graph is a disjoint union of one to three parts, drawn from
grids, cycles, cycles with one chord, K_{a,b}, `random_chordal` and
`random_graph`. Its record holds, per family, `expected_hset(g,
family).to_json()` and, where that set is exact (no walk), the
`critical_exponent` record. A family's digest is the SHA-256 of its
records' JSON lines, so a refactor that moves any answer moves a digest,
and the committed JSONL shows which records moved.

Rewrite the fixtures after a change that moves a digest on purpose, and
say how many records moved:

    PYTHONPATH=src python tests/census.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from hadamard_powers.cones import FAMILIES
from hadamard_powers.exponents import critical_exponent, expected_hset
from hadamard_powers.graphs import (Graph, complete_bipartite, cycle, random_chordal,
                                    random_graph)

CENSUS_SEED = 22
CENSUS_SIZE = 1000
FIXTURES = Path(__file__).parent / "fixtures"
RECORDS_FILE = FIXTURES / "census.jsonl"
DIGESTS_FILE = FIXTURES / "census_digests.json"


def _grid(rows, cols):
    edges = [(r * cols + c + 1, r * cols + c + 2) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c + 1, r * cols + c + cols + 1)
              for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def _chorded_cycle(n, k):
    return Graph.from_edges(n, cycle(n).sorted_edges() + [(1, k)])


def _part(rng):
    """(name, graph) of one part, its kind and size drawn from rng."""
    kind = int(rng.integers(6))
    if kind == 0:
        a, b = (int(x) for x in rng.integers(1, 9, size=2))
        return f"grid({a},{b})", _grid(a, b)
    if kind == 1:
        n = int(rng.integers(3, 13))
        return f"cycle({n})", cycle(n)
    if kind == 2:
        n = int(rng.integers(4, 13))
        k = int(rng.integers(3, n))
        return f"chorded_cycle({n},{k})", _chorded_cycle(n, k)
    if kind == 3:
        a, b = (int(x) for x in rng.integers(1, 6, size=2))
        return f"K({a},{b})", complete_bipartite(a, b)
    seed = int(rng.integers(2**31))
    if kind == 4:
        n, density = int(rng.integers(2, 13)), round(float(rng.random()), 3)
        return f"random_chordal({n},{density},{seed})", random_chordal(n, density, seed=seed)
    n, p = int(rng.integers(2, 11)), round(0.2 + 0.6 * float(rng.random()), 3)
    return f"random_graph({n},{p},{seed})", random_graph(n, p, seed=seed)


def _disjoint_union(parts):
    edges, offset = [], 0
    for g in parts:
        edges += [(i + offset, j + offset) for i, j in g.sorted_edges()]
        offset += g.n
    return Graph.from_edges(offset, edges)


def census_graphs(size=CENSUS_SIZE, seed=CENSUS_SEED):
    """(names of the parts, their disjoint union) for each census graph;
    a union of one vertex gets a second part."""
    rng = np.random.default_rng(seed)
    for _ in range(size):
        parts = [_part(rng) for _ in range(1 + int(rng.integers(3)))]
        while sum(g.n for _, g in parts) < 2:
            parts.append(_part(rng))
        yield [name for name, _ in parts], _disjoint_union([g for _, g in parts])


def census_records(size=CENSUS_SIZE, seed=CENSUS_SEED):
    """One record per census graph: its parts, n and m, and per family the
    described set and, where it is exact, the critical_exponent record."""
    for index, (names, g) in enumerate(census_graphs(size, seed)):
        rec = {"index": index, "parts": names, "n": g.n, "m": len(g.sorted_edges())}
        for family in FAMILIES:
            known = expected_hset(g, family)
            rec[family] = {"hset": known.to_json(),
                           "ce": critical_exponent(g, family)[0] if known.exact else None}
        yield rec


def _line(rec):
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def digests(records):
    """{family: SHA-256 of the JSON lines of its part of each record}."""
    hashes = {family: hashlib.sha256() for family in FAMILIES}
    for rec in records:
        for family, h in hashes.items():
            h.update(_line(rec[family]).encode() + b"\n")
    return {family: h.hexdigest() for family, h in hashes.items()}


def main():
    records = list(census_records())
    RECORDS_FILE.write_text("".join(_line(rec) + "\n" for rec in records), encoding="utf-8")
    DIGESTS_FILE.write_text(json.dumps(digests(records), indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()
