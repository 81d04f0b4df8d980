"""The status each check should give on every multi-GGS group at a small
prime, by the hypotheses of the statements it checks, and the row spaces
that name those groups one each.

Directed generators along the same path multiply as their vectors add, so
the group depends only on the row space of its defining vectors; each row
space is listed once, by its reduced echelon basis.

Run as a script, the census builds every p=5 group, runs every check on
its session as run_all does and compares each verdict with paper_status:
the 1118 row spaces with r <= 3 at depth 4 and the one with r = 4 at depth
5, 1119 in all, about a minute on 2 vCPU.  For the 155 non-constant r = 1
groups it also compares log_p|G_n| at each level n = 2..N, read off the
layers of the session's G, with oracles.ggs_order_exponent.  It exits 1 on
any mismatch or on any other count:

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import sys
from itertools import accumulate, combinations, product

import ggsver as gv
from ggsver.checks import HOLDS, SKIPPED, VACUOUS
from oracles import ggs_order_exponent

# the depth the p=5 census runs each r at, and the count of row spaces
P5_DEPTHS = {1: 4, 2: 4, 3: 4, 4: 5}
P5_ROW_SPACES = 1119


def row_spaces(p, r):
    """The reduced echelon bases of the r-dimensional subspaces of
    F_p^(p-1), one per subspace, made lazily."""
    n = p - 1
    for pivots in combinations(range(n), r):
        free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, n) if j not in pivots]
        for values in product(range(p), repeat=len(free)):
            rows = [[int(j == c) for j in range(n)] for c in pivots]
            for (i, j), x in zip(free, values):
                rows[i][j] = x
            yield [tuple(row) for row in rows]


def span(p, rows):
    """Every vector of the row space."""
    return {
        tuple(sum(c * x for c, x in zip(cs, col)) % p for col in zip(*rows))
        for cs in product(range(p), repeat=len(rows))
    }


def paper_status(claim, p, rows, depth):
    """The status the hypotheses of each statement give claim for the
    multi-GGS group with these defining rows at this depth.

    The constant vector is the one exception to the congruence subgroup
    property, and the identities that prove it for the others exclude it:
    gamma3_product, regular_branch, subdirect and
    second_derived_contains_stab.  regular_branch also excludes a symmetric
    single vector.  psi2_second_derived needs two directed generators.
    key_congruence needs a first row that row operations bring to
    (1, ..., m) with m != 1, which exists exactly when some vector of the
    row space has a non-zero first entry that differs from its last.  Past
    its hypotheses a check is vacuous below the depth where it says
    anything, and holds from there on."""
    r = len(rows)
    constant = r == 1 and len(set(rows[0])) == 1
    skipped = {
        "gamma3_product": constant,
        "key_congruence": not any(v[0] and v[0] != v[-1] for v in span(p, rows)),
        "regular_branch": constant or (r == 1 and rows[0] == rows[0][::-1]),
        "subdirect": constant,
        "psi2_second_derived": r < 2,
        "second_derived_contains_stab": constant,
    }
    needs = {
        "abelianization": r + 1,
        "rank_growth": 2,
        "derived_contains_stab": r + 2,
        "second_derived_contains_stab": r + 4,
    }
    if skipped.get(claim):
        return SKIPPED
    return VACUOUS if depth < needs.get(claim, 3) else HOLDS


def order_mismatches(session) -> list:
    """(n, log_p|G_n|, the formula's) for each level n = 2..N where the
    order read off the session's layers of G differs from
    oracles.ggs_order_exponent; G is one non-constant directed generator.
    log_p|G_n| is the sum of G's first n layer dimensions, so no closure is
    added once the checks have built G."""
    p, e = session.spec.p, session.spec.vectors[0]
    orders = list(accumulate(session.G.chain.dimensions()))
    pairs = ((n, orders[n - 1], ggs_order_exponent(p, e, n)) for n in range(2, session.depth + 1))
    return [(n, got, want) for n, got, want in pairs if got != want]


def main() -> int:
    count = mismatches = ordered = 0
    for r, depth in P5_DEPTHS.items():
        for rows in row_spaces(5, r):
            count += 1
            session = gv.build(gv.validate(5, rows), depth)
            for cid, check in gv.CHECKS.items():
                status, want = check(session).status, paper_status(cid, 5, rows, depth)
                if status != want:
                    mismatches += 1
                    print(f"{rows} N={depth} {cid}: {status}, expected {want}")
            if r == 1 and len(set(rows[0])) > 1:
                ordered += 1
                for n, got, want in order_mismatches(session):
                    mismatches += 1
                    print(f"{rows} N={n} log_p|G_n|: {got}, expected {want}")
    print(f"p=5 census: {count} row spaces, {ordered} orders checked, {mismatches} mismatches")
    return 0 if count == P5_ROW_SPACES and not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
