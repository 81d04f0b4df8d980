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
layers of the session's G, with oracles.ggs_order_exponent.  Last, it runs
second_derived_contains_stab, which needs depth r+4, at that depth on the
156 p=5 r=1 row spaces (N=5) and the 5 p=3 row spaces (r=1 at N=5, r=2 at
N=6), compares each verdict with paper_status and prints how many it
decided (held or failed): 159, the constant vectors being skipped; 27 s
more on 2 vCPU.  On every session it builds whose depth has a level m >=
r+2, it checks the growth law d_m = p d_(m-1) there on G's layer
dimensions (oracles.growth_order_exponent): that it holds at every such
level on each non-constant row space and fails at one on each constant
vector, 317 sessions (the p=5 r=2 ones at depth 4 have no such level).
It exits 1 on any mismatch or on any other count:

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import sys
from itertools import accumulate, combinations, product

import ggsver as gv
from ggsver.checks import FAILS, HOLDS, SKIPPED, VACUOUS
from ggsver.ggs import is_constant
from oracles import ggs_order_exponent

# the depth the p=5 census runs each r at, and the count of row spaces
P5_DEPTHS = {1: 4, 2: 4, 3: 4, 4: 5}
P5_ROW_SPACES = 1119

# the paper's central containment, decided at depth r+4 on the row spaces
# of these (p, r), and their count
CENTRAL = "second_derived_contains_stab"
CENTRAL_CASES = ((5, 1), (3, 1), (3, 2))
CENTRAL_ROW_SPACES = 161

# the sessions above whose depth has a level m >= r+2, where the growth law
# is checked: p=5 r=1 at depth 4 and every central one
GROWTH_SESSIONS = 317


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


def growth_law_mismatch(session):
    """None when the session's depth has no level m >= r+2; else whether
    G's layer dimensions break what the growth law d_m = p d_(m-1), m >=
    r+2, is measured to do (oracles.growth_order_exponent): hold at every
    such level on a non-constant row space, and fail at one on the constant
    vector.  It reads the layers the checks built, and builds G's only
    where no check read them, on the constant vector's central session."""
    p, r = session.spec.p, session.spec.r
    d = session.G.chain.dimensions()
    if len(d) <= r + 2:
        return None
    holds = all(d[m] == p * d[m - 1] for m in range(r + 2, len(d)))
    return holds == is_constant(session.spec)


def central_verdict(p, rows):
    """(session, status, paper_status) of the central containment, run
    alone on a new session at depth r+4, the least where it says anything."""
    depth = len(rows) + 4
    session = gv.build(gv.validate(p, rows), depth)
    return session, gv.CHECKS[CENTRAL](session).status, paper_status(CENTRAL, p, rows, depth)


def main() -> int:
    count = mismatches = ordered = grown = 0

    def growth(session, rows):
        nonlocal mismatches, grown
        law = growth_law_mismatch(session)
        if law is not None:
            grown += 1
            if law:
                mismatches += 1
                dims = session.G.chain.dimensions()
                print(f"p={session.spec.p} {rows} N={session.depth} growth law: {dims}")

    for r, depth in P5_DEPTHS.items():
        for rows in row_spaces(5, r):
            count += 1
            session = gv.build(gv.validate(5, rows), depth)
            for cid, check in gv.CHECKS.items():
                status, want = check(session).status, paper_status(cid, 5, rows, depth)
                if status != want:
                    mismatches += 1
                    print(f"{rows} N={depth} {cid}: {status}, expected {want}")
            growth(session, rows)
            if r == 1 and len(set(rows[0])) > 1:
                ordered += 1
                for n, got, want in order_mismatches(session):
                    mismatches += 1
                    print(f"{rows} N={n} log_p|G_n|: {got}, expected {want}")
    print(f"p=5 census: {count} row spaces, {ordered} orders checked, {mismatches} mismatches")
    deep = decided = 0
    for p, r in CENTRAL_CASES:
        for rows in row_spaces(p, r):
            deep += 1
            session, status, want = central_verdict(p, rows)
            decided += status in (HOLDS, FAILS)
            if status != want:
                mismatches += 1
                print(f"p={p} {rows} N={session.depth} {CENTRAL}: {status}, expected {want}")
            growth(session, rows)
    print(f"{CENTRAL} at depth r+4: {deep} row spaces, {decided} decided")
    print(f"growth law on {grown} sessions; {mismatches} mismatches in all")
    ok = count == P5_ROW_SPACES and deep == CENTRAL_ROW_SPACES and grown == GROWTH_SESSIONS
    return 0 if ok and not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
