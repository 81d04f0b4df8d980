"""Independent brute-force oracles, deliberately decoupled from the package.

Permutations here are plain tuples and composition is spelled out inline, so
these routines share no code path with the stabilizer-chain engine they are
used to cross-check.
"""

from itertools import product


def tuple_mul(p, q):
    """Apply p then q."""
    return tuple(q[x] for x in p)


def bfs_closure(gens):
    """All elements of the group generated by tuple permutations."""
    gens = [tuple(g) for g in gens]
    n = len(gens[0]) if gens else 0
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = tuple_mul(w, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def log_order(count, p):
    """Exponent k with count == p**k; raises on anything else."""
    k = 0
    while count % p == 0:
        count //= p
        k += 1
    if count != 1:
        raise AssertionError("group order is not a prime power")
    return k


def independent_by_enumeration(p, rows):
    """True when only the trivial combination of the rows vanishes mod p."""
    rows = [tuple(x % p for x in row) for row in rows]
    width = len(rows[0])
    for coeffs in product(range(p), repeat=len(rows)):
        if all(c == 0 for c in coeffs):
            continue
        combo = [0] * width
        for c, row in zip(coeffs, rows):
            for idx, x in enumerate(row):
                combo[idx] = (combo[idx] + c * x) % p
        if all(x == 0 for x in combo):
            return False
    return True


def full_scan_sift(points, inverses, images):
    """Reference sift that rescans from point 0 after every division.

    points lists the base points in increasing order; inverses[i] maps each
    orbit point y of points[i] to the image sequence of the inverse of the
    transversal element carrying points[i] to y.  Returns None for a member,
    else the residue as a tuple.
    """
    cur = tuple(int(y) for y in images)
    while True:
        moved = next((x for x, y in enumerate(cur) if x != y), None)
        if moved is None:
            return None
        if moved not in points:
            return cur
        inv = inverses[points.index(moved)].get(cur[moved])
        if inv is None:
            return cur
        cur = tuple(int(inv[y]) for y in cur)
