"""Results the benchmark computes apart from ggsver, and the checks that
compare the program's outputs with them.

Nothing here calls into ggsver.  Expected verdicts follow the hypotheses the
paper states for each claim; group orders of the single-generator GGS groups
come from the closed form of Fernandez-Alcober and Zugadi-Reizabal (Trans.
AMS 2014); membership truths come from group theory applied to how each query
element was made, read off its leaf image array, never from a stabilizer
chain.  Every judge returns a list of problems; an empty list means the
operation passed.
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np

HOLDS = "holds"
SKIPPED = "skipped"
VACUOUS = "vacuous"

CLAIMS = (
    "abelianization",
    "gamma3_product",
    "key_congruence",
    "regular_branch",
    "stab1_derived_in_gamma3",
    "subdirect",
    "psi2_second_derived",
    "rank_growth",
    "derived_contains_stab",
    "second_derived_contains_stab",
)

# claims whose statements exclude the constant-vector group
CONSTANT_EXCLUDED = {
    "gamma3_product",
    "key_congruence",
    "regular_branch",
    "subdirect",
    "second_derived_contains_stab",
}

# claims that compare level N with level N-1 (or N-2) and say nothing below 3
NEED_DEPTH_3 = {
    "gamma3_product",
    "key_congruence",
    "regular_branch",
    "subdirect",
    "psi2_second_derived",
}


def is_constant(rows) -> bool:
    return len(rows) == 1 and len(set(rows[0])) == 1


def is_symmetric(row) -> bool:
    return tuple(row) == tuple(row)[::-1]


def row_space(p: int, rows):
    """Every F_p-combination of the rows."""
    width = len(rows[0])
    for coeffs in product(range(p), repeat=len(rows)):
        yield tuple(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(width)
        )


def has_key_generator(p: int, rows) -> bool:
    """The key congruence needs a directed generator whose vector scales to
    (1, *, ..., *, m) with m != 1: first entry nonzero and unequal to the
    last."""
    return any(v[0] and v[0] != v[-1] for v in row_space(p, rows))


def expected_status(claim: str, p: int, rows, depth: int) -> str:
    """Verdict the paper's hypotheses imply for one claim at one depth.

    Valid from depth r+1 on, where the finite quotient already carries the
    full abelianization.
    """
    r = len(rows)
    if depth < r + 1:
        raise ValueError(f"expected verdicts need depth at least {r + 1}")
    if claim in CONSTANT_EXCLUDED and is_constant(rows):
        return SKIPPED
    if claim == "key_congruence" and not has_key_generator(p, rows):
        return SKIPPED
    if claim == "psi2_second_derived" and r < 2:
        return SKIPPED
    if claim in NEED_DEPTH_3 and depth < 3:
        return VACUOUS
    if claim == "derived_contains_stab" and depth < r + 2:
        return VACUOUS
    if claim == "second_derived_contains_stab" and depth < r + 4:
        return VACUOUS
    return HOLDS


def rank_mod_p(matrix, p: int) -> int:
    m = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(inv * x) % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def ggs_order_exponent(p: int, e, n: int) -> int:
    """log_p |G : st_G(n)| for the GGS group of a non-constant vector e, n >= 2:
    t * p^(n-2) + 1 - delta * (p^(n-2) - 1) / (p - 1), with t the F_p-rank of
    the circulant matrix of (e_1, ..., e_(p-1), 0) and delta = 1 exactly when
    e is symmetric."""
    if len(set(e)) == 1:
        raise ValueError("the closed form excludes the constant vector")
    if n < 2:
        raise ValueError("the closed form needs n >= 2")
    first = list(e) + [0]
    circulant = [first[-k:] + first[:-k] for k in range(p)]
    t = rank_mod_p(circulant, p)
    delta = 1 if is_symmetric(e) else 0
    return t * p ** (n - 2) + 1 - delta * (p ** (n - 2) - 1) // (p - 1)


# -- verify reports --------------------------------------------------------------


def judge_report(p: int, rows, depth: int, exit_code: int, text: str, claims=CLAIMS):
    """Problems with one `ggsver verify --format json` run."""
    try:
        payload = json.loads(text)
        rep = payload["report"]
        checks = rep["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    rows = [list(row) for row in rows]
    r = len(rows)
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if rep.get("spec", {}).get("p") != p or rep["spec"].get("vectors") != rows:
        problems.append(f"report is for spec {rep.get('spec')}")
    if rep.get("depth") != depth:
        problems.append(f"report depth {rep.get('depth')}, expected {depth}")
    want_class = "ConstantVectorException" if is_constant(rows) else "HasCSP"
    if rep.get("classification") != want_class:
        problems.append(f"classification {rep.get('classification')}")
    got = {c.get("id"): c for c in checks}
    if sorted(got) != sorted(claims) or len(checks) != len(claims):
        problems.append(f"claims {sorted(got)}, expected {sorted(claims)}")
    for claim in claims:
        entry = got.get(claim)
        if entry is None:
            continue
        want = expected_status(claim, p, rows, depth)
        if entry.get("status") != want:
            problems.append(f"{claim}: {entry.get('status')}, expected {want}")
    abel = got.get("abelianization", {}).get("details") or {}
    if "abelianization" in got:
        if abel.get("index_exponent") != r + 1:
            problems.append(
                f"abelianization index exponent {abel.get('index_exponent')}, "
                f"expected {r + 1}"
            )
        if r == 1 and not is_constant(rows):
            want = ggs_order_exponent(p, rows[0], depth)
            if abel.get("order_exponent") != want:
                problems.append(
                    f"order exponent {abel.get('order_exponent')}, closed form {want}"
                )
    return problems


def judge_stabilizer(text: str, claim: str, level: int, exponent: int):
    """The stabilizer recorded by a containment claim is st(level), of order
    p**exponent, where exponent = log|G_N| - log|G_level| since
    G / st_G(level) is the level quotient G_level."""
    try:
        entry = next(c for c in json.loads(text)["report"]["checks"] if c["id"] == claim)
        details = entry["details"]
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unreadable {claim} verdict: {exc!r}"]
    problems = []
    if details.get("stabilizer_level") != level:
        problems.append(f"stabilizer level {details.get('stabilizer_level')}, expected {level}")
    if details.get("stabilizer_exponent") != exponent:
        problems.append(
            f"stabilizer exponent {details.get('stabilizer_exponent')}, expected {exponent}"
        )
    return problems


# -- membership queries ----------------------------------------------------------

RANDOM, ABELIAN_ZERO, POWER, ODD = "random", "abelian_zero", "power", "odd"
KINDS = (RANDOM, ABELIAN_ZERO, POWER, ODD)


class QueryStream:
    """Seeded elements of Sym(p**n) together with their membership truths.

    Elements are words in the generators (a, b_1, ..., b_r), given as leaf
    image arrays; products act left to right like ggsver's Perm.  Each round
    holds the same number of elements of each kind:

    - random: a word of WORD_LENGTH letters.  It lies in G.
    - abelian_zero: a random word followed by the generator powers that bring
      every exponent sum to 0 mod p.  It lies in G', because G/G' is F_p^(r+1)
      with the generators as a basis.
    - power: a random word raised to p**k, k cycling through 1..max(levels).
      Its exponent sums vanish, so it lies in G'; its image in the level-k
      quotient, a p-subgroup of Sym(p**k) of exponent dividing p**k, is
      trivial, so it lies in st(k).
    - odd: a random word times a transposition of two leaves.  It is an odd
      permutation, and a group of odd order holds none, so it lies in no
      subgroup of G.

    Membership of a member of G in st(m) is read off the image array: every
    level-m block of leaves is fixed.
    """

    WORD_LENGTH = 24

    def __init__(self, gen_images, p: int, n: int, levels, rng, per_kind: int):
        self.p = p
        self.n = n
        self.levels = tuple(levels)
        self.rng = rng
        self.per_kind = per_kind
        self.ident = np.arange(p**n)
        self.powers = []  # powers[i][e] = images of generator i to the e
        for g in gen_images:
            g = np.asarray(g)
            row = [self.ident, g]
            for _ in range(2, p):
                row.append(g[row[-1]])
            self.powers.append(row)

    def _word(self, letters):
        cur = self.ident
        sums = [0] * len(self.powers)
        for i, e in letters:
            cur = self.powers[i][e][cur]
            sums[i] = (sums[i] + e) % self.p
        return cur, sums

    def _random_letters(self):
        rng = self.rng
        return [
            (rng.randrange(len(self.powers)), rng.randrange(1, self.p))
            for _ in range(self.WORD_LENGTH)
        ]

    def element(self, kind: str, k: int = 1):
        """(images, in_G, exponent sums) of one element of the given kind."""
        letters = self._random_letters()
        if kind == ABELIAN_ZERO:
            sums = [0] * len(self.powers)
            for i, e in letters:
                sums[i] = (sums[i] + e) % self.p
            fix = [(i, (-s) % self.p) for i, s in enumerate(sums) if s]
            self.rng.shuffle(fix)
            letters += fix
        images, sums = self._word(letters)
        if kind == POWER:
            for _ in range(k):
                base = images
                for _ in range(self.p - 1):
                    images = base[images]
            sums = [0] * len(sums)
        elif kind == ODD:
            u, v = self.rng.sample(range(len(images)), 2)
            swap = self.ident.copy()
            swap[u], swap[v] = v, u
            images = swap[images]
        return images, kind != ODD, sums

    def truths(self, images, in_g: bool, sums):
        """Membership in (G, G', st(levels[0]), st(levels[1]), ...)."""
        out = [in_g, in_g and not any(sums)]
        for m in self.levels:
            size = self.p ** (self.n - m)
            out.append(in_g and bool(np.array_equal(images // size, self.ident // size)))
        return out

    def next_round(self):
        """A shuffled list of (images, truths), per_kind elements of each kind."""
        items = []
        top = max(self.levels)
        for kind in KINDS:
            for j in range(self.per_kind):
                images, in_g, sums = self.element(kind, 1 + j % top)
                items.append((images, self.truths(images, in_g, sums)))
        self.rng.shuffle(items)
        return items


def judge_answers(answers, truths):
    """One problem list per membership query."""
    return [
        [] if bool(got) == want else [f"contains answered {bool(got)}, truth {want}"]
        for got, want in zip(answers, truths, strict=True)
    ]
