"""The benchmark's three workloads.

Each workload has a set-up (measured as setup_s) and rounds of the same
operations.  A round times its operations with a speed.Speedometer and
returns (raw seconds, scaled seconds, one list of problems per operation);
an operation with problems has failed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import oracle


class CacheHit(RuntimeError):
    """ggsver served a stored report, so the run timed no work."""


def verify_argv(p, rows, depth, *extra):
    vectors = ";".join(",".join(str(x) for x in row) for row in rows)
    return ["verify", "--p", str(p), "--vectors", vectors, "--depth", str(depth),
            "--no-cache", "--format", "json", *extra]


def verify(gv, argv, meter):
    """One in-process `ggsver verify`: (raw s, scaled s, exit code, stdout)."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gv.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    (code, text, errors), raw, scaled = meter.measure(call)
    cache = os.environ["GGSVER_CACHE_DIR"]
    if "reusing cached report" in errors or os.listdir(cache):
        raise CacheHit(f"ggsver used the result cache in {cache}")
    return raw, scaled, code, text


class VerifyMatrix:
    """`ggsver verify` once per spec, across p, r and the constant vector.
    The seed orders the specs within each round."""

    SPECS = (
        (3, ((1, 2),), 5),
        (3, ((1, 0), (0, 1)), 5),
        (3, ((1, 1),), 5),
        (5, ((1, 2, 3, 4),), 4),
        (5, ((1, 1, 1, 1), (1, 0, 0, 1)), 3),
        (7, ((1, 2, 3, 4, 5, 6),), 3),
    )

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self, gv) -> None:
        for p, rows, depth in self.SPECS:
            gv.build(gv.validate(p, rows), depth)

    def round(self, gv, meter):
        specs = list(self.SPECS)
        self.rng.shuffle(specs)
        raw_total = scaled_total = 0.0
        problems = []
        for p, rows, depth in specs:
            raw, scaled, code, text = verify(gv, verify_argv(p, rows, depth), meter)
            raw_total += raw
            scaled_total += scaled
            problems.append(oracle.judge_report(p, rows, depth, code, text))
        return raw_total, scaled_total, problems


class DeepContainment:
    """st(5) inside G'' for p=3 (1,0),(0,1) at depth 6: degree 729,
    |G| = 3^298.  A single fixed input; the seed is unused."""

    P, ROWS, DEPTH = 3, ((1, 0), (0, 1)), 6
    CLAIM = "second_derived_contains_stab"

    def __init__(self, seed: int):
        self.exponent = None

    def setup(self, gv) -> None:
        gv.build(gv.validate(self.P, self.ROWS), self.DEPTH)

    def stabilizer_exponent(self, gv, level: int) -> int:
        """log|G_N| - log|G_level|, the order of st(level), since G/st(level)
        is the level quotient; G_N and G_level are built apart, each with a
        plain chain, after the timed operation."""
        if self.exponent is None:
            spec = gv.validate(self.P, self.ROWS)
            self.exponent = (
                gv.build(spec, self.DEPTH).G.order_exponent
                - gv.build(spec, level).G.order_exponent
            )
        return self.exponent

    def round(self, gv, meter):
        argv = verify_argv(self.P, self.ROWS, self.DEPTH, "--allow-slow", "--checks", self.CLAIM)
        raw, scaled, code, text = verify(gv, argv, meter)
        level = len(self.ROWS) + 3
        problems = oracle.judge_report(
            self.P, self.ROWS, self.DEPTH, code, text, claims=(self.CLAIM,)
        ) + oracle.judge_stabilizer(text, self.CLAIM, level, self.stabilizer_exponent(gv, level))
        return raw, scaled, [problems]


class Membership:
    """PermGroup.contains on G, G' and st(1), st(2), st(3) for p=3
    (1,0),(0,1) at depth 5, over a seeded stream of members and
    non-members; see oracle.QueryStream."""

    P, ROWS, DEPTH, LEVELS = 3, ((1, 0), (0, 1)), 5, (1, 2, 3)
    PER_KIND = 50  # 4 kinds x 50 elements x 5 groups = 1000 queries a round

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self, gv) -> None:
        G = gv.build(gv.validate(self.P, self.ROWS), self.DEPTH).G
        self.groups = [G, G.derived()] + [G.level_stabilizer(m) for m in self.LEVELS]
        for h in self.groups:
            h.order_exponent  # completes every chain before the first query
        gens = [g.images for g in G.generators]
        self.stream = oracle.QueryStream(
            gens, self.P, self.DEPTH, self.LEVELS, self.rng, self.PER_KIND
        )

    def round(self, gv, meter):
        queries, truths = [], []
        for images, truth in self.stream.next_round():
            x = gv.Perm(images)
            for h, t in zip(self.groups, truth):
                queries.append((h, x))
                truths.append(t)
        answers, raw, scaled = meter.measure(lambda: [h.contains(x) for h, x in queries])
        return raw, scaled, oracle.judge_answers(answers, truths)


WORKLOADS = {
    "verify_matrix": VerifyMatrix,
    "deep_containment": DeepContainment,
    "membership": Membership,
}
