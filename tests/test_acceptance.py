"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The deep two-generator
second-derived containment at depth 6 (degree 729) runs with the rest; it
takes a few seconds.
"""

import json
import random
import time

import ggsver as gv
from ggsver import cli
from ggsver.checks import (
    CONSTANT_VECTOR_EXCEPTION,
    HOLDS,
    SKIPPED,
    VACUOUS,
    check_derived_contains_stab,
    check_regular_branch,
    check_second_derived_contains_stab,
    check_stab1_derived_in_gamma3,
    classify_csp,
)
from ggsver.ggs import normalize
from ggsver.permgroups import PermGroup, equals
from ggsver.portraits import Perm, commutator, directed, restrict_to_level, rooted

from oracles import bfs_closure, log_order


def _line(num, name, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"acceptance {num} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def test_criterion_1_oracle_equivalence(gs_spec):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for depth in (1, 2):
        if depth == 1:
            gens = [
                rooted(3, 1, 1).to_perm(1),
                directed(gs_spec, 2, 1).to_perm(1),
            ]
            handle = PermGroup(3, gens, prime=3)
        else:
            handle = gv.build(gs_spec, 2).G
        count = len(bfs_closure([g.tolist() for g in handle.generators]))
        chain_exp = handle.order_exponent
        oracle_exp = log_order(count, 3)
        detail.append(f"N={depth}: chain 3^{chain_exp} vs oracle 3^{oracle_exp}")
        ok = ok and chain_exp == oracle_exp
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(1, "oracle equivalence", ok, "; ".join(detail) + f"; {elapsed:.2f}s")


def test_criterion_2_basic_spec_suite_depth5(gs_spec):
    t0 = time.perf_counter()
    rep = gv.run_all(gs_spec, depth=5)
    elapsed = time.perf_counter() - t0
    wanted = {
        "abelianization": HOLDS,
        "gamma3_product": HOLDS,
        "key_congruence": HOLDS,
        "stab1_derived_in_gamma3": HOLDS,
        "subdirect": HOLDS,
        "rank_growth": HOLDS,
        "derived_contains_stab": HOLDS,
        "second_derived_contains_stab": HOLDS,
    }
    got = {v.claim_id: v for v in rep.verdicts}
    ok = all(got[cid].status == status for cid, status in wanted.items())
    ok = ok and got["abelianization"].details["index_exponent"] == 2
    ok = ok and got["rank_growth"].details["ranks"] == [[2, 2]]
    ok = ok and got["derived_contains_stab"].details["stabilizer_level"] == 2
    ok = ok and got["second_derived_contains_stab"].details["stabilizer_level"] == 4
    ok = ok and elapsed < 120
    _line(2, "single-generator suite at depth 5", ok, f"{elapsed:.1f}s")


def test_criterion_3_two_generator_suite(r2_spec):
    t0 = time.perf_counter()
    rep4 = gv.run_all(r2_spec, depth=4)
    got = {v.claim_id: v for v in rep4.verdicts}
    ok = got["regular_branch"].status == HOLDS
    ok = ok and got["psi2_second_derived"].status == HOLDS
    ok = ok and got["abelianization"].status == HOLDS
    ok = ok and got["abelianization"].details["index_exponent"] == 3
    ok = ok and got["rank_growth"].status == HOLDS
    ok = ok and got["rank_growth"].details["ranks"] == [[2, 2], [3, 3]]
    s5 = gv.build(r2_spec, 5)
    v5 = check_derived_contains_stab(s5)
    ok = ok and v5.holds and v5.details["stabilizer_level"] == 3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    _line(3, "two-generator suite at depths 4 and 5", ok, f"{elapsed:.1f}s")


def test_criterion_3_slow_second_derived_containment(r2_spec):
    t0 = time.perf_counter()
    s6 = gv.build(r2_spec, 6)
    v = check_second_derived_contains_stab(s6)
    elapsed = time.perf_counter() - t0
    ok = v.holds and v.details["stabilizer_level"] == 5 and elapsed < 1800
    _line(
        3,
        "two-generator second-derived containment at depth 6",
        ok,
        f"{elapsed:.1f}s, degree 729",
    )


def test_criterion_4_symmetric_branch(sym5_spec):
    t0 = time.perf_counter()
    norm = normalize(sym5_spec)
    ok = norm.case == "symmetric"
    second = norm.spec.vectors[1]
    ok = ok and second[0] == 0 and second[-1] == 0 and any(second)
    v = check_regular_branch(gv.build(sym5_spec, 3))
    ok = ok and v.holds
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    _line(
        4,
        "symmetric branch coverage at p=5",
        ok,
        f"second row {second}; {elapsed:.1f}s",
    )


def test_criterion_5_negative_control(const_spec, capsys):
    ok = classify_csp(const_spec) == CONSTANT_VECTOR_EXCEPTION
    rep = gv.run_all(const_spec, depth=4)
    got = {v.claim_id: v for v in rep.verdicts}
    for cid in ("gamma3_product", "subdirect"):
        ok = ok and got[cid].status == SKIPPED
        ok = ok and "constant" in got[cid].reason
    ok = ok and got["stab1_derived_in_gamma3"].status == HOLDS
    code = cli.main(
        ["verify", "--p", "3", "--vectors", "1,1", "--depth", "4",
         "--format", "json"]
    )
    capsys.readouterr()
    ok = ok and code == 0
    _line(5, "constant-vector negative control", ok, f"exit code {code}")


def test_criterion_6_property_suites():
    rng = random.Random(2024)
    specs = {
        3: gv.validate(3, [(1, 2)]),
        5: gv.validate(5, [(1, 2, 0, 1)]),
    }

    sessions = {}

    def random_word(spec, depth):
        if (spec.p, depth) not in sessions:
            sessions[spec.p, depth] = gv.build(spec, depth)
        gens = sessions[spec.p, depth].G.generators
        w = Perm.identity(spec.p**depth)
        for _ in range(rng.randint(1, 5)):
            w = w * rng.choice(gens) ** rng.randint(1, spec.p - 1)
        return w

    counts = {k: 0 for k in ("hom", "comm", "norm")}

    for _ in range(1000):
        p = rng.choice([3, 3, 5])
        depth = rng.randint(2, 4 if p == 3 else 3)
        spec = specs[p]
        f = random_word(spec, depth)
        g = random_word(spec, depth)
        m = rng.randint(1, depth)
        # restriction to a level is a homomorphism on leaf words
        assert restrict_to_level(f * g, p, m) == (
            restrict_to_level(f, p, m) * restrict_to_level(g, p, m)
        )
        counts["hom"] += 1

    for _ in range(1000):
        p = rng.choice([3, 3, 5])
        depth = rng.randint(2, 4 if p == 3 else 3)
        spec = specs[p]
        a = rooted(p, depth, 1).to_perm(depth)
        b = directed(spec, depth, 1).to_perm(depth)
        n = rng.randint(1, 2 * p)
        lhs = commutator(a**n, b)
        rhs = Perm.identity(p**depth)
        for k in range(n - 1, -1, -1):
            rhs = rhs * a ** (-k) * commutator(a, b) * a**k
        assert lhs == rhs
        counts["comm"] += 1

    done = 0
    while done < 1000:
        p = rng.choice([3, 3, 3, 5])
        r = rng.randint(1, 2)
        rows = [tuple(rng.randrange(p) for _ in range(p - 1)) for _ in range(r)]
        try:
            spec = gv.validate(p, rows)
            norm = normalize(spec)
        except gv.SpecError:
            continue
        if p == 3:
            depth = rng.choice([2, 2, 2, 3, 3, 4])
        else:
            depth = 2
        assert equals(
            gv.build(spec, depth).G, gv.build(norm.spec, depth).G
        ), (rows, norm.spec.vectors)
        done += 1
        counts["norm"] += 1

    ok = all(v >= 1000 for v in counts.values())
    _line(6, "algebraic property suites", ok, f"counts {counts}")


def test_criterion_7_monotonic_evidence(gs_spec):
    containments = (
        check_stab1_derived_in_gamma3,
        check_derived_contains_stab,
        check_second_derived_contains_stab,
    )
    sessions = {n: gv.build(gs_spec, n) for n in (3, 4, 5)}
    status = {}
    for check in containments:
        for n, session in sessions.items():
            v = check(session)
            if v.status != VACUOUS:
                status[(check.__name__, n)] = v.holds
    violations = []
    for check in containments:
        name = check.__name__
        if status.get((name, 5)):
            for n in (3, 4):
                if (name, n) in status and not status[(name, n)]:
                    violations.append((name, n))
    _line(7, "monotonic evidence across depths", not violations, str(status))


def test_criterion_8_byte_identical_reports(tmp_path):
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "1,2", "--depth", "5",
             "--out", str(out), "--format", "json"]
        )
        assert code == 0
        outs.append(out.read_bytes())
    stripped = [
        json.dumps(cli.strip_timings(json.loads(blob)), sort_keys=True).encode()
        for blob in outs
    ]
    ok = stripped[0] == stripped[1]
    _line(8, "deterministic reports modulo timing", ok)
