"""The benchmark's output checks at reduced sizes; runs in seconds.

    python3 -m pytest bench/test_oracle.py -q

Each check must pass ggsver's real output and must count a wrong verdict, a
wrong order exponent or a wrong membership answer as a failed operation.
"""

import json
import random

import ggsver as gv
import ggsver.cli  # noqa: F401
import oracle
import pytest
import speed
import workloads

METER = speed.Speedometer()


def verify_text(p, rows, depth, *extra):
    _, _, code, text = workloads.verify(gv, workloads.verify_argv(p, rows, depth, *extra), METER)
    return code, text


def mutated(text, claim, key, value):
    payload = json.loads(text)
    for entry in payload["report"]["checks"]:
        if entry["id"] == claim:
            if key == "status":
                entry["status"] = value
            else:
                entry["details"][key] = value
    return json.dumps(payload)


@pytest.mark.parametrize(
    "p, rows, depth",
    [
        (3, ((1, 2),), 3),
        (3, ((1, 1),), 3),
        (3, ((1, 0), (0, 1)), 3),
        (5, ((1, 1, 1, 1), (1, 0, 0, 1)), 3),
    ],
)
def test_real_reports_pass(p, rows, depth):
    code, text = verify_text(p, rows, depth)
    assert oracle.judge_report(p, rows, depth, code, text) == []


def test_wrong_verdict_fails():
    code, text = verify_text(3, ((1, 2),), 3)
    for claim, status in (("regular_branch", "fails"), ("psi2_second_derived", "holds")):
        bad = mutated(text, claim, "status", status)
        assert oracle.judge_report(3, ((1, 2),), 3, code, bad)


def test_a_round_counts_a_wrong_report_as_failed(monkeypatch):
    class Small(workloads.VerifyMatrix):
        SPECS = ((3, ((1, 2),), 3), (3, ((1, 1),), 3))

    real = workloads.verify

    def wrong_for_the_constant_vector(gv, argv, meter):
        raw, scaled, code, text = real(gv, argv, meter)
        if "1,1" in argv:
            text = mutated(text, "gamma3_product", "status", "holds")
        return raw, scaled, code, text

    monkeypatch.setattr(workloads, "verify", wrong_for_the_constant_vector)
    _, _, problems = Small(seed=1).round(gv, METER)
    assert len(problems) == 2
    assert sum(1 for p in problems if p) == 1


def test_wrong_order_exponent_fails():
    code, text = verify_text(3, ((1, 2),), 4)
    assert oracle.judge_report(3, ((1, 2),), 4, code, text) == []
    bad = mutated(text, "abelianization", "order_exponent", 18)
    assert oracle.judge_report(3, ((1, 2),), 4, code, bad)
    bad = mutated(text, "abelianization", "index_exponent", 3)
    assert oracle.judge_report(3, ((1, 2),), 4, code, bad)


def test_wrong_stabilizer_exponent_fails():
    rows = ((1, 2),)
    claim = "derived_contains_stab"
    code, text = verify_text(3, rows, 4, "--checks", claim)
    assert oracle.judge_report(3, rows, 4, code, text, claims=(claim,)) == []
    spec = gv.validate(3, rows)
    exponent = gv.build(spec, 4).G.order_exponent - gv.build(spec, 2).G.order_exponent
    assert oracle.judge_stabilizer(text, claim, 2, exponent) == []
    assert oracle.judge_stabilizer(text, claim, 2, exponent + 1)


@pytest.mark.parametrize("p, e", [(3, (1, 2)), (3, (1, 0)), (5, (1, 2, 3, 4)), (5, (1, 0, 0, 1))])
def test_closed_form_matches_the_engine(p, e):
    spec = gv.validate(p, [e])
    for n in range(2, 4):
        assert oracle.ggs_order_exponent(p, e, n) == gv.build(spec, n).G.order_exponent


def test_expected_statuses_follow_the_hypotheses():
    assert oracle.expected_status("gamma3_product", 3, ((1, 1),), 5) == oracle.SKIPPED
    assert oracle.expected_status("abelianization", 3, ((1, 1),), 5) == oracle.HOLDS
    assert oracle.expected_status("key_congruence", 5, ((1, 1, 1, 1), (1, 0, 0, 1)), 3) == oracle.SKIPPED
    assert oracle.expected_status("key_congruence", 3, ((1, 0), (0, 1)), 5) == oracle.HOLDS
    assert oracle.expected_status("psi2_second_derived", 3, ((1, 2),), 5) == oracle.SKIPPED
    assert oracle.expected_status("derived_contains_stab", 5, ((1, 1, 1, 1), (1, 0, 0, 1)), 3) == oracle.VACUOUS
    assert oracle.expected_status("second_derived_contains_stab", 3, ((1, 2),), 5) == oracle.HOLDS
    assert oracle.expected_status("second_derived_contains_stab", 3, ((1, 0), (0, 1)), 5) == oracle.VACUOUS


def membership_round(depth=3, levels=(1, 2)):
    G = gv.build(gv.validate(3, [(1, 0), (0, 1)]), depth).G
    groups = [G, G.derived()] + [G.level_stabilizer(m) for m in levels]
    stream = oracle.QueryStream(
        [g.images for g in G.generators], 3, depth, levels, random.Random(7), per_kind=10
    )
    answers, truths = [], []
    for images, truth in stream.next_round():
        x = gv.Perm(images)
        answers += [h.contains(x) for h in groups]
        truths += truth
    return answers, truths


def test_membership_truths_match_and_mix():
    answers, truths = membership_round()
    assert not any(oracle.judge_answers(answers, truths))
    for k in range(4):  # G, G', st(1), st(2) each get members and non-members
        share = sum(truths[k::4]) / len(truths[k::4])
        assert 0.05 < share < 0.95


def test_wrong_membership_answer_fails():
    answers, truths = membership_round()
    for i in (0, 1, len(answers) - 1):
        flipped = list(answers)
        flipped[i] = not flipped[i]
        problems = oracle.judge_answers(flipped, truths)
        assert sum(1 for p in problems if p) == 1
