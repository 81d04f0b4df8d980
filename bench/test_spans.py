"""The trace: per-layer figures from span nesting, and wrappers that leave
the program as they found it.

    python3 -m pytest bench/test_spans.py -q
"""

import ggsver as gv
import ggsver.cli  # noqa: F401
import pytest
import spans


def test_layer_times_from_nesting():
    recorded = [
        ["checks.subdirect", 0.0, 10.0, -1],
        ["permgroups.normal_closure", 1.0, 5.0, 0],
        ["permgroups.chain", 2.0, 3.0, 1],
        ["permgroups.contains", 3.0, 3.5, 1],
        ["portraits.subtree_section", 6.0, 7.0, 0],
        ["portraits.to_perm", 6.2, 6.4, 4],
    ]
    got = spans.layer_times(recorded)
    assert got["s"]["checks.subdirect"] == 10.0
    assert got["self_s"]["checks.subdirect"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert got["s"]["permgroups.normal_closure"] == pytest.approx(4.0 - 1.0)
    assert got["s"]["permgroups.chain"] == 1.0
    assert got["s"]["permgroups.contains"] == 0.5
    assert got["s"]["portraits"] == 1.0  # the nested helper adds no time
    assert got["calls"]["portraits"] == 2


def test_tracer_records_and_restores():
    from ggsver import checks, permgroups

    before = (permgroups.normal_closure, checks.CHECKS["subdirect"], vars(gv.PermGroup)["chain"])
    tracer = spans.Tracer(gv)
    tracer.install()
    report = gv.run_all(gv.validate(3, [(1, 2)]), depth=3)
    tracer.remove()
    after = (permgroups.normal_closure, checks.CHECKS["subdirect"], vars(gv.PermGroup)["chain"])
    assert before == after
    assert not report.failed and not tracer.missing
    names = {s[0] for s in tracer.spans}
    assert {"ggs.build", "checks.subdirect", "permgroups.normal_closure",
            "permgroups.chain", "permgroups.contains"} <= names
    assert all(s[2] >= s[1] for s in tracer.spans)
    handles = tracer.take_handles()
    assert handles["order_exponent_sum"] > 0 and handles["strong_generators"] > 0


def test_paired_meter_traces_only_the_second_run():
    import speed

    G = gv.build(gv.validate(3, [(1, 2)]), 3).G
    x = G.generators[1]
    contains = vars(gv.PermGroup)["contains"]
    tracer = spans.Tracer(gv)
    paired = spans.PairedMeter(speed.Speedometer(), tracer)
    out, raw, scaled = paired.measure(lambda: G.contains(x))
    assert out is True and raw > 0 and scaled > 0
    # the untraced run built the chain, so the traced run only sifts
    assert [s[0] for s in tracer.spans] == ["permgroups.contains"]
    assert len(paired.untraced) == len(paired.traced) == 1
    assert vars(gv.PermGroup)["contains"] is contains
