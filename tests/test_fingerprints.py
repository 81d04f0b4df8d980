"""Pinned report fingerprints, and direct check calls that agree with run_all.

golden/fingerprints.json holds, for 39 spec/depth pairs, the statuses and
the timing-stripped fingerprint of `run_all` at the default selection: the
six specs of the benchmark's verify matrix at every depth up to the one the
matrix runs, and four specs whose checks take the skip paths (symmetric
single vectors, a leading zero, three directed generators).
"""

import functools
import json
from pathlib import Path

import pytest

import ggsver as gv
from ggsver.cli import report_payload

PINNED = json.loads(
    (Path(__file__).parent / "golden" / "fingerprints.json").read_text(encoding="utf-8")
)


def _id(entry):
    rows = ";".join(",".join(map(str, row)) for row in entry["vectors"])
    return f"p{entry['p']}-{rows}-N{entry['depth']}"


@functools.lru_cache(maxsize=None)
def _report(p, vectors, depth):
    return gv.run_all(gv.validate(p, vectors), depth=depth)


def _pinned_report(entry):
    return _report(entry["p"], tuple(map(tuple, entry["vectors"])), entry["depth"])


@pytest.mark.parametrize("entry", PINNED, ids=_id)
def test_fingerprint_is_pinned(entry):
    report = _pinned_report(entry)
    assert [v.status for v in report.verdicts] == entry["statuses"]
    assert report_payload(report)["fingerprint"] == entry["fingerprint"]


@pytest.mark.parametrize("entry", PINNED, ids=_id)
def test_direct_calls_return_the_recorded_verdicts(entry):
    session = gv.build(gv.validate(entry["p"], entry["vectors"]), entry["depth"])
    direct = [gv.CHECKS[cid](session).to_jsonable() for cid in gv.CHECKS]
    assert direct == [v.to_jsonable() for v in _pinned_report(entry).verdicts]


def test_pinned_pairs():
    assert len(PINNED) == 39
    assert len({_id(entry) for entry in PINNED}) == 39
