"""Spans recorded around calls into ggsver's public functions, from outside.

The program carries no instrumentation.  A Tracer replaces each traced
function where its callers look it up (a module global, a class attribute or
a dict entry such as CHECKS), records one span per call - name, start, end
and the index of the enclosing span - and puts the originals back on
remove().  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict


def targets(gv):
    """(container, key, span name) for every call the trace wraps."""
    from ggsver import checks, cli, ggs, permgroups, portraits

    PermGroup = permgroups.PermGroup
    out = [
        # derived(), frattini() and commutator_subgroup() all close up here
        (permgroups, "normal_closure", "permgroups.normal_closure"),
        (PermGroup, "level_stabilizer", "permgroups.level_stabilizer"),
        (PermGroup, "contains", "permgroups.contains"),
        (gv, "build", "ggs.build"),
        (ggs, "build", "ggs.build"),
        (checks, "build", "ggs.build"),
        (cli, "build", "ggs.build"),
        (ggs, "directed", "portraits.directed"),
        (portraits.Automorphism, "to_perm", "portraits.to_perm"),
        (cli, "report_payload", "cli.report_payload"),
    ]
    for name in ("directed", "subtree_embed", "subtree_section", "embed_at_vertex", "commutator"):
        out.append((checks, name, "portraits." + name))
    for cid in checks.CHECKS:
        out.append((checks.CHECKS, cid, "checks." + cid))
    for fmt in cli.RENDERERS:
        out.append((cli.RENDERERS, fmt, "cli.render"))
    return out


def _get(container, key):
    if isinstance(container, dict):
        return container.get(key)
    return vars(container).get(key)


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Span recorder; handles built while it is installed are kept for
    chain_summary() until take_handles()."""

    def __init__(self, gv):
        self.gv = gv
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._handles: dict[int, object] = {}
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _keep(self, handle) -> None:
        if isinstance(handle, self.gv.PermGroup):
            self._handles.setdefault(id(handle), handle)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._keep(out)
            return out

        return traced

    def _wrap_chain(self, prop):
        fget = prop.fget

        def chain(obj):
            # the chain is built lazily; only the first access does work
            if obj.__dict__.get("_chain") is not None:
                return fget(obj)
            idx = self._open("permgroups.chain")
            try:
                out = fget(obj)
            finally:
                self._close(idx)
            self._keep(obj)
            return out

        return property(chain)

    def install(self) -> None:
        if self._saved:
            return
        PermGroup = self.gv.PermGroup
        self.missing = []
        for container, key, name in targets(self.gv):
            fn = _get(container, key)
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((container, key, fn))
            _set(container, key, self._wrap(fn, name))
        prop = vars(PermGroup).get("chain")
        if isinstance(prop, property):
            self._saved.append((PermGroup, "chain", prop))
            PermGroup.chain = self._wrap_chain(prop)
        else:
            self.missing.append("permgroups.chain")

    def remove(self) -> None:
        for container, key, fn in reversed(self._saved):
            _set(container, key, fn)
        self._saved.clear()

    def take_handles(self) -> dict:
        """Sums over the handles built since the last call, read through the
        public chain_summary(); call with the tracer removed."""
        out = {"strong_generators": 0, "transversal_points": 0, "order_exponent_sum": 0}
        for h in self._handles.values():
            info = h.chain_summary()
            out["strong_generators"] += info.get("strong_generator_count", 0)
            out["transversal_points"] += sum(info.get("orbit_lengths", ()))
            out["order_exponent_sum"] += info["order_exponent"]
        self._handles.clear()
        return out


class PairedMeter:
    """A Speedometer stand-in for traced runs: each timed operation runs
    twice, untraced and then traced, so the two timings are taken moments
    apart and trace.overhead_s is not swamped by drift between them."""

    def __init__(self, meter, tracer: Tracer):
        self.meter = meter
        self.tracer = tracer
        self.untraced: list[float] = []  # scaled seconds, one per operation
        self.traced: list[float] = []

    def measure(self, fn, *args):
        _, _, plain = self.meter.measure(fn, *args)
        self.tracer.install()
        try:
            out, raw, scaled = self.meter.measure(fn, *args)
        finally:
            self.tracer.remove()
        self.untraced.append(plain)
        self.traced.append(scaled)
        return out, raw, scaled


# -- per-layer figures from spans -------------------------------------------------


def layer_of(name: str) -> str:
    """The metric group a span counts toward."""
    if name.startswith("portraits."):
        return "portraits"
    if name.startswith("cli."):
        return "cli.report"
    return name


def layer_times(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Per-group seconds and call counts for spans[lo:hi], plus the self
    seconds of each checks span.

    A span nested inside another span of its own group adds a call but no
    time, so nothing is counted twice.  The other permgroups groups leave
    out the chains built lazily inside them (the first contains() on a
    handle, say), which count once, as permgroups.chain.  Self time is a
    span's duration minus the time of its direct children.
    """
    hi = len(spans) if hi is None else hi
    secs: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    child_time: dict = defaultdict(float)
    chain_time: dict = defaultdict(float)
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        if parent >= 0:
            child_time[parent] += end - start
        if name == "permgroups.chain":
            anc = parent
            while anc >= 0:
                chain_time[anc] += end - start
                anc = spans[anc][3]
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        group = layer_of(name)
        calls[group] += 1
        anc = parent
        while anc >= 0 and layer_of(spans[anc][0]) != group:
            anc = spans[anc][3]
        if anc < 0:
            secs[group] += end - start
            if group.startswith("permgroups."):
                secs[group] -= chain_time[i]
    selfs: dict = defaultdict(float)
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        if name.startswith("checks."):
            selfs[name] += end - start - child_time[i]
    return {"s": secs, "calls": calls, "self_s": selfs}
