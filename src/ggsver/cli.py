"""Command line front end: verification runs, defining-data inspection and
per-level tables.

Exit codes: 0 when no check failed (skipped and vacuous checks do not fail),
1 when some verdict failed, 2 on usage or validation errors and on a run too
large to start: more than ggs.DEGREE_CAP leaves without --allow-slow, more
leaves than numpy can index, or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from itertools import accumulate

from . import __version__
from .checks import FAILS, classify_csp, run_all
from .ggs import (
    DEGREE_CAP,
    NormalizationImpossible,
    SpecError,
    build,
    is_constant,
    is_symmetric,
    normalize,
    validate,
)

SPEC_FORMAT = "ggsver-spec/1"
REPORT_FORMAT = "ggsver-report/1"
SLOW_HELP = f"allow more than {DEGREE_CAP} leaves"


# -- defining-data input ------------------------------------------------------


def parse_vectors(text: str) -> list[list[int]]:
    """Rows separated by ';', entries by ','."""
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([int(x.strip()) for x in chunk.split(",")])
        except ValueError:
            raise SpecError(f"cannot parse vector row {chunk!r}")
    if not rows:
        raise SpecError("no vector rows given")
    return rows


def parse_spec_file(text: str) -> tuple[int, list[list[int]], str | None]:
    """Key-value format with a version stamp; see format_spec_file."""
    p = None
    vectors = None
    label = None
    saw_format = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "format":
            if value != SPEC_FORMAT:
                raise SpecError(f"unsupported spec format {value!r}")
            saw_format = True
        elif key == "p":
            try:
                p = int(value)
            except ValueError:
                raise SpecError(f"field 'p': not an integer: {value!r}")
        elif key == "vectors":
            vectors = parse_vectors(value)
        elif key == "label":
            label = value
        else:
            raise SpecError(f"line {lineno}: unknown field {key!r}")
    if not saw_format:
        raise SpecError("missing 'format' line")
    if p is None:
        raise SpecError("missing field 'p'")
    if vectors is None:
        raise SpecError("missing field 'vectors'")
    return p, vectors, label


def format_spec_file(p: int, vectors, label: str | None = None) -> str:
    lines = [f"format = {SPEC_FORMAT}", f"p = {p}"]
    lines.append(
        "vectors = " + "; ".join(",".join(str(x) for x in row) for row in vectors)
    )
    if label:
        lines.append(f"label = {label}")
    return "\n".join(lines) + "\n"


def _spec_from_args(args):
    if args.spec:
        if args.p is not None or args.vectors is not None:
            raise SpecError("--spec FILE cannot be combined with --p or --vectors")
        with open(args.spec, "r", encoding="utf-8") as fh:
            p, vectors, label = parse_spec_file(fh.read())
        label = args.label or label
    else:
        if args.p is None or args.vectors is None:
            raise SpecError("give either --spec FILE or both --p and --vectors")
        p = args.p
        vectors = parse_vectors(args.vectors)
        label = args.label
    for row in vectors:
        for x in row:
            if not 0 <= x < p:
                print(
                    f"warning: entry {x} reduced mod {p}",
                    file=sys.stderr,
                )
    return validate(p, vectors), label


# -- report serialization -----------------------------------------------------


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def strip_timings(payload: dict) -> dict:
    """The payload with its report's check entries copied without their
    wall_time; everything else is shared with the payload."""
    report = payload.get("report", {})
    if "checks" not in report:
        return dict(payload)
    checks = [{k: v for k, v in entry.items() if k != "wall_time"} for entry in report["checks"]]
    return {**payload, "report": {**report, "checks": checks}}


def report_payload(report) -> dict:
    body = report.to_jsonable()
    shell = {"format": REPORT_FORMAT, "version": __version__, "report": body}
    shell["fingerprint"] = hashlib.sha256(
        _canonical(strip_timings(shell))
    ).hexdigest()
    return shell


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(payload: dict) -> str:
    lines = ["claim_id,status,level,wall_time,details"]
    for entry in payload["report"]["checks"]:
        details = _canonical(entry["details"]).decode().replace('"', '""')
        lines.append(
            f"{entry['id']},{entry['status']},{entry['level']},"
            f"{entry['wall_time']:.6f},\"{details}\""
        )
    return "\n".join(lines) + "\n"


def render_text(payload: dict) -> str:
    rep = payload["report"]
    spec = rep["spec"]
    rows = ["; ".join(",".join(str(x) for x in v) for v in spec["vectors"])]
    out = [
        f"ggsver {payload['version']} verification report",
        f"spec: p={spec['p']} vectors={rows[0]}"
        + (f" label={spec['label']}" if spec["label"] else ""),
        f"depth: {rep['depth']}",
        f"classification: {rep['classification']}",
        f"  ({rep['classification_note']})",
        "checks:",
    ]
    for entry in rep["checks"]:
        line = f"  {entry['id']:<30} {entry['status']:<8}"
        if entry["details"]:
            line += " " + _canonical(entry["details"]).decode()
        out.append(line)
        if entry["reason"]:
            out.append(f"      reason: {entry['reason']}")
    out.append(f"fingerprint: {payload['fingerprint']}")
    return "\n".join(out) + "\n"


RENDERERS = {"text": render_text, "csv": render_csv, "json": render_json}


def exit_code_for(payload: dict) -> int:
    statuses = {entry["status"] for entry in payload["report"]["checks"]}
    return 1 if FAILS in statuses else 0


# -- commands -------------------------------------------------------------------


def cmd_verify(args) -> int:
    spec, label = _spec_from_args(args)
    checks = None
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    report = run_all(
        spec, depth=args.depth, checks=checks, label=label, allow_large=args.allow_slow
    )
    payload = report_payload(report)
    rendered = RENDERERS[args.format](payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(rendered)
    return exit_code_for(payload)


def cmd_info(args) -> int:
    spec, label = _spec_from_args(args)
    lines = []
    if label:
        lines.append(f"label: {label}")
    lines.append(f"p: {spec.p}")
    lines.append(f"directed generators: {spec.r}")
    for i, row in enumerate(spec.vectors, 1):
        tags = []
        if is_symmetric(row):
            tags.append("symmetric")
        lines.append(
            f"vector {i}: ({', '.join(str(x) for x in row)})"
            + (f"  [{', '.join(tags)}]" if tags else "")
        )
    lines.append(f"constant: {'yes' if is_constant(spec) else 'no'}")
    try:
        norm = normalize(spec)
    except NormalizationImpossible as exc:
        lines.append(f"reduction: unreachable ({exc})")
    else:
        lines.append(f"reduction case: {norm.case}")
        if norm.steps:
            lines.append("reduced form: " + "; ".join(
                "(" + ",".join(str(x) for x in row) + ")" for row in norm.spec.vectors
            ))
            lines.append("row operations: " + "; ".join(norm.steps))
            lines.append(
                "transform: "
                + "; ".join("(" + ",".join(str(x) for x in row) + ")" for row in norm.transform)
            )
        else:
            lines.append("already in reduced form")
    cls = classify_csp(spec)
    note = (
        "no congruence subgroup property"
        if cls == "ConstantVectorException"
        else "congruence subgroup property"
    )
    lines.append(f"classification: {cls} ({note})")
    print("\n".join(lines))
    return 0


def cmd_table(args) -> int:
    spec, _ = _spec_from_args(args)
    session = build(spec, args.max_depth, allow_large=args.allow_slow)
    # log_p of the level-n quotient of a subgroup H of G is the sum of H's
    # first n layer dimensions, and the level-n quotients of G' and Phi(G)
    # are G_n' and Phi(G_n), so every row is read off depth-N layers; G' is
    # closed first, so that G's layers grow from it
    derived = accumulate(session.derived().chain.dimensions())
    orders = list(accumulate(session.G.chain.dimensions()))
    frattini = accumulate(session.frattini().chain.dimensions())
    rows = []
    for n, (order, d, phi) in enumerate(zip(orders, derived, frattini), 1):
        rows.append(
            {
                "level": n,
                "order_exponent": order,
                "derived_index_exponent": order - d,
                "rank": order - phi,
                # G_n/st(m) is the level-m group, so the index of st(m) is
                # its order
                "stabilizer_index_exponents": orders[:n],
            }
        )
    if args.format == "csv":
        print("level,order_exponent,derived_index_exponent,rank,stabilizer_index_exponents")
        for row in rows:
            st = ";".join(str(x) for x in row["stabilizer_index_exponents"])
            print(
                f"{row['level']},{row['order_exponent']},"
                f"{row['derived_index_exponent']},{row['rank']},\"{st}\""
            )
    else:
        header = "log[G:G']"
        print(f"{'n':>3} {'log|G_n|':>9} {header:>10} {'rank':>5}  st(m) index exponents")
        for row in rows:
            st = ", ".join(str(x) for x in row["stabilizer_index_exponents"])
            print(
                f"{row['level']:>3} {row['order_exponent']:>9} "
                f"{row['derived_index_exponent']:>10} {row['rank']:>5}  [{st}]"
            )
    return 0


def _add_spec_args(sub):
    sub.add_argument("--p", type=int, help="tree arity, an odd prime")
    sub.add_argument(
        "--vectors",
        help="defining rows, entries comma separated, rows ';' separated",
    )
    sub.add_argument("--spec", help="path to a spec file")
    sub.add_argument("--label", help="label echoed into reports")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it takes about a
    millisecond, and parse_args leaves it as it was.  The commands it sets
    look up what they call when they run."""
    parser = argparse.ArgumentParser(
        prog="ggsver",
        description=(
            "Construct multi-GGS groups on the p-regular rooted tree and "
            "verify their structural identities on finite quotients."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the checks and write a report")
    _add_spec_args(v)
    v.add_argument("--depth", type=int, help="quotient level (default: r+4 capped)")
    v.add_argument("--checks", help="comma separated check ids to run")
    v.add_argument("--out", help="write the rendered report to this path")
    v.add_argument(
        "--format", choices=sorted(RENDERERS), default="json", help="output format"
    )
    v.add_argument("--allow-slow", action="store_true", help=SLOW_HELP)
    # accepted and ignored: bench/workloads.py::verify_argv still passes it;
    # it goes once the benchmark stops doing so
    v.add_argument("--no-cache", action="store_true", help=argparse.SUPPRESS)
    v.set_defaults(fn=cmd_verify)

    i = sub.add_parser("info", help="inspect defining data without building groups")
    _add_spec_args(i)
    i.set_defaults(fn=cmd_info)

    t = sub.add_parser("table", help="per-level order, index and rank table")
    _add_spec_args(t)
    t.add_argument("--max-depth", type=int, required=True)
    t.add_argument("--format", choices=["text", "csv"], default="text")
    t.add_argument("--allow-slow", action="store_true", help=SLOW_HELP)
    t.set_defaults(fn=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory; try a smaller depth ({exc})", file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
