"""The top-level namespace is the API that the README documents."""

import ast
import dataclasses
import re
from pathlib import Path

import ggsver as gv
from ggsver import portraits

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "__version__",
    "validate",
    "build",
    "run_all",
    "SpecError",
    "GGSSpec",
    "GroupSession",
    "Report",
    "Verdict",
    "CHECKS",
    "PermGroup",
    "Perm",
]


# portraits build the generators; every element past that is a leaf Perm
PORTRAITS = [
    "DegreeMismatch",
    "Perm",
    "Automorphism",
    "rooted",
    "directed",
    "embed_at_vertex",
    "commutator",
    "vertex_index",
    "vertex_word",
    "is_odd_prime",
    "level_of_degree",
    "restrict_to_level",
    "subtree_section",
    "subtree_embed",
]


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_the_documented_names():
    assert sorted(gv.__all__) == sorted(PUBLIC)
    assert all(hasattr(gv, name) for name in PUBLIC)


def test_readme_library_block_runs():
    exec(compile(_library_block(), str(README), "exec"), {})


def test_portraits_surface():
    assert sorted(portraits.__all__) == sorted(PORTRAITS)
    assert all(hasattr(portraits, name) for name in PORTRAITS)
    # a portrait is only turned into a Perm; it has no arithmetic of its own
    for name in ("__mul__", "inverse", "__pow__", "section", "psi", "truncate"):
        assert not hasattr(portraits.Automorphism, name)


def test_session_holds_no_portraits():
    fields = {f.name for f in dataclasses.fields(gv.GroupSession)}
    assert fields == {"spec", "depth", "G", "_memo"}
    assert not hasattr(gv.GroupSession, "generators")


def _private_handle_fields() -> set:
    """The private instance fields of PermGroup handles made every way: by
    hand, by cold and warm closures, by truncation and as a level
    stabilizer or st(1)."""
    s = gv.build(gv.validate(3, [(1, 2)]), 3)
    handles = [
        gv.PermGroup(s.G.degree, s.G.generators, prime=3),
        s.G,
        s.derived(),
        s.st1(),
        s.st1_derived(),
        s.G.truncate(2),
        s.G.level_stabilizer(1),
    ]
    return {k for h in handles for k in vars(h) if k.startswith("_")}


def test_no_module_reads_a_handles_private_fields():
    # how a handle was made is public, in its origin; the rest is
    # permgroups' own
    private = _private_handle_fields()
    assert private >= {"_chain", "_tree"}
    reads = []
    for path in sorted(Path(gv.__file__).parent.glob("*.py")):
        if path.name == "permgroups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert reads == []
