"""The top-level namespace is the API that the README documents."""

import re
from pathlib import Path

import ggsver as gv

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


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_the_documented_names():
    assert sorted(gv.__all__) == sorted(PUBLIC)
    assert all(hasattr(gv, name) for name in PUBLIC)


def test_readme_library_block_runs():
    exec(compile(_library_block(), str(README), "exec"), {})
