"""degbal's exports are what README's Library section documents, and its
example block runs with every ``# value`` comment holding."""

import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import degbal
import degbal.errors

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTED = [
    "AchievabilityReport",
    "DecompositionResult",
    "DegbalError",
    "DegreeProfile",
    "EdgeSubset",
    "ExceptionGraph",
    "ExceptionKind",
    "Graph",
    "ParityMismatch",
    "ResultDocument",
    "SmallClass",
    "Statement",
    "achievable_profiles",
    "build_graph",
    "complement_within",
    "connected_components",
    "decompose",
    "encode_graph6",
    "find_witness",
    "min_max_deviation",
    "parse_edge_list",
    "parse_graph6",
    "profile_of",
    "render_result",
    "shortest_cycle",
    "statement_target",
    "target_profile",
]


# The DegbalError subclasses: each is told apart by a caller or named in a
# message.  Every other refusal raises DegbalError itself.
ERROR_CLASSES = [
    "CapExceeded",
    "ExceptionGraph",
    "InternalStuck",
    "NotRegular",
    "ParityMismatch",
    "ParseError",
    "PreconditionViolated",
    "SizeMismatch",
]


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    return text[start:text.index("\n## ", start + 1)]


def test_all_is_the_documented_names():
    assert sorted(degbal.__all__) == EXPORTED


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from degbal import *", namespace)
    assert all(namespace[name] is getattr(degbal, name) for name in EXPORTED)


def test_library_section_names_every_export():
    section = library_section()
    assert [name for name in EXPORTED if f"`{name}`" not in section] == []


def test_import_loads_no_logging():
    # Only fallback_search logs, and it imports logging when a stage-2 block reaches it.
    code = "import sys, degbal, degbal.cli\nassert 'logging' not in sys.modules, 'logging was imported'\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_error_classes_are_the_named_ones():
    defined = sorted(
        name for name, value in vars(degbal.errors).items()
        if isinstance(value, type) and issubclass(value, degbal.DegbalError)
        and value is not degbal.DegbalError
    )
    assert defined == ERROR_CLASSES
    bullet = re.search(r"^- errors:.*?(?=^\S|^- )", library_section(), re.S | re.M).group(0)
    assert [name for name in ERROR_CLASSES if f"`{name}`" not in bullet] == []


def test_library_example_comments_hold():
    section = library_section()
    block = re.search(r"```python\n(.*?)\n```", section, re.S).group(1)
    namespace: dict = {}
    pending: list[str] = []
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        if not comment:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        # The value is the comment up to any trailing ", words".
        value = re.fullmatch(r"\s*(.*?)(?:,\s+[a-z].*)?", comment).group(1)
        assert eval(code, namespace) == eval(value, {"Fraction": Fraction}), line
        checked += 1
    exec("\n".join(pending), namespace)
    assert checked >= 4
