"""Lint: no public function or method under ``src/repro`` exists only for tests.

Every public ``def`` must be named somewhere in the program — ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` — besides its own
``def``: its name must occur there as a word (in code, a string or a
comment) more often than ``src/repro`` defines it.  Code only tests
call goes, together with the tests that only exercise it; a test of
other behaviour computes what it needs inline.  The allowlists name
what stays anyway, each with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PROGRAM = ("src", "benchmarks", "examples", "perfbench")

#: extension modules of DESIGN.md's table: their API is the extension,
#: whether or not the program calls it yet.
ALLOWED_MODULES = {
    "tee/sync.py": "TEE-managed sync + shadow threads (DESIGN.md, §3.2)",
    "tee/ipc.py": "inter-TA IPC with capabilities (DESIGN.md, §5)",
    "tee/boot.py": "secure boot chain + TA image verification (DESIGN.md, §3.1)",
    "llm/quantization.py": "q8/q4 block quantization (DESIGN.md, Table 1)",
}
#: single names that stay, as ``<module>:<name>``.
ALLOWED = {
    "llm/models.py:quantized_variant": "q4/q8 model variants (DESIGN.md, Table 1)",
    "faults/injector.py:disarm": "test seam: detaches an armed injector mid-run",
    "fleet/surrogate.py:inject_fault": "test seam: queues one lane fault on a surrogate",
    "obs/telemetry.py:append_histogram": "test seam: writes a histogram sample directly",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def public_defs(source):
    """``[(line, name)]`` of every public function and method."""
    return [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def unnamed_defs(sources, program_text):
    """``[(module, line, name)]`` of the public defs in ``sources``
    (``{module: source}``) whose name occurs in ``program_text`` no more
    often than it is defined."""
    defs = {module: public_defs(source) for module, source in sources.items()}
    defined = Counter(name for found in defs.values() for _line, name in found)
    named = Counter(_WORD.findall(program_text))
    return sorted(
        (module, line, name)
        for module, found in defs.items()
        for line, name in found
        if named[name] <= defined[name]
    )


def test_checker_flags_only_unnamed_defs():
    sources = {
        "a.py": (
            "def used():\n    pass\n"
            "def _private():\n    pass\n"
            "class K:\n"
            "    def method(self):\n        pass\n"
            "    def mentioned(self):\n        pass\n"
        ),
        "b.py": "def method():\n    pass\n\nused()\n# mentioned in a comment\n",
    }
    text = "\n".join(sources.values())
    assert unnamed_defs(sources, text) == [("a.py", 6, "method"), ("b.py", 1, "method")]


def test_allowlist_names_existing_code():
    for module in ALLOWED_MODULES:
        assert (SRC / module).is_file(), module
    for entry in ALLOWED:
        module, name = entry.split(":")
        assert name in {n for _line, n in public_defs((SRC / module).read_text())}, entry


def test_no_test_only_code_under_src():
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text() for path in sorted(SRC.rglob("*.py"))
    }
    program_text = "\n".join(
        path.read_text() for top in PROGRAM for path in sorted((ROOT / top).rglob("*.py"))
    )
    offenders = [
        "src/repro/%s:%d %s" % (module, line, name)
        for module, line, name in unnamed_defs(sources, program_text)
        if module not in ALLOWED_MODULES and "%s:%s" % (module, name) not in ALLOWED
    ]
    assert not offenders, "public code only tests name:\n" + "\n".join(offenders)
