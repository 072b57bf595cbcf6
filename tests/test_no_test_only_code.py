"""Lint: no public function or method under ``src/repro`` exists only for tests.

Every public ``def`` must be named by code somewhere in the program —
``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``: its name
must occur there as a name or attribute that code loads (a call, a
reference, an attribute read).  A docstring, a comment, an ``__all__``
string or an import alone does not count, so text cannot keep dead code
alive.  Code only tests call goes, together with the tests that only
exercise it; a test of other behaviour computes what it needs inline.
The allowlists name what stays anyway, each with its reason.
"""

import ast
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
    "llm/models.py:get_model": "the model zoo's lookup by id, which names an unknown id",
    "ree/npu_driver.py:attack_replay_take_over": "§6 attack harness: a replayed take-over",
    "ree/npu_driver.py:attack_forge_take_over": "§6 attack harness: a forged take-over",
    "ree/npu_driver.py:attack_reorder_queue": "§6 attack harness: a reordered job queue",
    "ree/scheduler.py:set_malicious_order": "§6 attack harness: an adversarial REE scheduler",
    "ree/s2pt.py:protect": "the S2PT design the paper rejects (§2.2): its protection call",
    "obs/attach.py:detach": "inverse of attach: proves a detached observer costs nothing",
    "obs/memory.py:detach": "inverse of attach: proves a detached timeline costs nothing",
    "obs/registry.py:dec": "the gauge half of the metrics API (inc, dec, set)",
    "obs/registry.py:labeled": "metrics API: one label's series values as a dict",
    "obs/telemetry.py:avg": "telemetry query API, beside rate and quantile",
    "sim/core.py:interrupt": "simulator kernel primitive: interrupt a process",
    "hw/common.py:covers": "AddrRange interval algebra, beside contains and overlaps",
    "serve/gateway.py:submit_blocking": "the synchronous form of the public submit call",
    "fleet/router.py:rebalance": "operator sweep of the session pins sick devices hold",
    "fleet/cluster.py:telemetry_snapshot": "operator snapshot of a fleet's telemetry",
    "config.py:with_memory": "test seam: the testbed with a different RAM size",
    "faults/injector.py:disarm": "test seam: detaches an armed injector mid-run",
    "fleet/surrogate.py:inject_fault": "test seam: queues one lane fault on a surrogate",
    "obs/telemetry.py:append_histogram": "test seam: writes a histogram sample directly",
}


def public_defs(source):
    """``[(line, name)]`` of every public function and method."""
    return [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def loaded_names(source):
    """Every name and attribute that ``source`` loads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unnamed_defs(sources, program):
    """``[(module, line, name)]`` of the public defs in ``sources``
    (``{module: source}``) whose name no source in ``program`` loads."""
    loaded = set().union(*(loaded_names(source) for source in program))
    return sorted(
        (module, line, name)
        for module, source in sources.items()
        for line, name in public_defs(source)
        if name not in loaded
    )


def test_checker_flags_only_unnamed_defs():
    sources = {
        "a.py": (
            "def used():\n    pass\n"
            "def _private():\n    pass\n"
            "class K:\n"
            "    def method(self):\n        pass\n"
            '    def mentioned(self):\n        """See method()."""\n'
            "    def read(self):\n        pass\n"
        ),
        "b.py": (
            "from a import method\n__all__ = ['mentioned']\n\n"
            "def method():\n    pass\n\n"
            "used()\nK().read\n# mentioned in a comment\n"
        ),
    }
    assert unnamed_defs(sources, list(sources.values())) == [
        ("a.py", 6, "method"),
        ("a.py", 8, "mentioned"),
        ("b.py", 4, "method"),
    ]


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
    program = [
        path.read_text() for top in PROGRAM for path in sorted((ROOT / top).rglob("*.py"))
    ]
    offenders = [
        "src/repro/%s:%d %s" % (module, line, name)
        for module, line, name in unnamed_defs(sources, program)
        if module not in ALLOWED_MODULES and "%s:%s" % (module, name) not in ALLOWED
    ]
    assert not offenders, "public code only tests call:\n" + "\n".join(offenders)
