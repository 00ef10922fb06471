"""The import graph of ``src/repro`` reads in one direction.

Three rules, checked by ``ast`` over the source (nothing is imported):

* no cycle between the packages of ``repro`` (``core``, ``dpdk``, ...;
  a top-level module such as ``faults`` is its own node), counting
  *every* import — module-level, function-level and ``TYPE_CHECKING``;
* no function-level ``from repro...`` import;
* no ``if TYPE_CHECKING:`` block;

each outside a short allow-list whose entries say why they stay.  A
deferred import is how Python code says "there is a cycle here", so one
that dodges no cycle misleads the reader about the layering.

A fourth rule, same census: the engine is the only driver of the bypass
control plane, so an ``Optional[Environment]`` or an ``env is None``
test — how a clock-less twin of a timed procedure starts — appears only
where the allow-list says what runs without an engine.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: (importing package, imported package, through module) -> reason.
ALLOWED_PACKAGE_CYCLE_EDGES = {
    ("packet", "dpdk", "packet/pcap.py"):
        "CaptureTap wraps an EthDev to record what crosses it, while "
        "dpdk moves packet.Mbufs; pcap.py has its own PR (ROADMAP)",
}

#: (module, imported module) -> reason a function-level import stays.
ALLOWED_DEFERRED_IMPORTS = {
    ("core/watchdog.py", "repro.core.bypass"):
        "core.bypass imports this module to build the BypassWatchdog, "
        "which reads LinkState back on every check",
}

#: (module, imported module) -> reason a TYPE_CHECKING import stays.
ALLOWED_GUARDED_IMPORTS = {
    ("core/watchdog.py", "repro.core.bypass"):
        "the same loop: BypassLink / BypassManager annotations",
}


#: module -> (Optional[Environment] annotations, ``env is [not] None``
#: tests, why something there lives without an engine).
ALLOWED_ENGINELESS = {
    "vswitch/vswitchd.py": (
        1, 4, "the engine-less switch, step_dataplane()/step_control(): "
        "perfbench's switch_miss_churn and bench/workloads/fastpath.py "
        "run it"),
    "obs/plane.py": (
        0, 1, "scrapes that switch: no engine, no event counter to export"),
    "orchestration/node.py": (
        1, 0, "NfvNode(env=None) builds its own Environment on one line"),
    "traffic/generator.py": (
        1, 1, "a SourceApp has no engine until start(env)"),
    "traffic/sink.py": (
        1, 1, "a SinkApp has no engine until start(env)"),
    "experiments/chain.py": (
        1, 1, "a ChainExperiment has no engine until build()"),
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _repro_imports(node):
    """Dotted ``repro...`` module names one import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = []
    return [name for name in names
            if name == "repro" or name.startswith("repro.")]


def _is_type_checking(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def census():
    """``(package edges, deferred imports, guarded imports)``: edges as
    ``{(from package, to package): {module, ...}}``; the other two as
    lists of ``(module, imported module)``."""
    edges, deferred, guarded = {}, [], []
    for module, tree in _modules():
        package = module.split("/")[0].removesuffix(".py")
        for node in ast.walk(tree):
            for name in _repro_imports(node):
                target = (name.split(".") + ["repro"])[1]
                if target not in ("repro", package):
                    edges.setdefault((package, target), set()).add(module)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                        and not isinstance(node, ast.ClassDef):
                    deferred += [(module, n) for n in _repro_imports(node)]
                if _is_type_checking(top):
                    guarded += [(module, n) for n in _repro_imports(node)]
    return edges, deferred, guarded


def _is_env(node):
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name in ("env", "_env")


def engineless_census():
    """``{module: (Optional[Environment] annotations, env-is-None
    tests)}`` for every module that has either."""
    found = {}
    for module, tree in _modules():
        optional = tests = 0
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) \
                    and getattr(node.value, "id", None) == "Optional" \
                    and getattr(node.slice, "id", None) == "Environment":
                optional += 1
            elif isinstance(node, ast.Compare) and _is_env(node.left) \
                    and isinstance(node.ops[0], (ast.Is, ast.IsNot)) \
                    and getattr(node.comparators[0], "value", 0) is None:
                tests += 1
        if optional or tests:
            found[module] = (optional, tests)
    return found


def _mutual(edges):
    """Package pairs that import each other directly."""
    return sorted((a, b) for a, b in edges if a < b and (b, a) in edges)


def _unordered(edges):
    """Packages left once every package whose imports are all already
    placed has been placed, repeatedly: empty iff the graph is a DAG."""
    nodes = {package for edge in edges for package in edge}
    while True:
        placed = {n for n in nodes
                  if not any(a == n and b in nodes for a, b in edges)}
        if not placed:
            return sorted(nodes)
        nodes -= placed


def test_packages_import_in_one_direction():
    edges, _deferred, _guarded = census()
    assert _mutual(edges) == [("dpdk", "packet")]
    for (a, b, through), _reason in ALLOWED_PACKAGE_CYCLE_EDGES.items():
        assert edges.pop((a, b)) == {through}, \
            "%s -> %s no longer goes only through %s" % (a, b, through)
    assert _unordered(edges) == [], \
        "import cycle among the packages %s" % _unordered(edges)


def test_no_deferred_or_guarded_import_without_a_reason():
    _edges, deferred, guarded = census()
    assert sorted(set(deferred)) == sorted(ALLOWED_DEFERRED_IMPORTS)
    assert sorted(set(guarded)) == sorted(ALLOWED_GUARDED_IMPORTS)
    # repro.faults imports nothing from repro: nothing needs to dodge it.
    assert "repro.faults" not in {name for _module, name
                                  in deferred + guarded}


def test_nothing_but_the_switch_runs_without_an_engine():
    allowed = {module: counts[:2]
               for module, counts in ALLOWED_ENGINELESS.items()}
    assert engineless_census() == allowed
