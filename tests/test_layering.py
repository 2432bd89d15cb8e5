"""Dependency direction, checked on the source text.

An ``ast`` scan (no module is imported, so nothing can hide behind an
import that happens to succeed): ``repro.parallel`` sits below
``repro.service`` and never imports it; inside ``repro/parallel`` every
import of a sibling module is at module level (a function-level import
is how an import cycle gets papered over);
``repro.service.client`` — what a ``popqc submit`` user imports — does
not import ``repro.service.server`` and with it the daemon, the driver
and the scheduler; and nothing in ``repro/service`` imports the circuit
generators or the experiment drivers (the service serves circuits, it
does not generate them); and the daemon (``repro.service.server``)
imports neither the per-gate codec nor ``Circuit`` — a served job is
wire arrays -> ids -> wire arrays, and a ``decode_segment`` /
``encode_segment`` pair in ``_answer_job`` is a 2 x per-gate loop.
``repro.cli`` imports no transport registry and no thread executor
(the wire is derived from ``--hosts``), and no package ``__all__``
names a second path that was deleted for having no caller.  A worker
(``repro.parallel.worker``) imports neither ``Gate`` nor the per-gate
codec, and only its gate-list round trip — the path of an oracle
without a wire entry — calls into a ``GateTable``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _imports(path: pathlib.Path):
    """``(absolute module name, node, is at module level)`` for every
    import statement in ``path``."""
    tree = ast.parse(path.read_text())
    package = ["repro", *path.relative_to(SRC).parts[:-1]]
    top_level = set(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node, node in top_level
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            # ``from . import shm`` names the sibling in the alias
            for alias in node.names:
                yield f"{module}.{alias.name}", node, node in top_level
            yield module, node, node in top_level


def test_parallel_never_imports_service():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "parallel").glob("*.py"))
        for module, node, _ in _imports(path)
        if module == "repro.service" or module.startswith("repro.service.")
    ]
    assert offenders == []


def test_parallel_has_no_function_level_sibling_imports():
    siblings = {
        f"repro.parallel.{path.stem}" for path in (SRC / "parallel").glob("*.py")
    }
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "parallel").glob("*.py"))
        for module, node, top_level in _imports(path)
        if not top_level
        and (module in siblings or module.rpartition(".")[0] in siblings)
    ]
    assert offenders == []


def test_service_client_does_not_import_the_server():
    modules = {module for module, _, _ in _imports(SRC / "service" / "client.py")}
    assert not any(m.startswith("repro.service.server") for m in modules)
    assert not any(m.startswith("repro.core") for m in modules)


def test_service_never_imports_benchgen():
    generators = ("repro.benchgen", "repro.experiments", "repro.baselines")
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "service").glob("*.py"))
        for module, node, _ in _imports(path)
        if any(module == g or module.startswith(g + ".") for g in generators)
    ]
    assert offenders == []


def test_the_daemon_imports_no_per_gate_codec():
    banned = ("decode_segment", "encode_segment", "Circuit")
    offenders = [
        f"server.py:{node.lineno} {module}"
        for module, node, _ in _imports(SRC / "service" / "server.py")
        if module.rpartition(".")[2] in banned
    ]
    assert offenders == []


def _calls(path: pathlib.Path):
    """``(enclosing top-level function, called name)`` for every call in
    ``path`` (the attribute name for a method call)."""
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", None) or getattr(func, "id", "")
                yield getattr(top, "name", None), name


def test_a_worker_builds_no_gate_for_an_oracle_with_the_wire_entry():
    worker = SRC / "parallel" / "worker.py"
    banned = ("decode_segment", "encode_segment", "Gate")
    imported = [
        f"worker.py:{node.lineno} {module}"
        for module, node, _ in _imports(worker)
        if module.rpartition(".")[2] in banned
    ]
    assert imported == []
    table = {"thread_table", "gates_of", "ids_from_encoded", "intern", "encoded"}
    callers = {fn for fn, name in _calls(worker) if name in table}
    assert callers == {"_oracle_encoded_result"}


def test_the_scan_sees_what_it_should():
    """Guard the guard: the scan resolves relative imports and nesting."""
    modules = {m: top for m, _, top in _imports(SRC / "parallel" / "executor.py")}
    assert modules["repro.parallel.transports"] is True
    assert modules["repro.parallel.shm"] is True  # ``from . import shm``
    lazy = {m: top for m, _, top in _imports(SRC / "core" / "popqc.py")}
    assert lazy["repro.sim"] is False  # popqc's function-level sim import
    client = {m for m, _, _ in _imports(SRC / "service" / "client.py")}
    assert "repro.circuits.encoding.encode_segment" in client  # names, too


#: Names of second paths deleted for having no caller, each spelled in
#: two halves so that a grep for one finds live references only.
GONE = {
    "Thread" "Map",
    "popqc_" "adaptive",
    "suggest_" "omega",
    "Sliding" "Profile",
    "sliding_" "distances",
    "lpt_" "makespan",
    "ideal_" "makespan",
}


def test_the_cli_names_no_mechanism():
    """``popqc`` derives the wire from ``--hosts``; it has no registry
    of transports to offer and no thread executor to build."""
    names = {m.rpartition(".")[2] for m, _, _ in _imports(SRC / "cli.py")}
    assert names.isdisjoint({"TRANSPORTS"} | GONE)


def test_deleted_second_paths_are_exported_nowhere():
    exported = {}
    for init in sorted(SRC.rglob("__init__.py")):
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                exported[str(init.relative_to(SRC))] = set(ast.literal_eval(node.value))
    assert "ProcessMap" in exported["parallel/__init__.py"]  # the scan sees __all__
    assert {init: names & GONE for init, names in exported.items() if names & GONE} == {}
