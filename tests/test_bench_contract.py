"""The benchmark's hold on the library: every function it traces or times
still exists.

``bench/layers.py`` wraps library functions by (owner, attribute) and
``bench/kernels.py`` builds its kernel inputs by calling library functions by
name, so a rename or a removal in ``src/`` breaks a bench run long after the
change.  These tests catch it in the ordinary test run instead: they import
the two modules (``bench/`` goes on ``sys.path`` read-only, without writing
bytecode there), resolve every trace target, and resolve every dotted name
chain in ``bench/*.py`` that starts at a ``qeslab`` module or at a name
imported from one (``enveloping.flatten_matrix_ops``,
``classify.CoeffAssignment.operator``).

Out of the name check's reach: attributes looked up on instances, such as
the methods in ``m.order()`` or ``sl2.apply_poly(...)``; the chain there
starts at a local value, not at an imported name.  The fields that the bench
reads off result records (an action, a spectrum, a reduction) are checked on
live instances instead.

The other side of that hold is a dead-code guard: every module-level function
or class in ``src/qeslab`` is referenced by some library module, exported in
``qeslab.__all__``, or on an allowlist that gives its reason (the bench-only
names among them until the benchmark stops reading them).
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("layers"), importlib.import_module("kernels")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_trace_targets_resolve(bench_modules):
    layers, _ = bench_modules
    targets = layers.targets()
    assert targets
    for t in targets:
        assert callable(getattr(t.owner, t.attr, None)), t.name


def _qeslab_imports(tree: ast.AST) -> dict:
    """Local name -> dotted path, for every import from the qeslab package."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                if root == "qeslab":
                    names[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "qeslab":
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"
    return names


def _resolve(path: str) -> object:
    """The object a dotted path names, importing modules along the way."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i + 1]))
        obj = getattr(obj, part)
    return obj


def _chain(node: ast.Attribute):
    """('root', ['a', 'b']) for root.a.b, or None when the chain does not
    start at a plain name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_bench_library_names_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = _qeslab_imports(tree)
    for dotted in imported.values():
        _resolve(dotted)
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain is None or chain[0] not in imported:
            continue
        dotted = ".".join([imported[chain[0]]] + chain[1])
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            pytest.fail(f"{path.name}:{node.lineno}: {dotted} does not exist")


SRC = Path(__file__).resolve().parent.parent / "src" / "qeslab"

# module-level definitions that no src/qeslab module references and that
# qeslab.__all__ does not export, each with its reason for staying
BENCH_ONLY = "bench/ reads it until a benchmark change (ROADMAP item 1)"
TESTED_API = "library API that the tests read"
UNREFERENCED = {
    "spectral.adaptive_simpson": BENCH_ONLY,
    "enveloping.expand_matrix": BENCH_ONLY,
    "enveloping.flatten_matrix_ops": BENCH_ONLY,
    "classify.sample_assignment": BENCH_ONLY,
    "linalg.rref": TESTED_API,
    "reps.root_of_unity_generators": TESTED_API,
}


def _unreferenced(sources: dict) -> set:
    """'module.name' for each module-level function or class of the sources
    (module -> text) whose name no source uses as a name, an attribute or a
    from-import; dunder hooks such as a module's __getattr__ are left out,
    since Python calls them."""
    defined, used = set(), set()
    for module, text in sources.items():
        tree = ast.parse(text)
        defined |= {(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return {f"{module}.{name}" for module, name in defined if name not in used}


def test_unreferenced_scan_finds_an_unused_function():
    source = "def used():\n    return 1\n\n\ndef unused():\n    return used()\n"
    assert _unreferenced({"m": source}) == {"m.unused"}


def test_library_has_no_unreferenced_definitions():
    import qeslab
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    dead = {d for d in _unreferenced(sources) if d.split(".")[1] not in qeslab.__all__}
    assert not dead - set(UNREFERENCED), f"unreferenced: {sorted(dead - set(UNREFERENCED))}"
    # an entry whose name is now referenced, or gone, leaves the allowlist
    assert not set(UNREFERENCED) - dead, f"stale: {sorted(set(UNREFERENCED) - dead)}"


# result-record attributes that bench/*.py reads, by record
BENCH_READS = {
    "ActionResult": ("matrix", "preserved", "labels"),
    "Spectrum": ("charpoly", "trace_check"),
    "SchrodingerReduction": ("gauge", "potential", "x_of_z"),
}


def test_bench_result_reads_resolve():
    from qeslab.reps import RepSpec, make_rep
    from qeslab.scalars import Scalar
    from qeslab.spaces import SpaceSpec, action_matrix
    from qeslab.spectral import sextic_reduction, spectrum

    sl2 = make_rep(RepSpec("sl2", n=Scalar(2))).ops["J0"]
    act = action_matrix(sl2, SpaceSpec("interval", (2,)))
    red, _ = sextic_reduction(1, 0, 1, 0, [0.1 + i * 1e-2 for i in range(9)])
    records = {"ActionResult": act, "Spectrum": spectrum(act),
               "SchrodingerReduction": red}
    for name, attrs in BENCH_READS.items():
        assert type(records[name]).__name__ == name
        for attr in attrs:
            assert getattr(records[name], attr) is not None, f"{name}.{attr}"
