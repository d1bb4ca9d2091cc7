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
