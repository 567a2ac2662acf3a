"""The package's public surface: `nullcone.__all__` is pinned here, and the
README documents every name in it.  Every definition in the package has a
caller."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import nullcone
from nullcone.cli import load_problem

ROOT = Path(__file__).resolve().parents[1]

SURFACE = [
    "Candidate",
    "CandidateDecision",
    "GramSpace",
    "InputError",
    "InvariantError",
    "NullconeSummary",
    "OracleReport",
    "Problem",
    "ResourceError",
    "SignedTree",
    "StratumReport",
    "ValidatedProblem",
    "ValidationError",
    "build_tree",
    "catalog",
    "check_rank2_law",
    "compare_with_naive",
    "direct_sum",
    "enumerate_candidates",
    "from_json_text",
    "invariance_harness",
    "naive_candidates",
    "parse_catalog_spec",
    "render_svg",
    "restrict",
    "stratify",
    "to_json_text",
    "to_text",
    "validate",
]


def test_public_surface_is_pinned_and_documented():
    assert sorted(nullcone.__all__) == SURFACE
    readme = (ROOT / "README.md").read_text()
    for name in SURFACE:
        assert getattr(nullcone, name) is not None
        assert f"`{name}`" in readme, name


# definitions kept without a caller in src/ or bench/, each with its reason
UNCALLED = {
    "verify_candidate": "the Fraction recheck that tests compare candidates against",
    "make_space": "builds a GramSpace from literal rows in tests",
    "standard_transforms": "the invariance inputs of the metamorphic tests",
    "problem_to_json": "writes the problem schema that problem_from_json reads",
    "_ArgumentParser.error": "argparse calls it on a usage error",
}


def _references(tree: ast.AST) -> Counter:
    """Each name, attribute and string constant under `tree`, counted."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def test_every_definition_has_a_caller():
    """A top-level function or class, or a method, of `src/nullcone` must
    be referenced in `src/` or `bench/` outside its own body: by name, as an
    attribute, or as a string (an `__all__` export, a wrapper installed by
    name).  A recursive call is not a caller.  Dunder methods are called by
    Python itself."""
    definitions = []
    for path in sorted((ROOT / "src" / "nullcone").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{node.name}.{item.name}", item)
                                for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("__")]
    referenced: Counter = Counter()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        referenced += _references(ast.parse(path.read_text()))
    assert set(UNCALLED) <= {qualified for qualified, _ in definitions}
    uncalled = [qualified for qualified, node in definitions
                if referenced[node.name] == _references(node)[node.name]
                and qualified not in UNCALLED]
    assert uncalled == []



def test_bench_tracer_installs_and_comes_off(monkeypatch):
    """`bench/tracer.py` wraps package functions under the names their
    callers look them up by (`engine.orbit_closure`, `candidates.perp`,
    ...).  Deleting one of those names would make every traced benchmark
    run fail, so a tracer is installed here and taken off again.  It also
    reads the arguments of the tree functions it wraps (a restriction's
    `constraints`), so one traced qubits4 `stratify` must count the tree
    work it always has."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracer")
    owners = [importlib.import_module(f"nullcone.{layer}") for layer in tracing.LAYERS]
    owners.append(nullcone.GramSpace)
    before = [dict(vars(owner)) for owner in owners]
    problem = nullcone.validate(load_problem(str(ROOT / "bench" / "problems" / "qubits4.json")))
    tracer = tracing.Tracer()
    tracer.install()  # a KeyError names a wrapped function the package lost
    try:
        nullcone.stratify(problem)
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
    counters = tracer.counters()
    assert {name: counters[name] for name in TRACED_QUBITS4} == TRACED_QUBITS4


# the tracer's tree counters on one qubits4 `stratify`
TRACED_QUBITS4 = {
    "engine.tree.nodes": 38,
    "engine.restrict.calls": 14,
    "engine.equality_set.calls": 14,
    "engine.equality_set.enumerations": 14,
    "candidates.enumerate.calls": 15,
    "candidates.kept": 34,
}
