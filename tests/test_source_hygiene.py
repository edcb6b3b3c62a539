"""Size and leftovers of the package source.

The public API and a ceiling on the line count of ``src/qndmzi/*.py`` are
pinned, so a change to either shows in review: a change that adds code
raises the ceiling in its own diff.  Every module-level private function,
class or constant must be used somewhere else in the package, so a
refactor cannot leave a superseded helper or bound behind.  Only
``states.py`` reads a state's column form.
"""

import ast
from pathlib import Path

import qndmzi

SRC = Path(qndmzi.__file__).parent

PUBLIC_API = [
    "BeamSplitter", "Branch", "Circuit", "CircuitFormatError", "DimensionMismatchError",
    "Element", "FINAL_STAGE", "FringeScan", "HybridState", "KerrCoupling", "LeakagePoint",
    "MERGE_TOL", "OVERLAP_THRESHOLD", "PROBE", "PhaseShift", "PostSelectionResult",
    "SOURCE_STAGE", "SYS", "Snapshot", "StageTrace", "TsvfReport", "apply_beam_splitter",
    "apply_element", "apply_kerr", "apply_phase", "build_nested_mzi", "coherent_overlap",
    "format_complex", "fringe_scan", "inner_product", "leakage_sweep", "mean_probe_photons",
    "merge_branches", "parse_circuit", "parse_complex", "postselect", "run_backward",
    "run_both", "run_forward", "serialize_circuit", "state_fidelity", "tsvf_report",
]


def test_public_api_is_pinned():
    assert sorted(qndmzi.__all__) == PUBLIC_API
    assert len(PUBLIC_API) == 42


#: Lines of ``src/qndmzi/*.py`` at most, as ``wc -l`` counts them.
SOURCE_LINES = 2670


def test_source_size_is_pinned():
    lines = sum(path.read_text().count("\n") for path in SRC.glob("*.py"))
    assert lines <= SOURCE_LINES


def _used_names(node: ast.AST) -> set[str]:
    """Names that ``node`` reads, as a bare name or as an attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_private_helper_is_used():
    defined = []  # (module, name, the defining node)
    uses = []  # (defining node or None, names used there)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((path.name, name, node))
            uses.append((node, _used_names(node)))
    unused = [
        f"{module}:{name}"
        for module, name, own in defined
        if not any(name in names for node, names in uses if node is not own)
    ]
    assert unused == []


def test_only_states_reads_the_column_form():
    # ``_cols`` picks a state's layout; the steps of both layouts and that
    # one check live in states.py, so no other module may read it.
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_cols"]
    assert [where for where in reads if not where.startswith("states.py:")] == []


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_only_the_cli_imports_numpy_at_import_time():
    # numpy costs every fresh process about 60 ms, and the paper's apparatus
    # never calls it, so the library imports it inside the functions that do.
    eager = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lazy = {
            id(sub)
            for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for sub in ast.walk(node)
        }
        eager += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _imports_numpy(node) and id(node) not in lazy]
    assert [where for where in eager if not where.startswith("cli.py:")] == []
