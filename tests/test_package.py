import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hermseq

PACKAGE_DIR = Path(hermseq.__file__).parent


def test_runtime_imports_only_stdlib():
    # the runtime is pure standard library; relative imports stay inside
    # the package and are not checked
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "hermseq" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert not foreign, foreign


# every name the package exported when its __init__ imported each module
_EXPORTED = """
AffinePlace BOUNDS CollinearFamily DegreeMode FieldContext PerVariable PoleError
SpanTracker TotalDegree affine_places bound build_sequence collinear_family
complexity_profile dense_reference element_from_str element_to_str eval_quotient
eval_tangent exists_recurrence figure_rows floor_ratios full_length
l_bound_improves l_bound_improves_twopoint l_twopoint_condition n_bound_improves
nonlinear_complexity on_curve orbit scale_place zero_set
""".split()

_IMPORT_FIELD_ALONE = """
import sys
import hermseq.field
print(sorted(m for m in sys.modules if m.split(".")[0] in ("hermseq", "fractions", "decimal")))
import hermseq
print(sorted(name for name in sys.argv[1:] if not hasattr(hermseq, name)))
print(sorted(set(sys.argv[1:]) - set(dir(hermseq))))
print(hermseq.verify.__name__, hermseq.build_sequence.__module__)
"""


def test_field_imports_alone_and_names_resolve_lazily():
    # the namespace imports a submodule on first use, so the field module
    # loads without the bounds, complexity, curve and sequence modules (nor
    # fractions and decimal); every exported name still resolves
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_FIELD_ALONE, *_EXPORTED],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['hermseq', 'hermseq.field']", "[]", "[]", "hermseq.verify hermseq.sequence"]


def test_traced_names_resolve():
    # the benchmark's span tracer patches these by name at run time, so a
    # rename would otherwise break only the benchmark, and only when it runs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for module_name, attr in spans.TRACED.values():
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            target = vars(cls).get(meth) if cls is not None else None
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            unresolved.append(f"{module_name}.{attr}")
    assert not unresolved, unresolved


# what perfbench/child.py does in a traced run: import hermseq.cli alone,
# install the span tracer, run the command, then list the verify spans
_TRACED_VERIFY = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from hermseq import cli
from spans import TRACED, Tracer
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--p", "2"]) == 0
print(sorted(name for name in tracer.summary() if name.startswith("verify.")))
print(sorted(name for name in TRACED if name.startswith("verify.")))
"""


def test_traced_verify_through_the_cli_alone():
    # Tracer.install() reads sys.modules["hermseq.verify"], which only the
    # cli's import puts there; test_traced_names_resolve imports every
    # module itself, so it cannot see a cli that imports verify.py lazily
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_VERIFY, str(perfbench)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert proc.returncode == 0, proc.stderr
    recorded, traced = proc.stdout.splitlines()
    assert recorded == traced


def test_readme_library_example_runs():
    # the README's "Library use" block imports public names and asserts on
    # their results, so a removed or renamed name fails here, not for a reader
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
