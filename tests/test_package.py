import ast
import importlib
import importlib.util
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
