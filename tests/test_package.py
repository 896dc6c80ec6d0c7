import ast
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
