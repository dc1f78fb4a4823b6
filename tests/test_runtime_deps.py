"""numpy is the package's only runtime dependency: every other import is stdlib.

And the modules a labelling worker runs log nothing: dataset.build_dataset
reports each fault context from its samples, in the parent process.
"""

import ast
import sys
from pathlib import Path

import tsakit

PACKAGE = Path(tsakit.__file__).parent


def absolute_imports(path: Path):
    """Top-level names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_absolute_imports_are_numpy_or_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    allowed = {"numpy", *sys.stdlib_module_names}
    foreign = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in absolute_imports(path)
        if name not in allowed
    ]
    assert foreign == []


def test_worker_modules_import_no_logging():
    worker_modules = ("labeling.py", "tds.py", "grid_model.py")
    logging_users = [
        name for name in worker_modules
        if "logging" in absolute_imports(PACKAGE / name)
    ]
    assert logging_users == []
