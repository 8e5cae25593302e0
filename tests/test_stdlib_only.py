import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proofseek"


def _absolute_imports(path: Path) -> list[tuple[int, str]]:
    """The top-level name of each absolute import in a module, by line."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module.split(".")[0]))
    return names


def test_the_package_imports_only_itself_and_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
               for path in modules for line, name in _absolute_imports(path)
               if name != "proofseek" and name not in sys.stdlib_module_names]
    assert not foreign
