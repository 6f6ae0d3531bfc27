import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import tetrainner

# Every defaulted parameter of a public function or method, as module.name(parameter).
# Tolerances and sample counts are module constants; a new knob is added here on purpose.
DEFAULTED = {
    "boundary.classify_gamma(tol)",
    "boundary.classify_tetra(tol)",
    "cli.main(argv)",
    "polycx.circle_split(circle_tol)",
    "tetrafun.circle_trace(samples)",
    "tetrafun.from_json_dict(strict)",
    "tetrafun.validate(strict)",
    "tetrafun.validation_report(strict)",
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_library_defaulted_parameters_are_pinned():
    found = set()
    for info in pkgutil.iter_modules(tetrainner.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"tetrainner.{info.name}")
        for name, fn in _public_functions(module):
            found |= {f"{info.name}.{name}({p.name})"
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not p.empty}
    assert found == DEFAULTED


def test_readme_tolerance_table_matches_the_constants():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| name | value | decides |\n")[1].split("\n* ")[0]
    rows = [re.split(r"(?<!\\)\|", line.strip())[1:-1] for line in table.splitlines()[1:]]
    documented = {f"{module}.{name}": value.split()[0].rstrip(",")
                  for names, value, _ in rows
                  for module, name in re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", names)}
    defined = {}
    for info in pkgutil.iter_modules(tetrainner.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"tetrainner.{info.name}")
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.Assign):
                defined |= {f"{info.name}.{t.id}": getattr(module, t.id) for t in node.targets
                            if re.fullmatch(r"[A-Z_]+_(TOL|SAMPLES|GUARD|SLACK)", t.id)}
    for key in documented:
        module, name = key.split(".")
        assert hasattr(importlib.import_module(f"tetrainner.{module}"), name), key
    assert defined.keys() - documented.keys() == set()
    for key, value in defined.items():
        assert float(documented[key]) == value, key


def test_numpy_is_the_only_runtime_dependency():
    # README and pyproject.toml promise this; where the test-only mpmath (or
    # scipy) is installed, an import of it in the package passes every other test
    package = Path(tetrainner.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", f"{path.name}: {name}"
