import importlib
import inspect
import pkgutil

import tetrainner

# Every defaulted parameter of a public function or method, as module.name(parameter).
# Tolerances and sample counts are module constants; a new knob is added here on purpose.
DEFAULTED = {
    "boundary.classify_gamma(tol)",
    "boundary.classify_tetra(tol)",
    "cli.main(argv)",
    "polycx.circle_split(circle_tol)",
    "polycx.from_roots(leading)",
    "polycx.is_n_symmetric(tol)",
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
