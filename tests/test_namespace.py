import os
import subprocess
import sys
from pathlib import Path

import pytest

import tetrainner

# the public names of the package, as its eager __init__ bound them
PUBLIC = [
    "BlaschkeSpec", "ConstructionSpec", "GammaPoint", "GammaRegion", "Matrix2",
    "PerturbationMethod", "PerturbationResult", "Polynomial", "RecoveredData", "RootMultiset",
    "RoyalNode", "SuperficialSpec", "TetraPoint", "TetraRational", "TetraRegion",
    "TrigPolynomial", "TypeNK", "boundary", "build_e1", "build_royal_target",
    "certify_extreme_symmetric", "circle_trace", "classify_gamma", "classify_tetra",
    "coeff_distance", "construct", "convex_combine", "degree", "errors", "eval_function",
    "extremal", "factor", "fejriesz", "from_gamma_inner", "gamma_royal", "gamma_to_tetra",
    "is_n_symmetric", "is_outer", "is_superficial", "laurent_shift",
    "modulus_squared_on_circle", "mu_diag_le_one", "mu_diag_value", "perturb_nonextreme",
    "pi_map", "polycx", "psi", "psi_omega_check", "recover_data", "roots", "royal_nodes",
    "royal_polynomial", "scale_nonextreme", "superficial_build", "tetra_to_gamma_diff",
    "tetra_to_gamma_sum", "tetrafun", "type_nk", "validate", "winding_number",
]
SUBMODULES = {"boundary", "errors", "extremal", "fejriesz", "polycx", "tetrafun"}


def fresh(code: str) -> list[str]:
    """The lines code prints in a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(tetrainner.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_star_import_and_dir_give_the_public_names():
    namespace = {}
    exec("from tetrainner import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert dir(tetrainner) == PUBLIC == sorted(tetrainner.__all__)


def test_lazy_names_resolve_to_their_submodule_objects():
    # called directly, since this process has bound every submodule already
    for name in sorted(set(PUBLIC) - {"errors", "polycx"}):
        value = tetrainner.__getattr__(name)
        if name in SUBMODULES:
            assert value is sys.modules[f"tetrainner.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value
            assert getattr(tetrainner, name) is value


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        tetrainner.cli_main
    assert not hasattr(tetrainner, "Construct")


def test_submodule_never_replaces_the_function_it_exports(monkeypatch):
    module = sys.modules["tetrainner.construct"]
    setattr(tetrainner, "construct", module)
    assert tetrainner.construct is module.construct
    monkeypatch.setattr(tetrainner, "construct", len)
    assert tetrainner.construct is len


@pytest.mark.parametrize("first", [
    "import tetrainner.construct",
    "import importlib; importlib.import_module('tetrainner.construct')",
    "from tetrainner import ConstructionSpec",
    "from tetrainner import recover_data",
    "from tetrainner.construct import ConstructionSpec",
    "import tetrainner; tetrainner.construct",
])
def test_construct_is_the_function_in_every_import_order(first):
    probe = (f"{first}\n"
             "import sys, types\n"
             "import tetrainner.construct\n"
             "from tetrainner import construct\n"
             "module = sys.modules['tetrainner.construct']\n"
             "print(isinstance(module, types.ModuleType), construct is module.construct,\n"
             "      tetrainner.construct is module.construct)\n")
    assert fresh(probe)[-1] == "True True True"


def test_import_loads_only_the_base_layer():
    probe = ("import sys, tetrainner\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'tetrainner'))\n"
             "print('numpy' in sys.modules)\n")
    assert fresh(probe) == ["['tetrainner', 'tetrainner.errors', 'tetrainner.polycx']", "True"]


def test_import_as_binds_the_function_and_the_module_is_reached_by_its_full_name():
    # `import a.b as m` reads the attribute a.b, which is the exported function
    probe = ("import importlib, types\n"
             "import tetrainner.construct as m\n"
             "module = importlib.import_module('tetrainner.construct')\n"
             "from tetrainner.construct import ConstructionSpec\n"
             "print(isinstance(m, types.ModuleType), m is module.construct,\n"
             "      isinstance(module, types.ModuleType),\n"
             "      ConstructionSpec is module.ConstructionSpec)\n")
    assert fresh(probe) == ["False True True True"]
