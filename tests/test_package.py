"""The package namespace loads each public name and submodule on first
access, and is otherwise the plain namespace of the names it exports."""

import importlib
import json
import subprocess
import sys

import pytest
from test_cli import ROOT, _child_env

import wsncrypt

SUBMODULES = ["cipher", "cli", "keyspace", "rng", "sim", "topology", "wire"]


def test_every_public_name_is_its_home_modules_object():
    assert wsncrypt.__all__ == sorted(wsncrypt._HOME)
    for name, home in wsncrypt._HOME.items():
        module = importlib.import_module(f"wsncrypt.{home}")
        assert getattr(wsncrypt, name) is getattr(module, name), name


def test_star_import_binds_all_and_dir_lists_it():
    namespace = {}
    exec("from wsncrypt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == wsncrypt.__all__
    assert all(namespace[name] is getattr(wsncrypt, name) for name in namespace)
    assert set(wsncrypt.__all__ + SUBMODULES) <= set(dir(wsncrypt))


# the package's modules loaded by a fresh `import wsncrypt`, then whether
# each submodule, reached as an attribute, is the module of that name
_ATTRIBUTES = """
import json, sys
import wsncrypt
loaded = sorted(n for n in sys.modules if n.partition(".")[0] == "wsncrypt")
resolved = [getattr(wsncrypt, name) is sys.modules[f"wsncrypt.{name}"]
            for name in json.loads(sys.argv[1])]
print(json.dumps([loaded, resolved]))
"""


def test_submodules_resolve_as_attributes_before_any_import():
    done = subprocess.run(
        [sys.executable, "-c", _ATTRIBUTES, json.dumps(SUBMODULES)],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    loaded, resolved = json.loads(done.stdout)
    assert loaded == ["wsncrypt"]
    assert resolved == [True] * len(SUBMODULES)


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'wsncrypt' has no attribute 'no_such_name'$"):
        wsncrypt.no_such_name
    with pytest.raises(ImportError, match=r"cannot import name 'no_such_name'"):
        from wsncrypt import no_such_name  # noqa: F401


def test_every_traced_name_resolves():
    # the benchmark traces each per_layer target (a name less its metric
    # suffix), looked up as the submodule's attribute or else its Topology's;
    # a deleted or renamed one would fail only the benchmark's traced run
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        names = [metric["name"] for metric in json.load(handle)["per_layer"]]
    targets = sorted({name.rsplit(".", 1)[0] for name in names} - {"trace"})
    missing = []
    for target in targets:
        module_name, attr = target.split(".")
        module = getattr(wsncrypt, module_name)
        owner = module if hasattr(module, attr) else getattr(module, "Topology", None)
        if not callable(getattr(owner, attr, None)):
            missing.append(target)
    assert targets and missing == []
