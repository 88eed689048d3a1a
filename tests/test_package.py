"""The package's public names, imported from their modules on first access."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import diarscore

MODULES = sorted(m.name for m in pkgutil.iter_modules(diarscore.__path__))


def top_level(module):
    """A module's own top-level statements."""
    return ast.parse(Path(import_module(f"diarscore.{module}").__file__).read_text("utf-8")).body


def defined_names(module):
    """The names a module's own top-level statements define, not import."""
    names = set()
    for node in top_level(module):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_public_name_is_its_defining_modules_object(monkeypatch):
    defined = {module: defined_names(module) for module in MODULES}
    assert len(diarscore.__all__) == len(set(diarscore.__all__)) == 50
    for name in diarscore.__all__:
        [module] = [m for m in MODULES if name in defined[m]]
        # drop a value an earlier access cached, so this one is looked up anew
        monkeypatch.delitem(vars(diarscore), name, raising=False)
        value = getattr(diarscore, name)
        assert value is getattr(import_module(f"diarscore.{module}"), name), name
        assert vars(diarscore)[name] is value, name


def test_each_all_lists_every_public_function_and_class_of_its_module():
    for module in MODULES:
        listed = getattr(import_module(f"diarscore.{module}"), "__all__", None)
        if listed is None:
            continue
        public = {
            node.name
            for node in top_level(module)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        assert public <= set(listed), (module, sorted(public - set(listed)))


def test_star_import_binds_exactly_all_and_dir_lists_it():
    namespace = {}
    exec("from diarscore import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(diarscore.__all__)
    assert all(namespace[name] is getattr(diarscore, name) for name in namespace)
    assert set(diarscore.__all__) <= set(dir(diarscore))
    assert "__version__" in dir(diarscore)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'diarscore' has no attribute 'x'$"):
        diarscore.x
    assert not hasattr(diarscore, "CharSeq")


FROM_IMPORT = """
import json, sys
from diarscore import cpcer, postproc
print(json.dumps([cpcer is sys.modules["diarscore.cpcer"],
                  postproc is sys.modules["diarscore.postproc"]]))
"""


SPEAKER_MAP_IMPORT = """
import json, sys
from diarscore import SpeakerMap
import diarscore
loaded = sorted(m for m in sys.modules if m.startswith("diarscore"))
import diarscore.der
print(json.dumps([loaded, diarscore.SpeakerMap is diarscore.der.SpeakerMap
                  is diarscore.assignment.SpeakerMap is SpeakerMap]))
"""


def fresh_interpreter(code):
    """What a new interpreter running ``code`` on this checkout prints, as JSON."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_from_import_of_an_unloaded_submodule_returns_it():
    # the import system falls back to the submodule when the package's
    # __getattr__ raises AttributeError, so a fresh interpreter is needed
    assert fresh_interpreter(FROM_IMPORT) == [True, True]


def test_speaker_map_loads_only_assignment_and_errors_and_is_one_object():
    # the map lives beside the solver that builds it, so importing it loads
    # neither the DER scorer nor the region tiling
    loaded, same = fresh_interpreter(SPEAKER_MAP_IMPORT)
    assert loaded == ["diarscore", "diarscore.assignment", "diarscore.errors"]
    assert same
