"""What each command compiles: run in a fresh interpreter, `invofactor
verify` loads no construction code, `factor` no group or companion code,
`enumerate` no construction code while `survey` loads it, and a bare
`import invofactor` neither.  The package's lazy names behave
as eager ones: `from invofactor import *` binds all of __all__, dir lists
them, and the package attribute `factor` stays the function after every
submodule is imported."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from invofactor import factor, field_make, group_sample, orthogonal_plus_form
from invofactor.cli import _instance_doc

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# runs `python -m invofactor` with the given arguments, then writes the exit
# code and the invofactor modules it loaded to the file named first
COMMAND = """
import json, runpy, sys
out = sys.argv[1]
sys.argv = ["invofactor", *sys.argv[2:]]
try:
    runpy.run_module("invofactor", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as e:
    code = e.code
with open(out, "w") as fh:
    json.dump({"exit": code, "modules": sorted(m for m in sys.modules if m.startswith("invofactor"))}, fh)
"""

BARE = """
import json, sys
import invofactor
with open(sys.argv[1], "w") as fh:
    json.dump({"modules": sorted(m for m in sys.modules if m.startswith("invofactor"))}, fh)
"""

CLASH = """
import importlib, json, pkgutil, sys
import invofactor
ns = {}
exec("from invofactor import *", ns)
for info in pkgutil.iter_modules(invofactor.__path__):
    importlib.import_module("invofactor." + info.name)
out = {
    "is_function": invofactor.factor is sys.modules["invofactor.factor"].factor,
    "unbound": [n for n in invofactor.__all__ if n not in ns],
    "not_in_dir": [n for n in invofactor.__all__ if n not in dir(invofactor)],
    "loaded": sorted(m for m in sys.modules if m.startswith("invofactor.")),
}
with open(sys.argv[1], "w") as fh:
    json.dump(out, fh)
"""


def _child(code, tmp_path, *args):
    out = tmp_path / "child.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code, str(out), *map(str, args)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    # an instance and its certificate, with paired blocks
    work = tmp_path_factory.mktemp("imports")
    form = orthogonal_plus_form(field_make(5), 4)
    g = group_sample(form, seed="imports")[0]
    inst, cert = work / "instance.json", work / "cert.json"
    inst.write_text(json.dumps(_instance_doc(form, g)))
    cert.write_text(json.dumps(factor(form, g).serialize()))
    return inst, cert


def _loaded(result):
    return {m.removeprefix("invofactor.") for m in result["modules"]}


def test_verify_loads_no_construction_code(files, tmp_path):
    inst, cert = files
    result = _child(COMMAND, tmp_path, "verify", inst, cert)
    assert result["exit"] == 0
    loaded = _loaded(result)
    assert {"verify", "cli"} <= loaded
    assert not loaded & {"construct", "decomp", "groups", "companions"}, loaded


def test_factor_loads_no_group_or_companion_code(files, tmp_path):
    inst, _ = files
    result = _child(COMMAND, tmp_path, "factor", inst, "--out", tmp_path / "cert.json")
    assert result["exit"] == 0
    loaded = _loaded(result)
    assert {"construct", "decomp"} <= loaded
    assert not loaded & {"groups", "companions"}, loaded


def test_enumerate_loads_no_construction_code(tmp_path):
    result = _child(COMMAND, tmp_path, "enumerate", "--kind", "sp", "--n", "2", "--q", "3",
                    "--json-out", tmp_path / "group.json")
    assert result["exit"] == 0
    loaded = _loaded(result)
    assert {"groups", "cli"} <= loaded
    assert not loaded & {"construct", "decomp"}, loaded


def test_survey_loads_the_construction(tmp_path):
    result = _child(COMMAND, tmp_path, "survey", "--kind", "sp", "--n", "2", "--q", "3",
                    "--exhaustive")
    assert result["exit"] == 0
    assert {"groups", "construct", "decomp"} <= _loaded(result)


def test_a_bare_import_loads_no_construction_group_or_companion_code(tmp_path):
    loaded = _loaded(_child(BARE, tmp_path))
    assert {"factor", "verify", "forms"} <= loaded
    assert not loaded & {"construct", "groups", "companions"}, loaded


def test_an_unknown_name_on_the_package_is_an_attribute_error():
    # in process, as hasattr and getattr with a default rely on it
    import invofactor

    with pytest.raises(AttributeError, match="module 'invofactor' has no attribute 'no_such_name'"):
        invofactor.no_such_name
    assert getattr(invofactor, "no_such_name", None) is None


def test_lazy_names_bind_like_eager_ones(tmp_path):
    result = _child(CLASH, tmp_path)
    assert {"invofactor.construct", "invofactor.groups", "invofactor.companions"} <= set(
        result["loaded"]
    )
    assert result["is_function"]
    assert result["unbound"] == [] and result["not_in_dir"] == []
