"""What each entry point imports: ``import pancakes`` loads nothing, and a
CLI process loads only the modules its command runs.

Every check runs in a fresh interpreter, since this process has long since
imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

# the modules the public names come from
PROVIDERS = ("perms", "graphs", "search", "checkpoint", "cycles", "formulas")


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = """
    import json, sys
    print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("pancakes"))))
"""


def test_import_loads_no_submodule_and_no_numpy():
    loaded = run_python("import pancakes\n" + textwrap.dedent(LOADED))
    assert loaded == ["pancakes"]


def test_every_public_name_resolves_to_its_module():
    result = run_python(
        f"""
        import importlib, json
        import pancakes

        providers = [importlib.import_module(f"pancakes.{{m}}") for m in {PROVIDERS!r}]
        found, wrong = set(), []
        for name in pancakes.__all__:
            if name in ("reports", "tables"):
                if getattr(pancakes, name) is not importlib.import_module(f"pancakes.{{name}}"):
                    wrong.append(name)
                found.add(name)
                continue
            for module in providers:
                if name in module.__all__:
                    found.add(name)
                    if getattr(pancakes, name) is not getattr(module, name):
                        wrong.append(name)
        print(json.dumps({{"missing": sorted(set(pancakes.__all__) - found), "wrong": wrong}}))
        """
    )
    assert result == {"missing": [], "wrong": []}


def test_star_import_binds_every_public_name():
    result = run_python(
        """
        import json
        import pancakes
        namespace = {}
        exec("from pancakes import *", namespace)
        print(json.dumps({
            "unbound": [n for n in pancakes.__all__ if n not in namespace],
            "count": len(pancakes.__all__),
        }))
        """
    )
    assert result["unbound"] == [] and result["count"] > 60


def test_unknown_name_raises_attribute_error():
    result = run_python(
        """
        import json
        import pancakes
        try:
            pancakes.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
        """
    )
    assert result == "module 'pancakes' has no attribute 'no_such_name'"


def test_cli_loads_the_traced_modules_but_not_formulas():
    loaded = run_python("import pancakes.cli\n" + textwrap.dedent(LOADED))
    for module in ("search", "_kernels", "checkpoint", "cycles", "perms"):
        assert f"pancakes.{module}" in loaded
    assert "pancakes.formulas" not in loaded


def test_formulas_loads_no_engine():
    # LayerProfile is only an annotation of crosscheck's
    loaded = run_python("import pancakes.formulas\n" + textwrap.dedent(LOADED))
    assert "pancakes.search" not in loaded and "numpy" not in loaded


def test_table_command_does_not_load_formulas():
    result = run_python(
        """
        import contextlib, io, json, sys
        from pancakes import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["table", "--graph", "burnt", "--n", "4", "--k", "3"])
        print(json.dumps({
            "code": code,
            "out": out.getvalue(),
            "formulas": "pancakes.formulas" in sys.modules,
        }))
        """
    )
    assert result == {"code": 0, "out": "4,1,4,12,36\n", "formulas": False}
