"""What each entry point imports: ``import pancakes`` loads nothing, and a
CLI process loads only the modules its command runs, with one BLAS thread,
and freezes its objects at exit.

Every check runs in a fresh interpreter, since this process has long since
imported everything, and with ``OPENBLAS_NUM_THREADS`` unset unless a check
sets it: a test process that has imported the CLI has it set.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"

# the modules the public names come from
PROVIDERS = ("perms", "graphs", "search", "checkpoint", "cycles", "formulas")


BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def run_python(code: str, blas_threads: str | None = None) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(BLAS_THREADS, None)
    if blas_threads is not None:
        env[BLAS_THREADS] = blas_threads
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
            "reports": "pancakes.reports" in sys.modules,
        }))
        """
    )
    assert result == {"code": 0, "out": "4,1,4,12,36\n", "formulas": False, "reports": False}


# registered before the module under test is imported, so it runs after every
# exit callback that module registers: atexit runs them last-in-first-out
FREEZE_AT_EXIT = """
    import atexit, gc, json
    atexit.register(lambda: print(json.dumps(gc.get_freeze_count())))
"""


def test_cli_freezes_its_objects_at_exit():
    # the shutdown collections then skip the heap the OS is about to reclaim
    frozen = run_python(textwrap.dedent(FREEZE_AT_EXIT) + "import pancakes.cli\n")
    assert frozen > 0


def test_library_leaves_the_collector_alone_at_exit():
    frozen = run_python(
        textwrap.dedent(FREEZE_AT_EXIT)
        + "import pancakes, pancakes.search, pancakes.cycles, pancakes.formulas\n"
    )
    assert frozen == 0


def test_cli_leaves_the_collector_alone_while_a_command_runs():
    result = run_python(
        """
        import contextlib, gc, io, json
        from pancakes import cli

        seen = []
        layer_profile = cli.layer_profile

        def probe(*args, **kwargs):
            seen.append([gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()])
            return layer_profile(*args, **kwargs)

        cli.layer_profile = probe
        before = [gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["table", "--graph", "plain", "--n", "5..6"])
        print(json.dumps({"code": code, "before": before, "seen": seen}))
        """
    )
    assert result["code"] == 0 and len(result["seen"]) == 2
    frozen, enabled, _ = result["before"]
    assert frozen == 0 and enabled
    assert result["seen"] == [result["before"]] * 2


THREADS = """
    import json, os
    tasks = "/proc/self/task"
    print(json.dumps({
        "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
        "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    }))
"""


def test_cli_runs_numpy_with_one_thread():
    # the CLI calls no BLAS, and OpenBLAS starts a busy-waiting thread per core
    result = run_python("import pancakes.cli\n" + textwrap.dedent(THREADS))
    assert result["blas"] == "1"
    if result["threads"] is None:
        pytest.skip("counts threads in Linux's /proc")
    assert result["threads"] == 1


def test_cli_keeps_the_callers_blas_threads():
    result = run_python("import pancakes.cli\n" + textwrap.dedent(THREADS), blas_threads="2")
    assert result["blas"] == "2"


def test_library_leaves_blas_threads_alone():
    result = run_python("import pancakes, pancakes.search\n" + textwrap.dedent(THREADS))
    assert result["blas"] is None


def test_no_blas_backed_numpy_call():
    # one BLAS thread is only free while pancakes calls no BLAS
    blas = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "linalg"}
    found = []
    for path in sorted((SRC / "pancakes").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.ImportFrom):
                name = (node.module or "").rsplit(".", 1)[-1]
            elif isinstance(node, ast.MatMult):
                name = "@"
            else:
                continue
            if name in blas or name == "@":
                found.append(f"{path.name}: {name}")
    assert found == []
