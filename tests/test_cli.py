"""Command-line behavior: output shapes, exit codes, error diagnostics."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pancakes import cli, formulas, search
from pancakes.checkpoint import read_checkpoint
from pancakes.cli import (
    EXIT_CONJECTURE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
    parse_n_range,
)
from pancakes.cycles import CensusReport
from pancakes.formulas import (
    CrosscheckReport,
    CrosscheckRow,
    FormulaStatus,
    IdentityReport,
    Verdict,
)
from pancakes.graphs import GraphKind
from pancakes.search import MEMORY_LIMIT_ENV


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseNRange:
    def test_single(self):
        assert parse_n_range("4") == (4,)

    def test_range(self):
        assert parse_n_range("1..8") == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_malformed(self):
        with pytest.raises(ValueError, match="x..2"):
            parse_n_range("x..2")

    def test_bounds(self):
        with pytest.raises(ValueError):
            parse_n_range("0")
        with pytest.raises(ValueError):
            parse_n_range("5..3")


class TestTable:
    def test_single_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--graph", "plain", "--n", "4")
        assert code == EXIT_OK and out == "4,1,3,6,11,3\n"
        code, out, _ = run(capsys, "table", "--graph", "burnt", "--n", "2")
        assert code == EXIT_OK and out == "2,1,2,2,2,1\n"
        code, out, _ = run(capsys, "table", "--graph", "plain", "--n", "1")
        assert code == EXIT_OK and out == "1,1\n"

    def test_range_pads_to_common_width(self, capsys):
        code, out, _ = run(capsys, "table", "--graph", "plain", "--n", "1..5")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "1,1,0,0,0,0,0"
        assert lines[3] == "4,1,3,6,11,3,0"
        assert lines[4] == "5,1,4,12,35,48,20"
        assert len({line.count(",") for line in lines}) == 1

    def test_layer_bound_sets_width(self, capsys):
        code, out, _ = run(capsys, "table", "--graph", "plain", "--n", "5", "--k", "3")
        assert code == EXIT_OK and out == "5,1,4,12,35\n"
        code, out, _ = run(capsys, "table", "--graph", "plain", "--n", "4", "--k", "6")
        assert code == EXIT_OK and out == "4,1,3,6,11,3,0,0\n"

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys, "table", "--graph", "burnt", "--n", "2..3", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["graph"] == "burnt"
        assert doc["rows"][0] == {"n": 2, "counts": [1, 2, 2, 2, 1], "complete": True}

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        code, out, _ = run(
            capsys, "table", "--graph", "plain", "--n", "4", "--output", str(target)
        )
        assert code == EXIT_OK and out == ""
        assert target.read_text() == "4,1,3,6,11,3\n"

    def test_output_file_unwritable(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "row.csv"
        code, _, err = run(
            capsys, "table", "--graph", "plain", "--n", "4", "--output", str(target)
        )
        assert code == EXIT_IO and "error" in err

    def test_checkpoint_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "p5.ckpt"
        code, out, _ = run(
            capsys, "table", "--graph", "plain", "--n", "5",
            "--k", "2", "--checkpoint", str(path),
        )
        assert code == EXIT_OK and out == "5,1,4,12\n"
        assert path.exists()
        code, out, _ = run(
            capsys, "table", "--graph", "plain", "--n", "5", "--checkpoint", str(path)
        )
        assert code == EXIT_OK and out == "5,1,4,12,35,48,20\n"

    def test_checkpoint_holding_more_layers_is_cut_to_k(self, tmp_path, capsys):
        path = tmp_path / "p6.ckpt"
        code, out, _ = run(
            capsys, "table", "--graph", "plain", "--n", "6", "--checkpoint", str(path)
        )
        assert code == EXIT_OK and out == "6,1,5,20,79,199,281,133,2\n"
        code, out, _ = run(
            capsys, "table", "--graph", "plain", "--n", "6",
            "--k", "3", "--checkpoint", str(path),
        )
        assert code == EXIT_OK and out == "6,1,5,20,79\n"
        code, out, _ = run(
            capsys, "table", "--graph", "plain", "--n", "6",
            "--k", "3", "--checkpoint", str(path), "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["rows"] == [
            {"n": 6, "counts": [1, 5, 20, 79], "complete": False}
        ]

    def test_checkpoint_wrong_graph(self, tmp_path, capsys):
        path = tmp_path / "p5.ckpt"
        run(capsys, "table", "--graph", "plain", "--n", "5",
            "--k", "2", "--checkpoint", str(path))
        code, _, err = run(
            capsys, "table", "--graph", "plain", "--n", "6", "--checkpoint", str(path)
        )
        assert code == EXIT_IO and "expected" in err

    def test_checkpoint_needs_single_n(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "table", "--graph", "plain", "--n", "4..5",
            "--checkpoint", str(tmp_path / "x.ckpt"),
        )
        assert code == EXIT_USAGE and "single n" in err

    def test_memory_limit_flag(self, capsys):
        code, _, err = run(
            capsys, "table", "--graph", "plain", "--n", "8", "--memory-limit", "1024"
        )
        assert code == EXIT_USAGE and "memory" in err.lower()

    def test_memory_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv(MEMORY_LIMIT_ENV, "1024")
        code, _, err = run(capsys, "table", "--graph", "plain", "--n", "8")
        assert code == EXIT_USAGE and "memory" in err.lower()

    def test_memory_limit_env_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv(MEMORY_LIMIT_ENV, "lots")
        code, _, err = run(capsys, "table", "--graph", "plain", "--n", "4")
        assert code == EXIT_USAGE and "lots" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(MEMORY_LIMIT_ENV, "1024")
        code, out, _ = run(
            capsys, "table", "--graph", "plain", "--n", "4",
            "--memory-limit", str(1 << 30),
        )
        assert code == EXIT_OK and out == "4,1,3,6,11,3\n"

    @pytest.mark.parametrize("graph, n, k", [("plain", 21, 3), ("burnt", 17, 2)])
    def test_ranks_beyond_int64_refused(self, capsys, graph, n, k):
        # int64 ranks would wrap around and print wrong counts
        code, out, err = run(capsys, "table", "--graph", graph, "--n", str(n), "--k", str(k))
        assert code == EXIT_USAGE and out == "" and "int64" in err

    def test_negative_k_refused(self, capsys, tmp_path):
        # refused both for a fresh table and when an existing checkpoint is
        # resumed, and by the formula commands, with one message
        path = tmp_path / "p4.ckpt"
        table = ("table", "--graph", "plain", "--n", "4", "--k")
        message = "error: --k must be a nonnegative layer index\n"
        code, out, err = run(capsys, *table, "-1")
        assert (code, out, err) == (EXIT_USAGE, "", message)
        assert run(capsys, *table, "1", "--checkpoint", str(path))[0] == EXIT_OK
        code, out, err = run(capsys, *table, "-1", "--checkpoint", str(path))
        assert (code, out, err) == (EXIT_USAGE, "", message)
        for formula in (
            ("formulas", "fit", "--graph", "burnt", "--n", "1..4", "--k", "-1"),
            ("formulas", "check", "--which", "cor62", "--n", "10", "--k", "-1"),
        ):
            assert run(capsys, *formula) == (EXIT_USAGE, "", message)

    def test_workers_must_be_positive(self, capsys):
        code, _, err = run(
            capsys, "table", "--graph", "plain", "--n", "4", "--workers", "0"
        )
        assert code == EXIT_USAGE and "workers" in err


class TestDistanceAndSort:
    def test_distance_plain(self, capsys):
        code, out, _ = run(capsys, "distance", "--graph", "plain", "2", "1", "3", "4")
        assert code == EXIT_OK and out == "1\n"

    def test_distance_burnt_bracket_syntax(self, capsys):
        code, out, _ = run(capsys, "distance", "--graph", "burnt", "[-1 2]")
        assert code == EXIT_OK and out == "1\n"
        code, out, _ = run(capsys, "distance", "--graph", "burnt", "[-1 -2]")
        assert code == EXIT_OK and out == "4\n"

    def test_distance_identity(self, capsys):
        code, out, _ = run(capsys, "distance", "--graph", "plain", "1", "2", "3")
        assert code == EXIT_OK and out == "0\n"

    def test_sort_burnt(self, capsys):
        code, out, _ = run(capsys, "sort", "--graph", "burnt", "[2 1]")
        assert code == EXIT_OK
        assert out == (
            "[2 1]\n"
            "  flip 1 -> [-2 1]\n"
            "  flip 2 -> [-1 2]\n"
            "  flip 1 -> [1 2]\n"
            "flips: 1 2 1\n"
            "distance: 3\n"
        )

    def test_sort_identity(self, capsys):
        code, out, _ = run(capsys, "sort", "--graph", "burnt", "[1 2 3]")
        assert code == EXIT_OK
        assert "flips: (none)" in out and "distance: 0" in out

    def test_sort_plain(self, capsys):
        code, out, _ = run(capsys, "sort", "--graph", "plain", "3", "2", "1", "4")
        assert code == EXIT_OK
        assert out == "3 2 1 4\n  flip 3 -> 1 2 3 4\nflips: 3\ndistance: 1\n"

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(capsys, "distance", "--graph", "plain", "2", "1", "x")
        assert code == EXIT_USAGE and "'x'" in err

    def test_missing_bracket(self, capsys):
        code, _, err = run(capsys, "distance", "--graph", "burnt", "[2 1")
        assert code == EXIT_USAGE and "bracket" in err

    def test_duplicate_entry(self, capsys):
        code, _, err = run(capsys, "distance", "--graph", "plain", "2", "2")
        assert code == EXIT_USAGE and "duplicate" in err

    def test_out_of_range_entry(self, capsys):
        code, _, err = run(capsys, "distance", "--graph", "plain", "1", "5")
        assert code == EXIT_USAGE and "'5'" in err

    def test_unsigned_entries_rejected_for_burnt(self, capsys):
        code, _, err = run(capsys, "distance", "--graph", "burnt", "2", "1")
        assert code == EXIT_USAGE

    def test_bare_negative_needs_quoting(self, capsys):
        # a bare -1 is taken for a flag; the documented syntax is "[-1 2]"
        code, _, _ = run(capsys, "distance", "--graph", "burnt", "-1", "2")
        assert code == EXIT_USAGE


class TestCycles:
    def test_burnt_census_text(self, capsys):
        code, out, _ = run(
            capsys, "cycles", "--graph", "burnt", "--n", "3", "--length", "8"
        )
        assert code == EXIT_OK
        assert "total cycles through the identity: 6" in out
        assert "family 23: 2" in out
        assert "family 25: 2" in out
        assert "family 26: 2" in out
        assert "unmatched forms: none" in out

    def test_empty_census(self, capsys):
        code, out, _ = run(
            capsys, "cycles", "--graph", "burnt", "--n", "2", "--length", "9"
        )
        assert code == EXIT_OK and "total cycles through the identity: 0" in out

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys, "cycles", "--graph", "burnt", "--n", "4", "--length", "9",
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["ok"] is True and doc["total"] == 48
        by_id = {f["id"]: f["count"] for f in doc["families"]}
        assert by_id == {27: 36, 28: 12}
        assert {"i": 1, "j": 1, "k": 3} in next(
            f["instances"] for f in doc["families"] if f["id"] == 27
        )

    def test_below_girth_is_empty_not_an_error(self, capsys):
        code, out, _ = run(
            capsys, "cycles", "--graph", "plain", "--n", "4", "--length", "5"
        )
        assert code == EXIT_OK and "total cycles through the identity: 0" in out

    def test_unsupported_length(self, capsys):
        code, _, err = run(
            capsys, "cycles", "--graph", "plain", "--n", "4", "--length", "13"
        )
        assert code == EXIT_USAGE and "length" in err

    def test_unclassified_length_with_cycles(self, capsys):
        code, _, err = run(
            capsys, "cycles", "--graph", "plain", "--n", "4", "--length", "10"
        )
        assert code == EXIT_USAGE and "no classification" in err

    def test_node_budget(self, capsys):
        code, _, err = run(
            capsys, "cycles", "--graph", "plain", "--n", "9", "--length", "9",
            "--node-budget", "1000",
        )
        assert code == EXIT_USAGE and "budget" in err

    def test_census_memory_limit_env(self, capsys, monkeypatch):
        # without --memory-limit a census takes the limit from the environment
        monkeypatch.setenv(MEMORY_LIMIT_ENV, "100000")
        code, out, err = run(
            capsys, "cycles", "--graph", "plain", "--n", "9", "--length", "9"
        )
        assert code == EXIT_USAGE and out == "" and "memory limit" in err

    def test_census_memory_limit_flag(self, capsys, monkeypatch):
        # --memory-limit bounds a census, and overrides the environment
        monkeypatch.delenv(MEMORY_LIMIT_ENV, raising=False)
        census = ("cycles", "--graph", "burnt", "--n", "8", "--length", "9")
        code, out, err = run(capsys, *census, "--memory-limit", "100000")
        assert code == EXIT_USAGE and out == "" and "memory limit is 100,000 bytes" in err
        monkeypatch.setenv(MEMORY_LIMIT_ENV, "100000")
        code, out, _ = run(capsys, *census, "--memory-limit", str(4 << 30))
        assert code == EXIT_OK and "total cycles through the identity: 672" in out

    def test_unmatched_exits_three(self, capsys, monkeypatch):
        doctored = CensusReport(
            kind=GraphKind.PLAIN, n=5, length=8, total=1,
            per_family={}, unmatched=((6, 2, 6, 2, 6, 2, 6, 2),),
        )
        monkeypatch.setattr(cli, "verify_classification", lambda *a, **kw: doctored)
        code, out, _ = run(
            capsys, "cycles", "--graph", "plain", "--n", "5", "--length", "8"
        )
        assert code == EXIT_VIOLATION and "unmatched forms: 1" in out


class TestFormulasCheck:
    def test_proved_verified(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "r4-burnt", "--n", "1..5"
        )
        assert code == EXIT_OK
        assert "result: verified" in out
        assert "n=4: formula 90 == profile 90" in out

    def test_conjectured_consistent(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "r5-burnt", "--n", "1..5"
        )
        assert code == EXIT_OK and "result: consistent with data" in out

    def test_exception_flagged(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "r7-plain", "--n", "6"
        )
        assert code == EXIT_OK and "[exception]" in out

    def test_skipped_reported(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "r4-plain", "--n", "2..4"
        )
        assert code == EXIT_OK and "skipped: n=2, 3" in out

    def test_unknown_formula(self, capsys):
        code, _, err = run(
            capsys, "formulas", "check", "--which", "r99-plain", "--n", "4"
        )
        assert code == EXIT_USAGE and "unknown formula" in err

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "r4-burnt", "--n", "1..4",
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["status"] == "proved" and doc["ok"] is True

    def test_cor62_holds(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "cor62", "--k", "4", "--n", "10"
        )
        assert code == EXIT_OK and "holds (lhs=3963, rhs=3963)" in out

    def test_cor62_insufficient(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "cor62", "--k", "4", "--n", "8"
        )
        assert code == EXIT_OK and "insufficient-data" in out

    def test_cor62_k_above_limit(self, capsys):
        code, _, err = run(
            capsys, "formulas", "check", "--which", "cor62", "--k", "7", "--n", "12"
        )
        assert code == EXIT_USAGE and "k <= 6" in err

    def test_identity_requires_k(self, capsys):
        code, _, err = run(
            capsys, "formulas", "check", "--which", "con63", "--n", "5"
        )
        assert code == EXIT_USAGE and "--k" in err

    def test_identity_rejects_range(self, capsys):
        code, _, err = run(
            capsys, "formulas", "check", "--which", "cor62", "--k", "4", "--n", "9..10"
        )
        assert code == EXIT_USAGE and "range" in err

    def test_con63_holds(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "con63", "--k", "2", "--n", "5"
        )
        assert code == EXIT_OK and "holds" in out

    def test_identity_json(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "cor62", "--k", "4", "--n", "10",
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["verdict"] == "holds" and doc["lhs"] == doc["rhs"] == 3963

    def test_proved_mismatch_exits_three(self, capsys, monkeypatch):
        failing = CrosscheckReport(
            name="r4-plain", status=FormulaStatus.PROVED,
            rows=(CrosscheckRow(n=4, formula_value=3, profile_value=4,
                                used_exception=False),),
            skipped=(),
        )
        monkeypatch.setattr(formulas, "crosscheck", lambda name, profiles: failing)
        code, out, _ = run(
            capsys, "formulas", "check", "--which", "r4-plain", "--n", "4"
        )
        assert code == EXIT_VIOLATION and "mismatch" in out

    def test_conjecture_mismatch_exits_four(self, capsys, monkeypatch):
        failing = CrosscheckReport(
            name="r5-burnt", status=FormulaStatus.CONJECTURED,
            rows=(CrosscheckRow(n=4, formula_value=124, profile_value=125,
                                used_exception=False),),
            skipped=(),
        )
        monkeypatch.setattr(formulas, "crosscheck", lambda name, profiles: failing)
        code, _, _ = run(
            capsys, "formulas", "check", "--which", "r5-burnt", "--n", "4"
        )
        assert code == EXIT_CONJECTURE

    def test_failing_identities_split_exit_codes(self, capsys, monkeypatch):
        def fake(identity):
            return IdentityReport(identity, 4, 10, Verdict.FAILS, 1, 2)

        monkeypatch.setattr(
            formulas, "check_recurrence_cor62", lambda k, n: fake("cor62")
        )
        code, _, _ = run(
            capsys, "formulas", "check", "--which", "cor62", "--k", "4", "--n", "10"
        )
        assert code == EXIT_VIOLATION
        monkeypatch.setattr(
            formulas, "check_gregory_newton_con63", lambda k, n: fake("con63")
        )
        code, _, _ = run(
            capsys, "formulas", "check", "--which", "con63", "--k", "4", "--n", "10"
        )
        assert code == EXIT_CONJECTURE


class TestFormulasFit:
    def test_burnt_five_flip_fit(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "fit", "--graph", "burnt", "--k", "5",
            "--n", "1..7", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["degree"] == 5
        assert doc["coefficients"] == [0, 0, 6, 106, 220, 120]

    def test_fit_text_output(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "fit", "--graph", "plain", "--k", "2", "--n", "3..7"
        )
        assert code == EXIT_OK
        assert "degree 2" in out and "coefficients: 2 4 2" in out

    def test_non_polynomial_window_exits_four(self, capsys):
        code, _, err = run(
            capsys, "formulas", "fit", "--graph", "plain", "--k", "7", "--n", "4..9"
        )
        assert code == EXIT_CONJECTURE and "stabilize" in err

    def test_single_point_rejected(self, capsys):
        code, _, err = run(
            capsys, "formulas", "fit", "--graph", "burnt", "--k", "2", "--n", "3"
        )
        assert code == EXIT_USAGE and "two" in err


@pytest.mark.parametrize(
    "argv, k",
    [
        (("check", "--which", "r4-burnt", "--n", "3..5"), 4),
        (("fit", "--graph", "plain", "--k", "2", "--n", "3..7"), 2),
    ],
)
def test_formulas_search_only_to_layer_k(capsys, monkeypatch, argv, k):
    seen = []
    layer_profile = cli.layer_profile

    def recording_profile(graph, **kwargs):
        seen.append(kwargs.get("max_layer"))
        return layer_profile(graph, **kwargs)

    monkeypatch.setattr(cli, "layer_profile", recording_profile)
    code, _, _ = run(capsys, "formulas", *argv)
    assert code == EXIT_OK
    assert seen and all(layer == k for layer in seen)


EVERY_SUBCOMMAND = {
    "table-csv": ("table", "--graph", "plain", "--n", "4"),
    "table-json": ("table", "--graph", "burnt", "--n", "2..3", "--format", "json"),
    "distance": ("distance", "--graph", "burnt", "[-1 -2]"),
    "sort": ("sort", "--graph", "plain", "3", "1", "4", "2"),
    "cycles-text": ("cycles", "--graph", "burnt", "--n", "3", "--length", "8"),
    "cycles-json": ("cycles", "--graph", "burnt", "--n", "3", "--length", "8",
                    "--format", "json"),
    "check-text": ("formulas", "check", "--which", "r4-burnt", "--n", "1..4"),
    "check-json": ("formulas", "check", "--which", "r4-burnt", "--n", "1..4",
                   "--format", "json"),
    "fit-text": ("formulas", "fit", "--graph", "plain", "--k", "2", "--n", "3..7"),
    "fit-json": ("formulas", "fit", "--graph", "plain", "--k", "2", "--n", "3..7",
                 "--format", "json"),
}


@pytest.mark.parametrize(
    "argv", EVERY_SUBCOMMAND.values(), ids=EVERY_SUBCOMMAND.keys()
)
class TestSharedOptions:
    def test_output_file_holds_stdout(self, capsys, tmp_path, argv):
        code, expected, _ = run(capsys, *argv)
        assert code == EXIT_OK and expected
        target = tmp_path / "out"
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert code == EXIT_OK and out == ""
        assert target.read_text() == expected

    def test_zero_workers_rejected_before_output_opens(self, capsys, tmp_path, argv):
        target = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--workers", "0", "--output", str(target))
        assert code == EXIT_USAGE and "--workers must be >= 1" in err
        assert not target.exists()


def run_module(tmp_path, *argv, text=True):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pancakes", *argv],
        capture_output=True, text=text, env=env, cwd=tmp_path,
    )


@pytest.mark.parametrize(
    "argv", EVERY_SUBCOMMAND.values(), ids=EVERY_SUBCOMMAND.keys()
)
class TestSharedOptionsInAProcess:
    """What a CLI process writes is what ``main`` writes in this one: none of it
    waits for the interpreter's exit, where the CLI freezes its objects."""

    def test_stdout_and_output_file_match_main(self, capsys, tmp_path, argv):
        code, expected, _ = run(capsys, *argv)
        proc = run_module(tmp_path, *argv, text=False)
        assert (proc.returncode, proc.stdout) == (code, expected.encode())
        target = tmp_path / "out"
        proc = run_module(tmp_path, *argv, "--output", str(target), text=False)
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert target.read_bytes() == expected.encode()


class TestModuleEntryPoint:
    """``python -m pancakes`` passes main's exit code to the shell."""

    def test_success(self, tmp_path):
        proc = run_module(tmp_path, "table", "--graph", "plain", "--n", "4")
        assert proc.returncode == EXIT_OK and proc.stdout == "4,1,3,6,11,3\n"

    def test_usage_error(self, tmp_path):
        proc = run_module(tmp_path, "table", "--graph", "spicy", "--n", "4")
        assert proc.returncode == EXIT_USAGE and "spicy" in proc.stderr


class TestSigterm:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="forks its layers")
    def test_a_forked_layer_leaves_no_child_and_the_checkpoint_reads_back(
        self, capsys, monkeypatch, tmp_path
    ):
        # P_7 at chunks of 37 forks its layers 4 to 7 over three workers; a
        # SIGTERM in the parent's own span of the first ends the layer as
        # Ctrl-C does, then reaches the handler that was set before main
        monkeypatch.setattr(search, "_CHUNK", 37)
        parent, forked = os.getpid(), []
        expand_forked, expand_span = search._expand_forked, search._expand_span

        def forking(*args):
            forked.append(True)
            return expand_forked(*args)

        def expanding(*args, **kwargs):
            if forked and os.getpid() == parent:
                os.kill(parent, signal.SIGTERM)
            if forked:
                time.sleep(60)  # until the signal, or the parent's SIGKILL
            return expand_span(*args, **kwargs)

        monkeypatch.setattr(search, "_expand_forked", forking)
        monkeypatch.setattr(search, "_expand_span", expanding)
        received = []
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: received.append(signum))
        path = tmp_path / "p7.ckpt"
        started = time.monotonic()
        try:
            code, out, _ = run(
                capsys, "table", "--graph", "plain", "--n", "7", "--workers", "3",
                "--checkpoint", str(path),
            )
            assert signal.getsignal(signal.SIGTERM) is not cli._terminate
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert time.monotonic() - started < 30
        assert received == [signal.SIGTERM]
        assert code == 128 + signal.SIGTERM and out == ""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert read_checkpoint(path).counts == (1, 6, 30, 149)

    def test_an_ignored_sigterm_stays_ignored(self, capsys):
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            code, out, _ = run(capsys, "table", "--graph", "plain", "--n", "4")
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert code == EXIT_OK and out == "4,1,3,6,11,3\n"


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_choice(self, capsys):
        assert main(["table", "--graph", "spicy", "--n", "4"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "bracket syntax" in out

    def test_malformed_range(self, capsys):
        code, _, err = run(capsys, "table", "--graph", "plain", "--n", "4..x")
        assert code == EXIT_USAGE and "4..x" in err
