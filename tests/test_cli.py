"""Command-line surface: subcommands, formats, exit codes; the import surface."""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import oldset
from oldset import from_edges, half_graph, to_graph6
from oldset.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_half_graph(capsys):
    record = to_graph6(half_graph(4))
    code, out, err = _run(capsys, "solve", record)
    assert code == 0
    assert record in out
    assert "gamma_OL=8" in out
    assert err == ""


def test_solve_k3_text(capsys):
    record = to_graph6(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    code, out, _ = _run(capsys, "solve", record)
    assert code == 0
    # an empty set prints as {}
    assert out == (
        "Bw: n=3, gamma_OL=2\n"
        "  witness = {0, 1}\n"
        "  domination-forced = {}\n"
        "  location-forced = {}\n"
        "  unforced = {0, 1, 2}\n"
        "  method = branch-and-bound, nodes = 5\n"
    )


def test_solve_structured_is_stable(capsys):
    record = to_graph6(half_graph(2))
    code, first, _ = _run(capsys, "solve", "--format", "structured", record)
    assert code == 0
    code, second, _ = _run(capsys, "solve", "--format", "structured", record)
    assert first == second
    payload = json.loads(first)
    assert payload["gamma"] == 4
    assert payload["witness"] == [0, 1, 2, 3]
    assert payload["graph6"] == record
    assert payload["nodes_explored"] == 1


def test_solve_non_locatable_exit_code(capsys):
    c4 = to_graph6(from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    code, _, err = _run(capsys, "solve", c4)
    assert code == 3
    assert "open twins" in err
    assert "(0, 2)" in err and "(1, 3)" in err


def test_solve_parse_failure_exit_code(capsys):
    code, _, err = _run(capsys, "solve", "!!not-graph6!!")
    assert code == 2
    assert "graph6" in err


@pytest.mark.parametrize("command", ["solve", "recognize"])
def test_bad_record_is_reported_and_the_rest_still_run(capsys, command):
    code, out, err = _run(capsys, command, "A_", "!!!", "A_")
    assert code == 2
    assert out.count("A_:") == 2
    assert err.count("\n") == 1 and "'!!!'" in err


def test_bad_record_outranks_not_locatable(capsys):
    c4 = to_graph6(from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    code, out, err = _run(capsys, "solve", c4, "!!!", "A_")
    assert code == 2
    assert "gamma_OL=2" in out
    assert "open twins" in err and "'!!!'" in err


def test_solve_reads_files(tmp_path, capsys):
    records = [to_graph6(half_graph(k)) for k in (1, 2)]
    path = tmp_path / "batch.g6"
    path.write_text("\n".join(records) + "\n")
    code, out, _ = _run(capsys, "solve", str(path))
    assert code == 0
    assert "gamma_OL=2" in out and "gamma_OL=4" in out


@pytest.mark.parametrize(
    "positional, first_line",
    [
        # a positional that parses is that record, even next to a file
        pytest.param("A_", "A_: n=2, gamma_OL=2", id="record"),
        # only one that does not parse is opened as a file
        pytest.param("./A_", "CU: n=4, gamma_OL=4", id="file"),
    ],
)
def test_a_positional_names_a_file_only_when_it_is_no_record(
    tmp_path, monkeypatch, capsys, positional, first_line
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A_").write_text("CU\n")  # H_2
    code, out, _ = _run(capsys, "solve", positional)
    assert code == 0
    assert out.startswith(first_line)


def test_solve_solver_choice_agrees(capsys):
    record = to_graph6(from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    _, fast, _ = _run(capsys, "solve", "--format", "structured", record)
    _, slow, _ = _run(
        capsys, "solve", "--format", "structured", "--solver", "bruteforce", record
    )
    a, b = json.loads(fast), json.loads(slow)
    assert a["gamma"] == b["gamma"] == 4
    assert a["witness"] == b["witness"]
    assert a["method"] != b["method"]


def test_gen_k1_emits_a_underscore(capsys):
    code, out, _ = _run(capsys, "gen", "--k", "1")
    assert code == 0
    assert out == "A_\n"


def test_gen_k3_round_trips_to_figure_edges(capsys):
    from oldset import parse_graph6

    code, out, _ = _run(capsys, "gen", "--k", "3")
    assert code == 0
    assert parse_graph6(out.strip()).edges() == [
        (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5),
    ]


def test_gen_rejects_k_zero(capsys):
    code, _, err = _run(capsys, "gen", "--k", "0")
    assert code == 1
    assert "positive" in err


def test_gen_then_recognize_pipeline(capsys):
    code, out, _ = _run(capsys, "gen", "--k", "2")
    assert code == 0
    code, out, _ = _run(capsys, "recognize", out.strip())
    assert code == 0
    assert "half-graph k=2" in out


def test_recognize_p4_as_h2(capsys):
    p4 = to_graph6(from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    code, out, _ = _run(capsys, "recognize", p4)
    assert code == 0
    assert "half-graph k=2" in out


def test_recognize_rejects_k4(capsys):
    k4 = to_graph6(
        from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    )
    code, out, _ = _run(capsys, "recognize", k4)
    assert code == 0
    assert "not a half-graph" in out


def test_recognize_disconnected_per_component(capsys):
    from oldset import disjoint_union

    record = to_graph6(disjoint_union(half_graph(1), half_graph(2)))
    code, out, _ = _run(capsys, "recognize", record)
    assert code == 0
    assert "component [0, 1]: half-graph k=1" in out
    assert "component [2, 3, 4, 5]: half-graph k=2" in out
    assert "union of half-graphs: yes" in out


def test_recognize_structured(capsys):
    record = to_graph6(half_graph(6))
    code, out, _ = _run(capsys, "recognize", "--format", "structured", record)
    assert code == 0
    payload = json.loads(out)
    assert payload["half_graph"] is True
    assert payload["k"] == 6


_README_EXAMPLES = [
    (
        "oldset solve DhC",
        "DhC: n=5, gamma_OL=4\n"
        "  witness = {0, 1, 2, 3}\n"
        "  domination-forced = {1, 3}\n"
        "  location-forced = {1, 3}\n"
        "  unforced = {0, 2, 4}\n"
        "  method = branch-and-bound, nodes = 5\n",
    ),
    (
        "oldset gen --k 4 | oldset recognize",
        "G?bFF_: half-graph k=4, v_order=[0, 1, 2, 3], w_order=[4, 5, 6, 7]\n",
    ),
    (
        "oldset recognize E_Go",  # H_1 + H_2
        "E_Go: disconnected\n"
        "  component [0, 1]: half-graph k=1\n"
        "  component [2, 3, 4, 5]: half-graph k=2\n"
        "  union of half-graphs: yes\n",
    ),
]


@pytest.mark.parametrize(
    "shell, text", _README_EXAMPLES, ids=["solve", "gen_recognize", "recognize_union"]
)
def test_readme_examples_are_the_output_byte_for_byte(
    capsys, monkeypatch, shell, text
):
    # each stage of the shell line reads the previous stage's stdout
    out = ""
    for stage in shell.split(" | "):
        stdin = io.TextIOWrapper(io.BytesIO(out.encode()), encoding="ascii")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = _run(capsys, *stage.split()[1:])
        assert (code, err) == (0, "")
    assert out == text
    readme = Path(__file__).parents[1] / "README.md"
    assert f"$ {shell}\n{text}" in readme.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["solve", "recognize", "verify"])
def test_help_lists_format_once(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    help_lines = capsys.readouterr().out.splitlines()
    options = [line.split()[0] for line in help_lines if line.startswith("  -")]
    assert options.count("--format") == 1


def test_verify_builtin_order_4(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "4")
    assert code == 0
    assert "theorem holds: yes" in out
    assert "CL" in out


def test_verify_order_7_has_no_extremal(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "7")
    assert code == 0
    assert "extremal classes (gamma_OL = n): 0" in out


def test_verify_structured_byte_stable(capsys):
    code, first, _ = _run(capsys, "verify", "--n", "5", "--format", "structured")
    assert code == 0
    _, second, _ = _run(
        capsys, "verify", "--n", "5", "--format", "structured", "--jobs", "2"
    )
    assert first == second


def test_verify_usage_errors(capsys):
    code, _, err = _run(capsys, "verify")
    assert code == 1
    code, _, err = _run(capsys, "verify", "--n", "9")
    assert code == 1
    assert "--stream" in err


def test_verify_stream_with_explicit_order(tmp_path, capsys):
    path = tmp_path / "h4.g6"
    path.write_text(to_graph6(half_graph(4)) + "\n")
    code, out, _ = _run(capsys, "verify", "--stream", str(path), "--n", "8")
    assert code == 0
    assert "theorem holds: yes" in out


def test_verify_stream_reports_bad_records_without_aborting(capsys, tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text("A_\n!!!\n")
    code, out, _ = _run(
        capsys, "verify", "--stream", str(path), "--format", "structured"
    )
    assert code == 0  # theorem holds on the parsable record
    payload = json.loads(out)
    assert payload["graphs_scanned"] == 1
    assert len(payload["record_errors"]) == 1


@pytest.mark.parametrize("content", ["!!!\n", ""], ids=["all_bad", "empty"])
@pytest.mark.parametrize("order", [[], ["--n", "2"]], ids=["no_n", "with_n"])
def test_verify_stream_without_parsable_records_exits_2(
    tmp_path, capsys, content, order
):
    path = tmp_path / "none.g6"
    path.write_text(content)
    code, out, err = _run(capsys, "verify", "--stream", str(path), *order)
    assert code == 2
    assert out == ""
    reasons = (
        ["record 1: bad graph6 record '!!!': byte 33 outside the graph6 range 63..126"]
        if content
        else []
    )
    assert err.splitlines() == [*reasons, "stream contains no parsable records"]


def test_verify_missing_stream_file(capsys):
    code, _, err = _run(capsys, "verify", "--stream", "/no/such/file.g6")
    assert code == 2


@pytest.mark.parametrize(
    "command", [["solve"], ["recognize"], ["verify", "--stream"]]
)
@pytest.mark.parametrize("unreadable", ["non_ascii", "directory", "non_ascii_stdin"])
def test_unreadable_input_file_exits_2(
    tmp_path, capsys, monkeypatch, command, unreadable
):
    if unreadable == "non_ascii_stdin":
        # stdin is decoded as ASCII, the way a file is
        stdin = io.TextIOWrapper(io.BytesIO(b"A_\n\xc3\xa9\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        argv = [*command, "-"] if command[0] == "verify" else command
    elif unreadable == "non_ascii":
        path = tmp_path / "latin1.g6"
        path.write_bytes(b"A_\n\xe9\n")
        argv = [*command, str(path)]
    else:
        argv = [*command, str(tmp_path)]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("oldset: cannot read ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 1


def _child_env() -> dict:
    # the child imports the same oldset as this process, installed or not
    src = os.path.dirname(os.path.dirname(oldset.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _python(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        **kwargs,
    )


def test_entry_point_via_interpreter():
    done = _python("-m", "oldset", "gen", "--k", "2")
    assert done.returncode == 0
    assert done.stdout.strip() == to_graph6(half_graph(2))


def test_stdin_round_trip_via_interpreter():
    record = to_graph6(half_graph(3))
    done = _python(
        "-m", "oldset", "solve", "--format", "structured", input=record + "\n"
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["gamma"] == 6


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_a_closed_stdout_ends_the_run_quietly(tmp_path):
    # 30,000 records print about 1.3 MB, more than a pipe buffer holds,
    # so the run writes to the pipe after its reader has closed it
    path = tmp_path / "many.g6"
    path.write_text("A_\n" * 30_000)
    argv = [sys.executable, "-m", "oldset", "recognize", str(path)]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with subprocess.Popen(argv, env=_child_env(), **pipes) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert first == b"A_: half-graph k=1, v_order=[0], w_order=[1]\n"
    assert err == b""
    assert code == -signal.SIGPIPE


def test_cli_import_leaves_slow_modules_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize, and the pool
    # module is imported only by a sweep that forks; a cold start pays
    # for neither
    probe = (
        "import sys; before = set(sys.modules); import oldset; "
        "import oldset.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "oldset.cli" in loaded
    assert "dataclasses" not in loaded
    assert "concurrent.futures" not in loaded
    # the package is stdlib-only; CI installs test-only third-party
    # packages, so an import of one from src/ would otherwise pass
    third_party = [
        name
        for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names | {"oldset"}
    ]
    assert third_party == []


_PUBLIC_NAMES = [
    "BRANCH_AND_BOUND", "BRUTEFORCE", "CANONICAL_ORDER_LIMIT",
    "ForcedClassification", "Graph", "GraphFormatError", "HalfGraphLabeling",
    "HarnessReport", "MAX_BUILTIN_ORDER", "NotLocatableError", "PeelStep",
    "SolveResult", "VertexSet", "__version__", "bondy_check", "canonical_form",
    "classify_forced", "connected_components", "disjoint_union",
    "domination_forced", "enumerate_connected_graphs", "from_edges",
    "half_graph", "induced_subgraph", "is_connected", "is_half_graph",
    "is_locatable", "is_old_set", "is_union_of_half_graphs", "iter_bits",
    "location_forced", "mask_of", "old_number", "old_number_bruteforce",
    "open_twins", "parse_graph6", "peel", "run_harness", "to_graph6",
    "vertices_of",
]


def test_package_reexports_each_module_all_once():
    from oldset import domination, enumeration, graph6, graphs, halfgraphs, harness

    # a name listed twice would make this 41 entries
    assert sorted(oldset.__all__) == _PUBLIC_NAMES
    modules = [domination, enumeration, graph6, graphs, halfgraphs, harness]
    for name in oldset.__all__:
        if name == "__version__":
            continue
        owners = [module for module in modules if name in module.__all__]
        assert len(owners) == 1, name
        assert getattr(oldset, name) is getattr(owners[0], name)


def test_component_masks_stays_internal_to_the_package_surface():
    from oldset.graphs import component_masks

    assert callable(component_masks)
    assert "component_masks" not in oldset.__all__
