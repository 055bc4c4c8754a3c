"""The CLI contract as one table of cases.

A ``Case`` gives a command's input files, its argv, exit code, stdout and
stderr, and a predicate on the files it leaves; each test below binds one
case, or a table of them by id. The ``run`` fixture runs a case through
``cli.main`` in process. When the imported ``sympca`` is not this checkout's
``src/`` but an installed copy, it runs the case again through that copy's
``sympca`` console script, from a fresh directory under
``PYTHONWARNINGS=error``, which must give the same exit code, stderr and
files. The tests that patch the library run in process only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import xml.etree.ElementTree as ET
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import sympca
from helpers import ANSWERED, EDGES, cells
from sympca import (
    IntervalMatrix,
    NumericError,
    aggregate_classic,
    load_oils_table,
    parse_classic_csv,
    parse_interval_csv,
    pca_ztz,
    result_to_json,
    tableio,
    write_interval_csv,
)
from sympca.cli import main

# Imported from an installed copy, not this checkout's src/: every case then
# also runs through that copy's console script.
CHECKOUT_SRC = Path(__file__).resolve().parents[1] / "src"
INSTALLED = Path(sympca.__file__).resolve().parents[1] != CHECKOUT_SRC
SVG = "{http://www.w3.org/2000/svg}"
OILS = {"oils.csv": lambda: write_interval_csv(load_oils_table())}


class Case(NamedTuple):
    argv: str  # split on whitespace; paths are relative to the run's directory
    files: dict = OILS  # input name -> text, or a function that makes it
    code: int = 0
    err: str | re.Pattern = ""  # stderr exactly, or a pattern it holds
    out: str | re.Pattern = ""  # stdout, likewise
    check: Callable[[Path], bool] | None = None  # of the run's directory


def cli_test(cases: Case | dict[str, Case]):
    """A test method running one case, or each case of a table by id."""
    if isinstance(cases, Case):
        def test(self, run):
            run(cases)
        return test

    @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
    def test_each(self, run, case):
        run(case)
    return test_each


def _match(expected: str | re.Pattern, text: str) -> None:
    assert expected.search(text) if isinstance(expected, re.Pattern) else text == expected, text


def _run(case: Case, where: Path, call) -> tuple[int, str, str, dict[str, bytes]]:
    """``call(argv, where)`` after writing the case's inputs into ``where``:
    its exit code, stdout and stderr, and every file then in ``where``."""
    where.mkdir()
    for name, text in case.files.items():
        (where / name).write_bytes((text() if callable(text) else text).encode("utf-8"))
    code, out, err = call(case.argv.split(), where)
    return code, out, err, {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def _script(argv: list[str], where: Path) -> tuple[int, str, str]:
    script = shutil.which("sympca")
    assert script, "no sympca console script on PATH"
    proc = subprocess.run([script, *argv], cwd=where, capture_output=True, timeout=300,
                          env=dict(os.environ, PYTHONWARNINGS="error"))
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


@pytest.fixture
def run(tmp_path, capsys, monkeypatch):
    """``run(case, name)`` checks the case in directory ``name`` and returns
    the files the in-process run left."""
    def in_process(argv, where):
        monkeypatch.chdir(where)
        return (main(argv), *capsys.readouterr())

    def run(case: Case, name: str = "main") -> dict[str, bytes]:
        code, out, err, files = _run(case, tmp_path / name, in_process)
        assert code == case.code, err
        _match(case.out, out)
        _match(case.err, err)
        if code:
            assert files.keys() == case.files.keys()  # a failed command writes nothing
        assert case.check is None or case.check(tmp_path / name)
        if INSTALLED:
            code2, out2, err2, files2 = _run(case, tmp_path / f"{name}-script", _script)
            assert (code2, err2, files2) == (code, err, files)
            _match(case.out, out2)
        return files

    return run


def _json(where: Path) -> dict:
    """o.json, checked to be one line of json.dumps text plus LF."""
    text = (where / "o.json").read_bytes().decode("utf-8")
    assert text == json.dumps(json.loads(text)) + "\n"
    return json.loads(text)


def _csv(where: Path, name: str) -> IntervalMatrix:
    return parse_interval_csv((where / name).read_bytes().decode("utf-8"))


def _svg(where: Path) -> list[str]:
    """The texts of o.svg, checked to be well-formed SVG with finite numbers."""
    data = (where / "o.svg").read_bytes()
    assert data.startswith(b"<?xml") and b"inf" not in data and b"nan" not in data
    root = ET.fromstring(data)
    assert root.tag == f"{SVG}svg"
    return [e.text for e in root.iter(f"{SVG}text")]


def _sha256(pins: dict[str, str]) -> Callable[[Path], bool]:
    return lambda where: all(
        hashlib.sha256((where / name).read_bytes()).hexdigest() == pin
        for name, pin in pins.items()
    )


def _equals(name: str, text: str) -> Callable[[Path], bool]:
    return lambda where: (where / name).read_bytes() == text.encode("utf-8")


def _close_to_ztz(where: Path) -> bool:
    """The zzt route's result agrees with the ztz route's to 1e-9."""
    doc = _json(where)
    ref = json.loads(result_to_json(pca_ztz(load_oils_table())))
    pairs = [(doc["eigenvalues"], ref["eigenvalues"]),
             (doc["center_scores"]["values"], ref["center_scores"]["values"])]
    pairs += [(doc[table][side], ref[table][side])
              for table in ("scores", "correlations") for side in ("lo", "hi")]
    return doc["method_used"] == "zzt" and all(
        np.abs(np.subtract(a, b)).max() <= 1e-9 for a, b in pairs)


EDGE_ROWS: list[str] = []  # the EDGES rows a case runs: every one


def _pca_of(row: str) -> Case:
    """``sympca pca`` of an EDGES row: exit 0 and one line of JSON where the
    routes answer, else exit 2 and their message."""
    EDGE_ROWS.append(row)
    files = {"edge.csv": lambda: write_interval_csv(EDGES[row].table)}
    message = EDGES[row].routes
    if message == ANSWERED:
        return Case("pca --input edge.csv --output o.json", files, check=_json)
    return Case("pca --input edge.csv --output o.json", files, 2, f"error: {message}\n")


CLASSIC = ",state,fold,x,y\n1,CA,1,0.1,10\n2,CA,2,0.5,30\n3,NV,1,0.2,20\n"
CLASSIC_TEXT_FOLD = ",state,fold,x,y\n1,CA,f1,0.1,10\n2,CA,f2,0.5,30\n3,NV,f1,0.2,20\n"
RECORDS = ",state,note,x,y\n" + "".join(
    f"r{i},S{i % 3},note {i},{i},{i * i % 7}\n" for i in range(12))
# As R's write.csv quotes it: the header, labels and text cells quoted, numbers bare.
RECORDS_R = "".join(
    ",".join(c if c.isdigit() else f'"{c}"' for c in line.split(",")) + "\n"
    for line in RECORDS.splitlines()
)
CONCEPTS = (',x,y\nS0,"[0.0,9.0]","[0.0,4.0]"\nS1,"[1.0,10.0]","[0.0,2.0]"\n'
            'S2,"[2.0,11.0]","[1.0,4.0]"\n')
QUOTED_ROWS = ("a,b", 'q"x', "c\rr", "d")
QUOTED = {"quoted.csv": lambda: write_interval_csv(IntervalMatrix(
    QUOTED_ROWS, ("x", "y"), [[0.0, 1.0], [1.0, 3.0], [2.0, 2.0], [3.0, 0.0]],
    [[1.0, 2.0], [3.0, 3.5], [2.5, 4.0], [3.0, 1.0]]))}
LIMIT = csv.field_size_limit()
JSON_SHA256 = "c17397719b52b5ea197d7b291b52df0bffda3a7ba819a283ab7901d6843035a8"


def _aggregate(flags: str = "--by state --exclude-cols note") -> str:
    return f"aggregate --input in.csv --output out.csv {flags}"


@cache
def _big() -> str:
    """12000 classic records of 20 values in 4001 concepts, over 4 MB."""
    return ",state,note," + ",".join(f"v{j}" for j in range(20)) + "\n" + "".join(
        f"r{i},S{i % 4001},note {i},"
        + ",".join(repr((i * 7919 + j * 104729) % 10007 / 97.0) for j in range(20)) + "\n"
        for i in range(12000)
    )


@cache
def _big_concepts() -> str:
    """_big() aggregated: 4001x20 intervals, over 3 MB."""
    return write_interval_csv(aggregate_classic(
        parse_classic_csv(_big(), concept="state", exclude=["note"]), "state"))


class TestAggregate:
    test_end_to_end = cli_test(Case(
        _aggregate("--by state"), {"in.csv": CLASSIC},
        check=_equals("out.csv", ',fold,x,y\nCA,"[1.0,2.0]","[0.1,0.5]","[10.0,30.0]"\n'
                                 'NV,"[1.0,1.0]","[0.2,0.2]","[20.0,20.0]"\n'),
    ))
    # A text column, excluded before its cells are read as numbers.
    test_exclude_cols = cli_test(Case(_aggregate(), {"in.csv": RECORDS},
                                      check=_equals("out.csv", CONCEPTS)))
    test_exclude_text_column = cli_test(Case(
        _aggregate("--by state --exclude-cols fold"), {"in.csv": CLASSIC_TEXT_FOLD},
        check=_equals("out.csv", ',x,y\nCA,"[0.1,0.5]","[10.0,30.0]"\n'
                                 'NV,"[0.2,0.2]","[20.0,20.0]"\n'),
    ))
    test_crlf_input_matches_lf = cli_test(Case(
        _aggregate(), {"in.csv": RECORDS.replace("\n", "\r\n")},
        check=_equals("out.csv", CONCEPTS),
    ))
    # The csv.reader path reads this one.
    test_r_quoted_input_matches_lf = cli_test(Case(
        _aggregate(), {"in.csv": RECORDS_R}, check=_equals("out.csv", CONCEPTS),
    ))
    # The --by column is not a data column of the aggregated table, so naming
    # it is an error, which says so; an unknown name fails on the column, not
    # on the text of an excluded one.
    test_exclude_unknown_or_concept_column_is_2 = cli_test({
        name: Case(_aggregate(f"--by state --exclude-cols fold,{name}"),
                   {"in.csv": CLASSIC_TEXT_FOLD}, 2, f"error: {message}\n")
        for name, message in [("nosuch", "no column named 'nosuch'"),
                              ("state", "cannot exclude the concept column 'state'")]
    })
    test_exclude_every_data_column_is_2 = cli_test(Case(
        _aggregate("--by state --exclude-cols note,x,y"), {"in.csv": RECORDS}, 2,
        "error: no data column left: every column is the concept or excluded\n",
    ))


class TestPcaCommand:
    test_auto_method_and_outputs = cli_test(Case(
        "pca --input oils.csv --output o.json",
        check=lambda d: _json(d)["method_used"] == "ztz" and len(_json(d)["eigenvalues"]) == 4
        and _csv(d, "o.scores.csv").rows[0] == "Linseed"
        and _csv(d, "o.correlations.csv").lo.min() >= -1.0
        and _csv(d, "o.correlations.csv").hi.max() <= 1.0,
    ))
    # json.dumps's default separators, on one line ending in LF.
    test_json_is_one_line = cli_test(Case(
        "pca --input oils.csv --output o.json",
        check=lambda d: _json(d) and (d / "o.json").read_bytes().startswith(
            b'{"method_used": "ztz", "eigenvalues": [2.9840440378303663, ')
        and _sha256({"o.json": JSON_SHA256})(d),
    ))
    test_deterministic_outputs = cli_test(Case(
        "pca --input oils.csv --output o.json",
        check=_sha256({
            "o.scores.csv": "3ca234dd81bf53be602dd1da29e4ef9e558c0ac58f8072d4c0398da48cc7f780",
            "o.correlations.csv": "9cc7add58e0b389ba6925a4820c01e7eab9bc1d53037795d3ac1f80a7e0b4938",
        }),
    ))
    # The parser sees the file's exact text: a CR in a label survives, and
    # each label, quote and comma included, comes back from the scores CSV.
    test_carriage_return_in_label_survives = cli_test(Case(
        "pca --input quoted.csv --output o.json", QUOTED,
        check=lambda d: _json(d)["scores"]["rows"] == list(QUOTED_ROWS)
        and _csv(d, "o.scores.csv").rows == QUOTED_ROWS,
    ))
    test_methods_match = cli_test(Case("pca --input oils.csv --output o.json --method zzt",
                                       check=_close_to_ztz))
    test_no_clamp_flag = cli_test(Case(
        "pca --input oils.csv --output o.json --no-clamp",
        check=lambda d: min(map(min, _json(d)["correlations"]["lo"])) < -1.0
        and _csv(d, "o.correlations.csv").lo.min() < -1.0,
    ))
    test_exclude_cols = cli_test(Case(
        "pca --input oils.csv --output o.json --exclude-cols SAP,IOD",
        check=lambda d: _json(d)["correlations"]["rows"] == ["GRA", "FRE"],
    ))
    test_exclude_every_column_is_2 = cli_test(Case(
        "pca --input oils.csv --output o.json --exclude-cols GRA,FRE,IOD,SAP", code=2,
        err="error: no data column left: every column is excluded\n",
    ))


class TestPlotCommands:
    test_produces_valid_svg = cli_test({
        command: Case(f"{command} --input oils.csv --output o.svg", check=_svg)
        for command in ("plot-circle", "plot-plane")
    })
    test_axes_flag = cli_test(Case(
        "plot-plane --input oils.csv --output o.svg --axes 2,3",
        check=lambda d: "PC3" in _svg(d),
    ))
    test_invalid_axes_are_1 = cli_test({
        id_: Case(f"{command} --input oils.csv --output o.svg --axes {axes}", code=1,
                  err=f"error: argument --axes: {message}\n")
        for id_, command, axes, message in [
            ("0,1-component indices are 1-based and positive", "plot-circle", "0,1",
             "component indices are 1-based and positive"),
            ("2,2-axis_x and axis_y must differ", "plot-circle", "2,2",
             "axis_x and axis_y must differ"),
            ("1,x-axes must be integers", "plot-circle", "1,x", "axes must be integers"),
            ("plot-plane-0,1", "plot-plane", "0,1", "component indices are 1-based and positive"),
            ("1;2-axes must look like 1,2", "plot-plane", "1;2", "axes must look like 1,2"),
        ]
    })
    test_plane_of_aggregated_table = cli_test(Case(
        "plot-plane --input concepts.csv --output o.svg", {"concepts.csv": CONCEPTS}, check=_svg,
    ))
    # Scores reach about 1e305: no overflow warning, and finite coordinates.
    test_plane_of_huge_scores = cli_test(Case(
        "plot-plane --input edge.csv --output o.svg",
        {"edge.csv": lambda: write_interval_csv(cells(x=(0, 1e-150, 0, (-1e155, 1e155)),
                                                      y=(1, 3, 2, 4)))}, check=_svg,
    ))
    test_label_xml_cannot_hold_is_2 = cli_test(Case(
        "plot-plane --input control.csv --output o.svg",
        {"control.csv": ',x,y\n"a\x01b","[0,1]","[1,2]"\nc,"[1,3]","[2,2.5]"\n'
                         'd,"[2,2]","[0,4]"\n'},
        2, "error: cannot write 'a\\x01b' to SVG: it holds a character XML 1.0 does not allow\n",
    ))
    test_labels_read_back = cli_test(Case(
        "plot-plane --input quoted.csv --output o.svg", QUOTED,
        check=lambda d: set(QUOTED_ROWS) <= set(_svg(d)),
    ))


class TestBenchCommand:
    test_small_run = cli_test(Case("bench --m 30 --n 4 --trials 2", {}, out=re.compile(
        r"\Abench m=30 n=4 trials=2\npath +median_s\nzzt +\d+\.\d{6}\nztz +\d+\.\d{6}\n"
        r"faster: (zzt|ztz)  auto selects: ztz\n\Z")))
    test_bad_size_is_1 = cli_test({
        id_: Case(f"bench {argv}", {}, 1, "error: need m >= 2, n >= 1, trials >= 1\n")
        for id_, argv in [("argv0", "--m 1 --n 4"), ("argv1", "--m 30 --n 4 --trials 0")]
    })
    # The table is 12000x2; the zzt route refuses before forming Z·Zt.
    test_gram_limit_is_2 = cli_test(Case(
        "bench --m 12000 --n 2 --trials 1", {}, 2,
        "error: the zzt route would form a 12000x12000 Gram matrix of 1,152,000,000 bytes, "
        "over the limit of 1,073,741,824 bytes; the ztz route's 2x2 one is smaller\n",
    ))


class TestExitCodes:
    test_usage_error_is_1 = cli_test(Case(
        "pca --input x.csv", {}, 1, "error: the following arguments are required: --output\n",
    ))
    test_unknown_command_is_1 = cli_test(Case(
        "nonsense", {}, 1, re.compile(r"\Aerror: argument command: invalid choice: 'nonsense'"),
    ))
    test_missing_file_is_2 = cli_test(Case(
        "pca --input absent.csv --output o.json", {}, 2,
        "error: [Errno 2] No such file or directory: 'absent.csv'\n",
    ))
    test_bad_cell_is_2_with_position = cli_test(Case(
        "pca --input bad.csv --output o.json", {"bad.csv": ',a\nr,"[2,1]"\n'}, 2,
        "error: lower bound exceeds upper bound at (row 'r', column 'a')\n",
    ))
    # The quoted label sends the file to the csv.reader path and its error walk.
    test_bad_bound_in_quoted_file_is_2 = cli_test(Case(
        "pca --input bad.csv --output o.json", {"bad.csv": ',"a"\n"r","[1,x]"\n'}, 2,
        "error: malformed number 'x' at (row 'r', column 'a')\n",
    ))
    test_field_over_csv_limit_is_2 = cli_test(Case(
        "aggregate --input wide.csv --output o.csv --by state",
        {"wide.csv": lambda: ",state,x\n1,CA,0.5\n2,CA," + "1" * (LIMIT + 1) + "\n"}, 2,
        f"error: unreadable CSV at line 3: field larger than field limit ({LIMIT})\n",
    ))
    # The tables at the numeric edges are the rows of EDGES (helpers.py).
    test_overflowing_column_is_2 = cli_test(_pca_of("overflow"))
    test_unstandardizable_column_is_2 = cli_test({row: _pca_of(row) for row in [
        "bounds-overflow", "variance-underflow", "width-overflow", "variance-subnormal",
        "variance-subnormal-other-y", "hi-lo-overflow", "scaled-radius-overflow"]})
    test_other_edge_rows = cli_test({row: _pca_of(row) for row in EDGES if row not in EDGE_ROWS})
    test_invalid_q_is_1 = cli_test({
        f"{q}-{message}-{command}": Case(f"{command} --input oils.csv --output o.out --q {q}",
                                         code=1, err=f"error: argument --q: {message}\n")
        for command in ("pca", "plot-circle", "plot-plane")
        for q, message in [("0", "must be at least 1, got 0"),
                           ("-1", "must be at least 1, got -1"), ("x", "invalid int value: 'x'")]
    })
    test_q_out_of_range_is_2 = cli_test(Case(
        "pca --input oils.csv --output o.json --q 9", code=2,
        err="error: q=9 out of range: must be between 1 and rank 4\n",
    ))

    # In process only: these patch the library.
    def test_gram_over_limit_is_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("sympca.pca.GRAM_LIMIT_BYTES", 511)  # oils: 8x8 via zzt
        argv = _oils_pca_argv(tmp_path)
        assert main(argv + ["--method", "zzt"]) == 2
        assert capsys.readouterr().err == (
            "error: the zzt route would form a 8x8 Gram matrix of 512 bytes, over "
            "the limit of 511 bytes; the ztz route's 4x4 one is smaller\n"
        )
        assert main(argv + ["--method", "ztz"]) == 0

    def test_numeric_failure_is_3(self, monkeypatch, tmp_path, capsys):
        assert _pca_raising(NumericError("synthetic numerical failure"), monkeypatch, tmp_path,
                            capsys) == (3, "error: synthetic numerical failure\n")

    def test_unexpected_exception_is_3_internal_error(self, monkeypatch, tmp_path, capsys):
        assert _pca_raising(RuntimeError("synthetic bug"), monkeypatch, tmp_path, capsys) == (
            3, "error: internal error: synthetic bug\n")

    @pytest.mark.parametrize("raised, expected", [
        (RuntimeError(), (3, "error: internal error: RuntimeError\n")),
        (MemoryError(), (2, "error: out of memory\n")),
        (MemoryError("Unable to allocate 29.8 GiB"),
         (2, "error: out of memory: Unable to allocate 29.8 GiB\n")),
    ])
    def test_empty_message_and_memory_error_named(self, monkeypatch, tmp_path, capsys,
                                                   raised, expected):
        assert _pca_raising(raised, monkeypatch, tmp_path, capsys) == expected


def _oils_pca_argv(tmp_path: Path) -> list[str]:
    """``sympca pca`` of the oils table, written into ``tmp_path``."""
    (tmp_path / "oils.csv").write_text(write_interval_csv(load_oils_table()), encoding="utf-8")
    return ["pca", "--input", str(tmp_path / "oils.csv"), "--output", str(tmp_path / "o.json")]


def _pca_raising(raised: BaseException, monkeypatch, tmp_path, capsys) -> tuple[int, str]:
    def boom(table, q=None):
        raise raised

    monkeypatch.setattr("sympca.cli.pca_auto", boom)
    return main(_oils_pca_argv(tmp_path)), capsys.readouterr().err


class TestRowBlocks:
    # Each input spans several row blocks, so a forked helper converts some
    # of them, in process and in the console script alike; the bytes must be
    # those of a run held to one CPU.
    @pytest.mark.parametrize("case", [
        Case("aggregate --input big.csv --output o.csv --by state --exclude-cols note",
             {"big.csv": _big}),
        Case("pca --input concepts.csv --output o.json", {"concepts.csv": _big_concepts}),
    ], ids=["aggregate", "pca"])
    def test_forked_run_equals_one_process(self, case, run, monkeypatch):
        for make in case.files.values():
            make()  # cached, so the forks counted below are the command's
        pids = []
        monkeypatch.setattr(tableio, "_fork", lambda: pids.append(os.fork()) or pids[-1])
        monkeypatch.setattr(tableio, "_usable_cpus", lambda: 2)
        forked = run(case)
        assert pids
        monkeypatch.setattr(tableio, "_usable_cpus", lambda: 1)
        assert run(case, "one") == forked
