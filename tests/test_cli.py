from __future__ import annotations

import csv
import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sympca import NumericError, load_oils_table, parse_interval_csv, write_interval_csv
from sympca.cli import main


@pytest.fixture()
def oils_csv(tmp_path):
    path = tmp_path / "oils.csv"
    path.write_text(write_interval_csv(load_oils_table()), encoding="utf-8")
    return path


CLASSIC = (
    ",state,fold,x,y\n"
    "1,CA,1,0.1,10\n"
    "2,CA,2,0.5,30\n"
    "3,NV,1,0.2,20\n"
)

CLASSIC_TEXT_FOLD = (
    ",state,fold,x,y\n"
    "1,CA,f1,0.1,10\n"
    "2,CA,f2,0.5,30\n"
    "3,NV,f1,0.2,20\n"
)


class TestAggregate:
    def test_end_to_end(self, tmp_path):
        src = tmp_path / "classic.csv"
        src.write_text(CLASSIC, encoding="utf-8")
        out = tmp_path / "intervals.csv"
        code = main(["aggregate", "--input", str(src), "--output", str(out), "--by", "state"])
        assert code == 0
        table = parse_interval_csv(out.read_text(encoding="utf-8"))
        assert table.rows == ("CA", "NV")
        assert table.cols == ("fold", "x", "y")
        assert table.lo[0, 1] == 0.1 and table.hi[0, 1] == 0.5

    def test_exclude_cols(self, tmp_path):
        src = tmp_path / "classic.csv"
        src.write_text(CLASSIC, encoding="utf-8")
        out = tmp_path / "intervals.csv"
        code = main([
            "aggregate", "--input", str(src), "--output", str(out),
            "--by", "state", "--exclude-cols", "fold",
        ])
        assert code == 0
        table = parse_interval_csv(out.read_text(encoding="utf-8"))
        assert table.cols == ("x", "y")

    def test_exclude_text_column(self, tmp_path, capsys):
        # Excluded columns are dropped before the cells are read as numbers,
        # and an unknown name still fails on the column, not on the text.
        src = tmp_path / "classic.csv"
        src.write_text(CLASSIC_TEXT_FOLD, encoding="utf-8")
        out = tmp_path / "intervals.csv"
        argv = ["aggregate", "--input", str(src), "--output", str(out), "--by", "state"]
        assert main(argv + ["--exclude-cols", "fold"]) == 0
        assert out.read_text(encoding="utf-8") == (
            ',x,y\nCA,"[0.1,0.5]","[10.0,30.0]"\nNV,"[0.2,0.2]","[20.0,20.0]"\n'
        )
        assert main(argv + ["--exclude-cols", "fold,nosuch"]) == 2
        assert capsys.readouterr().err == "error: no column named 'nosuch'\n"

    def test_crlf_input_matches_lf(self, tmp_path):
        outputs = []
        for name, text in (("lf", CLASSIC), ("crlf", CLASSIC.replace("\n", "\r\n"))):
            src = tmp_path / f"{name}.csv"
            src.write_bytes(text.encode())
            out = tmp_path / f"{name}.out.csv"
            assert main(["aggregate", "--input", str(src), "--output", str(out), "--by", "state"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and b"\r" not in outputs[0]

    @pytest.mark.parametrize("name", ["nosuch", "state"])
    def test_exclude_unknown_or_concept_column_is_2(self, name, tmp_path, capsys):
        # The --by column is not a data column of the aggregated table, so
        # naming it is an error like any other unknown name.
        src = tmp_path / "classic.csv"
        src.write_text(CLASSIC, encoding="utf-8")
        out = tmp_path / "intervals.csv"
        code = main([
            "aggregate", "--input", str(src), "--output", str(out),
            "--by", "state", "--exclude-cols", f"fold,{name}",
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: no column named {name!r}\n"
        assert not out.exists()

    def test_exclude_every_data_column_is_2(self, tmp_path, capsys):
        src = tmp_path / "classic.csv"
        src.write_text(CLASSIC, encoding="utf-8")
        out = tmp_path / "intervals.csv"
        code = main([
            "aggregate", "--input", str(src), "--output", str(out),
            "--by", "state", "--exclude-cols", "fold,x,y",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: no data column left: every column is the concept or excluded\n"
        )
        assert not out.exists()


class TestPcaCommand:
    def test_auto_method_and_outputs(self, oils_csv, tmp_path):
        out = tmp_path / "result.json"
        code = main(["pca", "--input", str(oils_csv), "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["method_used"] == "ztz"
        assert len(doc["eigenvalues"]) == 4
        scores = parse_interval_csv(
            (tmp_path / "result.scores.csv").read_text(encoding="utf-8")
        )
        assert scores.rows[0] == "Linseed"
        corr = parse_interval_csv(
            (tmp_path / "result.correlations.csv").read_text(encoding="utf-8")
        )
        assert corr.lo.min() >= -1.0 and corr.hi.max() <= 1.0

    def test_json_is_one_line(self, oils_csv, tmp_path):
        # json.dumps's default separators, on one line ending in LF.
        out = tmp_path / "result.json"
        assert main(["pca", "--input", str(oils_csv), "--output", str(out)]) == 0
        data = out.read_bytes()
        text = data.decode("utf-8")
        assert text == json.dumps(json.loads(text)) + "\n"
        assert text.startswith('{"method_used": "ztz", "eigenvalues": [2.9840440378303663, ')
        assert hashlib.sha256(data).hexdigest() == (
            "c17397719b52b5ea197d7b291b52df0bffda3a7ba819a283ab7901d6843035a8"
        )

    def test_carriage_return_in_label_survives(self, tmp_path):
        # The parser sees the file's exact text: no newline translation.
        text = ',a,b\n"r\r1","[1,2]","[0,1]"\ns,"[2,4]","[1,3]"\nt,"[0,1]","[5,6]"\n'
        src = tmp_path / "cr.csv"
        src.write_bytes(text.encode())
        out = tmp_path / "cr.json"
        assert main(["pca", "--input", str(src), "--output", str(out)]) == 0
        rows = parse_interval_csv(text).rows
        assert rows == ("r\r1", "s", "t")
        assert json.loads(out.read_text(encoding="utf-8"))["scores"]["rows"] == list(rows)
        scores = (tmp_path / "cr.scores.csv").read_bytes().decode("utf-8")
        assert parse_interval_csv(scores).rows == rows

    def test_methods_match(self, oils_csv, tmp_path):
        outputs = {}
        for method in ("zzt", "ztz"):
            out = tmp_path / f"{method}.json"
            code = main([
                "pca", "--input", str(oils_csv), "--output", str(out),
                "--method", method,
            ])
            assert code == 0
            outputs[method] = json.loads(out.read_text(encoding="utf-8"))
        a, b = outputs["zzt"], outputs["ztz"]
        assert a["method_used"] == "zzt" and b["method_used"] == "ztz"
        assert np.allclose(a["eigenvalues"], b["eigenvalues"], atol=1e-9)
        ca = np.array(a["center_scores"]["values"])
        cb = np.array(b["center_scores"]["values"])
        assert np.abs(ca - cb).max() <= 1e-9
        for table in ("scores", "correlations"):
            for side in ("lo", "hi"):
                ga = np.array(a[table][side])
                gb = np.array(b[table][side])
                assert np.abs(ga - gb).max() <= 1e-9

    def test_no_clamp_flag(self, oils_csv, tmp_path):
        out = tmp_path / "raw.json"
        code = main([
            "pca", "--input", str(oils_csv), "--output", str(out), "--no-clamp",
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert min(min(r) for r in doc["correlations"]["lo"]) < -1.0

    def test_deterministic_outputs(self, oils_csv, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["pca", "--input", str(oils_csv), "--output", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_exclude_cols(self, oils_csv, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "pca", "--input", str(oils_csv), "--output", str(out),
            "--exclude-cols", "SAP,IOD",
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["correlations"]["rows"] == ["GRA", "FRE"]

    def test_exclude_every_column_is_2(self, oils_csv, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "pca", "--input", str(oils_csv), "--output", str(out),
            "--exclude-cols", "GRA,FRE,IOD,SAP",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: no data column left: every column is excluded\n"
        )
        assert not out.exists()


class TestPlotCommands:
    @pytest.mark.parametrize("command", ["plot-circle", "plot-plane"])
    def test_produces_valid_svg(self, command, oils_csv, tmp_path):
        out = tmp_path / "plot.svg"
        code = main([command, "--input", str(oils_csv), "--output", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<?xml")
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_axes_flag(self, oils_csv, tmp_path):
        out = tmp_path / "plot.svg"
        code = main([
            "plot-plane", "--input", str(oils_csv), "--output", str(out),
            "--axes", "2,3",
        ])
        assert code == 0
        assert ">PC3<" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("axes,message", [
        ("0,1", "component indices are 1-based and positive"),
        ("2,2", "axis_x and axis_y must differ"),
        ("1,x", "axes must be integers"),
    ])
    def test_invalid_axes_are_1(self, axes, message, oils_csv, tmp_path, capsys):
        out = tmp_path / "plot.svg"
        code = main(["plot-circle", "--input", str(oils_csv), "--output", str(out),
                     "--axes", axes])
        assert code == 1
        assert capsys.readouterr().err == f"error: argument --axes: {message}\n"
        assert not out.exists()


class TestBenchCommand:
    def test_small_run(self, capsys):
        code = main(["bench", "--m", "30", "--n", "4", "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zzt" in out and "ztz" in out and "auto selects" in out

    @pytest.mark.parametrize("argv", [["--m", "1", "--n", "4"],
                                      ["--m", "30", "--n", "4", "--trials", "0"]])
    def test_bad_size_is_1(self, argv, capsys):
        assert main(["bench", *argv]) == 1
        assert capsys.readouterr().err == (
            "error: need m >= 2, n >= 1, trials >= 1\n"
        )

    def test_gram_limit_is_2(self, capsys):
        # The table is 12000x2; the zzt route refuses before forming Z·Zt.
        assert main(["bench", "--m", "12000", "--n", "2", "--trials", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: the zzt route would form a 12000x12000 Gram matrix of "
            "1,152,000,000 bytes, over the limit of 1,073,741,824 bytes; the ztz "
            "route's 2x2 one is smaller\n"
        )


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["pca", "--input", "x.csv"]) == 1          # missing --output
        assert main(["nonsense"]) == 1
        assert main(["plot-plane", "--input", "a", "--output", "b",
                     "--axes", "1;2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path, capsys):
        code = main([
            "pca", "--input", str(tmp_path / "absent.csv"),
            "--output", str(tmp_path / "o.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_cell_is_2_with_position(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text(',a\nr,"[2,1]"\n', encoding="utf-8")
        code = main([
            "pca", "--input", str(src), "--output", str(tmp_path / "o.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 'r'" in err and "Traceback" not in err

    def test_field_over_csv_limit_is_2(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        src = tmp_path / "wide.csv"
        src.write_text(",state,x\n1,CA,0.5\n2,CA," + "1" * (limit + 1) + "\n", encoding="utf-8")
        code = main([
            "aggregate", "--input", str(src), "--output", str(tmp_path / "o.csv"),
            "--by", "state",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: unreadable CSV at line 3: field larger than field limit ({limit})\n"
        )

    def test_overflowing_column_is_2(self, tmp_path, capsys):
        # The midpoint variance of x overflows; x is scaled by a power of two
        # first, so the table is answered (exit 0) with a one-line result.
        src = tmp_path / "huge.csv"
        src.write_text(',x,y\na,"[1e200,1e200]","[1,1]"\nb,"[2e200,2e200]","[3,3]"\n'
                       'c,"[4e200,4e200]","[2,2]"\n', encoding="utf-8")
        out = tmp_path / "o.json"
        assert main(["pca", "--input", str(src), "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        text = out.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and json.loads(text)["eigenvalues"]

    @pytest.mark.parametrize("cells, message", [
        (("[0,0]", "[1e-150,1e-150]", "[-1e308,1e308]"),
         "is too large in magnitude to standardize: its interval widths overflow "
         "when standardized"),
        # The variance underflows to zero: answered once x is scaled.
        (("[0,0]", "[5e-301,5e-301]", "[0,0]"), None),
        (("[0,0]", "[1e-150,1e-150]", "[0,0]", "[-8e157,8e157]"),
         "is too large in magnitude to standardize: its interval widths overflow "
         "when standardized"),
        # The variance is subnormal: answered once x is scaled.
        (("[0,0]", "[-6.8218e-161,-6.8218e-161]"), None),
        # Standardizes, but sqrt(9) times the last radius overflows the scores.
        (("[0,0]", "[1e-150,1e-150]") + ("[0,0]",) * 6 + ("[-6.1e157,6.1e157]",),
         "is too large in magnitude for interval PCA: its interval radii overflow "
         "when projected onto the components"),
    ], ids=["bounds-overflow", "variance-underflow", "width-overflow",
            "variance-subnormal", "scaled-radius-overflow"])
    def test_unstandardizable_column_is_2(self, cells, message, tmp_path, capsys):
        # A column at a numeric edge exits 2 naming it, or (message None) is
        # answered with exit 0.
        rows = "".join(
            f'{label},"{cell}","[{y},{y}]"\n'
            for label, cell, y in zip("abcdefghi", cells, (1, 3, 2, 4, 5, 6, 7, 8, 9))
        )
        src = tmp_path / "edge.csv"
        src.write_text(",x,y\n" + rows, encoding="utf-8")
        code = main([
            "pca", "--input", str(src), "--output", str(tmp_path / "o.json"),
        ])
        if message is None:
            assert (code, capsys.readouterr().err) == (0, "")
            return
        assert code == 2
        assert capsys.readouterr().err == f"error: column 'x' {message}\n"

    @pytest.mark.parametrize("command", ["pca", "plot-circle", "plot-plane"])
    @pytest.mark.parametrize("q,message", [
        ("0", "must be at least 1, got 0"),
        ("-1", "must be at least 1, got -1"),
        ("x", "invalid int value: 'x'"),
    ])
    def test_invalid_q_is_1(self, command, q, message, oils_csv, tmp_path, capsys):
        out = tmp_path / "o.out"
        code = main([command, "--input", str(oils_csv), "--output", str(out),
                     "--q", q])
        assert code == 1
        assert capsys.readouterr().err == f"error: argument --q: {message}\n"
        assert not out.exists()

    def test_q_out_of_range_is_2(self, oils_csv, tmp_path):
        code = main([
            "pca", "--input", str(oils_csv), "--output",
            str(tmp_path / "o.json"), "--q", "9",
        ])
        assert code == 2

    def test_gram_over_limit_is_2(self, monkeypatch, oils_csv, tmp_path, capsys):
        monkeypatch.setattr("sympca.pca.GRAM_LIMIT_BYTES", 511)  # oils: 8x8 via zzt
        argv = ["pca", "--input", str(oils_csv), "--output", str(tmp_path / "o.json")]
        assert main(argv + ["--method", "zzt"]) == 2
        assert capsys.readouterr().err == (
            "error: the zzt route would form a 8x8 Gram matrix of 512 bytes, over "
            "the limit of 511 bytes; the ztz route's 4x4 one is smaller\n"
        )
        assert main(argv + ["--method", "ztz"]) == 0

    def test_numeric_failure_is_3(self, monkeypatch, oils_csv, tmp_path, capsys):
        import sympca.cli as cli_mod

        def boom(table, q=None):
            raise NumericError("synthetic numerical failure")

        monkeypatch.setattr(cli_mod, "pca_auto", boom)
        code = main([
            "pca", "--input", str(oils_csv), "--output", str(tmp_path / "o.json"),
        ])
        assert code == 3
        assert "synthetic" in capsys.readouterr().err

    def test_unexpected_exception_is_3_internal_error(
        self, monkeypatch, oils_csv, tmp_path, capsys
    ):
        import sympca.cli as cli_mod

        def boom(table, q=None):
            raise RuntimeError("synthetic bug")

        monkeypatch.setattr(cli_mod, "pca_auto", boom)
        code = main([
            "pca", "--input", str(oils_csv), "--output", str(tmp_path / "o.json"),
        ])
        assert code == 3
        assert capsys.readouterr().err == "error: internal error: synthetic bug\n"

    @pytest.mark.parametrize("raised, expected", [
        (RuntimeError(), (3, "error: internal error: RuntimeError\n")),
        (MemoryError(), (2, "error: out of memory\n")),
        (MemoryError("Unable to allocate 29.8 GiB"),
         (2, "error: out of memory: Unable to allocate 29.8 GiB\n")),
    ])
    def test_empty_message_and_memory_error_named(
        self, monkeypatch, oils_csv, tmp_path, capsys, raised, expected
    ):
        import sympca.cli as cli_mod

        def boom(table, q=None):
            raise raised

        monkeypatch.setattr(cli_mod, "pca_auto", boom)
        code = main([
            "pca", "--input", str(oils_csv), "--output", str(tmp_path / "o.json"),
        ])
        assert (code, capsys.readouterr().err) == expected
