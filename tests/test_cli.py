"""Command-line front end: config parsing, CSV round-trips, end-to-end runs."""
import csv
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mvdlm as mv
from mvdlm.cli import load_config, main, parse_csv, write_csv

GOOD_CONFIG = """\
[model]
d = 1
p = 2
r = 1
F = [[1.0]]
G = identity
V = identity
discount = 0.9

[prior]
m0 = zeros
P0 = 1e6
S0 = identity
N0 = 1.0

[io]
mode = both
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_data(tmp_path, rows, header="y1,y2", name="data.csv"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

def test_load_config_happy_path(tmp_path):
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    assert (cfg.model.d, cfg.model.p, cfg.model.r) == (1, 2, 1)
    assert cfg.model.discount == 0.9
    assert cfg.mode == "both"
    assert np.array_equal(cfg.prior.m, np.zeros((1, 2)))
    assert np.array_equal(cfg.prior.P, 1e6 * np.eye(1))
    assert np.array_equal(cfg.prior.miw.S, np.eye(2))
    assert np.array_equal(cfg.prior.miw.n, np.ones(2))
    assert cfg.prior.miw.v == 2.0


def test_config_rejects_both_noise_specifications(tmp_path):
    text = GOOD_CONFIG.replace("discount = 0.9", "discount = 0.9\nW = [[0.1]]")
    with pytest.raises(mv.ConfigError):
        load_config(write_config(tmp_path, text))


def test_config_requires_model_section(tmp_path):
    with pytest.raises(mv.ConfigError):
        load_config(write_config(tmp_path, "[prior]\nP0 = 1.0\n"))


def test_config_rejects_bad_matrix_literal(tmp_path):
    text = GOOD_CONFIG.replace("F = [[1.0]]", "F = [[1.0, 2.0]]")
    with pytest.raises(mv.ConfigError) as exc:
        load_config(write_config(tmp_path, text))
    assert "F" in str(exc.value)


def test_config_rejects_bad_discount(tmp_path):
    text = GOOD_CONFIG.replace("discount = 0.9", "discount = 1.7")
    with pytest.raises(mv.ConfigError):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("old,new", [
    ("V = identity", "V = [[1e400]]"),
    ("F = [[1.0]]", "F = [[-1e400]]"),
    ("P0 = 1e6", "P0 = 1e400"),
    ("S0 = identity", "S0 = [[1.0, 0.0], [0.0, 1e400]]"),
    ("N0 = 1.0", "N0 = [1.0, 1e400]"),
    ("N0 = 1.0", "N0 = 1.0\nv = 1e400"),
])
def test_config_rejects_non_finite_values(tmp_path, capsys, old, new):
    config = write_config(tmp_path, GOOD_CONFIG.replace(old, new))
    with pytest.raises(mv.ConfigError, match="finite"):
        load_config(config)
    data = make_series(tmp_path)
    assert main(["filter", "--config", str(config), "--data", str(data)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("F = [[1.0]]", "F = 'one'"),
    ("N0 = 1.0", "N0 = 1.0\nv = [2, 3]"),
    ("discount = 0.9", "discount = 50%"),
    ("discount = 0.9", "discount = True"),
    ("d = 1", "d = True"),
    ("F = [[1.0]]", "F = [[True]]"),
    ("N0 = 1.0", "N0 = [True, 1.0]"),
    ("F = [[1.0]]", "F = [[1.0], [1.0, 2.0]]"),  # ragged
    ("P0 = 1e6", "P0 = 1000000000000000000000000000000"),  # an int beyond int64
])
def test_config_rejects_non_numeric_values(tmp_path, old, new):
    with pytest.raises(mv.ConfigError):
        load_config(write_config(tmp_path, GOOD_CONFIG.replace(old, new)))


def test_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(mv.ConfigError):
        load_config(tmp_path / "nope.ini")


@pytest.mark.parametrize("extra,words", [
    ("[simulate]\nreplication = 200", "unknown key 'replication'"),
    ("[simulate]\nsed = 5", "unknown key 'sed'"),
    ("[io]\nmod = both", "unknown key 'mod'"),
    ("[io]\nout = records.csv", "unknown key 'out'"),  # the output path is --out
    ("[DEFAULT]\nreplications = 200", r"\[DEFAULT\]"),
    ("[simulat]\nreplications = 200", r"unknown section \[simulat\]"),
], ids=["replication", "sed", "io-mod", "io-out", "default-section", "unknown-section"])
def test_unknown_section_or_key_is_config_error(tmp_path, capsys, extra, words):
    # each used to be ignored: the study ran 1 replication, seed 0, mode new
    header = extra.split("\n")[0]
    text = SIM_CONFIG.replace(header, extra) if header in SIM_CONFIG else f"{SIM_CONFIG}\n{extra}\n"
    config = write_config(tmp_path, text)
    with pytest.raises(mv.ConfigError, match=words):
        load_config(config)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_study_counts_accept_integral_numbers(tmp_path):
    outputs = []
    for name, text in (("ints", SIM_CONFIG), ("floats", SIM_CONFIG.replace(
            "T = 100", "T = 100.0").replace("seed = 0", "seed = 0.0").replace(
            "replications = 8", "replications = 8.0").replace(
            "d = 1\np = 2\nr = 1", "d = 1.0\np = 2.0\nr = 1.0"))):
        out_dir = tmp_path / name
        config = write_config(tmp_path, text, name=f"{name}.ini")
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
        outputs.append([(out_dir / f).read_bytes() for f in
                        ("data.csv", "forecasts.csv", "replications.csv", "summary.txt")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("option", ["--config", "--data", "--out"])
def test_unreadable_or_unwritable_path_exits_2(tmp_path, capsys, option):
    # a directory as --config or --data, or --out under a missing directory,
    # used to end in a traceback and exit code 1
    args = {"--config": write_config(tmp_path, GOOD_CONFIG), "--data": make_series(tmp_path),
            "--out": tmp_path / "records.csv"}
    if option == "--out":
        args[option] = tmp_path / "no-such-dir" / "records.csv"
        named = args[option].parent
    else:
        args[option] = named = tmp_path / "a-directory"
        named.mkdir()
    assert main(["filter"] + [str(x) for item in args.items() for x in item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err, err


@pytest.mark.parametrize("option", ["--config", "--data"])
def test_non_utf8_input_exits_2(tmp_path, capsys, option):
    # each used to end in a UnicodeDecodeError traceback and exit code 1
    args = {"--config": write_config(tmp_path, GOOD_CONFIG), "--data": make_series(tmp_path)}
    bad = args[option]
    bad.write_bytes(b"\xff\xfe" + GOOD_CONFIG.encode() if option == "--config"
                    else bad.read_bytes().replace(b"NA", b"\xff", 1))
    assert main(["filter"] + [str(x) for item in args.items() for x in item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err, err


def test_csv_with_a_utf8_byte_order_mark_reads_as_without_it(tmp_path, capsys):
    # a spreadsheet's "CSV UTF-8" export starts with the mark; it used to fail
    # the header check with exit 2
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"y1,y2\n1,2\n3,4\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert np.array_equal(parse_csv(marked), parse_csv(plain))
    series = make_series(tmp_path)
    series.with_name("marked-series.csv").write_bytes(b"\xef\xbb\xbf" + series.read_bytes())
    config = str(write_config(tmp_path, GOOD_CONFIG))
    stdout = []
    for data in (series, series.with_name("marked-series.csv")):
        assert main(["filter", "--config", config, "--data", str(data)]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]


def test_inputs_are_decoded_as_utf8(tmp_path, capsys):
    # UTF-8 text outside ASCII reads whatever the locale, a config may start
    # with a byte-order mark, and a byte that is not UTF-8 is still exit 2
    # after one
    config = tmp_path / "run.ini"
    config.write_bytes(("# σ, the covariance, starts at S0\n" + GOOD_CONFIG).encode("utf-8"))
    assert load_config(config).model.p == 2
    marked = tmp_path / "marked.ini"
    marked.write_bytes(b"\xef\xbb\xbf" + GOOD_CONFIG.encode("utf-8"))
    assert load_config(marked).model.p == 2
    data = make_series(tmp_path)
    data.write_bytes(b"\xef\xbb\xbf" + data.read_bytes().replace(b"NA", b"\xff", 1))
    assert main(["filter", "--config", str(config), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot decode data file") and str(data) in err, err


# ---------------------------------------------------------------------------
# CSV parsing and writing
# ---------------------------------------------------------------------------

def test_parse_csv_missing_markers(tmp_path):
    path = write_data(tmp_path, ["1.2,", "0.5,na", "0.1,0.2"])
    values = parse_csv(path)
    assert values.shape == (3, 1, 2)
    assert values[0, 0, 0] == 1.2 and np.isnan(values[0, 0, 1])
    assert np.isnan(values[1, 0, 1])  # literal NA, any case
    assert not np.isnan(values[2]).any()


def test_parse_csv_replicate_headers(tmp_path):
    path = write_data(tmp_path, ["1,2,3,4", "5,,7,NA"],
                      header="y1_1,y1_2,y2_1,y2_2")
    values = parse_csv(path)
    assert values.shape == (2, 2, 2)  # T = 2, r = 2 replicates, p = 2 variables
    assert values[0, 0, 0] == 1.0 and values[0, 1, 0] == 2.0
    assert values[0, 0, 1] == 3.0 and values[0, 1, 1] == 4.0
    assert np.isnan(values[1, 1, 0]) and np.isnan(values[1, 1, 1])


def test_parse_csv_bad_header(tmp_path):
    path = write_data(tmp_path, ["1,2"], header="y1,z2")
    with pytest.raises(mv.ParseError):
        parse_csv(path)


def test_parse_csv_incomplete_header_coverage(tmp_path):
    path = write_data(tmp_path, ["1,2"], header="y1,y3")
    with pytest.raises(mv.ParseError):
        parse_csv(path)


def test_parse_csv_bad_cell_reports_row_and_column(tmp_path):
    path = write_data(tmp_path, ["1.0,2.0", "x,2.0"])
    with pytest.raises(mv.ParseError) as exc:
        parse_csv(path)
    assert exc.value.row == 3  # 1-based file row (header is row 1)
    assert "y1" in str(exc.value)


@pytest.mark.parametrize("header,first,row,column", [
    ("y1,y2", "1.0,2.0", "1.0,{}", "y2"),
    ("y1_1,y1_2,y2_1,y2_2", "1,2,3,4", "5,6,{},8", "y2_1"),
])
@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity"])
def test_parse_csv_rejects_non_finite_cell(tmp_path, cell, header, first, row, column):
    # Only an empty cell or NA means missing; a non-finite number is an error.
    path = write_data(tmp_path, [first, row.format(cell)], header=header)
    with pytest.raises(mv.ParseError) as exc:
        parse_csv(path)
    assert (exc.value.row, exc.value.column) == (3, column)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_write_csv_rejects_infinity(tmp_path, value):
    # parse_csv cannot read an infinite cell back, so none is written
    values = np.zeros((3, 1, 2))
    values[1, 0, 1] = value
    with pytest.raises(mv.DomainError, match="inf"):
        write_csv(tmp_path / "data.csv", values)
    assert not (tmp_path / "data.csv").exists()


@pytest.mark.parametrize("values, shape", [(np.zeros((3, 2)), "(3, 2)"),
                                           ([[0.0, 1.0], [2.0, 3.0]], "(2, 2)")],
                         ids=["2-d-array", "nested-list"])
def test_write_csv_requires_a_three_dimensional_array(tmp_path, values, shape):
    with pytest.raises(mv.DimensionMismatch) as exc:
        write_csv(tmp_path / "data.csv", values)
    assert shape in str(exc.value)
    assert not (tmp_path / "data.csv").exists()


@pytest.mark.parametrize("values", [[[[1.0]], [[1.0, 2.0]]], [[["a"]]]],
                         ids=["ragged", "non-numeric"])
def test_write_csv_rejects_values_numpy_cannot_convert(tmp_path, values):
    # as filter does, an input that is not a float array is a dimension error
    with pytest.raises(mv.DimensionMismatch, match="do not form a T x r x p array"):
        write_csv(tmp_path / "data.csv", values)
    assert not (tmp_path / "data.csv").exists()


def test_write_csv_rejects_an_empty_array(tmp_path):
    # parse_csv rejects a file with no data rows, so none is written
    with pytest.raises(mv.DomainError, match="at least one step"):
        write_csv(tmp_path / "data.csv", np.zeros((0, 1, 1)))
    assert not (tmp_path / "data.csv").exists()


@pytest.mark.parametrize("values, error", [
    ([[[1.0]], [[1.0, 2.0]]], mv.DimensionMismatch), ([[["a"]]], mv.DimensionMismatch),
    (np.zeros((3, 2)), mv.DimensionMismatch), ([], mv.DomainError),
    (np.zeros((0, 1, 2)), mv.DomainError), (np.full((2, 1, 2), np.inf), mv.DomainError),
    (np.full((2, 1, 2), -np.inf), mv.DomainError), ([[[{}, 1.0]]], mv.DimensionMismatch),
    # values numpy does not read as real numbers are not missing, 1.0 or an OverflowError
    ([[[None, 1.0]]], mv.DimensionMismatch), ([[["nan", 1.0]]], mv.DimensionMismatch),
    (True, mv.DimensionMismatch), (np.ones((2, 1, 2), dtype=bool), mv.DimensionMismatch),
    ([[[1j, 1.0]]], mv.DimensionMismatch), ([[[10**400, 1.0]]], mv.DimensionMismatch),
    ([np.ones((1, 2)), np.ones((1, 2), dtype=bool)], mv.DimensionMismatch),
], ids=["ragged", "non-numeric", "2-d-array", "empty-list", "no-steps", "+inf", "-inf",
        "dict-cell", "none-cell", "nan-text-cell", "truth-value", "bool-array",
        "complex-cell", "huge-int-cell", "bool-step"])
def test_filter_and_write_csv_reject_bad_observations_alike(tmp_path, values, error):
    # one observation rule: the library filter and the CSV writer fail alike
    with pytest.raises(mv.MvdlmError) as from_filter:
        mv.filter(mv.local_level_model(), values, mv.default_prior())
    with pytest.raises(mv.MvdlmError) as from_writer:
        write_csv(tmp_path / "data.csv", values)
    assert type(from_filter.value) is type(from_writer.value) is error
    assert str(from_filter.value) == str(from_writer.value)
    assert not (tmp_path / "data.csv").exists()


def test_csv_round_trip_preserves_masks_and_values(tmp_path):
    rng = np.random.default_rng(50)
    y = rng.standard_normal((25, 2, 3))
    values = np.where(rng.random((25, 2, 3)) < 0.3, np.nan, y)
    path = tmp_path / "round.csv"
    write_csv(path, values)
    back = parse_csv(path)
    assert np.array_equal(back, values, equal_nan=True)


# ---------------------------------------------------------------------------
# filter command end to end
# ---------------------------------------------------------------------------

def make_series(tmp_path, T=40, n_missing=5, seed=60):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((T, 2)).cumsum(axis=0) * 0.2 + rng.standard_normal((T, 2))
    rows = [f"{float(a)!r},{float(b)!r}" for a, b in y]
    for i in range(n_missing):
        t = 5 + 6 * i
        parts = rows[t].split(",")
        parts[i % 2] = "NA" if i % 2 else ""
        rows[t] = ",".join(parts)
    return write_data(tmp_path, rows)


def test_filter_end_to_end_both_modes(tmp_path, capsys):
    config = write_config(tmp_path, GOOD_CONFIG)
    data = make_series(tmp_path)
    out = tmp_path / "records.csv"
    code = main(["filter", "--config", str(config), "--data", str(data),
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out.strip().splitlines()
    assert captured[0].split(",")[:2] == ["mode", "msse_1"]
    rows = {line.split(",")[0]: line.split(",") for line in captured[1:]}
    assert set(rows) == {"new", "classical"}
    for row in rows.values():
        assert math.isfinite(float(row[1])) and math.isfinite(float(row[2]))
    # mode=both writes one record file per mode, each with T data rows
    for m in ("new", "classical"):
        path = out.with_name(f"records.{m}.csv")
        with open(path) as fh:
            records = list(csv.reader(fh))
        assert len(records) - 1 == 40
        header = records[0]
        assert header[0] == "t"
        assert "f1" in header and "q1" in header and "corr1_2" in header
        # residual echoed as NA at a missing cell (t=6 var 1 in the fixture)
        e1 = header.index("e1")
        assert records[6][e1] == "NA"


def test_records_file_matches_filter_output(tmp_path):
    from mvdlm.cli import _format
    rng = np.random.default_rng(62)
    T, r, p = 30, 2, 3
    values = np.where(rng.random((T, r, p)) < 0.2, np.nan, rng.standard_normal((T, r, p)))
    values[9] = np.nan  # one fully missing row
    data = tmp_path / "data.csv"
    write_csv(data, values)
    config = write_config(
        tmp_path, GOOD_CONFIG.replace("p = 2\nr = 1\nF = [[1.0]]", "p = 3\nr = 2\nF = [[1.0, 1.0]]"))
    assert main(["filter", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "records.csv")]) == 0
    cfg = load_config(config)
    out = mv.filter(cfg.model, values, cfg.prior, mode="new")
    with open(tmp_path / "records.new.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))

    cells = [(j, k) for j in range(p) for k in range(r)]  # variable outer, replicate inner
    upper = [(i, j) for i in range(p) for j in range(i, p)]
    strict = [(i, j) for i, j in upper if i < j]
    assert header == (
        ["t"] + [f"f{j + 1}_{k + 1}" for j, k in cells] + [f"q{k + 1}" for k in range(r)]
        + [f"e{j + 1}_{k + 1}" for j, k in cells] + [f"s{i + 1}_{j + 1}" for i, j in upper]
        + [f"n{j + 1}" for j in range(p)] + [f"corr{i + 1}_{j + 1}" for i, j in strict])
    assert len(rows) == T
    for t, row in enumerate(rows):
        S = out.S[t]
        assert row == (
            [str(t + 1)]
            + [_format(out.f[t, k, j]) for j, k in cells]
            + [_format(out.Q[t, k, k]) for k in range(r)]
            + ["NA" if np.isnan(values[t, k, j]) else _format(out.e[t, k, j]) for j, k in cells]
            + [_format(S[i, j]) for i, j in upper]
            + [_format(x) for x in out.n[t]]
            + [_format(S[i, j] / (math.sqrt(S[i, i]) * math.sqrt(S[j, j]))) for i, j in strict]
        ), t
    e_na = np.array([[row[header.index(f"e{j + 1}_{k + 1}")] == "NA" for j, k in cells]
                     for row in rows])
    assert np.array_equal(e_na, np.isnan(values).transpose(0, 2, 1).reshape(T, p * r))


def test_filter_summary_rows_identical_without_missing(tmp_path, capsys):
    config = write_config(tmp_path, GOOD_CONFIG)
    data = make_series(tmp_path, n_missing=0)
    code = main(["filter", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    new_row = next(l for l in lines if l.startswith("new,"))
    cls_row = next(l for l in lines if l.startswith("classical,"))
    assert new_row.split(",")[1:] == cls_row.split(",")[1:]


def test_filter_mode_override_single_output(tmp_path):
    config = write_config(tmp_path, GOOD_CONFIG)
    data = make_series(tmp_path)
    out = tmp_path / "single.csv"
    code = main(["filter", "--config", str(config), "--data", str(data),
                 "--mode", "new", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_filter_dimension_mismatch_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, GOOD_CONFIG)
    data = write_data(tmp_path, ["1,2,3"], header="y1,y2,y3")
    assert main(["filter", "--config", str(config), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err == "error: data has r=1, p=3 but the model declares r=1, p=2\n"


def test_config_error_exits_2(tmp_path, capsys):
    bad = GOOD_CONFIG.replace("discount = 0.9", "discount = 0.9\nW = [[0.1]]")
    config = write_config(tmp_path, bad)
    data = make_series(tmp_path)
    assert main(["filter", "--config", str(config), "--data", str(data)]) == 2
    assert "discount" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,words", [
    ("discount = 0.9", "discount = 1.7", ("discount",)),
    ("discount = 0.9", "discount = 0", ("discount",)),
    ("discount = 0.9", "discount = 0.9\nW = [[0.1]]", ("W", "discount")),
    ("discount = 0.9\n", "", ("W", "discount")),
])
def test_model_rule_errors_exit_2_with_one_section_prefix(tmp_path, capsys, old, new, words):
    # ModelSpec enforces these rules; the CLI reports them as config errors
    config = write_config(tmp_path, GOOD_CONFIG.replace(old, new))
    data = make_series(tmp_path)
    assert main(["filter", "--config", str(config), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [model]"), err
    assert all(word in err for word in words), err
    assert err.count("[model]") == 1, err


def test_numerical_failure_exits_3_with_time_index(tmp_path, capsys):
    bad = GOOD_CONFIG.replace("V = identity", "V = [[-1.0]]")
    config = write_config(tmp_path, bad)
    data = make_series(tmp_path)
    assert main(["filter", "--config", str(config), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "t=2" in err


def test_both_modes_fail_as_the_updating_mode_does(tmp_path, capsys):
    # The residual of variable 1 overflows at t = 2, where variable 2 is
    # missing: only the new mode updates there.
    config = write_config(tmp_path, GOOD_CONFIG.replace("m0 = zeros", "m0 = [[-1e308, 0.0]]")
                          .replace("P0 = 1e6", "P0 = 1e-6"))
    data = write_data(tmp_path, ["NA,NA", "1e308,NA", "1.0,2.0"])
    runs = {}
    for mode in ("new", "both", "classical"):
        code = main(["filter", "--config", str(config), "--data", str(data), "--mode", mode,
                     "--out", str(tmp_path / f"{mode}.csv")])
        runs[mode] = (code, capsys.readouterr().err)
    assert runs["both"] == runs["new"]
    assert runs["new"][0] == 3 and "t=2: forecast residual e is not finite" in runs["new"][1]
    assert runs["classical"] == (0, "")


def run_cli(*args):
    """Run ``mvdlm`` in a fresh interpreter, with Python's default warning
    filters; returns the exit code and standard error."""
    src = str(Path(mv.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    script = "import sys; from mvdlm.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)), capture_output=True, text=True,
        timeout=120,
    )
    return proc.returncode, proc.stderr


def test_overflowing_input_prints_no_numpy_warning(tmp_path):
    # y1 - f overflows at t = 2 (new mode fails there) and at t = 4, where
    # the classical run goes on: its records and MSSE hold NA instead.
    config = write_config(tmp_path, GOOD_CONFIG.replace("m0 = zeros", "m0 = [[-1e308, 0.0]]")
                          .replace("P0 = 1e6", "P0 = 1e-6"))
    data = write_data(tmp_path, ["NA,NA", "1e308,NA", "1.0,2.0", "-1e308,1.0"])
    runs = {mode: run_cli("filter", "--config", str(config), "--data", str(data), "--mode", mode,
                          "--out", str(tmp_path / f"{mode}.csv"))
            for mode in ("new", "classical")}
    assert runs["new"] == (3, "numerical failure: t=2: forecast residual e is not finite\n")
    assert runs["classical"] == (0, "")


def test_never_observed_variable_has_na_msse(tmp_path, capsys):
    config = write_config(tmp_path, GOOD_CONFIG)
    data = write_data(tmp_path, ["0.1,NA", "0.3,NA", "-0.2,na", "0.4,"])
    out = tmp_path / "records.csv"
    assert main(["filter", "--config", str(config), "--data", str(data),
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    cfg = load_config(config)
    for line in lines[1:]:
        mode, msse_1, msse_2, _ = line.split(",")
        output = mv.filter(cfg.model, parse_csv(data), cfg.prior, mode=mode)
        assert float(msse_1) > 0.0
        assert msse_2 == "NA"
        assert out.with_name(f"records.{mode}.csv").exists()
        # the library still has no MSSE for such a variable
        with pytest.raises(mv.DomainError, match="variable 1 is never observed"):
            mv.msse(output)
    assert [line.split(",")[0] for line in lines[1:]] == ["new", "classical"]


def test_table_writer_matches_row_by_row_formatting(tmp_path):
    from mvdlm.cli import _write_table
    rng = np.random.default_rng(63)
    # 600 rows span three blocks of the writer; the special rows sit at the
    # first and last row of the table and on both sides of a block edge
    table = rng.standard_normal((600, 4)) * 10.0 ** rng.integers(-15, 15, (600, 4))
    table[[0, 255, 256, 599]] = [np.nan, np.inf, -np.inf, -0.0]
    path = tmp_path / "table.csv"
    _write_table(path, ["a", "b", "c", "d"], table)
    want = "a,b,c,d\r\n" + "".join(
        ",".join("%.10g" % x if math.isfinite(x) else "NA" for x in row) + "\r\n"
        for row in table)
    assert path.read_bytes() == want.encode()
    assert "NA,NA,NA,-0\r\n" in want


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

SIM_CONFIG = """\
[model]
d = 1
p = 2
r = 1
F = [[1.0]]
G = identity
V = identity
discount = 0.5

[prior]
m0 = zeros
P0 = 1e6
S0 = identity
N0 = 1.0

[simulate]
T = 100
corr = 0.8
seed = 0
replications = 8
pattern = {24: [2], 43: [2], 60: [1, 2], 75: [1], 86: [2]}
"""


def test_simulate_end_to_end(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG)
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--out", str(out_dir)])
    assert code == 0
    for name in ("data.csv", "forecasts.csv", "replications.csv", "summary.txt"):
        assert (out_dir / name).exists(), name
    with open(out_dir / "data.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 100
    assert rows[24][1] == "NA"  # t=24: variable 2 masked
    summary = (out_dir / "summary.txt").read_text().splitlines()
    assert summary[0] == "mode,msse_1,msse_2,mean_missing_corr"
    new_cols = summary[1].split(",")
    assert new_cols[0] == "new"
    assert all(math.isfinite(float(x)) for x in new_cols[1:])
    assert any(line.startswith("new_wins_componentwise_fraction,") for line in summary)
    assert any(line == "partial_missing_times,24 43 75 86" for line in summary)
    stdout = capsys.readouterr().out
    assert "mode,msse_1,msse_2,mean_missing_corr" in stdout


def test_simulate_forecasts_file_holds_replication_zero_forecasts(tmp_path):
    from mvdlm.cli import _format

    config = write_config(tmp_path, SIM_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    with open(out_dir / "forecasts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "f1_new", "f2_new", "f1_classical", "f2_classical"]
    assert len(rows) - 1 == 100
    summary = mv.replicate_experiment(
        8, mv.LocalLevelConfig(T=100, corr=0.8, seed=0), mv.DEFAULT_MISSING_PATTERN,
        model=mv.local_level_model(discount=0.5),
    )
    for t, row in enumerate(rows[1:]):
        f = np.concatenate([summary.first_new.f[t, 0], summary.first_classical.f[t, 0]])
        assert row == [str(t + 1)] + [_format(x) for x in f], t


def test_simulate_single_replication_matches_direct_run(tmp_path):
    config_text = SIM_CONFIG.replace("replications = 8", "replications = 1")
    config = write_config(tmp_path, config_text)
    out_dir = tmp_path / "out1"
    assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    with open(out_dir / "replications.csv") as fh:
        rows = {(r["replication"], r["mode"]): r for r in csv.DictReader(fh)}
    # direct invocation of the underlying pieces with the same seed
    cfg = mv.LocalLevelConfig(T=100, corr=0.8, seed=0)
    _, data = mv.gen_local_level(cfg)
    obs = mv.apply_missing(data, mv.DEFAULT_MISSING_PATTERN)
    model = mv.local_level_model(discount=0.5)
    for mode in ("new", "classical"):
        out = mv.filter(model, obs, mv.default_prior(), mode=mode)
        ref = mv.msse(out)
        row = rows[("0", mode)]
        assert float(row["msse_1"]) == pytest.approx(ref[0], rel=1e-9)
        assert float(row["msse_2"]) == pytest.approx(ref[1], rel=1e-9)


def test_summary_tables_pin_their_bytes(tmp_path, capsys):
    # replications.csv (CRLF, NA for the classical correlation), summary.txt
    # and both commands' stdout, rebuilt cell by cell with _format
    from mvdlm.cli import _format

    def line(*cells):
        return ",".join(c if isinstance(c, str) else _format(c) for c in cells)

    config = write_config(tmp_path, SIM_CONFIG)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    s = mv.replicate_experiment(
        8, mv.LocalLevelConfig(T=100, corr=0.8, seed=0), mv.DEFAULT_MISSING_PATTERN,
        model=mv.local_level_model(discount=0.5),
    )
    want = [line("replication", "mode", "msse_1", "msse_2", "mean_missing_corr")]
    for i in range(8):
        want += [line(str(i), "new", *s.msse_new[i], s.partial_corr[i].mean()),
                 line(str(i), "classical", *s.msse_classical[i], "NA")]
    assert (tmp_path / "out" / "replications.csv").read_bytes() == "".join(
        row + "\r\n" for row in want).encode()
    want = "".join(row + "\n" for row in [
        "mode,msse_1,msse_2,mean_missing_corr",
        line("new", *s.mean_msse_new, s.mean_partial_corr),
        line("classical", *s.mean_msse_classical, "NA"),
        "replications,8",
        line("new_wins_componentwise_fraction", s.win_fraction),
        "partial_missing_times,24 43 75 86",
    ])
    assert (tmp_path / "out" / "summary.txt").read_bytes() == want.encode()
    assert capsys.readouterr().out == want

    # filter: variable 3 is never observed, so every updating step is partial
    rng = np.random.default_rng(64)
    values = np.where(rng.random((30, 1, 3)) < 0.2, np.nan, rng.standard_normal((30, 1, 3)))
    values[:, :, 2] = np.nan
    values[7] = np.nan
    write_csv(tmp_path / "data.csv", values)
    config = write_config(tmp_path, GOOD_CONFIG.replace("p = 2", "p = 3"))
    assert main(["filter", "--config", str(config), "--data", str(tmp_path / "data.csv"),
                 "--out", str(tmp_path / "records.csv")]) == 0
    cfg = load_config(config)
    want = [line("mode", "msse_1", "msse_2", "msse_3", "mean_missing_corr")]
    for mode in ("new", "classical"):
        out = mv.filter(cfg.model, values, cfg.prior, mode=mode)
        # the library has no MSSE for variable 3, so score variables 1 and 2 alone
        msse = mv.msse(replace(out, std_err=out.std_err[..., :2], observed=out.observed[..., :2]))
        partial = [t for t in range(30) if out.observed[t].any() and not out.observed[t].all()]
        corr = [out.S[t, i, j] / (math.sqrt(out.S[t, i, i]) * math.sqrt(out.S[t, j, j]))
                for t in partial for i, j in ((0, 1), (0, 2), (1, 2))]
        want.append(line(mode, *msse, "NA", np.mean(corr)))
    assert capsys.readouterr().out == "".join(row + "\n" for row in want)


def test_simulate_requires_simulate_section(tmp_path, capsys):
    config = write_config(tmp_path, GOOD_CONFIG)
    assert main(["simulate", "--config", str(config)]) == 2
    assert "simulate" in capsys.readouterr().err


SIM_PATTERN = "pattern = {24: [2], 43: [2], 60: [1, 2], 75: [1], 86: [2]}"


@pytest.mark.parametrize("old,new", [
    ("seed = 0", "seed = abc"),
    ("seed = 0", "seed = -1"),
    ("replications = 8", "replications = 2.5"),
    (SIM_PATTERN, "pattern = {24: 2}"),
    (SIM_PATTERN, "pattern = {24: ['x']}"),
    (SIM_PATTERN, "pattern = {200: [1]}"),  # beyond T = 100
    (SIM_PATTERN, "pattern = {24: [3]}"),  # beyond p = 2
    (SIM_PATTERN, "pattern = {%s}" % ", ".join(f"{t}: [2]" for t in range(1, 101))),
    (SIM_PATTERN, "pattern = {24: [True], True: [2]}"),  # used to run as {24: [1], 1: [2]}
    (SIM_PATTERN, "pattern = {[24]: [2]}"),  # an unhashable key used to end in a traceback
    ("p = 2", "p = 3"),
    ("corr = 0.8", "corr = 0.8\nobs_var = [nan, 1.0]"),
    ("corr = 0.8", "corr = 0.8\nlevel_var = [1e999, 0.1]"),
    # an int beyond int64 used to end in a traceback from np.zeros((T, 2))
    ("T = 100", "T = 1000000000000000000000000000000"),
    (SIM_PATTERN, "pattern = [24, 2]"),
    (SIM_PATTERN, "pattern = {24: 'ab'}"),
], ids=["seed", "seed-negative", "replications", "pattern-value", "pattern-entry", "pattern-time",
        "pattern-variable", "pattern-never-observed", "pattern-bool", "pattern-list-key", "model-p",
        "obs-var-nan", "level-var-inf", "T-huge-int", "pattern-list", "pattern-text"])
def test_simulate_bad_input_is_config_error(tmp_path, capsys, old, new):
    assert old in SIM_CONFIG
    config = write_config(tmp_path, SIM_CONFIG.replace(old, new))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("T", ["1e30", "1000000000000000000"], ids=["float", "int64"])
def test_length_numpy_cannot_allocate_filters_and_simulate_is_an_error(tmp_path, capsys, T):
    # the config used to end in a traceback from np.zeros((T, 2)): filter reads
    # no T-sized array, and simulate cannot draw T steps
    config = write_config(tmp_path, SIM_CONFIG.replace("T = 100", f"T = {T}"))
    data = write_data(tmp_path, ["1.0,2.0", "NA,0.5", "0.3,NA"])
    argv = ["filter", "--config", str(config), "--data", str(data),
            "--out", str(tmp_path / "records.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot draw a series of T=") and err.count("\n") == 1
    # the output directory is made only after the study has run
    assert not (tmp_path / "out").exists()


# a [simulate] block that breaks one of the study's rules: the edits, the
# data's p and the message of simulate's error line
STUDY_ONLY = {
    "never-observed": ([(SIM_PATTERN, "pattern = {1: [2], 2: [2], 3: [2]}"), ("T = 100", "T = 3")],
                       2, "pattern leaves variable 2 missing at every t, "
                          "so the study cannot score it"),
    "model-p": ([("p = 2", "p = 3")],
                3, "the study's bivariate local level needs p = 2, r = 1, got p = 3, r = 1"),
    "pattern-time": ([(SIM_PATTERN, "pattern = {200: [1]}")],
                     2, "pattern time 200 exceeds series length 100"),
}


@pytest.mark.parametrize("name", STUDY_ONLY)
def test_study_rules_bind_simulate_and_not_filter(tmp_path, capsys, name):
    # the study's rules are replicate_experiment's: filter, which runs no
    # study, reads the same config and exits 0
    edits, p, message = STUDY_ONLY[name]
    text = SIM_CONFIG
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    config = write_config(tmp_path, text)
    data = write_data(tmp_path, ["1.0," * (p - 1) + "2.0", "NA," * (p - 1) + "0.5"],
                      header=",".join(f"y{j}" for j in range(1, p + 1)))
    argv = ["filter", "--config", str(config), "--data", str(data),
            "--out", str(tmp_path / "records.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_simulate_data_file_holds_the_observations_the_study_filtered(tmp_path):
    # non-unit variances and a seed other than 0, so the draw reads every value
    text = SIM_CONFIG.replace("corr = 0.8", "corr = -0.3\nobs_var = [2.5, 0.4]")
    config = write_config(tmp_path, text.replace("seed = 0", "seed = 11"))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    block = load_config(config).simulate
    model = mv.local_level_model(discount=0.5)
    summary = mv.replicate_experiment(block.replications, block.cfg, block.pattern, model=model)
    data = parse_csv(out_dir / "data.csv")
    assert np.array_equal(data, summary.first_y, equal_nan=True)
    drawn = mv.apply_missing(mv.gen_local_level(block.cfg)[1], block.pattern)
    assert np.array_equal(summary.first_y, drawn, equal_nan=True)
    # filtering the file gives the study's replication 0, up to the batch's rounding
    for mode, want in (("new", summary.first_new), ("classical", summary.first_classical)):
        out = mv.filter(model, data, mv.default_prior(), mode=mode)
        for name in ("f", "m", "S"):
            assert np.allclose(getattr(out, name), getattr(want, name), rtol=1e-12, atol=0), name


def test_pattern_that_lists_every_step_is_read_without_a_series(tmp_path):
    # every t listed, yet each variable observed at some t: a valid study
    every = "pattern = {%s}" % ", ".join(f"{t}: [{1 + t % 2}]" for t in range(1, 101))
    config = load_config(write_config(tmp_path, SIM_CONFIG.replace(SIM_PATTERN, every)))
    assert len(config.simulate.pattern.missing) == 100


def test_simulate_pattern_takes_tuples_and_sets_as_the_library_does(tmp_path):
    lists = load_config(write_config(tmp_path, SIM_CONFIG, name="lists.ini"))
    text = SIM_CONFIG.replace(SIM_PATTERN, "pattern = {24: (2,), 43: {2}, 60: (1, 2), "
                                           "75: {1}, 86: [2]}")
    other = load_config(write_config(tmp_path, text, name="other.ini"))
    assert other.simulate.pattern == lists.simulate.pattern


def test_simulate_single_step_boundary(tmp_path):
    text = SIM_CONFIG.replace("T = 100", "T = 1").replace(
        "pattern = {24: [2], 43: [2], 60: [1, 2], 75: [1], 86: [2]}", "pattern = {}")
    config = write_config(tmp_path, text)
    out_dir = tmp_path / "tiny"
    assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    with open(out_dir / "data.csv") as fh:
        assert len(list(csv.reader(fh))) == 2  # header + one row


def test_simulate_aggregate_correlation_in_range(tmp_path):
    # 100 replications of the default design: the averaged correlation
    # estimate at partially missing times recovers the generating 0.8
    # to within the documented band.
    text = SIM_CONFIG.replace("replications = 8", "replications = 100")
    config = write_config(tmp_path, text)
    out_dir = tmp_path / "agg"
    assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    summary = (out_dir / "summary.txt").read_text().splitlines()
    new_cols = summary[1].split(",")
    corr = float(new_cols[3])
    assert 0.7 <= corr <= 0.9
