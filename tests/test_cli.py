"""Subcommand surfaces and exit codes, driven in-process through cli.main."""

import csv
import json
from pathlib import Path

import pytest

from tickpred.cli import main
from tickpred.synthetic import write_tick_fixture


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_tick_fixture(tmp_path / "ticks.csv", ticks_per_day=300)
    return tmp_path


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_full_subcommand_chain(workspace, capsys):
    assert main(["ingest", "--input", "ticks.csv", "--out", "series", "--report", "ingest.csv"]) == 0
    report = _read_rows("ingest.csv")
    assert [r["stock_code"] for r in report] == ["000001", "000002", "600000"]
    assert all(r["kept"] == "1" for r in report)

    assert main([
        "quantize", "--input", "series/000001.csv", "--interval", "0.05",
        "--out", "states.csv", "--scheme-out", "scheme.json",
    ]) == 0
    states = Path("states.csv").read_text().splitlines()
    assert states[0] == "state"
    assert all(s.isdigit() for s in states[1:])

    assert main(["entropy", "--input", "states.csv", "--out", "entropy.csv"]) == 0
    ent = _read_rows("entropy.csv")[0]
    assert set(ent) == {"stock_code", "n", "n_distinct", "s_est"}
    assert ent["stock_code"] == "states"

    assert main(["predictability", "--entropy-file", "entropy.csv", "--out", "pred.csv"]) == 0
    pred = _read_rows("pred.csv")[0]
    assert 0.0 < float(pred["pi_max"]) <= 1.0

    assert main([
        "predict", "--model", "mc", "--input", "states.csv",
        "--series", "series/000001.csv", "--seed", "3", "--out", "trace.csv",
    ]) == 0
    trace = _read_rows("trace.csv")
    assert len(trace) == len(states) - 1 - 300
    assert trace[0]["index"] == "300"

    assert main([
        "evaluate", "--trace", "trace.csv", "--scheme", "scheme.json",
        "--stock-code", "000001", "--model", "mc", "--series", "series/000001.csv",
        "--out", "eval.csv", "--json",
    ]) == 0
    row = _read_rows("eval.csv")[0]
    assert 0.0 <= float(row["acc"]) <= 1.0
    assert json.loads(Path("eval.json").read_text())[0]["stock_code"] == "000001"


def test_stage_chain_reproduces_run_all_mc_rows(workspace):
    Path("run.cfg").write_text(
        "input = ticks.csv\nintervals = 0.01, 0.05\nstate_count = 20\nmin_length = 100\nmin_states = 5\n"
        "seed = 7\noutput_dir = out\n"
    )
    assert main(["run-all", "--config", "run.cfg"]) == 0
    metrics = ("acc", "rmse", "rmse_ratio_permille", "n_test")
    expected = {
        (r["stock_code"], r["setting"]): [r[k] for k in metrics]
        for r in _read_rows("out/reports/evaluation.csv")
        if r["model"] == "mc"
    }
    assert len(expected) == 9  # every (stock, setting) pair of the fixture is kept
    assert main(["ingest", "--input", "ticks.csv", "--out", "series"]) == 0
    for (code, setting), row in expected.items():
        series = f"series/{code}.csv"
        kind, value = setting.split("=")
        flag = ["--interval", value] if kind == "T" else ["--state-count", value]
        assert main(["quantize", "--input", series, *flag, "--out", "s.csv", "--scheme-out", "k.json"]) == 0
        assert main(["predict", "--model", "mc", "--input", "s.csv", "--series", series, "--out", "t.csv"]) == 0
        assert main(["evaluate", "--trace", "t.csv", "--scheme", "k.json", "--series", series, "--out", "e.csv"]) == 0
        assert [_read_rows("e.csv")[0][k] for k in metrics] == row, (code, setting)


def test_ingest_filter_drops_what_run_all_drops(workspace):
    # a one-day stock long enough and varied enough for the filter, which run-all still drops
    write_tick_fixture("one_day.csv", codes=("777777",), days=1, ticks_per_day=1500)
    ticks = Path("ticks.csv").read_text() + "".join(Path("one_day.csv").read_text().splitlines(keepends=True)[1:])
    Path("ticks.csv").write_text(ticks)
    Path("run.cfg").write_text(
        "input = ticks.csv\nintervals = 0.01, 0.05\nmin_length = 100\nmin_states = 6\noutput_dir = out\n"
    )
    assert main(["run-all", "--config", "run.cfg"]) == 0
    drops = {(r["stock_code"], r["setting"]): r["reason"] for r in _read_rows("out/reports/drops.csv")}
    assert drops[("777777", "T=0.01")] == "fewer than 2 trading days"
    assert ("000001", "T=0.05") in drops and ("000001", "T=0.01") not in drops  # a kept and a dropped setting
    for interval in ("0.01", "0.05"):
        assert main([
            "ingest", "--input", "ticks.csv", "--out", f"series{interval}", "--report", "ingest.csv",
            "--filter-interval", interval, "--min-length", "100", "--min-states", "6",
        ]) == 0
        report = _read_rows("ingest.csv")
        assert [r["stock_code"] for r in report] == ["000001", "000002", "600000", "777777"]
        for r in report:
            reason = drops.get((r["stock_code"], f"T={interval}"), "")
            assert (r["reason"], r["kept"]) == (reason, "0" if reason else "1"), (interval, r)
            assert Path(f"series{interval}/{r['stock_code']}.csv").exists() == (not reason)


def test_state_count_needs_a_second_day(workspace, capsys):
    write_tick_fixture("one_day.csv", codes=("777777",), days=1, ticks_per_day=300)
    assert main(["ingest", "--input", "one_day.csv", "--out", "series"]) == 0
    capsys.readouterr()
    assert main(["quantize", "--input", "series/777777.csv", "--state-count", "20", "--out", "s.csv"]) == 2
    err = capsys.readouterr().err
    assert err == "data error: fixed state count needs a training day to anchor the range\n", err
    assert not Path("s.csv").exists()


def test_predict_states_and_series_of_different_lengths_is_data_error(workspace, capsys):
    assert main(["ingest", "--input", "ticks.csv", "--out", "series"]) == 0
    assert main(["quantize", "--input", "series/000001.csv", "--interval", "0.01", "--out", "s.csv"]) == 0
    Path("short.csv").write_text("".join(Path("s.csv").read_text().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    assert main(["predict", "--model", "mc", "--input", "short.csv", "--series", "series/000001.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "short.csv" in err and "series/000001.csv" in err, err


def test_evaluate_without_series_scores_states_and_leaves_ratio_blank(workspace):
    Path("trace.csv").write_text("index,predicted,actual\n3,1,1\n4,2,1\n")
    Path("scheme.json").write_text('{"mode": "fixed_interval", "t_hundredths": 1}')
    assert main(["evaluate", "--trace", "trace.csv", "--scheme", "scheme.json", "--out", "e.csv"]) == 0
    row = _read_rows("e.csv")[0]
    assert (row["acc"], row["rmse"], row["rmse_ratio_permille"], row["n_test"]) == ("0.5", "0.00707106781187", "", "2")


def test_evaluate_index_outside_series_names_both_files(workspace, capsys):
    Path("trace.csv").write_text("index,predicted,actual\n3,1,1\n4,2,1\n")
    Path("scheme.json").write_text('{"mode": "fixed_interval", "t_hundredths": 1}')
    Path("short.csv").write_text("epoch_seconds,price_hundredths\n0,100\n1,101\n2,102\n3,101\n")
    assert main(["evaluate", "--trace", "trace.csv", "--scheme", "scheme.json", "--series", "short.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "trace.csv" in err and "short.csv" in err, err


def test_predictability_short_row_names_file_and_line(workspace, capsys):
    Path("entropy.csv").write_text("stock_code,n,n_distinct,s_est\nA,40,3,1.5\nB,40,3\n")
    assert main(["predictability", "--entropy-file", "entropy.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: entropy.csv: line 3") and "s_est" in err and "Traceback" not in err, err


@pytest.mark.parametrize("first", ["+5", "1e1", "7"])
def test_states_file_without_header_is_data_error(workspace, capsys, first):
    Path("s.csv").write_text(f"{first}\n" + "".join(f"{s}\n" for s in [1, 2, 3, 1, 2, 3]))
    assert main(["entropy", "--input", "s.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: s.csv") and "state" in err, err


def test_correlate_names_a_bad_value(workspace, capsys):
    header = "stock_code,avgprice,volatility,life,scale,category,region,acc_mc,acc_dk,pi_max\n"
    rows = [f"{c},{p},0.01,,,,,0.6,{a},0.8\n" for c, p, a in [("A", 10, 0.6), ("B", 12, 0.5), ("C", 9, 0.7)]]
    Path("features.csv").write_text(header + "".join(rows))
    assert main(["correlate", "--features", "features.csv", "--out-dir", "corr"]) == 0  # blank fields skip rows
    capsys.readouterr()
    Path("features.csv").write_text(header + "".join(rows) + "D,x,0.01,,,,,0.6,0.6,0.8\n")
    assert main(["correlate", "--features", "features.csv", "--out-dir", "corr"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: features.csv") and "avgprice" in err and "D" in err, err


def test_entropy_nats_flag(workspace, capsys):
    assert main(["ingest", "--input", "ticks.csv", "--out", "series"]) == 0
    assert main(["quantize", "--input", "series/000002.csv", "--interval", "0.01", "--out", "s.csv"]) == 0
    capsys.readouterr()  # drain the ingest report
    assert main(["entropy", "--input", "s.csv", "--nats"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("stock_code,n,n_distinct,s_est,s_est_nats")


def test_stdout_matches_file_output(workspace, capsys):
    assert main(["ingest", "--input", "ticks.csv", "--out", "series", "--report", "ingest.csv"]) == 0
    capsys.readouterr()
    assert main(["ingest", "--input", "ticks.csv", "--out", "series"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == Path("ingest.csv").read_bytes()

    assert main(["quantize", "--input", "series/000001.csv", "--interval", "0.01", "--out", "s.csv"]) == 0
    assert main(["entropy", "--input", "s.csv", "--nats", "--out", "entropy.csv"]) == 0
    capsys.readouterr()
    assert main(["entropy", "--input", "s.csv", "--nats"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == Path("entropy.csv").read_bytes()


def test_comma_in_stock_code_round_trips(workspace):
    Path("a,b.csv").write_text("state\n" + "\n".join(["1", "2", "3", "2"] * 10) + "\n")
    assert main(["entropy", "--input", "a,b.csv", "--out", "entropy.csv"]) == 0
    assert Path("entropy.csv").read_text().splitlines()[1].startswith('"a,b",40,3,')
    assert main(["predictability", "--entropy-file", "entropy.csv", "--out", "pred.csv"]) == 0
    pred = _read_rows("pred.csv")
    assert [r["stock_code"] for r in pred] == ["a,b"]
    assert 0.0 < float(pred[0]["pi_max"]) <= 1.0


def test_run_all_and_feature_chain(workspace):
    Path("run.cfg").write_text(
        "input = ticks.csv\nintervals = 0.01, 0.05\nmin_length = 100\nmin_states = 5\n"
        "seed = 7\noutput_dir = out\n"
    )
    assert main(["run-all", "--config", "run.cfg", "--json"]) == 0
    assert Path("out/reports/summary.json").is_file()

    Path("meta.csv").write_text(
        "stock_code,life,scale,category,region\n"
        "000001,10,5000,3,5\n000002,4,800,16,2\n600000,25,12000,10,25\n"
    )
    assert main([
        "features", "--per-stock", "out/per_stock", "--setting", "T=0.05",
        "--metadata", "meta.csv", "--out", "features.csv",
    ]) == 0
    rows = _read_rows("features.csv")
    assert len(rows) == 3
    assert rows[0]["category"] == "3"

    assert main(["correlate", "--features", "features.csv", "--out-dir", "corr", "--json"]) == 0
    corr = _read_rows("corr/correlations.csv")
    assert {r["feature"] for r in corr} <= {"avgprice", "volatility", "life", "scale"}
    assert Path("corr/binned_avgprice.csv").is_file()


def test_print_config_lists_defaults(workspace, capsys):
    assert main(["run-all", "--print-config"]) == 0
    assert capsys.readouterr().out == (
        "input = \n"
        "code_column = 1\n"
        "time_column = 2\n"
        "price_column = 3\n"
        "intervals = 0.01, 0.05\n"
        "state_count = \n"
        "min_length = 1000\n"
        "min_states = 10\n"
        "dk_dim = 16\n"
        "dk_epochs = 20\n"
        "dk_alpha = 0.1\n"
        "dk_margin = 1\n"
        "dk_negatives = 5\n"
        "seed = 0\n"
        "rmse_against = raw\n"
        "volatility_n = returns\n"
        "output_dir = out\n"
        "workers = 1\n"
    )


def test_exit_codes(workspace):
    assert main(["run-all", "--config", "missing.cfg"]) == 1  # config error
    assert main(["run-all"]) == 1  # no config given
    Path("bad.cfg").write_text("input = nowhere.csv\noutput_dir = out\n")
    assert main(["run-all", "--config", "bad.cfg"]) == 2  # data error
    Path("short.csv").write_text("code,time,price\nA,2021-01-04 09:30:00,1.00\nA,2021-01-05 09:30:00,1.01\n")
    Path("partial.cfg").write_text("input = short.csv, ticks.csv\nmin_length = 100\nmin_states = 5\noutput_dir = outp\n")
    assert main(["run-all", "--config", "partial.cfg"]) == 3  # partial failure
    assert main(["quantize", "--input", "x.csv", "--interval", "0.001", "--out", "y.csv"]) == 1
    assert main(["ingest", "--input", "ticks.csv", "--out", "series", "--filter-interval", "0.001"]) == 1
    assert main(["nonsense-command"]) == 1


@pytest.mark.parametrize("line", ["dk_dim = 1", "dk_epochs = 0", "dk_alpha = -1", "dk_negatives = -1"])
def test_invalid_dk_config_is_config_error(workspace, capsys, line):
    Path("dk.cfg").write_text(f"input = ticks.csv\nprice_column = last_price\noutput_dir = out\n{line}\n")
    assert main(["run-all", "--config", "dk.cfg"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not Path("out/manifest.jsonl").exists()


@pytest.mark.parametrize("flag", [["--dim", "1"], ["--epochs", "0"], ["--alpha", "-1"], ["--negatives", "-1"]])
def test_invalid_dk_flags_of_predict_are_config_errors(workspace, capsys, flag):
    Path("s.csv").write_text("state\n" + "".join(f"{s}\n" for s in [1, 2, 3, 1, 2, 3]))
    assert main(["predict", "--model", "dk", "--input", "s.csv", "--series", "nope.csv", *flag]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("line", ["intervals = 0.015", "intervals = 0.01, 0.01", "intervals = inf"])
def test_invalid_intervals_of_run_all_are_config_errors(workspace, capsys, line):
    Path("t.cfg").write_text(f"input = ticks.csv\noutput_dir = out\n{line}\n")
    assert main(["run-all", "--config", "t.cfg"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not Path("out/manifest.jsonl").exists()


@pytest.mark.parametrize("interval", ["0.005", "0.015", "nan"])
def test_invalid_quantize_interval_is_config_error(workspace, capsys, interval):
    assert main(["ingest", "--input", "ticks.csv", "--out", "series"]) == 0
    capsys.readouterr()
    assert main(["quantize", "--input", "series/000001.csv", "--interval", interval, "--out", "s.csv"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not Path("s.csv").exists()


def test_evaluate_json_needs_out(workspace, capsys):
    Path("trace.csv").write_text("index,predicted,actual\n3,1,1\n4,2,1\n")
    Path("scheme.json").write_text('{"mode": "fixed_interval", "t_hundredths": 1}')
    assert main(["evaluate", "--trace", "trace.csv", "--scheme", "scheme.json", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.out == ""


def test_ingest_expands_globs_and_reports_missing_files(workspace, capsys):
    lines = Path("ticks.csv").read_text().splitlines(keepends=True)
    half = len(lines) // 2
    Path("day_a.csv").write_text("".join(lines[:half]))
    Path("day_b.csv").write_text(lines[0] + "".join(lines[half:]))
    assert main(["ingest", "--input", "ticks.csv", "--out", "whole", "--report", "whole.csv"]) == 0
    assert main(["ingest", "--input", "day_*.csv", "--out", "split", "--report", "split.csv"]) == 0
    assert Path("split.csv").read_bytes() == Path("whole.csv").read_bytes()
    assert Path("split/000001.csv").read_bytes() == Path("whole/000001.csv").read_bytes()
    capsys.readouterr()
    assert main(["ingest", "--input", "missing.csv", "--out", "series"]) == 2
    assert "input file not found: missing.csv" in capsys.readouterr().err


BAD_SCHEMES = {
    "no-mode.json": "{}",
    "no-width.json": '{"mode": "fixed_interval"}',
    "not-an-object.json": "[1]",
    "zero-count.json": '{"mode": "fixed_count", "sp": 0, "span_hundredths": 5}',
    "unknown-mode.json": '{"mode": "log", "t_hundredths": 1}',
    "fractional-width.json": '{"mode": "fixed_interval", "t_hundredths": 0.5}',
    "not-json.json": "mode = fixed_interval",
}


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["predictability", "--entropy-file", "nope.csv"], "nope.csv"),
        (["predictability", "--entropy-file", "no_s_est.csv"], "'s_est'"),
        (["evaluate", "--trace", "no_predicted.csv", "--scheme", "scheme.json"], "'predicted'"),
        (["quantize", "--input", "nope.csv", "--interval", "0.01", "--out", "s.csv"], "nope.csv"),
        (["entropy", "--input", "nope.csv"], "nope.csv"),
        (["entropy", "--input", "empty.csv"], "empty.csv"),
        (["predict", "--model", "mc", "--input", "nope.csv", "--series", "trace.csv"], "nope.csv"),
        (["evaluate", "--trace", "trace.csv", "--scheme", "nope.json"], "nope.json"),
        (["evaluate", "--trace", "trace.csv", "--scheme", "scheme.json", "--series", "nope.csv"], "nope.csv"),
        *((["evaluate", "--trace", "trace.csv", "--scheme", name], name) for name in BAD_SCHEMES),
    ],
    ids=[
        "missing-file",
        "no-s_est-column",
        "no-predicted-column",
        "quantize-missing-input",
        "entropy-missing-input",
        "entropy-empty-input",
        "predict-missing-input",
        "evaluate-missing-scheme",
        "evaluate-missing-prices",
        *BAD_SCHEMES,
    ],
)
def test_unreadable_input_csv_is_data_error(workspace, capsys, argv, needle):
    Path("no_s_est.csv").write_text("stock_code,n,n_distinct\nA,40,3\n")
    Path("no_predicted.csv").write_text("index,actual\n3,1\n")
    Path("trace.csv").write_text("index,predicted,actual\n3,1,1\n4,2,1\n")
    Path("scheme.json").write_text('{"mode": "fixed_interval", "t_hundredths": 1}')
    Path("empty.csv").write_text("")
    for name, text in BAD_SCHEMES.items():
        Path(name).write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and needle in err


def test_unwritable_out_is_config_error(workspace, capsys):
    Path("trace.csv").write_text("index,predicted,actual\n3,1,1\n4,2,1\n")
    Path("scheme.json").write_text('{"mode": "fixed_interval", "t_hundredths": 1}')
    assert main(["evaluate", "--trace", "trace.csv", "--scheme", "scheme.json", "--out", "no_dir/x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: no_dir/x.csv: ") and "Traceback" not in err


def test_partial_failure_still_writes_reports(workspace):
    Path("short.csv").write_text("code,time,price\nA,2021-01-04 09:30:00,1.00\nA,2021-01-05 09:30:00,1.01\n")
    Path("partial.cfg").write_text("input = short.csv, ticks.csv\nmin_length = 100\nmin_states = 5\noutput_dir = outp\n")
    assert main(["run-all", "--config", "partial.cfg"]) == 3
    manifest_lines = Path("outp/manifest.jsonl").read_text().strip().splitlines()
    statuses = {json.loads(l)["stock"]: json.loads(l)["status"] for l in manifest_lines[1:]}
    assert statuses["A"] == "failed"
    assert sum(1 for s in statuses.values() if s == "done") == 3
    eval_rows = _read_rows("outp/reports/evaluation.csv")
    assert len(eval_rows) == 12
