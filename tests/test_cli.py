"""Subcommand surfaces and exit codes, driven in-process through cli.main."""

import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tickpred.cli import build_parser, main
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

    assert main(["quantize", "--input", "series/000001.csv", "--setting", "T=0.05", "--out", "states.csv"]) == 0
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
        "--series", "series/000001.csv", "--setting", "T=0.05", "--out", "trace.csv",
    ]) == 0
    trace = _read_rows("trace.csv")
    assert len(trace) == len(states) - 1 - 300
    assert trace[0]["index"] == "300"

    assert main([
        "evaluate", "--trace", "trace.csv", "--series", "series/000001.csv", "--setting", "T=0.05",
        "--model", "mc", "--out", "eval.csv", "--json",
    ]) == 0
    row = _read_rows("eval.csv")[0]
    assert 0.0 <= float(row["acc"]) <= 1.0
    assert json.loads(Path("eval.json").read_text())[0]["stock_code"] == "000001"


def _stage_chain_reproduces_run_all(model, rmse_against):
    """Every ``model`` row of run-all's evaluation.csv, rebuilt by the stage commands under the same config."""
    Path("run.cfg").write_text(
        "input = ticks.csv\nintervals = 0.01, 0.05\nstate_count = 20\nmin_length = 100\nmin_states = 5\n"
        f"dk_epochs = 2\nseed = 7\nrmse_against = {rmse_against}\noutput_dir = out\n"
    )
    assert main(["run-all", "--config", "run.cfg"]) == 0
    metrics = ("acc", "rmse", "rmse_ratio_permille", "n_test")
    expected = {
        (r["stock_code"], r["setting"]): [r[k] for k in metrics]
        for r in _read_rows("out/reports/evaluation.csv")
        if r["model"] == model
    }
    assert len(expected) == 9  # every (stock, setting) pair of the fixture is kept
    assert main(["ingest", "--input", "ticks.csv", "--out", "series", "--config", "run.cfg"]) == 0
    for (code, setting), row in expected.items():
        series, config = f"series/{code}.csv", ["--config", "run.cfg", "--setting", setting]
        assert main(["quantize", "--input", series, *config, "--out", "s.csv"]) == 0
        assert main(["predict", "--model", model, "--input", "s.csv", "--series", series, *config, "--out", "t.csv"]) == 0
        assert main(["evaluate", "--trace", "t.csv", "--series", series, *config, "--out", "e.csv"]) == 0
        assert [_read_rows("e.csv")[0][k] for k in metrics] == row, (code, setting, rmse_against)


def test_stage_chain_reproduces_run_all_mc_rows(workspace):
    for rmse_against in ("raw", "state"):  # evaluate scores against the truth the config names
        _stage_chain_reproduces_run_all("mc", rmse_against)


def test_stage_chain_reproduces_run_all_dk_rows(workspace):
    for rmse_against in ("raw", "state"):  # predict seeds each (stock, setting) as run-all does
        _stage_chain_reproduces_run_all("dk", rmse_against)


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
            "--config", "run.cfg", "--setting", f"T={interval}",
        ]) == 0
        report = _read_rows("ingest.csv")
        assert [r["stock_code"] for r in report] == ["000001", "000002", "600000", "777777"]
        for r in report:
            reason = drops.get((r["stock_code"], f"T={interval}"), "")
            assert (r["reason"], r["kept"]) == (reason, "0" if reason else "1"), (interval, r)
            assert Path(f"series{interval}/{r['stock_code']}.csv").exists() == (not reason)


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--input", "ticks.csv", "--out", "series"],
        ["quantize", "--input", "series.csv", "--out", "s.csv"],
        ["predict", "--model", "dk", "--input", "s.csv", "--series", "series.csv"],
    ],
    ids=["ingest", "quantize", "predict"],
)
def test_setting_not_in_config_is_config_error_listing_its_settings(workspace, capsys, argv):
    Path("run.cfg").write_text("intervals = 0.01, 0.30\nstate_count = 20\n")
    assert main([*argv, "--config", "run.cfg", "--setting", "T=0.3"]) == 1
    err = capsys.readouterr().err
    assert err == "config error: setting 'T=0.3' is not in the config; its settings: T=0.01, T=0.30, SP=20\n", err
    assert not Path("series").exists()


def test_ingest_checks_its_config_as_run_all_does(workspace, capsys):
    Path("run.cfg").write_text("input = ticks.csv\nmin_length = 0\nmin_states = 0\n")
    assert main(["run-all", "--config", "run.cfg"]) == 1
    assert main(["ingest", "--input", "ticks.csv", "--out", "series", "--config", "run.cfg", "--setting", "T=0.01"]) == 1
    assert capsys.readouterr().err == "config error: min_length must be >= 3\n" * 2
    assert not Path("series").exists()


def test_readme_cli_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) == 9
    parser = build_parser()
    for command in commands:
        assert command[0] == "tickpred"
        assert parser.parse_args(command[1:]).command == command[1]


def test_package_and_cli_import_needs_numpy_only():
    # scipy, hypothesis and pytest are test extras: an install with numpy alone must import the package and its CLI
    code = "import json, sys, tickpred, tickpred.cli, tickpred.features; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = {name.split(".")[0] for name in json.loads(out)}
    assert "numpy" in loaded and not loaded & {"scipy", "hypothesis", "pytest"}


def test_state_count_needs_a_second_day(workspace, capsys):
    write_tick_fixture("one_day.csv", codes=("777777",), days=1, ticks_per_day=300)
    assert main(["ingest", "--input", "one_day.csv", "--out", "series"]) == 0
    capsys.readouterr()
    Path("sp.cfg").write_text("state_count = 20\n")
    argv = ["quantize", "--input", "series/777777.csv", "--config", "sp.cfg", "--setting", "SP=20", "--out", "s.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "data error: fixed state count needs a training day to anchor the range\n", err
    assert not Path("s.csv").exists()


def test_predict_states_and_series_of_different_lengths_is_data_error(workspace, capsys):
    assert main(["ingest", "--input", "ticks.csv", "--out", "series"]) == 0
    assert main(["quantize", "--input", "series/000001.csv", "--setting", "T=0.01", "--out", "s.csv"]) == 0
    Path("short.csv").write_text("".join(Path("s.csv").read_text().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    argv = ["predict", "--model", "mc", "--input", "short.csv", "--series", "series/000001.csv", "--setting", "T=0.01"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "short.csv" in err and "series/000001.csv" in err, err


SHORT_SERIES = "epoch_seconds,price_hundredths\n0,100\n1,101\n2,102\n3,101\n4,103\n"  # mean price 1.014 CNY


@pytest.mark.parametrize(
    "rmse_against, rmse, ratio",
    [
        ("state", "0.00707106781187", "6.97343965667"),  # truths 1.015, 1.035: the midpoints of the actual states
        ("raw", "0.005", "4.93096646943"),  # truths 1.01, 1.03: the prices at index 3 and 4
    ],
    ids=["state", "raw"],
)
def test_evaluate_scores_against_the_truth_the_config_names(workspace, rmse_against, rmse, ratio):
    Path("trace.csv").write_text("index,predicted,actual\n3,101,101\n4,102,103\n")  # predicted 1.015, 1.025 CNY
    Path("short.csv").write_text(SHORT_SERIES)
    Path("run.cfg").write_text(f"intervals = 0.01\nrmse_against = {rmse_against}\n")
    argv = ["evaluate", "--trace", "trace.csv", "--series", "short.csv", "--config", "run.cfg", "--setting", "T=0.01"]
    assert main([*argv, "--out", "e.csv"]) == 0
    row = _read_rows("e.csv")[0]
    assert row == {"stock_code": "short", "model": "", "acc": "0.5", "rmse": rmse, "rmse_ratio_permille": ratio, "n_test": "2"}


def test_evaluate_index_outside_series_names_both_files(workspace, capsys):
    Path("trace.csv").write_text("index,predicted,actual\n3,1,1\n4,2,1\n")
    Path("short.csv").write_text("epoch_seconds,price_hundredths\n0,100\n1,101\n2,102\n3,101\n")
    assert main(["evaluate", "--trace", "trace.csv", "--series", "short.csv", "--setting", "T=0.01"]) == 2
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
    assert main(["quantize", "--input", "series/000002.csv", "--setting", "T=0.01", "--out", "s.csv"]) == 0
    capsys.readouterr()  # drain the ingest report
    assert main(["entropy", "--input", "s.csv", "--nats"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("stock_code,n,n_distinct,s_est,s_est_nats")


def test_stdout_matches_file_output(workspace, capsys):
    assert main(["ingest", "--input", "ticks.csv", "--out", "series", "--report", "ingest.csv"]) == 0
    capsys.readouterr()
    assert main(["ingest", "--input", "ticks.csv", "--out", "series"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == Path("ingest.csv").read_bytes()

    assert main(["quantize", "--input", "series/000001.csv", "--setting", "T=0.01", "--out", "s.csv"]) == 0
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
    Path("tiny.cfg").write_text("intervals = 0.001\n")  # below the price precision
    assert main(["quantize", "--input", "x.csv", "--config", "tiny.cfg", "--setting", "T=0.00", "--out", "y.csv"]) == 1
    assert main(["ingest", "--input", "ticks.csv", "--out", "series", "--config", "tiny.cfg", "--setting", "T=0.00"]) == 1
    assert main(["nonsense-command"]) == 1


@pytest.mark.parametrize(
    "line",
    ["dk_dim = 1", "dk_epochs = 0", "dk_alpha = -1", "dk_negatives = -1"]
    + ["dk_alpha = nan", "dk_alpha = inf", "dk_margin = nan", "dk_margin = inf"],
)
def test_invalid_dk_config_is_config_error(workspace, capsys, line):
    Path("dk.cfg").write_text(f"input = ticks.csv\nprice_column = last_price\noutput_dir = out\n{line}\n")
    assert main(["run-all", "--config", "dk.cfg"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not Path("out/manifest.jsonl").exists()


@pytest.mark.parametrize("flag", [["dk_dim", "1"], ["dk_epochs", "0"], ["dk_alpha", "-1"], ["dk_negatives", "-1"]])
def test_invalid_dk_flags_of_predict_are_config_errors(workspace, capsys, flag):
    # predict takes its DK parameters from the config and checks them before it reads its missing inputs
    key, value = flag
    Path("dk.cfg").write_text(f"{key} = {value}\n")
    Path("s.csv").write_text("state\n" + "".join(f"{s}\n" for s in [1, 2, 3, 1, 2, 3]))
    argv = ["predict", "--model", "dk", "--input", "s.csv", "--series", "nope.csv", "--setting", "T=0.01"]
    assert main([*argv, "--config", "dk.cfg"]) == 1
    assert capsys.readouterr().err.startswith("config error: DK parameters: ")


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
    Path("t.cfg").write_text(f"intervals = {interval}\n")
    setting = f"T={float(interval):.2f}"
    assert main(["quantize", "--input", "series/000001.csv", "--config", "t.cfg", "--setting", setting, "--out", "s.csv"]) == 1
    assert capsys.readouterr().err.startswith(f"config error: interval {interval} ")
    assert not Path("s.csv").exists()


def test_evaluate_json_needs_out(workspace, capsys):
    Path("trace.csv").write_text("index,predicted,actual\n3,1,1\n4,2,1\n")
    Path("short.csv").write_text(SHORT_SERIES)
    assert main(["evaluate", "--trace", "trace.csv", "--series", "short.csv", "--setting", "T=0.01", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: --json writes a mirror of --out, so it needs --out\n" and captured.out == ""


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


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["predictability", "--entropy-file", "nope.csv"], "nope.csv"),
        (["predictability", "--entropy-file", "no_s_est.csv"], "'s_est'"),
        (["evaluate", "--trace", "no_predicted.csv", "--series", "short.csv", "--setting", "T=0.01"], "'predicted'"),
        (["quantize", "--input", "nope.csv", "--setting", "T=0.01", "--out", "s.csv"], "nope.csv"),
        (["entropy", "--input", "nope.csv"], "nope.csv"),
        (["entropy", "--input", "empty.csv"], "empty.csv"),
        (["predict", "--model", "mc", "--input", "nope.csv", "--series", "trace.csv", "--setting", "T=0.01"], "nope.csv"),
        (["evaluate", "--trace", "trace.csv", "--series", "nope.csv", "--setting", "T=0.01"], "nope.csv"),
    ],
    ids=[
        "missing-file",
        "no-s_est-column",
        "no-predicted-column",
        "quantize-missing-input",
        "entropy-missing-input",
        "entropy-empty-input",
        "predict-missing-input",
        "evaluate-missing-prices",
    ],
)
def test_unreadable_input_csv_is_data_error(workspace, capsys, argv, needle):
    Path("no_s_est.csv").write_text("stock_code,n,n_distinct\nA,40,3\n")
    Path("no_predicted.csv").write_text("index,actual\n3,1\n")
    Path("trace.csv").write_text("index,predicted,actual\n3,1,1\n4,2,1\n")
    Path("short.csv").write_text(SHORT_SERIES)
    Path("empty.csv").write_text("")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and needle in err


def test_unwritable_out_is_config_error(workspace, capsys):
    Path("trace.csv").write_text("index,predicted,actual\n3,1,1\n4,2,1\n")
    Path("short.csv").write_text(SHORT_SERIES)
    argv = ["evaluate", "--trace", "trace.csv", "--series", "short.csv", "--setting", "T=0.01", "--out", "no_dir/x.csv"]
    assert main(argv) == 1
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


GBK = "平安银行".encode("gbk")  # Chinese tick vendors often ship GBK, not UTF-8


@pytest.mark.parametrize(
    "argv, exit_code, path",
    [
        (["ingest", "--input", "gbk.csv", "--out", "series"], 2, "gbk.csv"),
        (["quantize", "--input", "gbk.csv", "--setting", "T=0.01", "--out", "s.csv"], 2, "gbk.csv"),
        (["evaluate", "--trace", "trace.csv", "--series", "gbk.csv", "--setting", "T=0.01"], 2, "gbk.csv"),
        (["features", "--per-stock", "per_stock", "--setting", "T=0.01"], 2, "000001.json"),
        (["run-all", "--config", "gbk.cfg"], 1, "gbk.cfg"),
    ],
    ids=["ingest", "quantize", "evaluate-series", "features", "run-all-config"],
)
def test_non_utf8_input_names_its_file(workspace, capsys, argv, exit_code, path):
    Path("gbk.csv").write_bytes(b"code,time,price\n000001,2021-01-04 09:30:00,1.00," + GBK + b"\n")
    Path("per_stock").mkdir()
    Path("per_stock/000001.json").write_bytes(b'{"stock_code": "' + GBK + b'"}')
    Path("gbk.cfg").write_bytes(b"input = " + GBK + b".csv\n")
    Path("trace.csv").write_text("index,predicted,actual\n0,1,1\n")
    assert main(argv) == exit_code
    err = capsys.readouterr().err
    kind = "config error: " if exit_code == 1 else "data error: "
    assert err.startswith(kind) and path in err and "not UTF-8" in err, err
