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
        "--train-end", "300", "--seed", "3", "--out", "trace.csv",
    ]) == 0
    trace = _read_rows("trace.csv")
    assert len(trace) == len(states) - 1 - 300
    assert trace[0]["index"] == "300"

    assert main([
        "evaluate", "--trace", "trace.csv", "--scheme", "scheme.json",
        "--stock-code", "000001", "--model", "mc", "--avgprice", "8.0",
        "--out", "eval.csv", "--json",
    ]) == 0
    row = _read_rows("eval.csv")[0]
    assert 0.0 <= float(row["acc"]) <= 1.0
    assert json.loads(Path("eval.json").read_text())[0]["stock_code"] == "000001"


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
    assert main(["predict", "--model", "dk", "--input", "s.csv", "--train-end", "4", *flag]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


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
        (["evaluate", "--trace", "no_predicted.csv", "--scheme", "scheme.json"], "'predicted'"),
    ],
    ids=["missing-file", "no-s_est-column", "no-predicted-column"],
)
def test_unreadable_input_csv_is_data_error(workspace, capsys, argv, needle):
    Path("no_s_est.csv").write_text("stock_code,n,n_distinct\nA,40,3\n")
    Path("no_predicted.csv").write_text("index,actual\n3,1\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and needle in err


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
