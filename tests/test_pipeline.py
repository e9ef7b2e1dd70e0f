import json
from pathlib import Path

import pytest

from tickpred.errors import ConfigError
from tickpred.pipeline import PipelineConfig, QuantizationSetting, child_seed, emit_summary, run_all
from tickpred.synthetic import write_tick_fixture


@pytest.fixture()
def fixture_csv(tmp_path):
    path = tmp_path / "ticks.csv"
    write_tick_fixture(path, ticks_per_day=300)
    return path


def _config(fixture_csv, tmp_path, out="out", **overrides):
    base = dict(
        inputs=(str(fixture_csv),),
        intervals=(0.01, 0.05),
        min_length=100,
        min_states=5,
        seed=7,
        output_dir=str(tmp_path / out),
    )
    base.update(overrides)
    return PipelineConfig(**base)


# -- config ------------------------------------------------------------------


def test_config_round_trip_through_text():
    configs = [
        PipelineConfig(inputs=("a.csv", "b.csv"), intervals=(0.01,), state_count=100, seed=3),
        # count-only: the empty intervals line must come back as (), not the default
        PipelineConfig(inputs=("x.csv",), intervals=(), state_count=20, price_column="last_price"),
    ]
    for cfg in configs:
        assert PipelineConfig.from_text(cfg.to_text()) == cfg


def test_config_parses_comments_and_blank_lines():
    cfg = PipelineConfig.from_text("# comment\n\ninput = x.csv  # trailing\nseed = 5\n")
    assert cfg.inputs == ("x.csv",)
    assert cfg.seed == 5


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        PipelineConfig.from_text("input = x.csv\nbogus = 1\n")


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError, match="seed"):
        PipelineConfig.from_text("input = x.csv\nseed = abc\n")


def test_config_validation():
    with pytest.raises(ConfigError, match="input"):
        PipelineConfig().validate()
    with pytest.raises(ConfigError, match="below the 0.01"):
        PipelineConfig(inputs=("x",), intervals=(0.005,)).validate()
    with pytest.raises(ConfigError, match="rmse_against"):
        PipelineConfig(inputs=("x",), rmse_against="both").validate()


def test_config_hash_ignores_output_location():
    a = PipelineConfig(inputs=("x.csv",), output_dir="out1")
    b = PipelineConfig(inputs=("x.csv",), output_dir="out2", workers=4)
    c = PipelineConfig(inputs=("x.csv",), seed=1)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_setting_labels():
    assert QuantizationSetting("interval", 0.01).label == "T=0.01"
    assert QuantizationSetting("interval", 0.05).slug == "t0.05"
    assert QuantizationSetting("count", 100).label == "SP=100"
    assert QuantizationSetting("count", 100).slug == "sp100"


def test_child_seed_is_stable_and_distinct():
    assert child_seed(7, "A", "T=0.01", "dk") == child_seed(7, "A", "T=0.01", "dk")
    assert child_seed(7, "A", "T=0.01", "dk") != child_seed(7, "A", "T=0.01", "mc")
    assert child_seed(7, "A", "T=0.01", "dk") != child_seed(8, "A", "T=0.01", "dk")


# -- emit_summary -------------------------------------------------------------


def test_emit_summary_single_stock_means_pass_through():
    eval_rows = [
        {"stock_code": "A", "setting": "T=0.01", "model": "mc", "acc": 0.6, "rmse": 0.02, "rmse_ratio_permille": 2.0, "n_test": 10},
        {"stock_code": "A", "setting": "T=0.01", "model": "dk", "acc": 0.7, "rmse": 0.03, "rmse_ratio_permille": 3.0, "n_test": 10},
    ]
    pred_rows = [{"stock_code": "A", "setting": "T=0.01", "n": 100, "n_distinct": 12, "s_est": 1.5, "pi_max": 0.9}]
    summary = emit_summary(eval_rows, pred_rows)
    mc = next(r for r in summary if r["model"] == "mc")
    assert mc["mean_acc"] == 0.6
    assert mc["mean_pi_max"] == 0.9
    assert mc["share_s_est_lt_2"] == 1.0


def test_emit_summary_two_stock_mean():
    eval_rows = [
        {"stock_code": "A", "setting": "T=0.01", "model": "mc", "acc": 0.6, "rmse": 0.02, "rmse_ratio_permille": None, "n_test": 10},
        {"stock_code": "B", "setting": "T=0.01", "model": "mc", "acc": 0.8, "rmse": 0.04, "rmse_ratio_permille": None, "n_test": 10},
    ]
    pred_rows = [
        {"stock_code": "A", "setting": "T=0.01", "n": 100, "n_distinct": 12, "s_est": 1.5, "pi_max": 0.8},
        {"stock_code": "B", "setting": "T=0.01", "n": 100, "n_distinct": 12, "s_est": 2.5, "pi_max": 0.6},
    ]
    summary = emit_summary(eval_rows, pred_rows)
    assert summary[0]["mean_acc"] == pytest.approx(0.7)
    assert summary[0]["mean_pi_max"] == pytest.approx(0.7)
    assert summary[0]["share_s_est_lt_2"] == pytest.approx(0.5)


def test_emit_summary_rejects_empty():
    with pytest.raises(ValueError, match="no evaluation rows"):
        emit_summary([], [])


# -- run_all ------------------------------------------------------------------


def test_run_all_produces_expected_rows(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path)
    manifest = run_all(config)
    assert manifest.failed == []
    assert len(manifest.done) == 3
    out = Path(config.output_dir)
    eval_lines = (out / "reports" / "evaluation.csv").read_text().strip().splitlines()
    assert len(eval_lines) == 1 + 3 * 2 * 2  # header + stocks x settings x models
    pred_lines = (out / "reports" / "predictability.csv").read_text().strip().splitlines()
    assert len(pred_lines) == 1 + 3 * 2
    summary_lines = (out / "reports" / "summary.csv").read_text().strip().splitlines()
    assert len(summary_lines) == 1 + 2 * 2
    assert (out / "plots" / "entropy_hist_t0.01.csv").is_file()
    assert (out / "plots" / "acc_vs_rmse_t0.05_dk.csv").is_file()
    assert (out / "series" / "000001.csv").is_file()


def test_run_all_is_deterministic_and_reuses_manifest(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path, out="outA")
    run_all(config)
    first = {p.relative_to(config.output_dir): p.read_bytes() for p in Path(config.output_dir).rglob("*") if p.is_file()}

    run_all(config)  # rerun in place: everything reused
    second = {p.relative_to(config.output_dir): p.read_bytes() for p in Path(config.output_dir).rglob("*") if p.is_file()}
    assert first == second

    other = _config(fixture_csv, tmp_path, out="outB")
    run_all(other)
    third = {p.relative_to(other.output_dir): p.read_bytes() for p in Path(other.output_dir).rglob("*") if p.is_file()}
    assert first == third


def test_run_all_reruns_when_config_changes(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path)
    run_all(config)
    manifest_text = (Path(config.output_dir) / "manifest.jsonl").read_text()
    changed = _config(fixture_csv, tmp_path, seed=8)
    run_all(changed)
    assert (Path(config.output_dir) / "manifest.jsonl").read_text() != manifest_text


def test_run_all_isolates_corrupt_stock(fixture_csv, tmp_path):
    # a stock with two ticks cannot produce features or a protocol run
    crippled = tmp_path / "ticks2.csv"
    lines = fixture_csv.read_text().strip().splitlines()
    lines.append("999999,2021-01-04 09:30:00,5.00")
    lines.append("999999,2021-01-05 09:30:00,5.01")
    crippled.write_text("\n".join(lines) + "\n")
    config = _config(crippled, tmp_path, out="out_corrupt")
    manifest = run_all(config)
    assert manifest.failed == ["999999"]
    assert len(manifest.done) == 3
    eval_lines = (Path(config.output_dir) / "reports" / "evaluation.csv").read_text().strip().splitlines()
    assert len(eval_lines) == 1 + 3 * 2 * 2


def test_run_all_records_drop_reasons(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path, out="out_drop", min_length=100_000)
    manifest = run_all(config)
    assert manifest.failed == []
    drops = (Path(config.output_dir) / "reports" / "drops.csv").read_text().strip().splitlines()
    assert len(drops) == 1 + 3 * 2
    assert "too short" in drops[1]
    summary = (Path(config.output_dir) / "reports" / "summary.csv").read_text().strip().splitlines()
    assert summary == ["setting,model,n_stocks,mean_acc,mean_pi_max,mean_rmse,mean_rmse_ratio_permille,share_s_est_lt_2"]


def test_run_all_state_count_setting(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path, out="out_sp", intervals=(), state_count=50)
    manifest = run_all(config)
    assert manifest.failed == []
    pred = (Path(config.output_dir) / "reports" / "predictability.csv").read_text().strip().splitlines()
    assert pred[1].split(",")[1] == "SP=50"


def test_run_all_worker_pool_matches_sequential(fixture_csv, tmp_path):
    seq_cfg = _config(fixture_csv, tmp_path, out="out_seq")
    par_cfg = _config(fixture_csv, tmp_path, out="out_par", workers=2)
    run_all(seq_cfg)
    run_all(par_cfg)
    for name in ("reports/evaluation.csv", "reports/summary.csv", "reports/predictability.csv"):
        assert (Path(seq_cfg.output_dir) / name).read_bytes() == (Path(par_cfg.output_dir) / name).read_bytes()


def test_per_stock_json_is_loadable(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path, out="out_json")
    run_all(config)
    payload = json.loads((Path(config.output_dir) / "per_stock" / "000001.json").read_text())
    assert payload["stock_code"] == "000001"
    assert "T=0.01" in payload["settings"]
    assert payload["settings"]["T=0.05"]["models"]["dk"]["n_test"] > 0
