import codecs
import dataclasses
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tickpred import ingest, pipeline
from tickpred.errors import ConfigError
from tickpred.ingest import PriceSeries
from tickpred.pipeline import PipelineConfig, QuantizationSetting, child_seed, finish_stock, run_all, stock_part
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


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    base=st.sampled_from(
        [
            PipelineConfig(inputs=("a.csv", "b.csv"), state_count=100, seed=3),
            PipelineConfig(inputs=("x.csv",), state_count=20, price_column="last_price"),
        ]
    ),
    dk_alpha=_finite,
    dk_margin=_finite,
    intervals=st.lists(_finite, max_size=3).map(tuple),
)
# count-only: the empty intervals line must come back as (), not the default
@example(base=PipelineConfig(inputs=("x.csv",), state_count=20), dk_alpha=0.1, dk_margin=1.0, intervals=())
# 7 significant digits, past what :g keeps
@example(base=PipelineConfig(inputs=("a.csv",)), dk_alpha=0.1234567, dk_margin=1.0, intervals=(12345.67,))
def test_config_round_trip_through_text(base, dk_alpha, dk_margin, intervals):
    cfg = dataclasses.replace(base, dk_alpha=dk_alpha, dk_margin=dk_margin, intervals=intervals)
    assert PipelineConfig.from_text(cfg.to_text()) == cfg


def test_config_hash_tells_apart_floats_that_agree_to_six_digits():
    a, b = (PipelineConfig(inputs=("a.csv",), dk_alpha=alpha) for alpha in (0.1234567, 0.1234568))
    assert a.content_hash() != b.content_hash()
    assert "intervals = 12345.67\n" in PipelineConfig(intervals=(12345.67,)).to_text()
    # floats that :g writes exactly keep their text, so the hashes of existing runs stand
    text = PipelineConfig(intervals=(0.01, 0.05, 0.1)).to_text()
    assert "intervals = 0.01, 0.05, 0.1\n" in text and "dk_alpha = 0.1\n" in text and "dk_margin = 1\n" in text


def test_config_file_reads_the_same_with_a_byte_order_mark(tmp_path):
    config = PipelineConfig(inputs=("a.csv",), seed=3)
    path = tmp_path / "run.cfg"
    path.write_bytes(codecs.BOM_UTF8 + config.to_text().encode("utf-8"))  # as Windows editors often save it
    assert PipelineConfig.from_file(path) == config


def test_config_parses_comments_and_blank_lines():
    cfg = PipelineConfig.from_text("# comment\n\ninput = x.csv  # trailing\nseed = 5\n")
    assert cfg.inputs == ("x.csv",)
    assert cfg.seed == 5


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        PipelineConfig.from_text("input = x.csv\nbogus = 1\n")


def test_config_key_given_twice_rejected():
    with pytest.raises(ConfigError, match="^config key seed is given twice, on lines 2 and 4$"):
        PipelineConfig.from_text("input = x.csv\nseed = 1\n# a later edit\nseed = 2\n")


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError, match="seed"):
        PipelineConfig.from_text("input = x.csv\nseed = abc\n")


def test_config_validation():
    with pytest.raises(ConfigError, match="input"):
        PipelineConfig().validate()
    with pytest.raises(ConfigError, match="below the 0.01"):
        PipelineConfig(inputs=("x",), intervals=(0.005,)).validate()
    with pytest.raises(ConfigError, match="not a multiple of 0.01"):
        PipelineConfig(inputs=("x",), intervals=(0.015,)).validate()
    with pytest.raises(ConfigError, match="repeat"):
        PipelineConfig(inputs=("x",), intervals=(0.01, 0.05, 0.010000001)).validate()
    with pytest.raises(ConfigError, match="rmse_against"):
        PipelineConfig(inputs=("x",), rmse_against="both").validate()
    with pytest.raises(ConfigError, match="at least one quantization setting"):
        PipelineConfig(inputs=("x",), intervals=()).validate()
    with pytest.raises(ConfigError, match="state_count must be >= 2"):
        PipelineConfig(inputs=("x",), state_count=1).validate()
    with pytest.raises(ConfigError, match="volatility_n must be 'returns' or 'sequence', got 'both'"):
        PipelineConfig(inputs=("x",), volatility_n="both").validate()
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        PipelineConfig(inputs=("x",), workers=0).validate()
    with pytest.raises(ConfigError, match="^config line 2: expected 'key = value', got 'seed 3'$"):
        PipelineConfig.from_text("input = x.csv\nseed 3  # no equals sign\n")
    # a fired step moves the positive state by 2 * dk_alpha of its gap to the context: at 0.5 onto it
    PipelineConfig(inputs=("x",), dk_alpha=0.5).validate()
    with pytest.raises(ConfigError, match="^dk_alpha must be <= 0.5, got 0.6: a fired step would overshoot its context$"):
        PipelineConfig(inputs=("x",), dk_alpha=0.6).validate()


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


# -- stock_rows and summary_row -----------------------------------------------


def _result(code, dropped=None):
    models = {m: {"acc": 0.5, "rmse": 0.02, "rmse_ratio_permille": 2.0, "n_test": 10} for m in ("mc", "dk")}
    kept = {"dropped": None, "n": 100, "n_distinct": 6, "s_est": 1.5, "pi_max": 0.9, "models": models}
    return {
        "stock_code": code,
        "avgprice": 10.0,
        "volatility": 0.01,
        "settings": {"T=0.05": kept, "T=0.01": {"dropped": dropped} if dropped else kept},
    }


def test_stock_rows_order_and_drops():
    units, evals = pipeline.stock_rows({"B": _result("B", dropped="too short"), "A": _result("A")}, ["T=0.01", "T=0.05"])
    assert [(u["stock_code"], u["setting"]) for u in units] == [("A", "T=0.01"), ("A", "T=0.05"), ("B", "T=0.01"), ("B", "T=0.05")]
    assert units[2] == {"stock_code": "B", "setting": "T=0.01", "avgprice": 10.0, "volatility": 0.01, "reason": "too short"}
    assert units[3] == {
        "stock_code": "B", "setting": "T=0.05", "avgprice": 10.0, "volatility": 0.01,
        "n": 100, "n_distinct": 6, "s_est": 1.5, "pi_max": 0.9, "acc_mc": 0.5, "acc_dk": 0.5,
    }
    assert [(r["stock_code"], r["setting"], r["model"]) for r in evals] == [
        ("A", "T=0.01", "mc"), ("A", "T=0.01", "dk"), ("A", "T=0.05", "mc"), ("A", "T=0.05", "dk"),
        ("B", "T=0.05", "mc"), ("B", "T=0.05", "dk"),
    ]
    assert pipeline.stock_rows({"A": _result("A")}, ["SP=20"]) == ([], [])  # a setting the result lacks


def test_summary_row_single_stock_means_pass_through():
    rows = [{"stock_code": "A", "setting": "T=0.01", "model": "mc", "acc": 0.6, "rmse": 0.02, "rmse_ratio_permille": 2.0, "n_test": 10}]
    preds = [{"stock_code": "A", "setting": "T=0.01", "n": 100, "n_distinct": 12, "s_est": 1.5, "pi_max": 0.9}]
    assert pipeline.summary_row("T=0.01", "mc", preds, rows) == {
        "setting": "T=0.01",
        "model": "mc",
        "n_stocks": 1,
        "mean_acc": 0.6,
        "mean_pi_max": 0.9,
        "mean_rmse": 0.02,
        "mean_rmse_ratio_permille": 2.0,
        "share_s_est_lt_2": 1.0,
    }


def test_summary_row_two_stock_mean():
    rows = [
        {"stock_code": "A", "setting": "T=0.01", "model": "mc", "acc": 0.6, "rmse": 0.02, "rmse_ratio_permille": 2.0, "n_test": 10},
        {"stock_code": "B", "setting": "T=0.01", "model": "mc", "acc": 0.8, "rmse": 0.04, "rmse_ratio_permille": 3.0, "n_test": 10},
    ]
    preds = [
        {"stock_code": "A", "setting": "T=0.01", "n": 100, "n_distinct": 12, "s_est": 1.5, "pi_max": 0.8},
        {"stock_code": "B", "setting": "T=0.01", "n": 100, "n_distinct": 12, "s_est": 2.5, "pi_max": 0.6},
    ]
    summary = pipeline.summary_row("T=0.01", "mc", preds, rows)
    assert summary["n_stocks"] == 2
    assert summary["mean_acc"] == pytest.approx(0.7)
    assert summary["mean_pi_max"] == pytest.approx(0.7)
    assert summary["mean_rmse"] == pytest.approx(0.03)
    assert summary["mean_rmse_ratio_permille"] == pytest.approx(2.5)
    assert summary["share_s_est_lt_2"] == pytest.approx(0.5)


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


def _fail_at_999999(series, config):
    """stock_part that a worker process can unpickle; 999999 fails, as a stock whose data breaks a stage would."""
    if series.stock_code == "999999":
        raise ValueError("no result")
    return stock_part(series, config)


def test_run_all_isolates_corrupt_stock(fixture_csv, tmp_path, monkeypatch):
    crippled = tmp_path / "ticks2.csv"
    lines = fixture_csv.read_text().strip().splitlines()
    lines.append("999999,2021-01-04 09:30:00,5.00")
    lines.append("999999,2021-01-05 09:30:00,5.01")
    crippled.write_text("\n".join(lines) + "\n")
    clean = _config(fixture_csv, tmp_path, out="out_clean")
    run_all(clean)
    series, _ = ingest.load_series((str(crippled),), ingest.ColumnSchema())
    monkeypatch.setattr(pipeline, "stock_part", _fail_at_999999)
    for workers in (1, 2):
        config = _config(crippled, tmp_path, out=f"out_corrupt{workers}", workers=workers)
        manifest = run_all(config)
        assert manifest.failed == ["999999"]
        assert len(manifest.done) == 3
        eval_lines = (Path(config.output_dir) / "reports" / "evaluation.csv").read_text().strip().splitlines()
        assert len(eval_lines) == 1 + 3 * 2 * 2
        # it shares a chunk, and its chunk-mates come out as in a run without it
        chunks = [[s.stock_code for s in c] for c in pipeline.cut_chunks(list(series.values()), workers)]
        assert any("999999" in c and len(c) > 1 for c in chunks)
        assert _tree(config.output_dir, ("per_stock",)) == _tree(clean.output_dir, ("per_stock",))


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
    # SP=N spreads its buckets over day one's price range, which a stock whose day one holds one price lacks
    flat = tmp_path / "flat.csv"
    stamps = [f"09:{30 + i // 20}:{i % 20 * 3:02d}" for i in range(120)]
    day_one = [f"777777,2021-01-04 {t},5.00" for t in stamps]
    day_two = [f"777777,2021-01-05 {t},{5 + i % 7 / 100:.2f}" for i, t in enumerate(stamps)]
    flat.write_text(fixture_csv.read_text() + "\n".join(day_one + day_two) + "\n")
    config = _config(flat, tmp_path, out="out_sp", intervals=(), state_count=50)
    manifest = run_all(config)
    assert manifest.failed == []
    pred = (Path(config.output_dir) / "reports" / "predictability.csv").read_text().strip().splitlines()
    assert pred[1].split(",")[1] == "SP=50"
    drops = (Path(config.output_dir) / "reports" / "drops.csv").read_text().splitlines()
    assert drops == ["stock_code,setting,reason", "777777,SP=50,training slice has a degenerate (constant) price range"]


def _broken_trainer(models, day_ones):
    raise RuntimeError("the batch trainer broke")


def test_run_all_records_every_stock_of_a_failed_chunk_and_recomputes_them(fixture_csv, tmp_path, monkeypatch):
    config = _config(fixture_csv, tmp_path)
    reference = _config(fixture_csv, tmp_path, out="reference")
    run_all(reference)
    monkeypatch.setattr(pipeline, "train_together", _broken_trainer)  # the one chunk fails after every stock_part
    manifest = run_all(config)
    assert manifest.failed == ["000001", "000002", "600000"]
    assert set(manifest.statuses.values()) == {("failed", "RuntimeError: the batch trainer broke")}
    monkeypatch.undo()
    computed = _record_computed(monkeypatch)
    assert run_all(config).done == ["000001", "000002", "600000"]
    assert computed == ["000001", "000002", "600000"]
    assert _tree(config.output_dir) == _tree(reference.output_dir)


def _stub_series(code, n_ticks):
    return PriceSeries(code, np.zeros(n_ticks, dtype=np.int64), np.zeros(n_ticks, dtype=np.int64), [0])


@settings(max_examples=60, deadline=None)
@given(ticks=st.lists(st.integers(1, 1_000), max_size=70), workers=st.integers(1, 8))
def test_chunks_cover_every_stock_capped_and_balanced(ticks, workers):
    stocks = [_stub_series(f"{i:06d}", n) for i, n in enumerate(ticks)]
    chunks = pipeline.cut_chunks(stocks, workers)
    assert sorted(s.stock_code for c in chunks for s in c) == [s.stock_code for s in stocks]
    if not stocks:
        return
    assert len(chunks) == min(len(stocks), max(workers, -(-len(stocks) // pipeline.CHUNK_STOCKS)))
    assert all(0 < len(c) <= pipeline.CHUNK_STOCKS for c in chunks)
    assert all([s.stock_code for s in c] == sorted(s.stock_code for s in c) for c in chunks)
    # the lightest chunk had room for each stock when it came, largest first
    loads = [sum(len(s) for s in c) for c in chunks]
    if all(len(c) < pipeline.CHUNK_STOCKS for c in chunks):
        assert max(loads) - min(loads) <= max(ticks)


def _tree(root, subdirs=("reports", "plots", "per_stock")):
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes() for d in subdirs for p in (root / d).rglob("*") if p.is_file()}


class _RecordingPool(pipeline.ProcessPoolExecutor):
    """A process pool that records each worker process it starts."""

    started = []

    def _spawn_process(self):
        super()._spawn_process()
        _RecordingPool.started.append(self)


def test_pool_starts_no_more_workers_than_chunks(fixture_csv, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    run_all(_config(fixture_csv, tmp_path, workers=4, dk_epochs=2))  # 3 stocks: 3 chunks
    assert 1 <= len(_RecordingPool.started) <= 3


def test_run_all_worker_pool_matches_sequential(fixture_csv, tmp_path):
    seq_cfg = _config(fixture_csv, tmp_path, out="out_seq")
    par_cfg = _config(fixture_csv, tmp_path, out="out_par", workers=2)
    run_all(seq_cfg)
    run_all(par_cfg)
    seq, par = _tree(seq_cfg.output_dir), _tree(par_cfg.output_dir)
    assert len(seq) == 4 + 2 * 6 + 3  # reports, plots per setting, per-stock JSON
    assert seq == par


def test_run_all_json_mirror_matches_reports(fixture_csv, tmp_path):
    # intervals in this order with min_states = 6 drop two stocks at T=0.05, so drops.csv has rows too
    config = _config(fixture_csv, tmp_path, intervals=(0.05, 0.01), min_states=6)
    run_all(config, json_mirror=True)
    out = Path(config.output_dir)
    assert sorted(p.name for p in out.rglob("*.json") if p.parent.name != "per_stock") == [
        "drops.json", "evaluation.json", "predictability.json", "summary.json"
    ]
    for mirror in (out / "reports").glob("*.json"):
        header, *rows = mirror.with_suffix(".csv").read_text().splitlines()
        records = json.loads(mirror.read_text())
        assert rows and len(records) == len(rows)
        assert all(list(r) == sorted(header.split(",")) for r in records)


def test_summary_follows_config_setting_order(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path, intervals=(0.05, 0.01), min_states=6)
    run_all(config)
    reports = Path(config.output_dir) / "reports"
    assert "000001,T=0.05,too few states" in reports.joinpath("drops.csv").read_text()  # first stock drops T=0.05
    summary = [line.split(",")[:2] for line in reports.joinpath("summary.csv").read_text().splitlines()[1:]]
    assert summary == [["T=0.05", "mc"], ["T=0.05", "dk"], ["T=0.01", "mc"], ["T=0.01", "dk"]]


SUBDIRS = ("reports", "plots", "per_stock", "series")


@pytest.fixture(scope="module")
def layout_reference(tmp_path_factory):
    """A single-file, single-worker run that every row layout and worker count must reproduce."""
    root = tmp_path_factory.mktemp("layout")
    write_tick_fixture(root / "ticks.csv", ticks_per_day=150)
    config = PipelineConfig(
        inputs=(str(root / "ticks.csv"),),
        intervals=(0.01, 0.05),
        state_count=20,
        min_length=100,
        min_states=5,
        dk_epochs=2,
        seed=7,
        output_dir=str(root / "reference"),
    )
    run_all(config)
    return config


@settings(max_examples=8, deadline=None)
@given(layout_seed=st.integers(0, 2**32 - 1), n_files=st.integers(1, 3), workers=st.integers(1, 3))
def test_outputs_do_not_depend_on_workers_or_row_layout(layout_reference, tmp_path_factory, layout_seed, n_files, workers):
    config = layout_reference
    header, *rows = Path(config.inputs[0]).read_text().splitlines(keepends=True)
    rng = random.Random(layout_seed)
    # a random interleaving of the stocks that keeps each stock's own rows in order
    slots = [row.split(",", 1)[0] for row in rows]
    rng.shuffle(slots)
    queues = {code: iter([row for row in rows if row.startswith(f"{code},")]) for code in set(slots)}
    mixed = [next(queues[code]) for code in slots]
    cuts = [0, *sorted(rng.sample(range(1, len(mixed)), n_files - 1)), len(mixed)]
    root = tmp_path_factory.mktemp("layout_run")
    inputs = []
    for i, (start, stop) in enumerate(zip(cuts, cuts[1:])):
        inputs.append(str(root / f"part{i}.csv"))
        Path(inputs[-1]).write_text(header + "".join(mixed[start:stop]))
    run_all(dataclasses.replace(config, inputs=tuple(inputs), workers=workers, output_dir=str(root / "out")))
    tree, reference = _tree(root / "out", SUBDIRS), _tree(config.output_dir, SUBDIRS)
    assert sorted(tree) == sorted(reference)
    assert [name for name in reference if tree[name] != reference[name]] == []


def _record_computed(monkeypatch, fail_on=None):
    """Patch finish_stock to log the stocks it computes; raise KeyboardInterrupt on ``fail_on``."""
    computed = []

    def spy(series, config, *staged):
        if series.stock_code == fail_on:
            raise KeyboardInterrupt
        computed.append(series.stock_code)
        return finish_stock(series, config, *staged)

    monkeypatch.setattr(pipeline, "finish_stock", spy)
    return computed


def _interrupt_at_600000(series, config, *staged):
    """finish_stock that a worker process can unpickle; stands for a kill while 600000 runs."""
    if series.stock_code == "600000":
        raise KeyboardInterrupt
    return finish_stock(series, config, *staged)


def _interrupt(*args):
    raise KeyboardInterrupt


def _done_lines(out_dir):
    lines = (Path(out_dir) / "manifest.jsonl").read_text().splitlines()
    assert "config_hash" in json.loads(lines[0])
    return [json.loads(line)["stock"] for line in lines[1:] if json.loads(line)["status"] == "done"]


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupted_run_resumes(fixture_csv, tmp_path, monkeypatch, workers):
    config = _config(fixture_csv, tmp_path, workers=workers)
    reference = _config(fixture_csv, tmp_path, out="reference")
    run_all(reference)
    monkeypatch.setattr(pipeline, "finish_stock", _interrupt_at_600000)
    with pytest.raises(KeyboardInterrupt):
        run_all(config)
    done = _done_lines(config.output_dir)
    if workers == 1:
        assert done == ["000001", "000002"]
    else:  # pooled stocks are recorded as their chunk finishes, so the kill takes 600000's chunk-mates with it
        assert done and set(done) <= {"000001", "000002"}

    computed = _record_computed(monkeypatch)
    manifest = run_all(dataclasses.replace(config, workers=1))  # the spy cannot be sent to a worker
    assert computed == sorted({"000001", "000002", "600000"} - set(done))
    assert manifest.done == ["000001", "000002", "600000"]
    assert _tree(config.output_dir) == _tree(reference.output_dir)


@pytest.mark.parametrize("stage", ["reuse", "reports"])
def test_interrupted_warm_rerun_keeps_finished_stocks(fixture_csv, tmp_path, monkeypatch, stage):
    config = _config(fixture_csv, tmp_path)
    run_all(config)
    before = _tree(config.output_dir)
    if stage == "reuse":  # a kill while the second finished stock's JSON is read back
        read_result = pipeline.read_result

        def interrupting_read(path, labels=()):
            if path.name == "000002.json":
                raise KeyboardInterrupt
            return read_result(path, labels)

        monkeypatch.setattr(pipeline, "read_result", interrupting_read)
    else:
        monkeypatch.setattr(pipeline, "_write_reports", _interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_all(config)
    monkeypatch.undo()
    assert _done_lines(config.output_dir) == ["000001", "000002", "600000"]

    computed = _record_computed(monkeypatch)
    assert run_all(config).done == ["000001", "000002", "600000"]
    assert computed == []
    assert _tree(config.output_dir) == before


@pytest.mark.parametrize("keep_lines, recomputed", [(0, ["000001", "000002", "600000"]), (2, ["000002", "600000"])])
def test_torn_manifest_recomputes_only_unfinished_stocks(fixture_csv, tmp_path, monkeypatch, keep_lines, recomputed):
    config = _config(fixture_csv, tmp_path)
    run_all(config)
    before = _tree(config.output_dir)
    path = Path(config.output_dir) / "manifest.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:keep_lines]) + lines[keep_lines][:20])  # a kill mid-write of the next line

    computed = _record_computed(monkeypatch)
    manifest = run_all(config)
    assert computed == recomputed
    assert manifest.failed == []
    assert _tree(config.output_dir) == before


# JSON that is not an object, and "done" lines with no stock code
@pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null", '{"status": "done"}', '{"stock": [1], "status": "done"}'])
def test_manifest_line_that_is_not_a_record_counts_as_torn(fixture_csv, tmp_path, monkeypatch, line):
    config = _config(fixture_csv, tmp_path)
    run_all(config)
    before = _tree(config.output_dir)
    path = Path(config.output_dir) / "manifest.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(line + "\n" + "".join(lines[1:]))  # the header replaced
    computed = _record_computed(monkeypatch)
    assert run_all(config).done == ["000001", "000002", "600000"]
    assert computed == ["000001", "000002", "600000"]
    assert _tree(config.output_dir) == before

    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + line + "\n" + "".join(lines[2:]))  # 000001's "done" line replaced
    assert run_all(config).done == ["000001", "000002", "600000"]
    assert computed[3:] == ["000001"]


def test_rerun_rewrites_a_deleted_series_file(fixture_csv, tmp_path, monkeypatch):
    config = _config(fixture_csv, tmp_path)
    run_all(config)
    before = _tree(config.output_dir, SUBDIRS)
    (Path(config.output_dir) / "series" / "000002.csv").unlink()  # manifest, digests and per-stock JSONs still match

    parses, computed = _count_parses(monkeypatch), _record_computed(monkeypatch)
    assert run_all(config).done == ["000001", "000002", "600000"]
    assert len(parses) == 1 and computed == ["000002"]
    assert _tree(config.output_dir, SUBDIRS) == before


def test_rerun_recomputes_only_stocks_whose_input_changed(fixture_csv, tmp_path, monkeypatch):
    config = _config(fixture_csv, tmp_path)
    run_all(config)
    def doubled(row):  # same path, same config, new prices for one stock
        code_time, price = row.rsplit(",", 1)
        return f"{code_time},{2 * float(price):.2f}" if code_time.startswith("600000,") else row

    fixture_csv.write_text("".join(doubled(row) + "\n" for row in fixture_csv.read_text().splitlines()))

    computed = _record_computed(monkeypatch)
    run_all(config)
    assert computed == ["600000"]
    run_all(config)
    assert computed == ["600000"]  # an unchanged rerun recomputes nothing
    fresh = _config(fixture_csv, tmp_path, out="fresh")
    run_all(fresh)
    subdirs = ("reports", "plots", "per_stock", "series")
    assert _tree(config.output_dir, subdirs) == _tree(fresh.output_dir, subdirs)


def test_rerun_recomputes_every_stock_when_the_package_source_changed(fixture_csv, tmp_path, monkeypatch):
    config = _config(fixture_csv, tmp_path)
    run_all(config)
    before = _tree(config.output_dir)
    monkeypatch.setattr(pipeline, "code_digest", lambda: "0" * 64)  # as after an edit to any module
    computed = _record_computed(monkeypatch)
    run_all(config)
    assert computed == ["000001", "000002", "600000"]
    run_all(config)
    assert computed == ["000001", "000002", "600000"]  # the same code again: everything reused
    assert _tree(config.output_dir) == before


def test_manifest_counts_malformed_rows_per_input_file(fixture_csv, tmp_path):
    clean = _config(fixture_csv, tmp_path, out="clean")
    run_all(clean)
    header, *rows = fixture_csv.read_text().splitlines(keepends=True)
    head, tail = tmp_path / "head.csv", tmp_path / "tail.csv"
    head.write_text(header + "".join(rows[:1000]))
    tail.write_text(header + "".join(rows[1000:]) + "600000,not-a-time,8.00\n000001,2021-01-04 09:30:00,abc\n")
    dirty = _config(fixture_csv, tmp_path, out="dirty", inputs=(str(head), str(tail)))
    run_all(dirty)
    headers = [json.loads((Path(c.output_dir) / "manifest.jsonl").read_text().splitlines()[0]) for c in (dirty, clean)]
    assert [h["malformed"] for h in headers] == [{str(tail): 2}, {}]  # a file with none is left out
    assert _tree(dirty.output_dir, ("reports", "plots")) == _tree(clean.output_dir, ("reports", "plots"))


def _fail_at_600000(series, config, *staged):
    if series.stock_code == "600000":
        raise ValueError("no result")
    return finish_stock(series, config, *staged)


@pytest.mark.parametrize("change", ["input", "config"])
def test_rerun_keeps_files_only_of_done_stocks(fixture_csv, tmp_path, monkeypatch, change):
    config = _config(fixture_csv, tmp_path)
    run_all(config)
    out = Path(config.output_dir)
    stamps = {p: p.stat().st_mtime_ns for sub in ("per_stock", "series") for p in (out / sub).iterdir()}
    if change == "input":  # same path and config; 600000 has left the input, the others are reused
        rows = fixture_csv.read_text().splitlines(keepends=True)
        fixture_csv.write_text("".join(row for row in rows if not row.startswith("600000,")))
    else:  # a new config under which 600000 fails
        config = dataclasses.replace(config, seed=8)
        monkeypatch.setattr(pipeline, "finish_stock", _fail_at_600000)
    assert run_all(config).done == ["000001", "000002"]
    for sub, suffix in (("per_stock", ".json"), ("series", ".csv")):
        assert sorted(p.name for p in (out / sub).iterdir()) == [f"000001{suffix}", f"000002{suffix}"]
    if change == "input":
        assert all(p.stat().st_mtime_ns == stamps[p] for sub in ("per_stock", "series") for p in (out / sub).iterdir())


def test_rerun_keeps_only_this_runs_reports_and_plots(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path)
    run_all(config, json_mirror=True)
    narrower = dataclasses.replace(config, intervals=(0.01,))
    run_all(narrower)
    fresh = dataclasses.replace(narrower, output_dir=str(tmp_path / "fresh"))
    run_all(fresh)
    assert _tree(config.output_dir, ("reports", "plots")) == _tree(fresh.output_dir, ("reports", "plots"))


def test_per_stock_json_is_loadable(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path, out="out_json")
    run_all(config)
    payload = json.loads((Path(config.output_dir) / "per_stock" / "000001.json").read_text())
    assert payload["stock_code"] == "000001"
    assert "T=0.01" in payload["settings"]
    assert payload["settings"]["T=0.05"]["models"]["dk"]["n_test"] > 0


# the last one holds no configured setting, so its stock's rows would be missing from the reports
@pytest.mark.parametrize("text", ["{}", "not json", '{"settings": {}}'], ids=["{}", "not json", "no settings"])
def test_rerun_recomputes_a_per_stock_json_that_is_not_a_result(fixture_csv, tmp_path, monkeypatch, text):
    config = _config(fixture_csv, tmp_path)
    run_all(config)
    before = _tree(config.output_dir)
    (Path(config.output_dir) / "per_stock" / "000002.json").write_text(text)  # manifest line and digest still match

    computed = _record_computed(monkeypatch)
    assert run_all(config).done == ["000001", "000002", "600000"]
    assert computed == ["000002"]
    assert _tree(config.output_dir) == before


# -- warm reruns that parse nothing -------------------------------------------


def _no_parse(*args, **kwargs):
    raise AssertionError("a tick file was parsed")


def _count_parses(monkeypatch):
    """Patch load_series to log each call; the list grows by one per parse of the inputs."""
    calls = []
    load_series = pipeline.load_series

    def spy(*args):
        calls.append(args)
        return load_series(*args)

    monkeypatch.setattr(pipeline, "load_series", spy)
    return calls


def _outputs(out_dir):
    return _tree(out_dir, SUBDIRS), (Path(out_dir) / "manifest.jsonl").read_bytes()


@pytest.mark.parametrize(
    "workers, json_mirror",
    [
        pytest.param(1, False, id="1"),
        pytest.param(2, False, id="2"),
        pytest.param(1, True, id="1-json"),
        pytest.param(2, True, id="2-json"),
    ],
)
def test_rerun_over_identical_inputs_parses_nothing(fixture_csv, tmp_path, monkeypatch, workers, json_mirror):
    config = _config(fixture_csv, tmp_path, workers=workers, dk_epochs=2)
    run_all(config, json_mirror=json_mirror)
    before = _outputs(config.output_dir)
    tables = [p for sub in ("reports", "plots") for p in (Path(config.output_dir) / sub).iterdir()]
    for path in tables:
        os.utime(path, ns=(0, 0))  # so a rewrite shows, however soon it comes
    monkeypatch.setattr(pipeline, "load_series", _no_parse)
    for parser in ("parse_columns", "_plain_columns", "_parse_rows"):
        monkeypatch.setattr(ingest, parser, _no_parse)
    computed = _record_computed(monkeypatch)
    assert run_all(config, json_mirror=json_mirror).done == ["000001", "000002", "600000"]
    assert computed == []
    assert _outputs(config.output_dir) == before  # the manifest too, line for line
    assert [path.stat().st_mtime_ns for path in tables] == [0] * len(tables)  # no report or plot was rewritten


def test_rerun_rewrites_a_report_edited_since(fixture_csv, tmp_path):
    config = _config(fixture_csv, tmp_path, dk_epochs=2)
    run_all(config, json_mirror=True)
    before = _tree(config.output_dir)
    out = Path(config.output_dir)
    evaluation = out / "reports" / "evaluation.csv"
    evaluation.write_bytes(evaluation.read_bytes()[:100])  # truncated
    summary = out / "reports" / "summary.json"
    summary.write_text(summary.read_text().replace("0", "1"))  # edited by hand, its size kept
    plot = next((out / "plots").glob("acc_vs_rmse_*.csv"))
    plot.write_bytes(plot.read_bytes() + b"\n")
    run_all(config, json_mirror=True)
    assert _tree(config.output_dir) == before


def test_code_digest_reads_the_package_source_once_per_process(monkeypatch):
    reads = []
    read_bytes = Path.read_bytes

    def counted(path):
        reads.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    pipeline.code_digest.cache_clear()
    digest = pipeline.code_digest()
    assert sorted(reads) == sorted(p.name for p in Path(pipeline.__file__).parent.glob("*.py"))
    reads.clear()
    assert pipeline.code_digest() == digest
    assert reads == []


def test_rerun_that_parses_nothing_keeps_the_malformed_counts(fixture_csv, tmp_path, monkeypatch):
    dirty = tmp_path / "dirty.csv"
    dirty.write_text(fixture_csv.read_text() + "600000,not-a-time,8.00\n000001,2021-01-04 09:30:00,abc\n")
    config = _config(dirty, tmp_path, dk_epochs=2)
    assert run_all(config).malformed == {str(dirty): 2}
    before = _outputs(config.output_dir)
    monkeypatch.setattr(pipeline, "load_series", _no_parse)
    assert run_all(config).malformed == {str(dirty): 2}
    assert _outputs(config.output_dir) == before


@pytest.mark.parametrize("workers", [1, 2])
def test_rerun_parses_a_file_changed_in_place_with_its_size_and_mtime(fixture_csv, tmp_path, monkeypatch, workers):
    config = _config(fixture_csv, tmp_path, workers=workers, dk_epochs=2)
    run_all(config)
    stat = fixture_csv.stat()
    data = bytearray(fixture_csv.read_bytes())
    last = data.index(b"\n", data.index(b"\n600000,") + 1) - 1  # the last digit of 600000's first price
    data[last] = ord("1") if data[last] != ord("1") else ord("2")
    fixture_csv.write_bytes(bytes(data))
    os.utime(fixture_csv, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert fixture_csv.stat().st_size == stat.st_size and fixture_csv.stat().st_mtime_ns == stat.st_mtime_ns

    parses, computed = _count_parses(monkeypatch), _record_computed(monkeypatch)
    run_all(config)  # one stock to compute, so no pool even at 2 workers
    assert len(parses) == 1 and computed == ["600000"]
    monkeypatch.undo()  # a worker process cannot unpickle the spy
    fresh = run_all(dataclasses.replace(config, output_dir=str(tmp_path / "fresh")))
    assert fresh.done == ["000001", "000002", "600000"]
    assert _tree(config.output_dir, SUBDIRS) == _tree(tmp_path / "fresh", SUBDIRS)


FORCED_PARSES = [
    "file added", "file removed", "torn manifest", "interrupted run", "per-stock JSON deleted", "failed stock",
    "numpy version",
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", FORCED_PARSES)
def test_rerun_parses_when_the_last_run_does_not_stand(fixture_csv, tmp_path, monkeypatch, case, workers):
    header, *rows = fixture_csv.read_text().splitlines(keepends=True)
    inputs, aside = tmp_path / "in", tmp_path / "aside.csv"
    inputs.mkdir()
    (inputs / "a.csv").write_text(header + "".join(row for row in rows if not row.startswith("600000,")))
    (inputs / "b.csv").write_text(header + "".join(row for row in rows if row.startswith("600000,")))
    config = _config(fixture_csv, tmp_path, inputs=(str(inputs / "*.csv"),), workers=workers, dk_epochs=2)
    out = Path(config.output_dir)
    if case == "file added":
        (inputs / "b.csv").rename(aside)
    elif case == "interrupted run":
        monkeypatch.setattr(pipeline, "finish_stock", _interrupt_at_600000)
    elif case == "failed stock":
        monkeypatch.setattr(pipeline, "finish_stock", _fail_at_600000)
    elif case == "numpy version":  # the previous run recorded another numpy
        monkeypatch.setattr(pipeline.np, "__version__", "1.24.0")
    try:
        run_all(config)
    except KeyboardInterrupt:
        assert case == "interrupted run"
    monkeypatch.undo()
    if case == "file added":
        aside.rename(inputs / "b.csv")
    elif case == "file removed":
        (inputs / "b.csv").unlink()
    elif case == "torn manifest":  # a kill mid-write of the last "done" line
        text = (out / "manifest.jsonl").read_text()
        (out / "manifest.jsonl").write_text(text[: text.rindex("\n", 0, -1) + 20])
    elif case == "per-stock JSON deleted":
        (out / "per_stock" / "000002.json").unlink()

    parses = _count_parses(monkeypatch)
    manifest = run_all(config)
    assert len(parses) == 1
    fresh = run_all(dataclasses.replace(config, output_dir=str(tmp_path / "fresh")))
    assert manifest.done == fresh.done and manifest.failed == fresh.failed == []
    assert _tree(out, SUBDIRS) == _tree(tmp_path / "fresh", SUBDIRS)
