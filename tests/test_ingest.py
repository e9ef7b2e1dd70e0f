from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickpred.errors import DataError, EmptyInputError, SchemaError
from tickpred.ingest import (
    ColumnSchema,
    PriceSeries,
    build_series,
    filter_series,
    parse_price_hundredths,
    parse_ticks,
)
from tickpred.quantize import fixed_interval_scheme

SCHEMA = ColumnSchema(code=1, time=2, price=3)


def test_parse_single_row():
    rows, malformed = parse_ticks("code,time,price\n000001,2021-01-04 09:30:03,18.60\n", SCHEMA)
    assert malformed == 0
    assert rows == [("000001", 1609752603, 1860)]  # 2021-01-04 09:30:03 local clock, 18.60 CNY


def test_malformed_rows_counted_and_skipped():
    text = (
        "code,time,price\n"
        "000001,2021-01-04 09:30:03,18.60\n"
        "000001,2021-01-04 09:30:06,abc\n"
        "000001,not-a-time,18.61\n"
        "000001,2021-01-04 09:30:09,-3.00\n"
        "000001,2021-01-04 09:30:12,18.62\n"
    )
    records, malformed = parse_ticks(text, SCHEMA)
    assert len(records) == 2
    assert malformed == 3


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        parse_ticks("", SCHEMA)
    with pytest.raises(EmptyInputError):
        parse_ticks("code,time,price\n", SCHEMA)


def test_missing_mapped_column_is_schema_error():
    with pytest.raises(SchemaError, match="out of range"):
        parse_ticks("code,time\nx,2021-01-04 09:30:03\n", SCHEMA)
    with pytest.raises(SchemaError, match="not found"):
        parse_ticks("code,time,price\nx,2021-01-04 09:30:03,1.00\n", ColumnSchema(code="ticker", time=2, price=3))


def test_named_columns_and_tab_delimiter():
    schema = ColumnSchema(code="code", time="stamp", price="last")
    text = "code\tturn\tstamp\tlast\nA\t123.5\t2021-01-04 09:30:03\t5.20\n"
    rows, malformed = parse_ticks(text, schema)
    assert rows == [("A", 1609752603, 520)]
    assert malformed == 0


def test_parse_accepts_bytes_and_streams():
    import io

    text = "code,time,price\nA,2021-01-04 09:30:03,1.00\n"
    for source in (text.encode("utf-8"), io.StringIO(text)):
        records, malformed = parse_ticks(source, SCHEMA)
        assert len(records) == 1 and malformed == 0


def test_parse_reads_a_path_string_and_names_a_missing_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = "code,time,price\nA,2021-01-04 09:30:03,1.00\n"
    (tmp_path / "ticks.csv").write_text(text)
    assert parse_ticks("ticks.csv", SCHEMA) == parse_ticks(text, SCHEMA)
    with pytest.raises(DataError, match="^input file not found: missing.csv$"):
        parse_ticks("missing.csv", SCHEMA)
    with pytest.raises(DataError, match="^input file not found: missing.csv$"):
        parse_ticks(Path("missing.csv"), SCHEMA)


def test_interchange_rejects_empty_file(tmp_path):
    empty = tmp_path / "E.csv"
    empty.write_text("")
    with pytest.raises(EmptyInputError):
        PriceSeries.from_interchange(empty)
    header_only = tmp_path / "H.csv"
    header_only.write_text("epoch_seconds,price_hundredths\n")
    with pytest.raises(EmptyInputError):
        PriceSeries.from_interchange(header_only)


def test_price_parsing_is_exact():
    assert parse_price_hundredths("18.60") == 1860
    assert parse_price_hundredths("18.6") == 1860
    assert parse_price_hundredths("18") == 1800
    assert parse_price_hundredths("0.07") == 7
    for bad in ("18.605", "abc", "-1.00", "0.00", ""):
        with pytest.raises(ValueError):
            parse_price_hundredths(bad)


def test_build_series_groups_and_sorts():
    text = (
        "code,time,price\n"
        "B,2021-01-04 09:30:06,2.00\n"
        "A,2021-01-04 09:30:03,1.00\n"
        "B,2021-01-04 09:30:03,1.99\n"
        "A,2021-01-04 09:30:06,1.01\n"
        "B,2021-01-04 09:30:09,2.01\n"
        "A,2021-01-04 09:30:09,1.02\n"
    )
    records, _ = parse_ticks(text, SCHEMA)
    series = build_series(records)
    assert sorted(series) == ["A", "B"]
    assert len(series["A"]) == 3 and len(series["B"]) == 3
    assert series["B"].prices_hundredths.tolist() == [199, 200, 201]


def test_build_series_detects_day_boundaries():
    text = (
        "code,time,price\n"
        "A,2021-01-04 14:59:57,1.00\n"
        "A,2021-01-04 15:00:00,1.01\n"
        "A,2021-01-05 09:30:00,1.02\n"
        "A,2021-01-05 09:30:03,1.03\n"
        "A,2021-01-06 09:30:00,1.04\n"
    )
    records, _ = parse_ticks(text, SCHEMA)
    series = build_series(records)["A"]
    assert series.day_boundaries == [0, 2, 4]
    assert series.n_days == 3


def test_duplicate_timestamps_keep_input_order():
    text = (
        "code,time,price\n"
        "A,2021-01-04 09:30:03,1.00\n"
        "A,2021-01-04 09:30:03,1.05\n"
        "A,2021-01-04 09:30:03,1.01\n"
    )
    records, _ = parse_ticks(text, SCHEMA)
    series = build_series(records)["A"]
    assert series.prices_hundredths.tolist() == [100, 105, 101]


def test_build_series_empty_input_gives_empty_map():
    assert build_series([]) == {}


def test_mixed_naive_and_aware_timestamps_order_by_local_clock():
    text = (
        "code,time,price\n"
        "A,2021-01-04 09:30:03+08:00,1.01\n"
        "A,2021-01-04 09:30:00,1.00\n"
    )
    series = build_series(parse_ticks(text, SCHEMA)[0])["A"]
    assert series.epoch_seconds.tolist() == [1609752600, 1609752603]
    assert series.prices_hundredths.tolist() == [100, 101]


_EPOCH = datetime(1970, 1, 1)


def _oracle_series(ticks):
    """Dict grouping with a stable per-stock sort by local clock; keys in code order."""
    grouped = {}
    for code, ts, price in ticks:
        local = ts.replace(tzinfo=None)
        grouped.setdefault(code, []).append(((local - _EPOCH) // timedelta(seconds=1), local.date(), price))
    out = {}
    for code in sorted(grouped):
        group = sorted(grouped[code], key=lambda t: t[0])
        dates = [d for _, d, _ in group]
        out[code] = (
            [t for t, _, _ in group],
            [p for _, _, p in group],
            [0] + [i for i in range(1, len(dates)) if dates[i] != dates[i - 1]],
        )
    return out


@settings(max_examples=200, deadline=None)
@given(
    ticks=st.lists(
        st.tuples(
            st.sampled_from(["B", "A", "600000", "000001"]),
            st.sampled_from([date(2021, 1, 4), date(1969, 12, 30)]),
            st.integers(0, 3),  # day
            st.sampled_from([0, 3, 6, 3600, 86397]),  # few clocks: duplicate timestamps are common
            st.sampled_from([0, 250000, 999999]),  # microseconds, dropped from the epoch
            st.one_of(st.none(), st.integers(-12 * 60, 14 * 60)),  # UTC offset in minutes; None is naive
            st.integers(1, 99999),
        ),
        max_size=40,
    )
)
def test_build_series_matches_dict_grouping_oracle(ticks):
    parsed = []
    for code, first, day, second, micro, offset, price in ticks:
        tz = None if offset is None else timezone(timedelta(minutes=offset))
        start = datetime(first.year, first.month, first.day, tzinfo=tz)
        parsed.append((code, start + timedelta(days=day, seconds=second, microseconds=micro), price))
    text = "code,time,price\n" + "".join(f"{c},{ts.isoformat()},{p // 100}.{p % 100:02d}\n" for c, ts, p in parsed)
    series = build_series(parse_ticks(text, SCHEMA)[0]) if parsed else {}
    assert {
        code: (s.epoch_seconds.tolist(), s.prices_hundredths.tolist(), s.day_boundaries) for code, s in series.items()
    } == _oracle_series(parsed)
    assert list(series) == sorted(series)


def test_series_lengths_sum_to_record_count():
    rng = np.random.default_rng(2)
    lines = ["code,time,price"]
    for i in range(200):
        code = f"{rng.integers(0, 5):06d}"
        lines.append(f"{code},2021-01-04 09:{i % 60:02d}:{(3 * i) % 60:02d},{1 + (i % 30) / 100:.2f}")
    records, _ = parse_ticks("\n".join(lines) + "\n", SCHEMA)
    series = build_series(records)
    assert sum(len(s) for s in series.values()) == len(records) == 200


def test_interchange_round_trip(tmp_path):
    text = (
        "code,time,price\n"
        "A,2021-01-04 09:30:03,1.23\n"
        "A,2021-01-04 09:30:06,1.24\n"
        "A,2021-01-05 09:30:03,1.25\n"
    )
    records, _ = parse_ticks(text, SCHEMA)
    series = build_series(records)["A"]
    path = tmp_path / "A.csv"
    series.to_interchange(path)
    loaded = PriceSeries.from_interchange(path)
    assert loaded.stock_code == "A"
    assert loaded.epoch_seconds.tolist() == series.epoch_seconds.tolist()
    assert loaded.prices_hundredths.tolist() == series.prices_hundredths.tolist()
    assert loaded.day_boundaries == series.day_boundaries


@settings(max_examples=200, deadline=None)
@given(
    offset_minutes=st.integers(-12 * 60, 14 * 60),
    session_start=st.integers(0, 86399),
    ticks_per_day=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    spacing=st.integers(1, 7200),
)
def test_interchange_round_trip_keeps_day_boundaries(
    tmp_path_factory, offset_minutes, session_start, ticks_per_day, spacing
):
    # a day is one exchange-local date, whatever the UTC offset and session start
    tz = timezone(timedelta(minutes=offset_minutes))
    stamps = [
        datetime(2021, 1, 4, tzinfo=tz) + timedelta(days=day, seconds=session_start + i * spacing)
        for day, k in enumerate(ticks_per_day)
        for i in range(k)
    ]
    text = "code,time,price\n" + "".join(f"A,{ts.isoformat()},1.00\n" for ts in stamps)
    series = build_series(parse_ticks(text, SCHEMA)[0])["A"]
    local_dates = [ts.date() for ts in stamps]
    assert series.day_boundaries == [0] + [
        i for i in range(1, len(stamps)) if local_dates[i] != local_dates[i - 1]
    ]
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    series.to_interchange(path)
    assert PriceSeries.from_interchange(path).day_boundaries == series.day_boundaries


def _series(prices_hundredths):
    n = len(prices_hundredths)
    return PriceSeries(
        stock_code="F",
        epoch_seconds=np.arange(n, dtype=np.int64) * 3,
        prices_hundredths=np.asarray(prices_hundredths, dtype=np.int64),
        day_boundaries=[0],
    )


def test_filter_drops_too_few_states():
    series = _series(np.arange(100, 109).repeat(20))  # 9 distinct prices
    decision = filter_series(series, fixed_interval_scheme(0.01), min_length=10, min_states=10)
    assert not decision.keep
    assert "too few states" in decision.reason


def test_filter_drops_constant_series():
    series = _series(np.full(2000, 500))
    decision = filter_series(series, fixed_interval_scheme(0.01), min_length=1000, min_states=10)
    assert not decision.keep


def test_filter_min_states_boundary_is_inclusive():
    series = _series(np.array([100, 105, 110] * 40))
    decision = filter_series(series, fixed_interval_scheme(0.01), min_length=10, min_states=3)
    assert decision.keep
    assert decision.reason is None


def test_filter_drops_short_series():
    series = _series(np.arange(100, 150))
    decision = filter_series(series, fixed_interval_scheme(0.01), min_length=1000, min_states=10)
    assert not decision.keep
    assert "too short" in decision.reason


def test_filter_is_deterministic():
    series = _series(np.arange(100, 200))
    a = filter_series(series, fixed_interval_scheme(0.05), min_length=50, min_states=10)
    b = filter_series(series, fixed_interval_scheme(0.05), min_length=50, min_states=10)
    assert a == b
