import tracemalloc
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickpred import ingest
from tickpred.errors import DataError, EmptyInputError, SchemaError, read_table
from tickpred.ingest import (
    ColumnSchema,
    PriceSeries,
    build_series,
    filter_series,
    group_series,
    load_series,
    parse_columns,
    parse_price_hundredths,
    parse_ticks,
)
from tickpred.quantize import fixed_interval_scheme
from tickpred.synthetic import write_tick_fixture

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


def test_read_table_returns_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b,c\n1,x,y\n\n2,"q,r"\n')
    # a blank line is skipped; a short row reads None past its end
    assert read_table(path, {"a": int}) == {"a": [1, 2], "b": ["x", "q,r"], "c": ["y", None]}


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n3\n", "line 3 (3): b: missing"),
        ("a,b\n1,2\n\n\nx,3\n", "line 5 (x): a: invalid literal for int() with base 10: 'x'"),
        ('a,b\n"1\n",2\n4,"5\n6"\n', "line 5 (4): b: invalid literal for int() with base 10: '5\\n6'"),
        # the first bad value in file order, and the row's first field as converted
        ("a,b\n07,x\ny,2\n", "line 2 (7): b: invalid literal for int() with base 10: 'x'"),
    ],
    ids=["short-row", "after-blank-lines", "quoted-line-ends", "file-order"],
)
def test_read_table_names_the_line_of_the_first_bad_value(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        read_table(path, {"a": int, "b": int})
    assert str(info.value) == f"{path}: {message}"


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


def test_row_parser_reads_a_z_suffix_and_a_one_digit_fraction():
    # datetime.fromisoformat reads both from Python 3.11 on, the oldest Python the package allows; 3.10 rejects them
    text = "code,time,price\nA,2021-01-04 09:30:00Z,1.00\nA,2021-01-04 09:30:03.5,1.01\n"
    columns, malformed = parse_columns(text, SCHEMA)
    assert malformed == 0
    assert columns.epoch.tolist() == [1609752600, 1609752603]


def test_row_parser_holds_no_decoded_copy_of_the_file(tmp_path):
    # `T` separators send these 20k rows to the row parser. Its rows and columns peak near 7.5 bytes per file
    # byte; a StringIO over the whole decoded text (4 bytes a character) raised that to 11.8
    path = tmp_path / "t_separated.csv"
    path.write_text(
        "code,time,price\n"
        + "".join(
            f"{600000 + i % 7},2021-01-04T{i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d},{10 + i % 97 / 100:.2f}\n"
            for i in range(20_000)
        )
    )
    tracemalloc.start()
    try:
        columns, malformed = parse_columns(path, SCHEMA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns.epoch) == 20_000 and malformed == 0
    assert peak < 9.5 * path.stat().st_size


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


# Row-level departures from a plain file. Each sends the file to the row parser:
# the row parses there to the same tick, or is malformed there.
_FALLBACK = {
    "offset": lambda c, t, p: (c, t + "+08:00", p),
    "fraction": lambda c, t, p: (c, t + ".250", p),
    "year0": lambda c, t, p: (c, "0000" + t[4:], p),
    "month13": lambda c, t, p: (c, t[:5] + "13" + t[7:], p),
    "day00": lambda c, t, p: (c, t[:8] + "00" + t[10:], p),
    "feb29_1900": lambda c, t, p: (c, "1900-02-29" + t[10:], p),
    "feb30": lambda c, t, p: (c, t[:5] + "02-30" + t[10:], p),
    "t_separator": lambda c, t, p: (c, t[:10] + "T" + t[11:], p),
    "hour24": lambda c, t, p: (c, t[:11] + "24" + t[13:], p),
    "minute60": lambda c, t, p: (c, t[:14] + "60" + t[16:], p),
    "second60": lambda c, t, p: (c, t[:17] + "60", p),
    "three_decimals": lambda c, t, p: (c, t, p.split(".")[0] + ".001"),
    "two_points": lambda c, t, p: (c, t, p.split(".")[0] + ".1.2"),
    "zero_price": lambda c, t, p: (c, t, "0.00"),
    "fourteen_digits": lambda c, t, p: (c, t, "1" * 14),
    "quoted": lambda c, t, p: (f'"{c}"', t, p),
    "code_padded_before": lambda c, t, p: (f" {c}", t, p),
    "code_padded_after": lambda c, t, p: (f"{c} ", t, p),
    "code_non_ascii_first": lambda c, t, p: (f"浦{c}", t, p),
    "code_non_ascii_last": lambda c, t, p: (f"{c}股", t, p),
    "padded": lambda c, t, p: (c, f"{t} ", f" {p}"),
    "short": lambda c, t, p: (c, t),
    "blank_line_before": lambda c, t, p: (c, t, p),
}


def _tick_file(ticks, layout, fallback):
    """The text of a tick file and its schema; ``fallback`` maps a row index to a ``_FALLBACK`` key."""
    delimiter, line_end, order, extra, named, final_line_end = layout
    names = ["code", "stamp", "last"]
    lines = []
    for i, (code, day, second, hundredths, short_price) in enumerate(ticks):
        stamp = f"{day.isoformat()} {second // 3600:02d}:{second // 60 % 60:02d}:{second % 60:02d}"
        price = f"{hundredths // 100}.{hundredths % 100:02d}"
        if short_price:  # 12.50 -> 12.5, 12.00 -> 12
            price = price.rstrip("0").rstrip(".")
        fields = (code, stamp, price)
        kind = fallback.get(i)
        if kind == "blank_line_before":
            lines.append("")
        if kind is not None:
            fields = _FALLBACK[kind](*fields)
        row = [fields[j] for j in order if j < len(fields)] + ["7"] * extra
        lines.append(delimiter.join(row))
    header = delimiter.join([names[j] for j in order] + ["volume"] * extra)
    text = line_end.join([header, *lines]) + (line_end if final_line_end else "")
    if named:
        schema = ColumnSchema(code="code", time="stamp", price="last")
    else:
        schema = ColumnSchema(*(order.index(j) + 1 for j in range(3)))
    return text, schema


def _outcome(text, schema):
    """Series bytes and malformed count of a parse, or the type of the error it raised."""
    try:
        columns, malformed = parse_columns(text.encode("utf-8"), schema)
    except EmptyInputError:
        return EmptyInputError
    series = {
        c: (s.epoch_seconds.tobytes(), s.prices_hundredths.tobytes(), s.day_boundaries)
        for c, s in group_series([columns]).items()
    }
    return series, malformed


@st.composite
def _ticks_and_fallback(draw):
    ticks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["000001", "600000", "B", "300750.SZ", "A股B"]),  # non-ASCII inside a code stays plain
                st.dates(date(1, 1, 1), date(9999, 12, 31)),  # every year datetime reads, leap days too
                st.integers(0, 86399),
                st.integers(1, 10**8),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        )
    )
    rows = st.integers(0, len(ticks) - 1)
    return ticks, draw(st.just({}) | st.dictionaries(rows, st.sampled_from(sorted(_FALLBACK)), min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(
    ticks_and_fallback=_ticks_and_fallback(),
    layout=st.tuples(
        st.sampled_from([",", "\t"]),
        st.sampled_from(["\n", "\r\n"]),
        st.permutations([0, 1, 2]),
        st.integers(0, 1),  # a column the schema does not map
        st.booleans(),  # columns named in the schema, or numbered
        st.booleans(),  # a line end after the last row
    ),
)
def test_plain_path_equals_row_parser(ticks_and_fallback, layout):
    ticks, fallback = ticks_and_fallback
    text, schema = _tick_file(ticks, layout, fallback)
    plain = ingest._plain_columns
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_plain_columns", lambda *args: taken.append(plain(*args)) or taken[-1])
        either = _outcome(text, schema)
        patch.setattr(ingest, "_plain_columns", lambda *args: None)
        rows_only = _outcome(text, schema)
    assert either == rows_only
    assert (taken[0] is not None) == (not fallback)


@pytest.mark.parametrize(
    "stamp, plain",
    [
        pytest.param("0001-01-01 00:00:00", True, id="year1"),
        pytest.param("2000-02-29 12:00:00", True, id="feb29_2000"),
        pytest.param("9999-12-31 23:59:59", True, id="year9999"),
        pytest.param("2021-00-04 09:30:00", False, id="month00"),
        pytest.param("2021-13-04 09:30:00", False, id="month13"),
        pytest.param("2021-01-00 09:30:00", False, id="day00"),
        pytest.param("1900-02-29 09:30:00", False, id="feb29_1900"),
        pytest.param("2021-02-30 09:30:00", False, id="feb30"),
        pytest.param("2021-01-04 24:30:00", False, id="hour24"),
        pytest.param("2021-01-04 09:60:00", False, id="minute60"),
        pytest.param("2021-01-04 09:30:60", False, id="second60"),
        pytest.param("0000-01-04 09:30:00", False, id="year0"),
        pytest.param("2021-01-04T09:30:00", False, id="T"),
        pytest.param("2021/01/04 09:30:00", False, id="slash"),
    ],
)
def test_plain_path_reads_a_stamp_as_the_row_parser_does(stamp, plain, monkeypatch):
    text = f"code,time,last_price\n600000,{stamp},10.05\n"
    assert (ingest._plain_columns(text.encode("utf-8"), ",", 3, (0, 1, 2)) is not None) == plain
    either = _outcome(text, ColumnSchema())
    monkeypatch.setattr(ingest, "_plain_columns", lambda *args: None)
    assert either == _outcome(text, ColumnSchema())


def test_plain_tick_files_take_the_plain_path(tmp_path, monkeypatch):
    write_tick_fixture(tmp_path / "fixture.csv")  # the demos' and pipeline tests' input
    (tmp_path / "benchmark_style.csv").write_text(
        "code,time,last_price\n"
        "600000,2021-01-04 09:30:00,10.05\n"
        "600001,2021-01-04 09:30:00,7.10\n"
        "600000,2021-01-04 09:30:03,10.06\n"
    )
    plain = ingest._plain_columns
    taken = []
    monkeypatch.setattr(ingest, "_plain_columns", lambda *args: taken.append(plain(*args)) or taken[-1])
    series, malformed = load_series([str(tmp_path / "*.csv")], ColumnSchema())
    assert len(taken) == 2 and all(columns is not None for columns in taken)
    assert malformed == {} and sorted(series) == ["000001", "000002", "600000", "600001"]


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
