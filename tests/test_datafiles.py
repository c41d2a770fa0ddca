"""CSV/JSON round trips and the diagnostics they raise on malformed input."""
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nmixtime.datafiles import (
    RunManifest,
    config_digest,
    load_dataset,
    params_from_dict,
    params_to_dict,
    write_dataset,
)
from nmixtime.errors import DataFormatError
from nmixtime.likelihood import total_loglik
from nmixtime.model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SurveyDesign,
    validate_dataset,
)
from nmixtime.simulate import SimConfig, simulate_dataset

from bruteforce import reference_load_dataset

BIN = ObservationProcess.BINOMIAL_COUNT
POI = ObservationProcess.POISSON_PROCESS


def make_dataset(family, process=BIN, r=12, j=3, lam=2.0, h=0.8, seed=5):
    proto = Protocol.for_design(family, process, j)
    design = SurveyDesign(r, j, 1.5)
    params = Parameterization(math.log(lam), math.log(h))
    return simulate_dataset(SimConfig(proto, design, params, seed=seed)), params


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("process", [BIN, POI])
def test_round_trip_preserves_data_and_loglik(tmp_path, family, process):
    ds, params = make_dataset(family, process)
    paths = write_dataset(ds, tmp_path / "a")
    back = load_dataset(
        paths["counts"], paths["times"], family=family, process=process
    )
    assert validate_dataset(back) == []
    assert back.design.n_sites == ds.design.n_sites
    assert np.array_equal(
        np.array([r.counts for r in back.records]),
        np.array([r.counts for r in ds.records]),
    )
    assert total_loglik(back, params).total == pytest.approx(
        total_loglik(ds, params).total, abs=1e-12
    )
    # writing the reloaded dataset reproduces the files byte for byte
    paths2 = write_dataset(back, tmp_path / "b")
    assert paths2["counts"].read_bytes() == paths["counts"].read_bytes()
    if paths["times"] is not None:
        assert paths2["times"].read_bytes() == paths["times"].read_bytes()


def test_counts_file_layout(tmp_path):
    ds, _ = make_dataset(Family.COUNT, r=2, j=2)
    paths = write_dataset(ds, tmp_path)
    lines = paths["counts"].read_text().splitlines()
    assert lines[0] == "site,occasion,search_time,count"
    assert lines[1].startswith("1,1,1.5,")
    assert len(lines) == 1 + 2 * 2
    assert paths["times"] is None


def test_times_file_long_format(tmp_path):
    ds, _ = make_dataset(Family.COUNT_T, r=30, j=2, lam=4.0, h=1.5)
    paths = write_dataset(ds, tmp_path)
    lines = paths["times"].read_text().splitlines()
    assert lines[0] == "site,occasion,detection_index,time"
    total = sum(int(r.counts.sum()) for r in ds.records)
    assert len(lines) == 1 + total
    # detection indices are 1-based and consecutive within a cell
    first = lines[1].split(",")
    assert first[2] == "1"


@pytest.mark.filterwarnings("error")
def test_zero_detection_times_file_is_header_only(tmp_path):
    proto = Protocol.for_design(Family.COUNT_T, BIN, 2)
    design = SurveyDesign(4, 2, 1.0)
    params = Parameterization(-math.inf, 0.0)  # abundance zero: no detections
    ds = simulate_dataset(SimConfig(proto, design, params, seed=1))
    paths = write_dataset(ds, tmp_path)
    assert paths["times"].read_text() == "site,occasion,detection_index,time\n"
    back = load_dataset(paths["counts"], paths["times"], family=Family.COUNT_T, process=BIN)
    assert all(t.size == 0 for r in back.records for t in r.times)


def write_counts(tmp_path, text):
    p = tmp_path / "counts.csv"
    p.write_text(text)
    return p


GOOD_COUNTS = "site,occasion,search_time,count\n1,1,1.0,2\n1,2,1.0,0\n"


def test_load_missing_column(tmp_path):
    p = write_counts(tmp_path, "site,occasion,count\n1,1,2\n")
    with pytest.raises(DataFormatError, match="missing column"):
        load_dataset(p, family=Family.COUNT, process=BIN)


@pytest.mark.filterwarnings("error")
def test_load_no_rows(tmp_path):
    p = write_counts(tmp_path, "site,occasion,search_time,count\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_dataset(tmp_path / "nope.csv", family=Family.COUNT, process=BIN)


def test_load_missing_times_file(tmp_path):
    counts = write_counts(tmp_path, GOOD_COUNTS)
    times = tmp_path / "times.csv"
    with pytest.raises(DataFormatError) as raised:
        load_dataset(counts, times, family=Family.COUNT_T, process=BIN)
    assert str(raised.value) == f"cannot read {times}: no such file"


def test_load_duplicate_cell(tmp_path):
    p = write_counts(tmp_path, GOOD_COUNTS + "1,2,1.0,3\n")
    with pytest.raises(DataFormatError, match="duplicate cell"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def test_load_incomplete_grid(tmp_path):
    p = write_counts(tmp_path, GOOD_COUNTS + "2,1,1.0,1\n")
    with pytest.raises(DataFormatError, match="complete 2 x 2 grid"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def test_load_zero_based_ids_rejected(tmp_path):
    p = write_counts(tmp_path, "site,occasion,search_time,count\n0,1,1.0,2\n")
    with pytest.raises(DataFormatError, match="1-based"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def test_load_non_integer_site(tmp_path):
    p = write_counts(tmp_path, "site,occasion,search_time,count\nA,1,1.0,2\n")
    with pytest.raises(DataFormatError, match="non-integer site/occasion"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def test_load_bad_count_value(tmp_path):
    p = write_counts(tmp_path, "site,occasion,search_time,count\n1,1,1.0,two\n")
    with pytest.raises(DataFormatError, match="bad search_time/count"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def test_load_times_for_unknown_cell(tmp_path):
    counts = write_counts(tmp_path, GOOD_COUNTS)
    times = tmp_path / "times.csv"
    times.write_text("site,occasion,detection_index,time\n3,1,1,0.5\n")
    with pytest.raises(DataFormatError, match="not present in the counts file"):
        load_dataset(counts, times, family=Family.COUNT_T, process=BIN)


def test_load_gapped_detection_index(tmp_path):
    counts = write_counts(tmp_path, GOOD_COUNTS)
    times = tmp_path / "times.csv"
    times.write_text(
        "site,occasion,detection_index,time\n1,1,1,0.2\n1,1,3,0.5\n"
    )
    with pytest.raises(DataFormatError, match=r"must run 1\.\.2"):
        load_dataset(counts, times, family=Family.COUNT_T, process=BIN)


def _same_data(a, b):
    assert np.array_equal(a.design.search_time, b.design.search_time)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.times_per_cell, b.times_per_cell)
    assert np.array_equal(a.times_flat, b.times_flat)


def test_load_columns_in_any_order_with_extras(tmp_path):
    ds, _ = make_dataset(Family.COUNT_T, r=6, j=2, lam=3.0, h=1.2)
    paths = write_dataset(ds, tmp_path / "std")
    out = tmp_path / "shuffled"
    out.mkdir()
    for name, order in (("counts.csv", [3, 0, 2, 1]), ("times.csv", [3, 2, 1, 0])):
        header, *rows = [line.split(",") for line in paths["counts"].with_name(name).read_text().splitlines()]
        lines = [[header[k] for k in order] + ["note"]] + [[r[k] for k in order] + ["x"] for r in rows]
        (out / name).write_text("".join(",".join(line) + "\n" for line in lines))
    back = load_dataset(out / "counts.csv", out / "times.csv", family=Family.COUNT_T, process=BIN)
    _same_data(back, ds)


def test_load_crlf_files(tmp_path):
    ds, _ = make_dataset(Family.COUNT_T1, r=8, j=3, lam=3.0)
    paths = write_dataset(ds, tmp_path / "lf")
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    for name in ("counts.csv", "times.csv"):
        (crlf / name).write_bytes(paths["counts"].with_name(name).read_bytes().replace(b"\n", b"\r\n"))
    back = load_dataset(crlf / "counts.csv", crlf / "times.csv", family=Family.COUNT_T1, process=BIN)
    _same_data(back, ds)


@pytest.mark.parametrize("arrange", ["shuffled", "reversed"])
def test_row_order_does_not_change_what_loads(tmp_path, arrange):
    ds, _ = make_dataset(Family.COUNT_T, r=20, j=3, lam=4.0, h=1.2)
    paths = write_dataset(ds, tmp_path / "std")
    out = tmp_path / arrange
    out.mkdir()
    rng = np.random.default_rng(11)
    for name in ("counts.csv", "times.csv"):
        header, *rows = paths["counts"].with_name(name).read_text().splitlines(keepends=True)
        order = rng.permutation(len(rows)) if arrange == "shuffled" else range(len(rows) - 1, -1, -1)
        (out / name).write_text(header + "".join(rows[k] for k in order))
    assert (out / "times.csv").read_text() != paths["times"].read_text()
    back = load_dataset(out / "counts.csv", out / "times.csv", family=Family.COUNT_T, process=BIN)
    _same_data(back, load_dataset(paths["counts"], paths["times"], family=Family.COUNT_T, process=BIN))
    _same_data(back, ds)


def test_a_repeated_detection_index_names_its_cell_and_sorted_indices(tmp_path):
    counts = write_counts(tmp_path, GOOD_COUNTS)
    times = tmp_path / "times.csv"
    times.write_text("site,occasion,detection_index,time\n1,1,2,0.5\n1,1,1,0.4\n1,1,1,0.2\n")
    with pytest.raises(DataFormatError) as info:
        load_dataset(counts, times, family=Family.COUNT_T, process=BIN)
    assert str(info.value) == "detection_index values for site 1 occasion 1 must run 1..3, got [1, 1, 2]"


HEADER = "site,occasion,search_time,count"


@pytest.mark.parametrize(
    "text",
    [
        HEADER + ',"note\nmore"\n1,1,1.0,2,x\n1,2,1.0,0,y\n',
        HEADER + ',"note\r\nmore"\r\n1,1,1.0,2,x\r\n1,2,1.0,0,y\r\n',
        # the header's second line would read as a row, a duplicate cell
        HEADER + ',"note\n1,2,1.0,5,x"\n1,1,1.0,2,x\n1,2,1.0,0,y\n',
        GOOD_COUNTS.replace("\n", "\r"),
        HEADER + "\n\n\r\n" + GOOD_COUNTS.removeprefix(HEADER + "\n"),
    ],
    ids=["quoted-lf", "quoted-crlf", "quoted-row", "cr", "blank-lines"],
)
def test_header_edge_cases_load_as_the_plain_file_in_one_typed_parse(tmp_path, monkeypatch, text):
    plain = load_dataset(write_counts(tmp_path, GOOD_COUNTS), family=Family.COUNT, process=BIN)
    p = tmp_path / "edge.csv"
    p.write_bytes(text.encode("utf-8"))

    def row_wise(*args):
        raise AssertionError("the typed parse refused the body")

    monkeypatch.setattr("nmixtime.datafiles._parse", row_wise)
    _same_data(load_dataset(p, family=Family.COUNT, process=BIN), plain)


def test_a_plain_file_named_like_an_archive_loads(tmp_path):
    # numpy would decompress a path ending in .gz; the file is plain text
    plain = load_dataset(write_counts(tmp_path, GOOD_COUNTS), family=Family.COUNT, process=BIN)
    p = tmp_path / "counts.csv.gz"
    p.write_text(GOOD_COUNTS)
    _same_data(load_dataset(p, family=Family.COUNT, process=BIN), plain)


def test_load_float_site_and_count_rejected(tmp_path):
    p = write_counts(tmp_path, "site,occasion,search_time,count\n1.0,1,1.0,2\n")
    with pytest.raises(DataFormatError, match="line 2: non-integer site/occasion"):
        load_dataset(p, family=Family.COUNT, process=BIN)
    p = write_counts(tmp_path, "site,occasion,search_time,count\n1,1,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="line 2: bad search_time/count"):
        load_dataset(p, family=Family.COUNT, process=BIN)
    p = write_counts(tmp_path, "site,occasion,search_time,count\n1,1,1.0\n")
    with pytest.raises(DataFormatError, match="line 2: bad search_time/count"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def test_load_bad_time_names_its_line(tmp_path):
    counts = write_counts(tmp_path, GOOD_COUNTS)
    times = tmp_path / "times.csv"
    times.write_text("site,occasion,detection_index,time\n1,1,1,0.2\n1,1,2,soon\n")
    with pytest.raises(DataFormatError, match=r"times\.csv line 3: bad detection_index/time"):
        load_dataset(counts, times, family=Family.COUNT_T, process=BIN)


def test_load_reports_the_earliest_bad_line(tmp_path):
    # a later line's parse error does not mask an earlier line's other fault
    p = write_counts(
        tmp_path, "site,occasion,search_time,count\n1,1,1.0,2\n1,2,1.0,x\nB,1,1.0,1\n1,1,1.0,0\n"
    )
    with pytest.raises(DataFormatError, match="line 3: bad search_time/count"):
        load_dataset(p, family=Family.COUNT, process=BIN)
    p = write_counts(tmp_path, "site,occasion,search_time,count\n1,1,1.0,2\n1,1,1.0,x\n")
    with pytest.raises(DataFormatError, match="line 3: bad search_time/count"):
        load_dataset(p, family=Family.COUNT, process=BIN)
    p = write_counts(tmp_path, "site,occasion,search_time,count\n1,1,1.0,2\n1,1,1.0,3\n0,1,1.0,0\n")
    with pytest.raises(DataFormatError, match="line 3: duplicate cell site 1 occasion 1"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def test_line_numbers_count_blank_lines(tmp_path):
    p = write_counts(tmp_path, "site,occasion,search_time,count\n1,1,1.0,2\n\n\n1,2,1.0,x\n")
    with pytest.raises(DataFormatError, match="line 5: bad search_time/count"):
        load_dataset(p, family=Family.COUNT, process=BIN)
    # a file the typed parse accepts names the same lines
    p = write_counts(tmp_path, "site,occasion,search_time,count\r\n\r\n1,1,1.0,2\r\n\r\n1,1,1.0,3\r\n")
    with pytest.raises(DataFormatError, match="line 5: duplicate cell site 1 occasion 1"):
        load_dataset(p, family=Family.COUNT, process=BIN)
    counts = write_counts(tmp_path, GOOD_COUNTS)
    times = tmp_path / "times.csv"
    times.write_text("site,occasion,detection_index,time\n\n1,1,1,0.2\n\n3,1,1,0.5\n")
    with pytest.raises(DataFormatError, match="times.csv line 5: site 3 occasion 1 not present"):
        load_dataset(counts, times, family=Family.COUNT_T, process=BIN)


@pytest.mark.parametrize("bad", ["counts", "times"])
def test_a_file_that_is_not_utf8_is_a_format_error(tmp_path, bad):
    counts = write_counts(tmp_path, GOOD_COUNTS)
    times = tmp_path / "times.csv"
    times.write_text("site,occasion,detection_index,time\n1,1,1,0.2\n1,1,2,0.5\n")
    path = counts if bad == "counts" else times
    path.write_bytes(path.read_bytes() + b"1,1,3,\xe9\n")
    with pytest.raises(DataFormatError, match="can't decode byte 0xe9") as info:
        load_dataset(counts, times, family=Family.COUNT_T, process=BIN)
    assert str(info.value).startswith(f"{path}: ")


def test_a_field_too_long_for_csv_is_a_format_error(tmp_path):
    # the typed parse reads the long site; naming the duplicate's line reads it with csv
    p = write_counts(tmp_path, "site,occasion,search_time,count\n1,1,1.0,2\n" + "0" * 140000 + "1,1,1.0,3\n")
    with pytest.raises(DataFormatError, match="field larger than field limit"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def _rows_as_formatted(header, fmt, dataset, cell, *columns):
    """A file as one ``fmt.format`` call per row writes it."""
    n_occ = dataset.n_occasions
    rows = map(fmt.format, (cell // n_occ + 1).tolist(), (cell % n_occ + 1).tolist(), *(c.tolist() for c in columns))
    return "\n".join([header, *rows, ""]).encode()


VARIANTS = [(family, process, j) for family in Family for process in (BIN, POI) for j in (1, 3)]


@pytest.mark.parametrize("family, process, j", VARIANTS, ids=[Protocol.for_design(*v).label for v in VARIANTS])
def test_write_load_write_is_byte_identical(tmp_path, family, process, j):
    proto = Protocol.for_design(family, process, j)
    search = np.random.default_rng(3).uniform(0.1, 2.0, size=(9, j))
    cfg = SimConfig(proto, SurveyDesign(9, j, search), Parameterization(math.log(4.0), math.log(0.6)), seed=8)
    ds = simulate_dataset(cfg)
    paths = write_dataset(ds, tmp_path / "a")
    cell = np.arange(ds.counts.size)
    assert paths["counts"].read_bytes() == _rows_as_formatted(
        "site,occasion,search_time,count", "{},{},{!r},{}", ds, cell,
        ds.design.search_time.ravel(), ds.counts.ravel(),
    )
    if family.records_times:
        size = ds.times_per_cell.ravel()
        index = np.arange(size.sum()) - np.repeat(ds.times_start.ravel(), size) + 1
        assert paths["times"].read_bytes() == _rows_as_formatted(
            "site,occasion,detection_index,time", "{},{},{},{!r}", ds, np.repeat(cell, size),
            index, ds.times_flat,
        )
    back = load_dataset(paths["counts"], paths["times"], family=family, process=process)
    _same_data(back, reference_load_dataset(paths["counts"], paths["times"], family=family, process=process))
    paths2 = write_dataset(back, tmp_path / "b")
    for name in ("counts", "times"):
        if paths[name] is not None:
            assert paths2[name].read_bytes() == paths[name].read_bytes()


def repr_files(dataset) -> tuple[bytes, bytes | None]:
    """counts.csv and times.csv as a writer calling repr on every value and
    joining each row's fields with commas writes them."""
    n_occ = dataset.n_occasions
    search, counts = dataset.design.search_time.ravel().tolist(), dataset.counts.ravel().tolist()
    lines = ["site,occasion,search_time,count"]
    for c, (t, y) in enumerate(zip(search, counts)):
        lines.append(",".join([repr(c // n_occ + 1), repr(c % n_occ + 1), repr(t), repr(y)]))
    counts_file = "\n".join(lines + [""]).encode()
    if not dataset.protocol.family.records_times:
        return counts_file, None
    lines = ["site,occasion,detection_index,time"]
    times = iter(dataset.times_flat.tolist())
    for c, size in enumerate(dataset.times_per_cell.ravel().tolist()):
        for k in range(1, size + 1):
            lines.append(",".join([repr(c // n_occ + 1), repr(c % n_occ + 1), repr(k), repr(next(times))]))
    return counts_file, "\n".join(lines + [""]).encode()


def assert_written_as_repr(dataset, out_dir):
    paths = write_dataset(dataset, out_dir)
    counts, times = repr_files(dataset)
    assert paths["counts"].read_bytes() == counts
    assert (paths["times"] and paths["times"].read_bytes()) == times


@pytest.mark.parametrize("family, process, j", VARIANTS, ids=[Protocol.for_design(*v).label for v in VARIANTS])
def test_every_protocol_is_written_as_repr_writes_it(tmp_path, family, process, j):
    search = 0.4 + 0.35 * (np.arange(25 * j).reshape(25, j) % 5)
    cfg = SimConfig(
        Protocol.for_design(family, process, j), SurveyDesign(25, j, search),
        Parameterization(math.log(3.0), math.log(0.8)), seed=2024,
    )
    assert_written_as_repr(simulate_dataset(cfg), tmp_path)


@pytest.mark.parametrize("sites", [10_000, 17_000])  # 17,000 x 4: both files run past one 65,536-row block
def test_a_large_survey_is_written_as_repr_writes_it(tmp_path, sites):
    cfg = SimConfig(
        Protocol.for_design(Family.COUNT_T, BIN, 4), SurveyDesign(sites, 4, 1.0),
        Parameterization(math.log(3.0), math.log(0.5)), seed=1,
    )
    ds = simulate_dataset(cfg)
    assert sites < 17_000 or ds.times_flat.size > 65_536
    assert_written_as_repr(ds, tmp_path)


def test_edge_values_are_written_as_repr_writes_them(tmp_path):
    search = [[1e-5, 0.1, 2.5, 1e16], [1e-4, 1e15, 9999999999999998.0, 0.30000000000000004]]
    counts = [[0, 10**9, 2**62, 7], [0, 0, 10**18, 1]]
    design = SurveyDesign(2, 4, search)
    ds = Dataset.from_arrays(Protocol.for_design(Family.COUNT, BIN, 4), design, counts)
    assert_written_as_repr(ds, tmp_path / "count")
    times_per_cell = np.array([[0, 3, 2, 7], [0, 0, 1, 1]])
    times = [1e-5, 5e-324, 0.1, 2.5, 1e16, 1e-4, np.nextafter(1e-4, 0), 0.5 + 2**-17, 0.25, 2.0**53, 1e15, 7.0, 0.1, 3.0]
    ds = Dataset.from_arrays(Protocol.for_design(Family.COUNT_T, BIN, 4), design, times_per_cell, times_per_cell, times)
    assert_written_as_repr(ds, tmp_path / "times")


INT_TOKENS = ["1", "2", "3", " 2 ", "+1", "0", "-1", "1_0", "\u0661", "1.0", "", "nan", "x", "0x1p3", "1e0", '2""',
              "1\n"]
FLOAT_TOKENS = ["1.0", "0.5", "2", " 7 ", "1_0", "\u0663.5", "nan", "Infinity", "-inf", "0x1p3", "",
                "1e400", "-0.0", ".5", "x", '"1"x']


@st.composite
def csv_texts(draw, names, rows, kinds):
    """A CSV text holding ``rows`` under ``names``, with its columns shuffled
    and padded, some values replaced by odd tokens, some fields quoted, rows
    made ragged, and blank lines and a drawn line ending."""
    dirty = draw(st.integers(0, 2)) == 0
    extra = draw(st.lists(st.sampled_from(["note", *names]), max_size=2))
    header = draw(st.permutations(list(names) + extra))
    fields_of = []
    for row in rows:
        value = dict(zip(names, row))
        fields = []
        for name in header:
            kind = kinds.get(name)
            field = value[name] if name in value and kind else "a,b"
            if dirty and kind and draw(st.integers(0, 5)) == 0:
                field = draw(st.sampled_from(INT_TOKENS if kind is int else FLOAT_TOKENS))
            if draw(st.integers(0, 7)) == 0 or "," in field:  # a newline is quoted only sometimes
                field = '"' + field.replace('"', '""') + '"'
            fields.append(field)
        if dirty and draw(st.integers(0, 7)) == 0:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["9"]
        fields_of.append(",".join(fields))
    lines = [",".join(header)]
    for line in fields_of:
        lines += [""] * (draw(st.integers(0, 7)) == 0) + [line]
        if dirty and draw(st.integers(0, 15)) == 0:
            lines.append("  ")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, "", end + end]))


@st.composite
def surveys(draw):
    r, j = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.permutations([(s, o) for s in range(1, r + 1) for o in range(1, j + 1)]))
    if draw(st.integers(0, 7)) == 0:
        cells.append(draw(st.sampled_from(cells)))  # a duplicated cell
    counts = [(str(s), str(o), draw(st.sampled_from(["1.0", "0.5", "1.25"])), str(draw(st.integers(0, 2))))
              for s, o in cells]
    times = [(str(s), str(o), str(d), draw(st.sampled_from(["0.25", "0.5", "0.125"])))
             for s, o in cells[:r * j] for d in range(1, draw(st.integers(0, 2)) + 1)]
    if times and draw(st.integers(0, 7)) == 0:
        times.append(draw(st.sampled_from(times)))  # a repeated detection index
    counts_text = draw(csv_texts(
        ["site", "occasion", "search_time", "count"], counts,
        {"site": int, "occasion": int, "search_time": float, "count": int},
    ))
    times_text = draw(csv_texts(
        ["site", "occasion", "detection_index", "time"], draw(st.permutations(times)),
        {"site": int, "occasion": int, "detection_index": int, "time": float},
    ))
    return counts_text, times_text


def _outcome(loader, counts, times):
    try:
        ds = loader(counts, times, family=Family.COUNT_T, process=BIN)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(exc).__name__, str(exc)
    arrays = (ds.design.search_time, ds.counts, ds.times_per_cell, ds.times_flat)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(surveys())
def test_load_matches_the_row_wise_reader(tmp_path, survey):
    counts, times = tmp_path / "counts.csv", tmp_path / "times.csv"
    for path, text in zip((counts, times), survey):
        path.write_bytes(text.encode("utf-8"))
    expected = _outcome(reference_load_dataset, counts, times)
    assert _outcome(load_dataset, counts, times) == expected


def test_params_from_dict_log_and_natural():
    p = params_from_dict({"lambda": 2.0, "log_rate": -0.5})
    assert float(p.log_lambda) == pytest.approx(math.log(2.0))
    assert float(p.log_rate) == -0.5


def test_params_from_dict_zero_rate_is_minus_inf():
    p = params_from_dict({"log_lambda": 0.0, "rate": 0.0})
    assert float(p.log_rate) == -math.inf


def test_params_from_dict_exclusivity():
    with pytest.raises(DataFormatError, match="exactly one of 'log_lambda' or 'lambda'"):
        params_from_dict({"lambda": 1.0, "log_lambda": 0.0, "rate": 1.0})
    with pytest.raises(DataFormatError, match="exactly one of 'log_rate' or 'rate'"):
        params_from_dict({"lambda": 1.0})


def test_params_from_dict_negative_natural():
    with pytest.raises(DataFormatError, match="must be nonnegative"):
        params_from_dict({"lambda": -1.0, "rate": 1.0})


def test_params_from_dict_vector():
    p = params_from_dict({"log_lambda": [0.0, 0.7], "rate": 1.0})
    assert p.log_lambda.shape == (2,)


def test_params_round_trip():
    p = Parameterization([0.1, 0.2], -0.3)
    d = params_to_dict(p)
    assert d == {"log_lambda": [0.1, 0.2], "log_rate": -0.3}
    q = params_from_dict(d)
    assert np.array_equal(q.log_lambda, p.log_lambda)
    assert float(q.log_rate) == float(p.log_rate)


def test_config_digest_key_order_invariant():
    a = {"model": "CountT", "sites": 10, "lambda": 2.0}
    b = {"lambda": 2.0, "sites": 10, "model": "CountT"}
    assert config_digest(a) == config_digest(b)
    assert config_digest({**a, "sites": 11}) != config_digest(a)
    assert len(config_digest(a)) == 64


def test_manifest_json_shape():
    m = RunManifest("simulate", "ab" * 32, {"counts": "x.csv"}, {"total_s": 0.5})
    payload = json.loads(m.to_json())
    assert payload["command"] == "simulate"
    assert payload["outputs"] == {"counts": "x.csv"}
    assert list(payload) == sorted(payload)
