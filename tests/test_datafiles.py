"""CSV/JSON round trips and the diagnostics they raise on malformed input."""
import json
import math

import numpy as np
import pytest

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
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SurveyDesign,
    validate_dataset,
)
from nmixtime.simulate import SimConfig, simulate_dataset

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


def test_load_no_rows(tmp_path):
    p = write_counts(tmp_path, "site,occasion,search_time,count\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_dataset(p, family=Family.COUNT, process=BIN)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_dataset(tmp_path / "nope.csv", family=Family.COUNT, process=BIN)


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
