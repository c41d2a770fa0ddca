"""Data model, design normalization, validation."""
import math
import re

import numpy as np
import pytest

from nmixtime.model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SiteRecord,
    SurveyDesign,
    Visits,
    validate_dataset,
)

from test_score import N_SITES, layouts

BIN = ObservationProcess.BINOMIAL_COUNT
POI = ObservationProcess.POISSON_PROCESS


def dataset(family, process, counts, times=None, search_time=1.0):
    counts = np.atleast_2d(np.asarray(counts, dtype=np.int64))
    r, j = counts.shape
    proto = Protocol.for_design(family, process, j)
    design = SurveyDesign(r, j, search_time)
    records = []
    for i in range(r):
        t_i = None
        if times is not None:
            t_i = [np.asarray(t, dtype=float) for t in times[i]]
        records.append(SiteRecord(i, counts[i], t_i))
    return Dataset(proto, design, records)


class TestProtocol:
    def test_labels(self):
        assert Protocol.for_design(Family.BINARY, BIN, 1).label == "Binary:S"
        assert Protocol.for_design(Family.BINARY, BIN, 4).label == "Binary:M"
        assert Protocol.for_design(Family.COUNT_T1, BIN, 2).label == "CountT1:M"
        assert Protocol.for_design(Family.COUNT, POI, 1).label == "PCount:S"
        assert Protocol.for_design(Family.COUNT_T, POI, 3).label == "PCountT:M"

    def test_family_record_shape_flags(self):
        assert Family.BINARY.is_binary and Family.BINARY_T1.is_binary
        assert not Family.COUNT.is_binary
        assert Family.COUNT_T.records_all_times
        assert Family.COUNT_T1.records_first_time
        assert Family.BINARY_T1.records_first_time
        assert not Family.COUNT.records_times

    def test_poisson_process_times_carry_no_information(self):
        assert Protocol.for_design(Family.COUNT_T, POI, 3).times_uninformative
        assert Protocol.for_design(Family.COUNT_T1, POI, 1).times_uninformative
        assert not Protocol.for_design(Family.COUNT_T, BIN, 3).times_uninformative
        assert not Protocol.for_design(Family.BINARY, POI, 2).times_uninformative


class TestSurveyDesign:
    def test_scalar_effort_broadcast(self):
        d = SurveyDesign(3, 2, 1.5)
        assert d.search_time.shape == (3, 2)
        assert np.all(d.search_time == 1.5)

    def test_per_occasion_effort_broadcast(self):
        d = SurveyDesign(3, 2, [1.0, 2.0])
        assert d.search_time.shape == (3, 2)
        assert np.array_equal(d.search_time[1], [1.0, 2.0])

    def test_full_matrix_kept(self):
        m = np.arange(1.0, 7.0).reshape(3, 2)
        d = SurveyDesign(3, 2, m)
        assert np.array_equal(d.search_time, m)

    def test_search_time_read_only(self):
        d = SurveyDesign(2, 2, 1.0)
        with pytest.raises(ValueError):
            d.search_time[0, 0] = 9.0

    def test_invalid_effort_rejected(self):
        with pytest.raises(ValueError):
            SurveyDesign(2, 2, 0.0)
        with pytest.raises(ValueError):
            SurveyDesign(2, 2, [-1.0, 1.0])
        with pytest.raises(ValueError):
            SurveyDesign(2, 2, np.array([[1.0, np.nan], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            SurveyDesign(2, 2, np.ones((3, 2)))
        with pytest.raises(ValueError):
            SurveyDesign(0, 2, 1.0)

    @pytest.mark.parametrize("one", [[2.0], [[2.0]], np.array([[[2.0]]])])
    def test_a_size_1_array_reads_as_a_scalar(self, one):
        d = SurveyDesign(2, 3, one)
        assert d.search_time.shape == (2, 3) and np.all(d.search_time == 2.0)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (2, 2), (1, 3, 1)])
    def test_a_refused_layout_names_the_accepted_ones(self, shape):
        message = f"search_time must be scalar, length 3, or shape (2, 3); got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SurveyDesign(2, 3, np.ones(shape))


class TestParameterization:
    def test_scalar_resolution(self):
        p = Parameterization(math.log(2.0), math.log(0.5))
        d = SurveyDesign(3, 2, 1.0)
        log_lam, log_rate = p.resolve(d)
        assert log_lam.shape == (3,)
        assert log_rate.shape == (3, 2)
        assert np.allclose(log_lam, math.log(2.0))
        assert np.allclose(log_rate, math.log(0.5))

    def test_vector_and_matrix_rates(self):
        d = SurveyDesign(2, 3, 1.0)
        p = Parameterization([0.1, 0.2], [[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]])
        log_lam, log_rate = p.resolve(d)
        assert np.array_equal(log_lam, [0.1, 0.2])
        assert log_rate[1, 2] == 0.5
        # per-occasion rate vector broadcasts across sites
        p2 = Parameterization(0.0, [0.0, -1.0, 1.0])
        _, lr2 = p2.resolve(d)
        assert np.array_equal(lr2[0], [0.0, -1.0, 1.0])
        assert np.array_equal(lr2[0], lr2[1])

    def test_covariate_link(self):
        d = SurveyDesign(4, 2, 1.0)
        x_site = np.column_stack([np.ones(4), np.arange(4.0)])
        p = Parameterization([0.5, 0.1], -0.3, site_covariates=x_site)
        log_lam, log_rate = p.resolve(d)
        assert np.allclose(log_lam, 0.5 + 0.1 * np.arange(4.0))
        assert np.allclose(log_rate, -0.3)

    def test_free_values_round_trip(self):
        p = Parameterization([0.5, 0.1], [-0.3, 0.2], site_covariates=np.ones((3, 2)))
        x = p.free_values()
        assert x.shape == (p.n_free,) == (4,)
        q = p.with_free_values(x + 1.0)
        assert np.allclose(q.free_values(), x + 1.0)
        # original untouched
        assert np.allclose(p.free_values(), x)

    def test_rejects_nan_and_positive_inf(self):
        with pytest.raises(ValueError):
            Parameterization(math.nan, 0.0)
        with pytest.raises(ValueError):
            Parameterization(0.0, math.inf)
        # -inf is a legitimate boundary (zero abundance or zero rate)
        p = Parameterization(-math.inf, 0.0)
        assert p.resolve(SurveyDesign(1, 1, 1.0))[0][0] == -math.inf


@pytest.mark.parametrize("j", [1, 3])
def test_free_gradient_is_the_transpose_of_resolve(j):
    # <resolve(u), d> == <u, free_gradient(d)> for every layout
    rng = np.random.default_rng(17)
    design = SurveyDesign(N_SITES, j, 1.0)
    cases = {**layouts(rng, j), "size-1 2-D": Parameterization([[0.3]], [[-0.2]])}
    for name, params in cases.items():
        for _ in range(3):
            u = rng.normal(size=params.n_free)
            d_lam, d_rate = rng.normal(size=N_SITES), rng.normal(size=(N_SITES, j))
            log_lam, log_rate = params.with_free_values(u).resolve(design)
            resolved = log_lam @ d_lam + np.sum(log_rate * d_rate)
            assert resolved == pytest.approx(u @ params.free_gradient(d_lam, d_rate), rel=1e-13, abs=1e-13), name


@pytest.mark.parametrize(
    "params, message",
    [
        (Parameterization(0.0, np.zeros((N_SITES, 1))), "log_rate must be scalar, length 3, or shape (7, 3); got shape (7, 1)"),
        (Parameterization(np.zeros(3), 0.0), "log_lambda must be scalar or length 7, got shape (3,)"),
        (Parameterization(np.zeros((N_SITES, 1)), 0.0), "log_lambda must be scalar or length 7, got shape (7, 1)"),
        (
            Parameterization([0.1, 0.2], 0.0, site_covariates=np.ones((N_SITES + 1, 2))),
            "site_covariates row count does not match the design",
        ),
        (
            Parameterization(0.1, [0.2, 0.3], rate_covariates=np.ones((N_SITES, 2, 2))),
            "rate_covariates leading shape does not match the design",
        ),
    ],
    ids=["(R, 1) rate", "(J,) lambda", "2-D lambda", "site covariate rows", "rate covariate shape"],
)
def test_refused_layouts_keep_their_messages(params, message):
    with pytest.raises(ValueError) as info:
        params.resolve(SurveyDesign(N_SITES, 3, 1.0))
    assert str(info.value) == message


class TestDatasetColumns:
    def test_records_and_arrays_give_the_same_columns(self):
        ds = dataset(
            Family.COUNT_T, BIN, [[2, 0], [0, 1], [1, 3]],
            times=[[[0.2, 0.5], []], [[], [0.7]], [[0.1], [0.3, 0.4, 0.9]]],
        )
        assert np.array_equal(ds.counts, [[2, 0], [0, 1], [1, 3]])
        assert np.array_equal(ds.times_per_cell, [[2, 0], [0, 1], [1, 3]])
        assert np.array_equal(ds.times_flat, [0.2, 0.5, 0.7, 0.1, 0.3, 0.4, 0.9])
        same = Dataset.from_arrays(ds.protocol, ds.design, ds.counts, ds.times_per_cell, ds.times_flat)
        for a, b in zip(ds.records, same.records):
            assert a.site == b.site and np.array_equal(a.counts, b.counts)
            assert all(np.array_equal(x, y) for x, y in zip(a.times, b.times))
        assert np.array_equal(same.records[2].times[1], [0.3, 0.4, 0.9])

    def test_records_are_read_only_views(self):
        ds = dataset(Family.COUNT_T1, BIN, [[1, 0], [2, 1]], times=[[[0.3], []], [[0.2], [0.6]]])
        rec = ds.records[1]
        assert ds.records is ds.records
        assert np.shares_memory(rec.counts, ds.counts)
        assert np.shares_memory(rec.times[1], ds.times_flat)
        for arr in (ds.counts, ds.times_per_cell, ds.times_flat, rec.counts, rec.times[0]):
            with pytest.raises(ValueError):
                arr[0] = 5

    def test_from_arrays_copies_and_checks_shapes(self):
        proto = Protocol.for_design(Family.COUNT, BIN, 2)
        counts = np.array([[1, 2], [0, 3]])
        ds = Dataset.from_arrays(proto, SurveyDesign(2, 2, 1.0), counts)
        counts[0, 0] = 9
        assert ds.counts[0, 0] == 1 and ds.times_flat.size == 0
        with pytest.raises(ValueError, match=r"counts and times_per_cell must have shape \(3, 2\)"):
            Dataset.from_arrays(proto, SurveyDesign(3, 2, 1.0), counts)
        with pytest.raises(ValueError, match="sum to the number of times"):
            Dataset.from_arrays(proto, SurveyDesign(2, 2, 1.0), counts, [[1, 0], [0, 0]], [])


def test_array_holders_compare_by_identity():
    # field-by-field equality would compare arrays elementwise and raise
    a, b = SurveyDesign(2, 2, 1.0), SurveyDesign(2, 2, 1.0)
    assert a == a and not a == b
    proto = Protocol.for_design(Family.COUNT, BIN, 2)
    counts = np.array([[1, 0], [2, 3]])
    d1, d2 = Dataset.from_arrays(proto, a, counts), Dataset.from_arrays(proto, a, counts)
    assert d1 == d1 and d1 != d2
    p = Parameterization(0.0, np.zeros((2, 2)))
    assert p == p and p != Parameterization(0.0, np.zeros((2, 2)))
    assert SiteRecord(0, [1, 2]) != SiteRecord(0, [1, 2])
    assert len({a: 0, b: 1, d1: 2, d2: 3, p: 4}) == 5
    # protocols hold no arrays and keep value equality
    assert Protocol.for_design(Family.COUNT, BIN, 2) == proto


class TestValidation:
    def test_well_formed_count_dataset(self):
        ds = dataset(Family.COUNT, BIN, [[0, 2], [1, 1]])
        assert validate_dataset(ds) == []

    def test_binary_range_violation_message(self):
        ds = dataset(Family.BINARY, BIN, [[0, 0], [0, 0], [0, 3]])
        msgs = [str(v) for v in validate_dataset(ds)]
        assert "binary response out of range at site 2 occasion 1" in msgs

    def test_times_length_mismatch(self):
        ds = dataset(Family.COUNT_T, BIN, [[2, 0]], times=[[[0.3], []]])
        found = validate_dataset(ds)
        assert any("times length" in str(v) for v in found)
        assert found[0].site == 0 and found[0].occasion == 0

    def test_first_time_family_wants_at_most_one(self):
        ds = dataset(Family.COUNT_T1, BIN, [[2]], times=[[[0.2, 0.4]]])
        assert any("times length" in str(v) for v in validate_dataset(ds))
        ok = dataset(Family.COUNT_T1, BIN, [[2]], times=[[[0.2]]])
        assert validate_dataset(ok) == []

    def test_negative_count(self):
        ds = dataset(Family.COUNT, BIN, [[1, -2]])
        assert any("negative" in str(v) for v in validate_dataset(ds))

    def test_time_beyond_search_window(self):
        ds = dataset(Family.COUNT_T, BIN, [[1]], times=[[[1.2]]], search_time=1.0)
        assert any("exceeds search time" in str(v) for v in validate_dataset(ds))

    def test_time_at_window_edge_warns_but_passes(self):
        ds = dataset(Family.COUNT_T, BIN, [[1]], times=[[[1.0]]], search_time=1.0)
        with pytest.warns(UserWarning, match="equals search time"):
            assert validate_dataset(ds) == []

    def test_unsorted_times(self):
        ds = dataset(Family.COUNT_T, BIN, [[2]], times=[[[0.9, 0.4]]], search_time=2.0)
        assert any("ascending" in str(v) for v in validate_dataset(ds))

    def test_nonpositive_time(self):
        ds = dataset(Family.COUNT_T, BIN, [[1]], times=[[[0.0]]])
        assert any("positive" in str(v) for v in validate_dataset(ds))

    def test_counts_length_mismatch(self):
        proto = Protocol.for_design(Family.COUNT, BIN, 3)
        design = SurveyDesign(1, 3, 1.0)
        with pytest.raises(ValueError, match="counts must have length 3"):
            Dataset(proto, design, [SiteRecord(0, np.array([1, 2]))])

    def test_record_count_and_site_labels(self):
        proto = Protocol.for_design(Family.COUNT, BIN, 1)
        design = SurveyDesign(2, 1, 1.0)
        with pytest.raises(ValueError, match="records"):
            Dataset(proto, design, [SiteRecord(0, np.array([1]))])
        with pytest.raises(ValueError, match="site record labelled 1 found in position 0"):
            Dataset(proto, design, [SiteRecord(1, np.array([1])), SiteRecord(0, np.array([0]))])

    def test_every_fault_in_site_and_occasion_order(self):
        # one dataset per family shape; the lists are the row-by-row scan's output
        nan, inf = math.nan, math.inf
        count_t = Dataset(
            Protocol(Family.COUNT_T, BIN, Visits.SINGLE),
            SurveyDesign(5, 3, 2.0),
            [
                SiteRecord(i, c, t)
                for i, (c, t) in enumerate(
                    [
                        ([2, 0, 1], [[0.5, 0.3], [], [2.5]]),
                        ([-1, 1, 3], [[], [0.0], [0.2, nan, 0.4]]),
                        ([2, 1, 0], [[0.1], [2.0], [0.7]]),
                        ([3, 2, 1], [[1.5, 0.4, 2.6], [0.3, 2.0], [inf]]),
                        ([1, 0, 0], [[0.3], [], []]),
                    ]
                )
            ],
        )
        with pytest.warns(UserWarning) as caught:
            found = validate_dataset(count_t)
        assert [(v.message, v.site, v.occasion) for v in found] == [
            ("protocol declares single visits but the design has 3 occasion(s)", None, None),
            ("detection times must be sorted ascending", 0, 0),
            ("detection time exceeds search time", 0, 2),
            ("negative count", 1, 0),
            ("detection times must be positive and finite", 1, 1),
            ("detection times must be positive and finite", 1, 2),
            ("times length != expected (1 recorded, 2 required)", 2, 0),
            ("times length != expected (1 recorded, 0 required)", 2, 2),
            ("detection times must be sorted ascending", 3, 0),
            ("detection time exceeds search time", 3, 0),
            ("detection times must be positive and finite", 3, 2),
        ]
        assert [str(w.message) for w in caught] == [
            "detection time equals search time in 2 cell(s) (first: site 2 occasion 1)"
        ]
        # the scan is cached read-only; each call still warns and returns a fresh list
        found.clear()
        with pytest.warns(UserWarning, match="in 2 cell"):
            assert len(validate_dataset(count_t)) == 11
        faults, edge = count_t.faults
        assert isinstance(faults, tuple) and not edge.flags.writeable

        binary_t1 = dataset(
            Family.BINARY_T1,
            BIN,
            [[2, 1], [-1, 1], [0, 1], [1, 1]],
            times=[[[0.3], [0.4]], [[], []], [[0.2], [1.0]], [[1.5], [0.5]]],
        )
        with pytest.warns(UserWarning, match="equals search time in 1 cell"):
            found = validate_dataset(binary_t1)
        assert [(v.message, v.site, v.occasion) for v in found] == [
            ("binary response out of range", 0, 0),
            ("negative count", 1, 0),
            ("times length != expected (0 recorded, 1 required)", 1, 1),
            ("times length != expected (1 recorded, 0 required)", 2, 0),
            ("detection time exceeds search time", 3, 0),
        ]
