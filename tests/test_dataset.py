import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rssdetect import dataset as ds
from rssdetect.errors import DataFormatError

# chi-square critical value, df=9, upper tail 0.01
# (frozen from scipy.stats.chi2.isf(0.01, 9))
CHI2_DF9_P01 = 21.665994333461928


# signed zeros, the smallest subnormal, the normal/subnormal boundary and
# the largest finite magnitudes
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def measurement_sets(draw) -> ds.MeasurementSet:
    l, e, m = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    values = draw(st.lists(FINITE, min_size=l * e * m, max_size=l * e * m))
    coords = draw(st.lists(FINITE, min_size=3 * l, max_size=3 * l))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=l, max_size=l, unique=True))
    return ds.MeasurementSet(
        values=np.array(values).reshape(l, e, m),
        location_ids=np.array(ids, dtype=np.int64),
        coordinates=np.array(coords).reshape(l, 3),
    )


def make_corpus(l=10, e=4, m=3, seed=0, ids=None) -> ds.MeasurementSet:
    rng = np.random.default_rng(seed)
    return ds.MeasurementSet(
        values=rng.normal(-70.0, 5.0, size=(l, e, m)),
        location_ids=np.arange(l, dtype=np.int64) if ids is None else np.asarray(ids),
        coordinates=rng.uniform(0, 5, size=(l, 3)),
    )


class TestMeasurementSet:
    def test_requires_two_estimates(self):
        with pytest.raises(DataFormatError, match="2 estimates"):
            make_corpus(e=1)

    def test_rejects_non_finite(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 2, 2))
        values[1, 0, 1] = np.nan
        with pytest.raises(DataFormatError, match="location index 1"):
            ds.MeasurementSet(values=values, location_ids=np.arange(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, tmp_path, bad):
        ms = make_corpus(l=4, e=2, m=2, seed=3)
        coordinates = ms.coordinates.copy()
        coordinates[2, 1] = bad
        with pytest.raises(DataFormatError, match="non-finite coordinate at location index 2"):
            ds.MeasurementSet(values=ms.values, location_ids=ms.location_ids, coordinates=coordinates)
        # the finite set it came from saves and loads back bit for bit
        path, coords = tmp_path / "meas.csv", tmp_path / "locations.csv"
        ds.save_measurements(ms, path, coords_path=coords)
        assert ds.load_measurements(path, coords_path=coords).coordinates.tobytes() == ms.coordinates.tobytes()

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DataFormatError, match="distinct"):
            make_corpus(l=3, ids=[0, 1, 1])


class TestBuildPairSet:
    def test_counts_and_provenance(self):
        ms = make_corpus()
        pairs = ds.build_pair_set(ms, ms.location_ids, k=50, seed=1)
        assert len(pairs) == 100 and pairs.k_per_class == 50
        assert np.array_equal(pairs.labels, np.arange(100) >= 50)  # 50 SAME, then 50 DIFF
        same = ~pairs.labels
        assert np.array_equal(pairs.location_a[same], pairs.location_b[same])
        assert np.all(pairs.estimate_a[same] != pairs.estimate_b[same])
        assert np.all(pairs.location_a[~same] != pairs.location_b[~same])
        # feature vectors really come from the recorded provenance
        na = [ms.index_of(int(i)) for i in pairs.location_a]
        nb = [ms.index_of(int(i)) for i in pairs.location_b]
        assert np.array_equal(pairs.first, ms.values[na, pairs.estimate_a])
        assert np.array_equal(pairs.second, ms.values[nb, pairs.estimate_b])

    def test_two_estimates_forces_both(self):
        ms = make_corpus(e=2)
        pairs = ds.build_pair_set(ms, ms.location_ids, k=20, seed=2)
        same = ~pairs.labels
        estimates = np.sort(np.c_[pairs.estimate_a[same], pairs.estimate_b[same]], axis=1)
        assert np.all(estimates == [0, 1])

    def test_figure_configuration_builds(self):
        ms = make_corpus(l=40, e=8, m=16, seed=3)
        train = ds.build_pair_set(ms, ms.location_ids[:32], k=1250, seed=4)
        val = ds.build_pair_set(ms, ms.location_ids[32:], k=150, seed=5)
        assert len(train) == 2500 and len(val) == 300

    def test_deterministic(self):
        ms = make_corpus()
        a = ds.build_pair_set(ms, ms.location_ids, k=30, seed=6)
        b = ds.build_pair_set(ms, ms.location_ids, k=30, seed=6)
        assert np.array_equal(a.first, b.first)
        assert np.array_equal(a.location_b, b.location_b)

    def test_subset_restriction(self):
        ms = make_corpus()
        subset = ms.location_ids[[2, 5, 7]]
        pairs = ds.build_pair_set(ms, subset, k=40, seed=7)
        assert set(pairs.location_a) | set(pairs.location_b) <= set(subset.tolist())

    def test_same_location_draw_is_uniform(self):
        # chi-square test on the SAME-class location histogram
        ms = make_corpus(l=10, e=3)
        pairs = ds.build_pair_set(ms, ms.location_ids, k=100_000, seed=8)
        same_locs = pairs.location_a[~pairs.labels]
        counts = np.bincount(same_locs, minlength=10)
        expected = 100_000 / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_DF9_P01

    def test_too_few_locations(self):
        ms = make_corpus()
        with pytest.raises(ValueError, match="2 locations"):
            ds.build_pair_set(ms, ms.location_ids[:1], k=5, seed=9)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: {"k_per_class": p.k_per_class + 1}, "pair arrays must hold exactly 2K pairs"),
            (
                lambda p: {"location_b": np.r_[p.location_a[0] + 1, p.location_b[1:]]},
                "SAME pairs must share a location",
            ),
            (
                lambda p: {"estimate_b": np.r_[p.estimate_a[0], p.estimate_b[1:]]},
                "SAME pairs must .* use distinct estimates",
            ),
            (
                lambda p: {"location_b": np.r_[p.location_b[:5], p.location_a[5], p.location_b[6:]]},
                "DIFF pairs must use distinct locations",
            ),
        ],
        ids=["pair count", "SAME locations", "SAME estimates", "DIFF locations"],
    )
    def test_pair_set_refuses_a_broken_layout(self, edit, message):
        ms = make_corpus()
        pairs = ds.build_pair_set(ms, ms.location_ids, k=5, seed=10)
        with pytest.raises(ValueError, match=message):
            replace(pairs, **edit(pairs))


class TestSplitLocations:
    def test_figure_split_sizes(self):
        ms = make_corpus(l=52)
        split = ds.split_locations(ms, 40, 0.8, seed=1)
        assert split.train_ids.size == 32
        assert split.val_ids.size == 8
        assert split.test_ids.size == 12

    def test_parts_disjoint_and_cover(self):
        ms = make_corpus(l=13)
        split = ds.split_locations(ms, 9, 0.7, seed=2)
        merged = np.concatenate([split.train_ids, split.val_ids, split.test_ids])
        assert sorted(merged.tolist()) == sorted(ms.location_ids.tolist())

    @pytest.mark.parametrize("parts", [([1, 2], [2], [3]), ([1], [2], [1, 3]), ([1], [2, 3], [3])])
    def test_overlapping_parts_rejected(self, parts):
        with pytest.raises(ValueError, match="split parts must be pairwise disjoint"):
            ds.LocationSplit(*map(np.array, parts))

    def test_empty_validation_rejected(self):
        ms = make_corpus(l=10)
        with pytest.raises(ValueError, match="infeasible"):
            ds.split_locations(ms, 4, 0.9, seed=3)  # round(3.6) = 4 -> val 0

    def test_deterministic(self):
        ms = make_corpus(l=20)
        a = ds.split_locations(ms, 15, 0.8, seed=4)
        b = ds.split_locations(ms, 15, 0.8, seed=4)
        assert np.array_equal(a.train_ids, b.train_ids)
        assert np.array_equal(a.val_ids, b.val_ids)

    def test_bounds(self):
        ms = make_corpus(l=5)
        with pytest.raises(ValueError):
            ds.split_locations(ms, 6, 0.8, seed=0)
        with pytest.raises(ValueError):
            ds.split_locations(ms, 4, 1.0, seed=0)


class TestMeasurementFile:
    def test_round_trip_bit_exact(self, tmp_path):
        ms = make_corpus(l=6, e=3, m=4, seed=5)
        path = tmp_path / "meas.csv"
        coords = tmp_path / "locations.csv"
        ds.save_measurements(ms, path, coords_path=coords)
        back = ds.load_measurements(path, coords_path=coords)
        assert np.array_equal(back.values, ms.values)
        assert np.array_equal(back.location_ids, ms.location_ids)
        assert np.array_equal(back.coordinates, ms.coordinates)

    @given(ms=measurement_sets())
    @example(
        ms=ds.MeasurementSet(
            values=np.array(EDGE_FLOATS).reshape(1, 2, 4),
            location_ids=np.array([0], dtype=np.int64),
            coordinates=np.array(EDGE_FLOATS[-3:]).reshape(1, 3),
        )
    )
    def test_round_trip_bit_exact_property(self, ms):
        # tobytes tells -0.0 from 0.0, which array_equal does not
        with tempfile.TemporaryDirectory() as d:
            path, coords = Path(d) / "meas.csv", Path(d) / "locations.csv"
            ds.save_measurements(ms, path, coords_path=coords)
            back = ds.load_measurements(path, coords_path=coords)
        assert back.values.tobytes() == ms.values.tobytes()
        assert back.location_ids.tobytes() == ms.location_ids.tobytes()
        assert back.coordinates.tobytes() == ms.coordinates.tobytes()

    def test_campaign_scale_load(self, tmp_path):
        ms = make_corpus(l=52, e=4, m=16, seed=6)
        path = tmp_path / "big.csv"
        ds.save_measurements(ms, path)
        back = ds.load_measurements(path)
        assert back.n_locations == 52 and back.n_features == 16

    def test_nan_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "location_id,estimate_id,feat_0\n0,0,-70.0\n0,1,nan\n1,0,-71\n1,1,-72\n"
        )
        with pytest.raises(DataFormatError, match="row 3"):
            ds.load_measurements(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "location_id,estimate_id,feat_0,feat_1\n0,0,-70.0,-71.0\n0,1,-70.0\n"
        )
        with pytest.raises(DataFormatError, match="row 3"):
            ds.load_measurements(path)

    def test_single_estimate_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("location_id,estimate_id,feat_0\n0,0,-70.0\n1,0,-71.0\n")
        with pytest.raises(DataFormatError, match="2 estimates"):
            ds.load_measurements(path)

    def test_duplicate_estimate_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "location_id,estimate_id,feat_0\n0,0,-70.0\n0,0,-70.5\n"
        )
        with pytest.raises(DataFormatError, match="duplicate"):
            ds.load_measurements(path)

    def test_non_utf8_byte_rejected(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"location_id,estimate_id,feat_0\n0,0,-70.0\xff\n0,1,-71\n")
        with pytest.raises(DataFormatError, match="UTF-8"):
            ds.load_measurements(path)

    def test_non_utf8_coordinates_rejected(self, tmp_path):
        path, coords = tmp_path / "meas.csv", tmp_path / "locations.csv"
        ds.save_measurements(make_corpus(l=3, e=2, m=2), path, coords_path=coords)
        coords.write_bytes(coords.read_bytes().replace(b"x", b"\xff"))
        with pytest.raises(DataFormatError, match="UTF-8"):
            ds.load_measurements(path, coords_path=coords)

    def test_first_defect_in_file_order_is_named(self, tmp_path):
        # a non-finite value at row 3 comes before a short row at row 5
        path = tmp_path / "two.csv"
        path.write_text(
            "location_id,estimate_id,feat_0,feat_1\n"
            "0,0,-70,-71\n0,1,-70,inf\n1,0,-72,-73\n1,1,-72\n"
        )
        with pytest.raises(DataFormatError, match="row 3: non-finite value in feat_1"):
            ds.load_measurements(path)
        # locations 9 and 2 both hold an estimate id out of 0..1; location
        # 2's comes first in the file, location 9 is first in file order
        path.write_text(
            "location_id,estimate_id,feat_0\n9,0,-70\n2,0,-71\n2,5,-72\n9,7,-73\n4,0,-1\n4,1,-2\n"
        )
        with pytest.raises(DataFormatError, match=r"location 9: estimate ids must be 0\.\.1"):
            ds.load_measurements(path)

    @pytest.mark.parametrize(
        "text, row_no, what",
        [
            ("location_id,estimate_id,feat_0\n0,0,-70\n\n0,1,nan\n", 4, "non-finite value"),
            ("\n\nlocation_id,estimate_id,feat_0\n0,0,-70\n0,1\n", 5, "expected 3 columns"),
            ("location_id,estimate_id,feat_0\n  \n0,0,-70\n\t\n0,0,-71\n", 5, "duplicate"),
        ],
        ids=["blank line", "blank lines before the header", "whitespace lines"],
    )
    def test_row_number_is_the_line_number(self, tmp_path, text, row_no, what):
        # blank lines are skipped but still counted
        path = tmp_path / "blank.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"row {row_no}: {what}"):
            ds.load_measurements(path)

    @pytest.mark.parametrize(
        "text",
        ["location_id,estimate_id,feat_0\n", "location_id,estimate_id,feat_0\n\n \n"],
        ids=["header", "header and blank lines"],
    )
    def test_header_only_file_rejected(self, tmp_path, text):
        path = tmp_path / "header.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match="header.csv: no data rows$"):
            ds.load_measurements(path)

    def test_estimates_in_any_row_order_load_by_id(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("location_id,estimate_id,feat_0\n5,1,-2\n3,1,-4\n5,0,-1\n3,0,-3\n")
        ms = ds.load_measurements(path)
        assert ms.location_ids.tolist() == [5, 3]
        assert ms.values[..., 0].tolist() == [[-1.0, -2.0], [-3.0, -4.0]]

    @pytest.mark.parametrize(
        "rows, row_no, what",
        [
            ("7,nan,0,0\n9,1,1,1\n", 2, "non-finite coordinate"),
            ("7,0,0,0\n9,1,-inf,1\n", 3, "non-finite coordinate"),
            ("7,0,0,0\n9,1,1,1\n9,2,2,2\n", 4, "repeated location id 9"),
            ("7,0,0,0\n\n9,1,-inf,1\n", 4, "non-finite coordinate"),
        ],
    )
    def test_bad_coordinates_name_the_row(self, tmp_path, rows, row_no, what):
        path, coords = tmp_path / "meas.csv", tmp_path / "locations.csv"
        ds.save_measurements(make_corpus(l=2, e=2, m=1, ids=[7, 9]), path)
        coords.write_text("location_id,x,y,z\n" + rows)
        with pytest.raises(DataFormatError, match=f"row {row_no}: {what}"):
            ds.load_measurements(path, coords_path=coords)

    def test_saving_missing_coordinates_writes_nothing(self, tmp_path):
        ms = make_corpus(l=3, e=2, m=2)
        bare = ds.MeasurementSet(values=ms.values, location_ids=ms.location_ids)
        path, coords = tmp_path / "meas.csv", tmp_path / "locations.csv"
        with pytest.raises(ValueError, match="no coordinates"):
            ds.save_measurements(bare, path, coords_path=coords)
        assert not path.exists() and not coords.exists()

    def test_location_id_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        big = 2**63
        path.write_text(f"location_id,estimate_id,feat_0\n{big},0,-70.0\n{big},1,-71\n")
        with pytest.raises(DataFormatError, match="row 2: location id"):
            ds.load_measurements(path)


class TestSelectFeatures:
    def test_identity(self):
        ms = make_corpus(m=5)
        out = ds.select_features(ms, range(5))
        assert np.array_equal(out.values, ms.values)

    def test_same_receiver_pair(self):
        ms = make_corpus(m=16)
        out = ds.select_features(ms, [0, 1])
        assert out.n_features == 2
        assert np.array_equal(out.values[..., 0], ms.values[..., 0])
        assert np.array_equal(out.values[..., 1], ms.values[..., 1])

    def test_cross_receiver_pair(self):
        ms = make_corpus(m=16)
        out = ds.select_features(ms, [0, 4])
        assert np.array_equal(out.values[..., 1], ms.values[..., 4])

    def test_order_preserved(self):
        ms = make_corpus(m=6)
        out = ds.select_features(ms, [4, 0])
        assert np.array_equal(out.values[..., 0], ms.values[..., 4])
        assert np.array_equal(out.values[..., 1], ms.values[..., 0])

    def test_out_of_range(self):
        ms = make_corpus(m=4)
        with pytest.raises(ValueError, match="out of range"):
            ds.select_features(ms, [0, 4])
        with pytest.raises(ValueError, match="distinct"):
            ds.select_features(ms, [1, 1])
