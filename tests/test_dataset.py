import collections
import tracemalloc

import numpy as np
import pytest

from sfexplain.dataset import (
    BenchmarkSpec,
    Dataset,
    EmptyFile,
    InsufficientPoints,
    MissingColumn,
    MotherSet,
    NonNumericCell,
    load_csv,
    load_mother_csv,
    sample_benchmark,
    sample_benchmark_split,
    save_csv,
)


def write(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_labels_map_by_anomaly_values(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,class\n1,2,4\n3,4,1\n5,6,4\n")
        ds = load_csv(p, "class", {"4"})
        assert ds.n_points == 3
        assert ds.labels.tolist() == [True, False, True]
        assert ds.feature_names == ("a", "b")
        np.testing.assert_array_equal(ds.points, [[1, 2], [3, 4], [5, 6]])

    def test_missing_label_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(p, "class", {"4"})

    def test_shuttle_style_nine_features(self, tmp_path):
        cols = ",".join(f"c{i}" for i in range(9))
        rows = "\n".join(",".join(str(i + j) for j in range(9)) + ",1" for i in range(4))
        p = write(tmp_path / "d.csv", f"{cols},class\n{rows}\n")
        ds = load_csv(p, "class", {"2"})
        assert ds.n_features == 9

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.csv", "")
        with pytest.raises(EmptyFile):
            load_csv(p, "class", {"4"})

    def test_header_only(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,class\n")
        with pytest.raises(EmptyFile):
            load_csv(p, "class", {"4"})

    def test_non_numeric_cell_reports_location(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,class\n1,2,0\n1,oops,0\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(p, "class", {"4"})
        assert err.value.row == 3
        assert err.value.column == "b"

    def test_non_finite_cell_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,class\nnan,0\n")
        with pytest.raises(NonNumericCell):
            load_csv(p, "class", {"4"})

    # Row numbers count csv records from the header's as 1, blank records
    # included, so a quoted newline does not advance them.
    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("", EmptyFile, "{path}: file is empty"),
            ("\n\n", EmptyFile, "{path}: file is empty"),
            ("a,b,class\n", EmptyFile, "{path}: no data rows"),
            ("a,b\n", EmptyFile, "{path}: no data rows"),
            ("a,b,class\n\n\n", EmptyFile, "{path}: no data rows"),
            ("a,b\n1\n", MissingColumn, "{path}: no column named 'class' (header: ['a', 'b'])"),
            (
                "a,b,class\n1,2,0\n1,2\n",
                NonNumericCell,
                "row 3, column '<row>': 'expected 3 cells, got 2' is not a finite number",
            ),
            (
                "a,b,class\n1,2,0,4\n",
                NonNumericCell,
                "row 2, column '<row>': 'expected 3 cells, got 4' is not a finite number",
            ),
            (
                "a,b,class\n1,2,0\n   \n",
                NonNumericCell,
                "row 3, column '<row>': 'expected 3 cells, got 1' is not a finite number",
            ),
            ("a,b,class\n1,2,0\n1,oops,0\n", NonNumericCell, "row 3, column 'b': 'oops' is not a finite number"),
            ("a,b,class\n1,nan,0\n", NonNumericCell, "row 2, column 'b': 'nan' is not a finite number"),
            ("a,b,class\n1,2,0\n-inf,2,0\n", NonNumericCell, "row 3, column 'a': '-inf' is not a finite number"),
            ("a,b,class\n1,1e999,0\n", NonNumericCell, "row 2, column 'b': '1e999' is not a finite number"),
            ("a,b,class\nnan,x,0\n", NonNumericCell, "row 2, column 'a': 'nan' is not a finite number"),
            ("a,b,class\n1,x,0\ninf,1,0\n", NonNumericCell, "row 2, column 'b': 'x' is not a finite number"),
            ("a,b,class\n1,2,0\n\n\n1, x ,0\n", NonNumericCell, "row 5, column 'b': 'x' is not a finite number"),
            ("\n\na,b,class\n1,x,0\n", NonNumericCell, "row 4, column 'b': 'x' is not a finite number"),
            ('a,b,class\n1,"2\n",0\n1,"x\ny",0\n', NonNumericCell, "row 3, column 'b': 'x\\ny' is not a finite number"),
            ("a,b,class\r\n1,2,0\r\n\r\n3,z,4\r\n", NonNumericCell, "row 4, column 'b': 'z' is not a finite number"),
            ("class\n1\n2\n", ValueError, "points must be a nonempty 2D matrix, got shape (2, 0)"),
        ],
    )
    @pytest.mark.parametrize("loader", ["load_csv", "load_mother_csv"])
    def test_rejects_with_exact_message(self, tmp_path, text, error, message, loader):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        with pytest.raises(error) as err:
            if loader == "load_csv":
                load_csv(p, "class", {"4"})
            else:
                load_mother_csv(p, "class")
        assert type(err.value) is error
        assert str(err.value) == message.format(path=p)

    @pytest.mark.parametrize(
        "text, points, classes, names",
        [
            ("a,b,class\r\n1,2,0\r\n3,4,4\r\n", [[1, 2], [3, 4]], ("0", "4"), ("a", "b")),
            (" a , b , class \n1, 2 , 4 \n3,4,  0\n 5 ,6,4\n", [[1, 2], [3, 4], [5, 6]], ("4", "0", "4"), ("a", "b")),
            ('a,b,class\n1,2,"no\nrmal"\n\n3,"4\n",4\n', [[1, 2], [3, 4]], ("no\nrmal", "4"), ("a", "b")),
            ("class,a,class\n1,2,3\n", [[2, 3]], ("1",), ("a", "class")),
            ("a,class\n1_000,0\n", [[1000]], ("0",), ("a",)),
        ],
    )
    def test_parses_records_not_lines(self, tmp_path, text, points, classes, names):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        mother = load_mother_csv(p, "class")
        assert mother.points.tolist() == points
        assert mother.classes == classes
        assert mother.feature_names == names
        ds = load_csv(p, "class", {"4"})
        assert ds.points.tolist() == points
        assert ds.labels.tolist() == [c == "4" for c in classes]
        assert ds.feature_names == names

    def test_load_peak_memory_is_a_small_multiple_of_the_matrix(self, tmp_path):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(20_000, 20))
        labels = rng.random(20_000) < 0.05
        labels[0] = False
        path = tmp_path / "big.csv"
        save_csv(Dataset(points=points, labels=labels, feature_names=[f"f{i}" for i in range(20)]), path)
        tracemalloc.start()
        try:
            ds = load_csv(path, "label", {"anomaly"})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (ds.points == points).all()
        assert peak <= 3 * ds.points.nbytes

    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(20, 4)) * 10.0 ** rng.integers(-8, 8, size=(20, 4))
        labels = rng.random(20) < 0.3
        labels[0] = False
        ds = Dataset(points=points, labels=labels, feature_names=("a", "b", "c", "d"))
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        ds2 = load_csv(path, "label", {"anomaly"})
        assert (ds.points == ds2.points).all()
        assert (ds.labels == ds2.labels).all()
        assert ds.feature_names == ds2.feature_names


class TestDatasetInvariants:
    def test_rejects_all_anomalies(self):
        with pytest.raises(ValueError):
            Dataset(points=[[1.0], [2.0]], labels=[True, True], feature_names=("a",))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(points=[[np.inf]], labels=[False], feature_names=("a",))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(points=[[1.0]], labels=[False, True], feature_names=("a",))

    def test_points_are_immutable(self):
        ds = Dataset(points=[[1.0]], labels=[False], feature_names=("a",))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 2.0


def make_mother(rng, counts):
    classes = [c for c, k in counts.items() for _ in range(k)]
    points = rng.normal(size=(len(classes), 3))
    return MotherSet(points=points, classes=tuple(classes), feature_names=("x", "y", "z"))


class TestSampleBenchmark:
    def test_anomaly_count_is_round_half_up(self):
        mother = make_mother(np.random.default_rng(0), {"n": 200, "a": 30})
        spec = BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=0.05, target_size=100, seed=1)
        bench = sample_benchmark(mother, spec)
        assert bench.n_points == 100
        assert bench.n_anomalies == 5

    def test_half_up_rounding(self):
        mother = make_mother(np.random.default_rng(0), {"n": 200, "a": 30})
        spec = BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=0.05, target_size=50, seed=1)
        # 0.05 * 50 = 2.5 rounds up to 3
        assert sample_benchmark(mother, spec).n_anomalies == 3

    def test_deterministic_given_seed(self):
        mother = make_mother(np.random.default_rng(0), {"n": 200, "a": 30})
        spec = BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=0.1, target_size=80, seed=9)
        b1 = sample_benchmark(mother, spec)
        b2 = sample_benchmark(mother, spec)
        assert (b1.points == b2.points).all()
        assert (b1.labels == b2.labels).all()

    def test_seed_changes_selection_not_shape(self):
        mother = make_mother(np.random.default_rng(0), {"n": 200, "a": 30})
        s1 = BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=0.1, target_size=80, seed=1)
        s2 = BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=0.1, target_size=80, seed=2)
        b1, b2 = sample_benchmark(mother, s1), sample_benchmark(mother, s2)
        assert b1.n_points == b2.n_points
        assert b1.n_anomalies == b2.n_anomalies
        assert not (b1.points == b2.points).all()

    def test_insufficient_anomalies(self):
        mother = make_mother(np.random.default_rng(0), {"n": 200, "a": 3})
        spec = BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=0.2, target_size=100, seed=1)
        with pytest.raises(InsufficientPoints) as err:
            sample_benchmark(mother, spec)
        assert err.value.group == "anomaly"
        assert err.value.needed == 20
        assert err.value.available == 3

    def test_unknown_anomaly_class(self):
        mother = make_mother(np.random.default_rng(0), {"n": 10, "a": 10})
        spec = BenchmarkSpec(anomaly_classes={"zzz"}, anomaly_fraction=0.2, target_size=10, seed=1)
        with pytest.raises(ValueError, match="not present"):
            sample_benchmark(mother, spec)

    def test_anomaly_classes_must_be_proper_subset(self):
        mother = make_mother(np.random.default_rng(0), {"n": 10, "a": 10})
        spec = BenchmarkSpec(anomaly_classes={"n", "a"}, anomaly_fraction=0.2, target_size=10, seed=1)
        with pytest.raises(ValueError, match="proper subset"):
            sample_benchmark(mother, spec)

    def test_no_duplicate_mother_rows(self):
        rng = np.random.default_rng(4)
        mother = make_mother(rng, {"n": 60, "a": 40})
        spec = BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=0.4, target_size=90, seed=5)
        bench = sample_benchmark(mother, spec)
        rows = {tuple(r) for r in bench.points}
        assert len(rows) == bench.n_points

    def test_split_returns_disjoint_remainder(self):
        rng = np.random.default_rng(4)
        mother = make_mother(rng, {"n": 60, "a": 40})
        spec = BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=0.3, target_size=50, seed=5)
        bench, rest = sample_benchmark_split(mother, spec)
        assert rest is not None
        assert bench.n_points + rest.n_points == 100
        bench_rows = {tuple(r) for r in bench.points}
        rest_rows = {tuple(r) for r in rest.points}
        assert not bench_rows & rest_rows


class TestBenchmarkSpec:
    def test_rejects_fraction_at_bounds(self):
        for fraction in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=fraction, target_size=10)

    def test_rejects_empty_anomaly_classes(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(anomaly_classes=set(), anomaly_fraction=0.1, target_size=10)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(anomaly_classes={"a"}, anomaly_fraction=0.1, target_size=0)


class TestMotherCsv:
    def test_load_keeps_class_strings(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x,y,cls\n1,2,red\n3,4,blue\n5,6,red\n")
        mother = load_mother_csv(p, "cls")
        assert mother.classes == ("red", "blue", "red")
        assert collections.Counter(mother.classes) == {"red": 2, "blue": 1}
