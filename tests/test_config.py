import numpy as np
import pytest

from sfexplain.cli import RunConfig
from sfexplain.config import MalformedConfig, from_dict, is_integer
from sfexplain.dataset import BenchmarkSpec
from sfexplain.density import EgmmConfig
from sfexplain.evaluate import EvalConfig
from sfexplain.forest import ForestConfig

SPEC = dict(anomaly_classes={"x"})


def build(cls, **values):
    return cls(**SPEC, **values) if cls is BenchmarkSpec else cls(**values)


@pytest.mark.parametrize(
    "value, expected",
    [(3, True), (np.int64(3), True), (-1, True), (True, False), (np.bool_(True), False), (3.0, False), ("3", False)],
    ids=repr,
)
def test_is_integer(value, expected):
    assert is_integer(value) is expected


INT_FIELDS = [
    (EvalConfig, "max_prefix"),
    (EvalConfig, "random_repeats"),
    (EvalConfig, "seed"),
    (ForestConfig, "tree_count"),
    (ForestConfig, "max_depth"),
    (ForestConfig, "min_leaf"),
    (ForestConfig, "seed"),
    (EgmmConfig, "members_per_k"),
    (EgmmConfig, "em_max_iters"),
    (EgmmConfig, "seed"),
    (BenchmarkSpec, "target_size"),
    (BenchmarkSpec, "seed"),
    (RunConfig, "seed"),
]
FLOAT_FIELDS = [
    (EvalConfig, "top_fraction"),
    (EgmmConfig, "retention_quantile"),
    (EgmmConfig, "em_tol"),
    (BenchmarkSpec, "anomaly_fraction"),
]


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("cls, name", INT_FIELDS, ids=lambda p: getattr(p, "__name__", p))
def test_integer_fields_take_only_integers(cls, name, value):
    # A fractional count passed construction and raised a bare TypeError
    # later, or grew trees with a fractional leaf size; True read as 1.
    with pytest.raises(ValueError, match=name):
        build(cls, **{name: value})
    assert getattr(build(cls, **{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("value", [True, False, "0.5"], ids=repr)
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=lambda p: getattr(p, "__name__", p))
def test_float_fields_take_no_bools(cls, name, value):
    # top_fraction=True read as 1.0 and retention_quantile=False as 0.0.
    with pytest.raises(ValueError, match=name):
        build(cls, **{name: value})


@pytest.mark.parametrize(
    "cls, raw",
    [
        (EvalConfig, {"random_repeats": 2.5}),
        (EvalConfig, {"max_prefix": 2.5}),
        (ForestConfig, {"min_leaf": 2.5}),
        (EgmmConfig, {"members_per_k": 2.5}),
        (EgmmConfig, {"retention_quantile": False}),
        (RunConfig, {"seed": 1.0}),
    ],
    ids=str,
)
def test_json_values_name_their_section(cls, raw):
    with pytest.raises(MalformedConfig, match=f"^malformed {cls.__name__}: "):
        from_dict(cls, raw)


def test_optional_integer_takes_none():
    assert EvalConfig(max_prefix=None).max_prefix is None
    assert from_dict(EvalConfig, {"max_prefix": None}).max_prefix is None


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (EvalConfig, "thresholds", ((0.1, 1.0),)),
        (EvalConfig, "thresholds", None),
        (RunConfig, "egmm", {"seed": 1}),
        (RunConfig, "forest", ForestConfig),
        (RunConfig, "eval", EgmmConfig()),
    ],
    ids=["thresholds-tuple", "thresholds-none", "egmm-dict", "forest-class", "eval-egmm-config"],
)
def test_section_fields_take_only_their_section(cls, name, value):
    # thresholds=((0.1, 1.0),) was accepted and made run_evaluation raise a
    # bare AttributeError after forests had trained; egmm={"seed": 1} stayed
    # a dict.
    with pytest.raises(ValueError, match=f"^{name} must be an instance of "):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", [(BenchmarkSpec, "anomaly_classes"), (EvalConfig, "methods")])
def test_set_fields_take_no_bare_string(cls, name):
    # anomaly_classes="rare" became frozenset({'r', 'a', 'e'}).
    with pytest.raises(ValueError, match=f"^{name} must be a collection, not the bare string 'rare'"):
        cls(**{name: "rare"})
    assert BenchmarkSpec(anomaly_classes=["rare"]).anomaly_classes == frozenset({"rare"})
