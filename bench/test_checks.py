"""Each output check of the benchmark must reject a corrupted output.

The outputs come from tiny copies of the workloads; every test first shows
the honest output passes, then corrupts one thing and expects CheckFailed.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import sfexplain as sfe

import checks
import workloads
from inputs import write_inputs


def tiny_run(workload, tmp_path: Path):
    paths = write_inputs(workload.tiny, workload.seed, tmp_path)
    state = workload.setup(paths, tmp_path)
    return state, workload.round(state)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    workload = workloads.EvalCold(seed=3)
    state, out = tiny_run(workload, tmp_path_factory.mktemp("cold"))
    return workload, state, out


@pytest.fixture(scope="module")
def explained(tmp_path_factory):
    workload = workloads.ExplainN20(seed=4)
    state, out = tiny_run(workload, tmp_path_factory.mktemp("explain"))
    return workload, state, out


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    workload = workloads.CurvesWarm(seed=5)
    state, out = tiny_run(workload, tmp_path_factory.mktemp("warm"))
    return workload, state, out


def first_explanations(explained):
    _, state, out = explained
    idx, explanations = next(iter(out["explanations"].items()))
    indep = checks.IndependentDensity(state["model"])
    return indep, state["bench"].points[idx], {e.method.value: e for e in explanations}


def with_order(sfe_obj, order):
    return sfe.Sfe(order=tuple(order), step_scores=sfe_obj.step_scores, method=sfe_obj.method)


def with_point(report, index, **changes):
    per_point = list(report.per_point)
    per_point[index] = dataclasses.replace(per_point[index], **changes)
    return dataclasses.replace(report, per_point=tuple(per_point))


def test_honest_outputs_pass(cold, explained, warm):
    for workload, state, out in (cold, explained, warm):
        workload.check(state, dict(out))


@pytest.mark.parametrize("method", ["seqmarg", "seqdo"])
def test_swapped_greedy_pick_fails(explained, method):
    indep, x, by_method = first_explanations(explained)
    order = list(by_method[method].order)
    order[0], order[1] = order[1], order[0]
    with pytest.raises(checks.CheckFailed):
        checks.check_greedy(indep, x, with_order(by_method[method], order))


@pytest.mark.parametrize("method", ["indmarg", "inddo"])
def test_reordered_independent_method_fails(explained, method):
    indep, x, by_method = first_explanations(explained)
    with pytest.raises(checks.CheckFailed):
        checks.check_independent(indep, x, with_order(by_method[method], by_method[method].order[::-1]))


@pytest.mark.parametrize("method", ["indmarg", "seqmarg", "seqdo"])
def test_perturbed_log_density_fails(explained, method):
    indep, x, by_method = first_explanations(explained)
    original = by_method[method]
    scores = list(original.step_scores)
    scores[0] += 1e-4 * abs(scores[0])
    bad = sfe.Sfe(order=original.order, step_scores=tuple(scores), method=original.method)
    with pytest.raises(checks.CheckFailed):
        checks.check_density(indep, x, bad)


def test_perturbed_dropout_score_fails(explained):
    indep, x, by_method = first_explanations(explained)
    original = by_method["inddo"]
    scores = list(original.step_scores)
    scores[0] *= 1.01
    bad = sfe.Sfe(order=original.order, step_scores=tuple(scores), method=original.method)
    with pytest.raises(checks.CheckFailed):
        checks.check_independent(indep, x, bad)


def test_swapped_ranking_fails(explained):
    _, state, out = explained
    indep = checks.IndependentDensity(state["model"])
    ranking = np.array(out["ranking"])
    ranking[[0, -1]] = ranking[[-1, 0]]
    with pytest.raises(checks.CheckFailed):
        checks.check_ranking(indep, state["bench"].points, ranking)


def test_wrong_selection_fails(explained):
    _, state, out = explained
    with pytest.raises(checks.CheckFailed):
        checks.check_selection(out["ranking"], state["bench"].labels, 1.0, out["selected"][::-1])


@pytest.mark.parametrize("method", ["seqmarg", "optoracle", "random"])
def test_wrong_mfp_fails(cold, method):
    workload, _, out = cold
    report = out["report"]
    index = next(i for i, r in enumerate(report.per_point) if r.method.value == method)
    wrong = report.per_point[index].expected_mfp + (1.0 if method != "random" else 10.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_scores(with_point(report, index, expected_mfp=wrong), workloads._taus(workload.config()))


def test_wrong_random_mean_fails(cold):
    workload, state, out = cold
    report, analyst = out["report"], out["analyst"]
    workload.check_random(state, report, analyst)
    index = next(i for i, r in enumerate(report.per_point) if r.method.value == "random")
    row = report.per_point[index]
    with pytest.raises(checks.CheckFailed):
        workload.check_random(state, with_point(report, index, expected_mfp=row.expected_mfp + 0.01), analyst)
    curve = (row.curve[0] + 0.01,) + tuple(row.curve[1:])
    with pytest.raises(checks.CheckFailed):
        workload.check_random(state, with_point(report, index, curve=curve), analyst)


def test_wrong_mean_fails(cold):
    workload, _, out = cold
    report = out["report"]
    method = next(iter(report.per_method))
    summaries = dict(report.per_method)
    summaries[method] = dataclasses.replace(summaries[method], mean_expected_mfp=summaries[method].mean_expected_mfp + 0.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_scores(dataclasses.replace(report, per_method=summaries), workloads._taus(workload.config()))


def test_certainty_of_one_fails(cold):
    workload, _, out = cold
    report = out["report"]
    curve = (1.0,) + tuple(report.per_point[0].curve[1:])
    with pytest.raises(checks.CheckFailed):
        checks.check_scores(with_point(report, 0, curve=curve), workloads._taus(workload.config()))


def test_optoracle_above_a_method_fails(cold):
    _, _, out = cold
    report = out["report"]
    index = next(i for i, r in enumerate(report.per_point) if r.method.value == "optoracle")
    curve = tuple(min(0.999, v + 0.5) for v in report.per_point[index].curve)
    with pytest.raises(checks.CheckFailed):
        checks.check_dominance(with_point(report, index, curve=curve))


def test_tampered_report_file_fails(cold, tmp_path):
    _, _, out = cold
    summary, per_point = out["files"]
    rows = list(csv.reader(open(per_point, newline="")))
    rows[1][2] = repr(float(rows[1][2]) + 1.0)
    tampered = tmp_path / "per_point.csv"
    with open(tampered, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(checks.CheckFailed):
        checks.check_report_files(out["report"], summary, tampered)


def test_forest_trained_twice_fails(cold):
    _, state, out = cold
    counts = dict(out["counts"])
    subsets = counts["trained"]
    queries = counts["hits"] + subsets
    checks.check_forest_training(counts, queries, subsets)
    counts["trained"] += 1
    counts["hits"] -= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_forest_training(counts, queries, subsets)


def test_changed_rerun_fails(warm):
    workload, state, _ = warm
    workload.check(state, workload.round(state))
    out = workload.round(state)
    report = out["report"]
    changed = with_point(report, 0, expected_mfp=report.per_point[0].expected_mfp + 1.0)
    with pytest.raises(checks.CheckFailed):
        workload.check(state, {**out, "report": changed})


def test_retrained_forest_fails_disk_cache_check(warm):
    workload, state, _ = warm
    subset = next(iter(state["trained"]))
    trained = state["trained"][subset]
    rows = state["bench"].points[:, list(subset)]
    subsets = len(state["trained"])
    counts = {"trained": 0, "loaded": subsets, "hits": 0}
    checks.check_disk_cache(counts, subsets, subsets, [(trained, trained, rows)])
    other_seed = sfe.BaggedForest.fit(
        state["pool"].points[:, list(subset)], state["pool"].labels, workload.forest_config(), seed=99
    )
    with pytest.raises(checks.CheckFailed):
        checks.check_disk_cache(counts, subsets, subsets, [(other_seed, trained, rows)])
    with pytest.raises(checks.CheckFailed):
        checks.check_disk_cache({**counts, "trained": 1}, subsets, subsets, [(trained, trained, rows)])
