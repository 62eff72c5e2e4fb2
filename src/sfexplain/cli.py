"""Command-line entry point: fit, explain, evaluate, benchgen.

Runs are reproducible: every command takes a single seed (flag or config
file), all internal randomness derives from it, and outputs carry no
timestamps, so identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .analyst import AnalystModel
from .config import check_fields, from_dict
from .dataset import (
    BenchmarkSpec,
    Dataset,
    load_csv,
    load_mother_csv,
    sample_benchmark_split,
    save_csv,
)
from .density import EgmmConfig, egmm_fit, load_egmm, rank_points, save_egmm
from .errors import SfexplainError
from .evaluate import (
    DetectorMode,
    EvalConfig,
    check_evaluation_inputs,
    format_summary_table,
    run_evaluation,
    select_evaluation_anomalies,
    write_per_point_csv,
    write_summary_csv,
)
from .explain import Method, check_length, explain_point
from .forest import ForestConfig
from .seeding import TAG_ANALYST, TAG_EGMM, derive_seed

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Top-level configuration: one seed plus per-stage sections."""

    seed: int = 0
    egmm: EgmmConfig | None = None
    forest: ForestConfig | None = None
    eval: EvalConfig | None = None

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        with open(Path(path)) as fh:
            raw = json.load(fh)
        return from_dict(cls, raw)


def _load_config(args) -> RunConfig:
    config = RunConfig.load(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    logger.info("top-level seed: %d", config.seed)
    return config


def _load_dataset(args) -> Dataset:
    return load_csv(args.csv, args.label_column, set(args.anomaly_value))


def cmd_fit(args) -> int:
    config = _load_config(args)
    dataset = _load_dataset(args)
    egmm_config = config.egmm or EgmmConfig()
    if args.seed is not None or config.egmm is None:
        egmm_config = replace(egmm_config, seed=config.seed)
    model = egmm_fit(dataset.points, egmm_config)
    trained = egmm_config.members_per_k * len(egmm_config.component_counts)
    save_egmm(model, args.model_out)
    print(f"retained {len(model.members)} of {trained} members")
    return 0


def cmd_explain(args) -> int:
    config = _load_config(args)
    dataset = _load_dataset(args)
    check_length(dataset.n_features, args.k)
    model = load_egmm(args.model)
    if dataset.n_features != model.n:
        raise SfexplainError(
            f"model expects {model.n} features, dataset has {dataset.n_features}"
        )
    if args.point:
        indices = args.point
        outside = [i for i in indices if not 0 <= i < dataset.n_points]
        if outside:
            raise ValueError(f"--point indices must lie in [0, {dataset.n_points}), got {outside}")
    else:
        ranking = rank_points(model, dataset)
        indices = select_evaluation_anomalies(ranking.tolist(), dataset.labels, args.top_fraction)

    method = Method(args.method)
    rows = [
        explain_point(model, dataset.points[idx], method, args.k, config.seed, idx)[0].csv_row(idx)
        for idx in indices
    ]

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_index", "method", "order", "step_scores"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} explanations to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    dataset = _load_dataset(args)
    eval_config = replace(config.eval or EvalConfig(), seed=config.seed)
    if args.top_fraction is not None:
        eval_config = replace(eval_config, top_fraction=args.top_fraction)
    if args.oracle_detector:
        eval_config = replace(eval_config, detector_mode=DetectorMode.ORACLE)

    egmm_config = config.egmm or EgmmConfig()
    if args.seed is not None or config.egmm is None:
        egmm_config = replace(egmm_config, seed=derive_seed(config.seed, TAG_EGMM))

    held_out = None
    if args.analyst_csv:
        held_out = load_csv(args.analyst_csv, args.label_column, set(args.anomaly_value))
    analyst_data = held_out if held_out is not None and held_out.labels.any() else dataset
    check_evaluation_inputs(dataset, analyst_data)
    if held_out is None:
        logger.warning(
            "no separate analyst training data; the analyst trains on the "
            "evaluated benchmark and may memorize its anomalies"
        )
    elif analyst_data is dataset:
        logger.warning("analyst training data has no anomalies; using the benchmark itself")
    analyst = AnalystModel(analyst_data, config.forest, seed=derive_seed(config.seed, TAG_ANALYST))

    report = run_evaluation(dataset, eval_config, egmm_fit(dataset.points, egmm_config), analyst)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(report, out_dir / "summary.csv")
    write_per_point_csv(report, out_dir / "per_point.csv")
    print(format_summary_table(report))
    return 0


def cmd_benchgen(args) -> int:
    mother = load_mother_csv(args.mother_csv, args.label_column)
    spec = BenchmarkSpec(
        anomaly_classes=frozenset(args.anomaly_class),
        anomaly_fraction=args.fraction,
        target_size=args.size,
        seed=args.seed if args.seed is not None else 0,
    )
    benchmark, rest = sample_benchmark_split(mother, spec)
    save_csv(benchmark, args.out)
    print(
        f"wrote benchmark of {benchmark.n_points} points "
        f"({benchmark.n_anomalies} anomalies) to {args.out}"
    )
    if args.rest_out:
        if rest is None:
            raise SfexplainError("no usable remainder rows left for --rest-out")
        save_csv(rest, args.rest_out)
        print(f"wrote {rest.n_points} held-out rows to {args.rest_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfexplain",
        description="Fit an ensemble density detector, explain its outliers "
        "feature by feature, and score explanations against a simulated analyst.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, default=None, help="top-level seed (overrides config)")
        p.add_argument("--label-column", default="label", help="name of the label column")
        p.add_argument(
            "--anomaly-value",
            action="append",
            default=None,
            help="label value counted as an anomaly (repeatable; default: anomaly)",
        )

    p_fit = sub.add_parser("fit", help="fit the ensemble detector on a labeled CSV")
    p_fit.add_argument("csv", help="input CSV with a label column")
    p_fit.add_argument("-o", "--model-out", required=True, help="output model file")
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_explain = sub.add_parser("explain", help="explain top-ranked anomalies with one method")
    p_explain.add_argument("model", help="fitted model file")
    p_explain.add_argument("csv", help="dataset CSV to explain")
    p_explain.add_argument(
        "--method", required=True, choices=[m.value for m in Method if m is not Method.OPT_ORACLE]
    )
    p_explain.add_argument("--k", type=int, default=None, help="explanation length (default: n)")
    p_explain.add_argument("-o", "--out", required=True, help="output CSV of explanations")
    p_explain.add_argument(
        "--top-fraction", type=float, default=0.10, help="ranked slice to take anomalies from"
    )
    p_explain.add_argument(
        "--point", action="append", type=int, help="explain this point index instead (repeatable)"
    )
    add_common(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_eval = sub.add_parser("evaluate", help="run the full evaluation protocol")
    p_eval.add_argument("csv", help="benchmark CSV")
    p_eval.add_argument("-o", "--out-dir", required=True, help="directory for report CSVs")
    p_eval.add_argument("--top-fraction", type=float, default=None)
    p_eval.add_argument(
        "--oracle-detector",
        action="store_true",
        help="drive explanation methods with the analyst instead of the density",
    )
    p_eval.add_argument(
        "--analyst-csv", default=None, help="separate labeled CSV for analyst training"
    )
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("benchgen", help="sample a benchmark from a mother CSV")
    p_bench.add_argument("mother_csv", help="multiclass mother CSV")
    p_bench.add_argument("-o", "--out", required=True, help="output benchmark CSV")
    p_bench.add_argument("--label-column", default="label")
    p_bench.add_argument(
        "--anomaly-class", action="append", required=True, help="mother class treated as anomalous"
    )
    p_bench.add_argument("--fraction", type=float, required=True, help="anomaly fraction in (0,1)")
    p_bench.add_argument("--size", type=int, required=True, help="benchmark size")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument(
        "--rest-out", default=None, help="also write unsampled mother rows (analyst training data)"
    )
    p_bench.set_defaults(func=cmd_benchgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "anomaly_value", None) is None and hasattr(args, "anomaly_value"):
        args.anomaly_value = ["anomaly"]
    try:
        return args.func(args)
    except (SfexplainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
