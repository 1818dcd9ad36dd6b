"""Command-line interface.

Subcommands: generate, fit, predict, evaluate, calibrate, bench, inspect.
Named datasets (moons, circles, aniso, spirals) are generated on the fly and
split 60/20/20 by the given seed; anything else is treated as a CSV path.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys

import numpy as np

from . import (bench, budgeting, calibration, diagnostics, features,
               model as model_ops, persist, workflow)
from .datasets import Dataset, csv_text, save_csv
from .svgplot import grid_svg, reliability_svg
from .training import TrainConfig


def _add_generator_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=None,
                   help="sample count for named generators")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--radius-ratio", type=float, default=0.5)
    p.add_argument("--turns", type=float, default=2.0)


def _add_dataset_args(p: argparse.ArgumentParser):
    p.add_argument("--dataset", required=True,
                   help="named generator (moons|circles|aniso|spirals) or CSV path")
    p.add_argument("--label-column", default="label",
                   help="label column name or index for CSV input")
    _add_generator_args(p)


def _add_model_args(p: argparse.ArgumentParser, alpha: bool = True):
    p.add_argument("--model", required=True)
    _add_dataset_args(p)
    p.add_argument("--split", choices=("all", "train", "val", "test"),
                   default=None,
                   help="which protocol split to use (default: val for "
                        "calibrate, else test, on named datasets; all for CSV)")
    if alpha:
        p.add_argument("--alpha", type=float, default=None,
                       help="override the stored pooling sharpness")
    p.add_argument("--seed", type=int, default=0)


def _load(args, seed: int) -> Dataset:
    label_col = args.label_column
    if isinstance(label_col, str) and label_col.lstrip("-").isdigit():
        label_col = int(label_col)
    return workflow.load_dataset(args.dataset, seed=seed, n=args.n,
                                 label_column=label_col, noise=args.noise,
                                 radius_ratio=args.radius_ratio,
                                 turns=args.turns)


def _split_for(args, data: Dataset, part: str) -> Dataset:
    """Named generators use the protocol split; CSV files are used whole
    unless a split part is requested explicitly."""
    choice = getattr(args, "split", None) or \
        (part if args.dataset in workflow.GENERATORS else "all")
    if choice == "all":
        return data
    train, val, test = workflow.split_dataset(data, args.seed)
    return {"train": train, "val": val, "test": test}[choice]


def _labels_as_model_classes(mdl, data: Dataset) -> Dataset:
    """data with each label renumbered to the model's index for it.

    load_csv numbers labels in order of first appearance, so a CSV whose rows
    come in another order than the training file's would swap classes.
    Generated datasets carry no label names and are numbered as trained.
    """
    if data.class_names is None:
        return data
    names = mdl.class_names or tuple(str(c) for c in range(mdl.class_count))
    index = {name: c for c, name in enumerate(names)}
    lookup = np.array([index.get(name, -1) for name in data.class_names])
    labels = lookup[data.labels]
    if (labels < 0).any():
        row = int(np.argmax(labels < 0))
        raise ValueError(f"row {row + 1}: label "
                         f"{data.class_names[data.labels[row]]!r} is not one "
                         f"of the model's classes {list(names)}")
    return dataclasses.replace(data, labels=labels,
                               class_count=mdl.class_count,
                               class_names=list(names))


def _model_and_data(args, part: str, labelled: bool = True):
    """(model, temperature, metadata, data): the saved model, at --alpha when
    given, and the data split the command works on. With labelled, the data's
    labels are numbered as the model numbers its classes."""
    mdl, temperature, metadata = persist.load_model(args.model)
    if getattr(args, "alpha", None) is not None:
        mdl = mdl.with_alpha(args.alpha)
    data = _load(args, args.seed)
    if labelled:
        data = _labels_as_model_classes(mdl, data)
    return mdl, temperature, metadata, _split_for(args, data, part)


# train_classifier's recipe arguments, each a flag with its signature default
_FIT_FLAGS = (
    ("lift", {"choices": features.LIFTS}),
    ("rff_dim", {"type": int,
                 "help": "random feature count (lifted dim is twice this)"}),
    ("rff_gamma", {"type": float}),
    ("pca_variance", {"type": float}),
    ("planes", {"help": "'auto' or a fixed per-class plane count"}),
    ("planes_cap", {"type": int}),
    ("init", {"choices": budgeting.INIT_STRATEGIES}),
    ("init_noise", {"type": float}),
)


def _add_fit_args(p: argparse.ArgumentParser):
    defaults = inspect.signature(workflow.train_classifier).parameters
    for name, options in _FIT_FLAGS:
        p.add_argument("--" + name.replace("_", "-"),
                       default=defaults[name].default, **options)
    p.add_argument("--no-calibrate", action="store_true",
                   help="skip temperature fitting on the validation split")
    # training recipe: one flag per TrainConfig field; seed is added per
    # subcommand (it also seeds the data split), and min_improvement keeps
    # its default
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name in ("seed", "min_improvement"):
            continue
        if f.name == "class_weights":
            p.add_argument(flag, default=None,
                           help="comma-separated per-class loss weights")
        else:
            p.add_argument(flag, type=type(f.default), default=f.default,
                           choices=f.metadata.get("choices"))


def _config_from(args) -> TrainConfig:
    values = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(TrainConfig) if hasattr(args, f.name)}
    values["class_weights"] = (
        tuple(float(v) for v in args.class_weights.split(","))
        if args.class_weights else None)
    return TrainConfig(**values)


def cmd_generate(args) -> int:
    data = workflow.generate_dataset(
        args.dataset, n=args.n, seed=args.seed,
        noise=args.noise, radius_ratio=args.radius_ratio, turns=args.turns)
    save_csv(data, args.out)
    print(f"wrote {data.n} samples, {data.class_count} classes -> {args.out}")
    return 0


def cmd_fit(args) -> int:
    config = _config_from(args)   # checked before the data is loaded
    # the model, its training log and its summary all go next to --out
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"--out directory {out_dir!r} does not exist")
    data = _load(args, args.seed)
    train, val, test = workflow.split_dataset(data, args.seed)
    result = workflow.train_classifier(
        train, val, **{name: getattr(args, name) for name, _ in _FIT_FLAGS},
        config=config, calibrate=not args.no_calibrate)

    persist.save_model(result.model, args.out, result.stored_temperature,
                       workflow.fit_metadata(result, train, config))
    stem = args.out[:-5] if args.out.endswith(".json") else args.out
    result.log.to_csv(stem + ".train_log.csv")
    metrics = workflow.evaluate_model(result.model, test,
                                      result.stored_temperature)
    summary = _fit_summary(args, result, metrics)
    with open(stem + ".summary.txt", "w") as fh:
        fh.write(summary)
    print(summary, end="")
    return 0


def _fit_summary(args, result, metrics) -> str:
    lines = [
        f"dataset:        {args.dataset} (seed {args.seed})",
        f"lift:           {result.lift_description}",
        f"planes/class:   {list(result.budget.per_class)}",
        f"init:           {result.log.init_strategy}",
        f"epochs run:     {len(result.log.epochs)}"
        + (" (early stop)" if result.log.stopped_early else ""),
        f"best val loss:  {result.log.best_val_loss:.6f} "
        f"(epoch {result.log.best_epoch})",
        f"train seconds:  {result.train_seconds:.2f}",
        f"test accuracy:  {metrics['accuracy']:.4f}",
        f"test macro-F1:  {metrics['macro_f1']:.4f}",
        f"test ece:       {metrics['ece']:.4f}",
    ]
    if "ece_scaled" in metrics:
        lines.append(f"test ece (T):   {metrics['ece_scaled']:.4f} "
                     f"at T={metrics['temperature']:.3f}")
    if result.log.diverged:
        lines.append("WARNING: training diverged; parameters are the last "
                     "finite snapshot")
    for note in result.log.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def cmd_predict(args) -> int:
    mdl, temperature, _, data = _model_and_data(args, "test", labelled=False)
    scores = model_ops.class_scores(mdl, data.features)
    if temperature is not None:
        probs = calibration.apply_temperature(scores, temperature)
    else:
        probs = model_ops.posterior(scores)
    preds = np.argmax(scores, axis=1)
    names = mdl.class_names or tuple(str(c) for c in range(mdl.class_count))
    if args.format == "json":
        rows = [{"prediction": names[p],
                 "probabilities": {names[c]: float(probs[i, c])
                                   for c in range(mdl.class_count)}}
                for i, p in enumerate(preds)]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = csv_text(["prediction", *(f"p_{n}" for n in names)],
                        ([names[p], *row] for p, row in
                         zip(preds, probs.tolist())))
    _emit(text, args.out)
    return 0


def cmd_evaluate(args) -> int:
    mdl, temperature, _, data = _model_and_data(args, "test")
    metrics = workflow.evaluate_model(mdl, data, temperature)
    if args.format == "json":
        text = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    else:
        text = csv_text(["metric", "value"], sorted(metrics.items()))
    _emit(text, args.out)
    return 0


def cmd_calibrate(args) -> int:
    mdl, _, metadata, data = _model_and_data(args, "val")
    fit = calibration.fit_temperature(
        model_ops.class_scores(mdl, data.features), data.labels)
    out = args.out or args.model
    metadata["calibration"] = {k: v for k, v in dataclasses.asdict(fit).items()
                               if k != "temperature"}
    persist.save_model(mdl, out, fit.temperature, metadata)
    print(f"temperature {fit.temperature:.4f} "
          f"(nll {fit.nll_before:.4f} -> {fit.nll_after:.4f}, "
          f"ece {fit.ece_before:.4f} -> {fit.ece_after:.4f}) -> {out}")
    return 0


def cmd_bench(args) -> int:
    datasets = tuple(args.datasets.split(","))
    seeds = tuple(int(s) for s in args.seeds.split(","))
    os.makedirs(args.out_dir, exist_ok=True)
    report = bench.run_suite(datasets, seeds, lift=args.lift,
                             with_scaling=not args.skip_scaling,
                             measure_latency=not args.skip_latency)
    csv_path = os.path.join(args.out_dir, "bench_report.csv")
    json_path = os.path.join(args.out_dir, "bench_report.json")
    bench.report_to_csv(report, csv_path)
    bench.report_to_json(report, json_path)
    for cell in report.cells:
        status = cell.error or (f"acc={cell.accuracy:.4f} "
                                f"ece={cell.ece_after:.4f} "
                                f"lift={cell.lift} "
                                f"uncertified={cell.uncertified_rows}")
        print(f"{cell.dataset} seed={cell.seed}: {status}")
    if report.scaling is not None:
        print(f"plane scaling: slope {report.scaling.slope_ns:.1f} ns/plane, "
              f"R^2 {report.scaling.r_squared:.4f}")
    print(f"wrote {csv_path} and {json_path}")
    failures = sum(1 for c in report.cells if c.error)
    return 1 if failures == len(report.cells) else 0


def cmd_inspect(args) -> int:
    mdl, temperature, _, data = _model_and_data(args, "test")
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = {"artifacts": [], "notes": []}

    def artifact(name: str, text: str):
        path = os.path.join(args.out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        manifest["artifacts"].append(name)

    stats = diagnostics.responsibility_stats(mdl, data.features, data.labels)
    usage = diagnostics.plane_usage(mdl, data.features, data.labels)
    artifact("plane_usage.csv", csv_text(
        ["class", "plane", "winner_fraction_pct"],
        ([c, m, f"{100.0 * frac:.2f}"] for c, row in enumerate(usage.fractions)
         for m, frac in enumerate(row))))
    artifact("responsibility_stats.json", json.dumps({
        "mean_max_responsibility": stats.mean_max,
        "mean_responsibility_entropy": stats.mean_entropy,
        "absent_classes": [c for c, a in enumerate(usage.absent) if a],
    }, indent=2) + "\n")

    if mdl.pipeline.is_linear:
        artifact("saliency.csv", csv_text(
            ["class", "plane", "feature", "weight"],
            ([c, m, name, w] for c in range(mdl.class_count)
             for m in range(int(mdl.planes_per_class[c]))
             for name, w in diagnostics.plane_saliency(
                 mdl, c, m, feature_names=data.feature_names))))
    else:
        manifest["notes"].append(
            "saliency skipped: random-feature lift has no per-input weights")

    if mdl.pipeline.input_dim == 2:
        bounds = diagnostics.bounds_from(data.features)
        res = args.grid_resolution
        dgrid = diagnostics.decision_grid(mdl, bounds, res)
        dgrid.to_csv(os.path.join(args.out_dir, "decision_grid.csv"))
        manifest["artifacts"].append("decision_grid.csv")
        artifact("decision_grid.svg",
                 grid_svg(dgrid, data.features, data.labels,
                          title="decision regions"))
        for c in range(mdl.class_count):
            rgrid = diagnostics.responsibility_grid(mdl, c, bounds, res)
            artifact(f"responsibility_grid_class{c}.svg",
                     grid_svg(rgrid, title=f"class {c} plane responsibilities"))
    else:
        manifest["notes"].append("grids skipped: input space is not 2-D")

    scores = model_ops.class_scores(mdl, data.features)
    views = [("before", model_ops.posterior(scores), "reliability (uncalibrated)")]
    if temperature is not None:
        views.append(("after", calibration.apply_temperature(scores, temperature),
                      f"reliability (T={temperature:.3f})"))
    for stage, probs, title in views:
        rows = calibration.reliability_data(probs, data.labels)
        artifact(f"reliability_{stage}.csv", csv_text(
            ["bin_low", "bin_high", "mean_confidence", "accuracy", "count"],
            map(dataclasses.astuple, rows)))
        artifact(f"reliability_{stage}.svg",
                 reliability_svg(rows, calibration.ece(probs, data.labels), title))

    with open(os.path.join(args.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(manifest['artifacts'])} artifacts -> {args.out_dir}")
    return 0


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planemix",
        description="Mixture-of-planes classifier: train, evaluate, inspect.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    p.add_argument("--dataset", required=True, choices=workflow.GENERATORS)
    _add_generator_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("fit", help="train a model on a 60/20/20 split")
    _add_dataset_args(p)
    _add_fit_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.json")
    p.set_defaults(fn=cmd_fit)

    for name, fn, help_text in (
            ("predict", cmd_predict, "predict labels and probabilities"),
            ("evaluate", cmd_evaluate, "report accuracy, F1, NLL, and ece")):
        p = sub.add_parser(name, help=help_text)
        _add_model_args(p)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(fn=fn)

    p = sub.add_parser("calibrate", help="fit the temperature on given data")
    _add_model_args(p, alpha=False)
    p.add_argument("--out", default=None,
                   help="output model path (default: overwrite input)")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("bench", help="run the benchmark suite")
    p.add_argument("--datasets", default=",".join(workflow.GENERATORS))
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--lift", choices=features.LIFTS, default="auto")
    p.add_argument("--skip-latency", action="store_true")
    p.add_argument("--skip-scaling", action="store_true")
    p.add_argument("--out-dir", default="bench_out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("inspect", help="write an interpretability report")
    _add_model_args(p)
    p.add_argument("--grid-resolution", type=int, default=300)
    p.add_argument("--out-dir", default="inspect_out")
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
