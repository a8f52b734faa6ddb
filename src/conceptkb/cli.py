"""Command-line surface: train, eval, sweep, export.

Option precedence is built-in defaults, then dataset-keyed defaults, then
the ``--config`` key=value file, then explicit flags.  Every run writes
its fully resolved configuration next to its outputs so the exact run can
be replayed with ``--config``.

Exit codes: 0 success, 2 usage error, 3 data or I/O error, 4 runtime error.

Importing this module before numpy runs BLAS on one thread, unless the
environment sets a count, so that ``--workers`` threads do not contend
with BLAS's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .threads import pin_blas_threads, usable_cores

pin_blas_threads()  # before numpy loads, since BLAS reads the count then

import numpy as np  # noqa: E402

from .checkpoint import CheckpointError, check_vocab, load_checkpoint, save_checkpoint
from .data import DataError, TripleStore, Vocab, bin_relations, load_dataset
from .evaluation import evaluate, load_report, report_json, report_text
from .export import (ExportError, _write_csv, export_attention, export_bin_comparison,
                     export_frequency, per_relation_csv)
from .model import (ATTENTION_MODES, MODELS, SAMPLING_MODES, SIDE_HEAD, SIDE_TAIL, Hyperparams,
                    InitError, attention, check_init)
from .training import TrainingError, train

ENV_DATA_DIR = "CONCEPTKB_DATA"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

# per-dataset hyperparameter defaults for the two benchmark corpora
DATASET_DEFAULTS = {
    "wn18": {"gamma": 5.0, "n": 50, "batch_size": 20, "lr": 0.01, "m": 30},
    "fb15k": {"gamma": 1.0, "n": 100, "batch_size": 1000, "lr": 0.01, "m": 300},
}

_HP_KEYS = tuple(f.name for f in dataclasses.fields(Hyperparams))

_BASE_DEFAULTS = {
    **dataclasses.asdict(Hyperparams()),
    "seed": 0,
    "dataset": "custom",
    "data_dir": None,
    "out": None,
    "warm_start": None,
    "eval_every": 50,
    "early_stop_patience": 200,
    "checkpoint_every": 0,
    "workers": 0,
}

# the options that may be empty (None), with their types; every other
# option takes the type of its default
_NULLABLE = {"block_stop": int, "block_budget": int, "data_dir": str, "out": str,
             "warm_start": str}


class UsageError(Exception):
    """Invalid flag combination detected before any work starts."""


def _coerce(key: str, value):
    """``value`` in the type of ``key``; ``none`` or an empty value is None
    for the keys of ``_NULLABLE`` and refused for every other key."""
    if isinstance(value, str) and value.lower() in ("", "none"):
        if key in _NULLABLE:
            return None
        raise UsageError(f"{key} needs a value, got {value!r}")
    kind = _NULLABLE.get(key) or type(_BASE_DEFAULTS[key])
    try:
        return kind(value)
    except ValueError:
        want = "an integer" if kind is int else "a number"
        raise UsageError(f"{key} must be {want}, got {value!r}") from None


def read_config_file(path: str | Path) -> dict:
    """Flat key=value file; blank lines and # comments are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _BASE_DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, value.strip())
    return out


def _config_text(resolved: dict) -> str:
    """The flat key=value form that :func:`read_config_file` reads back."""
    return "".join(f"{k}={'' if resolved[k] is None else resolved[k]}\n" for k in sorted(resolved))


def write_config_file(path: Path, resolved: dict) -> None:
    path.write_text(_config_text(resolved), encoding="utf-8")


def resolve_options(args: argparse.Namespace) -> dict:
    """defaults < dataset defaults < config file < explicit flags."""
    resolved = dict(_BASE_DEFAULTS)
    config_path = getattr(args, "config", None)
    config = read_config_file(config_path) if config_path else {}
    dataset = getattr(args, "dataset", None) or config.get("dataset") or "custom"
    if dataset in DATASET_DEFAULTS:
        resolved.update(DATASET_DEFAULTS[dataset])
    elif dataset != "custom":
        raise UsageError(f"unknown dataset {dataset!r}; use wn18, fb15k, or custom")
    resolved.update(config, dataset=dataset)
    for key in _BASE_DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = _coerce(key, flag_value)
    if getattr(args, "no_early_stop", False):
        resolved["early_stop_patience"] = 0
    for key in ("seed", "workers", "eval_every", "early_stop_patience", "checkpoint_every"):
        if resolved[key] < 0:
            raise UsageError(f"{key} must be at least 0, got {resolved[key]}")
    if resolved["data_dir"] is None:
        env = os.environ.get(ENV_DATA_DIR)
        if env:
            resolved["data_dir"] = env
    return resolved


def hyperparams_from(resolved: dict) -> Hyperparams:
    try:
        return Hyperparams(**{k: resolved[k] for k in _HP_KEYS})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _workers(resolved: dict) -> int:
    """Thread count of evaluation and block updates; 0 means every usable core."""
    return resolved["workers"] or usable_cores()


def _load_store(resolved: dict) -> tuple[TripleStore, Vocab]:
    if not resolved["data_dir"]:
        raise UsageError(f"no data directory given (use --data-dir or ${ENV_DATA_DIR})")
    return load_dataset(resolved["data_dir"])


def _default_out(resolved: dict, kind: str) -> Path:
    return Path("runs") / f"{kind}-{resolved['dataset']}-{resolved['model']}-s{resolved['seed']}"


def _check_writable(path: Path, directory: bool) -> None:
    """Refuse, before any ranking, a ``path`` that cannot be made as a
    directory (``directory``) or written as a file: one that exists as the
    other kind, or whose nearest existing ancestor is not a directory."""
    found = next(p for p in (path, *path.absolute().parents) if p.exists())
    if found == path and path.is_dir() != directory:
        raise DataError(f"{path} exists and is {'not ' if directory else ''}a directory")
    if found != path and not found.is_dir():
        raise DataError(f"{path}: {found} is not a directory")


def _run_training(resolved: dict, store: TripleStore, vocab: Vocab, out_dir: Path) -> tuple:
    hp = hyperparams_from(resolved)
    warm = None
    if resolved["warm_start"]:
        warm, _, warm_meta = load_checkpoint(resolved["warm_start"])
        check_vocab(warm_meta, vocab)
    check_init(store.n_entities, store.n_relations, hp, warm)  # refused before --out is written

    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_file(out_dir / "config.cfg", resolved)
    log_path = out_dir / "train.log"
    log_fh = log_path.open("w", encoding="utf-8")

    def log_fn(line: str) -> None:
        print(line)
        log_fh.write(line + "\n")

    cadence = resolved["checkpoint_every"]

    def on_epoch(state, epoch, loss):
        if cadence and epoch % cadence == 0:
            save_checkpoint(out_dir / f"checkpoint_epoch{epoch}.npz", state.params, hp, vocab)

    try:
        params, history = train(
            store,
            hp,
            resolved["seed"],
            warm_start=warm,
            eval_split=store.valid if resolved["eval_every"] else None,
            eval_every=resolved["eval_every"],
            early_stop_patience=resolved["early_stop_patience"],
            log_fn=log_fn,
            on_epoch=on_epoch,
            workers=_workers(resolved),
        )
    finally:
        log_fh.close()

    save_checkpoint(out_dir / "checkpoint.npz", params, hp, vocab, extra={"seed": resolved["seed"]})
    (out_dir / "history.json").write_text(json.dumps(history, indent=2), encoding="utf-8")
    return params, hp, history


def cmd_train(args: argparse.Namespace) -> int:
    resolved = resolve_options(args)
    hyperparams_from(resolved)  # validate before any work
    if args.dry_run:
        print(_config_text(resolved), end="")
        return EXIT_OK
    store, vocab = _load_store(resolved)
    out_dir = Path(resolved["out"]) if resolved["out"] else _default_out(resolved, "train")
    resolved["out"] = str(out_dir)
    _run_training(resolved, store, vocab, out_dir)
    print(f"checkpoint written to {out_dir / 'checkpoint.npz'}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    resolved = resolve_options(args)
    if not args.checkpoint:
        raise UsageError("--checkpoint is required")
    if args.bins < 0:
        raise UsageError(f"--bins must be at least 0, got {args.bins}")
    params, hp, meta = load_checkpoint(args.checkpoint)
    store, vocab = _load_store(resolved)
    check_vocab(meta, vocab)
    split = {"train": store.train, "valid": store.valid, "test": store.test}[args.split]
    if len(split) == 0:
        raise DataError(f"split {args.split!r} is empty")
    bins = bin_relations(store, args.bins) if args.bins else None
    resolved["out"] = args.out or "eval_out"  # the directory this run writes, not --config's
    out_dir = Path(resolved["out"])
    _check_writable(out_dir, directory=True)
    if args.per_relation_csv:
        _check_writable(Path(args.per_relation_csv), directory=False)
    try:
        report = evaluate(
            split,
            params,
            hp,
            store,
            direction=args.direction,
            filtered=not args.raw,
            bins=bins,
            workers=_workers(resolved),
        )
    except ValueError as exc:
        raise DataError(f"{args.checkpoint}: {exc}") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_file(out_dir / "config.cfg", resolved)
    report_json(report, out_dir / "report.json")
    text = report_text(report, vocab)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    if args.per_relation_csv:
        per_relation_csv(report, args.per_relation_csv, vocab)
    print(text, end="")
    return EXIT_OK


# sweep axis -> the option it sets
SWEEP_AXES = {"lambda": "domain_lambda", "m": "m", "mode": "attention_mode"}


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = resolve_options(args)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise UsageError("--values must list at least one value")
    store, vocab = _load_store(resolved)
    out_dir = Path(resolved["out"]) if resolved["out"] else _default_out(resolved, "sweep")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_file(out_dir / "config.cfg", resolved)

    rows = []
    for raw_value in values:
        run_dir = out_dir / f"{args.axis}_{raw_value}"
        run = dict(resolved, out=str(run_dir))
        if args.axis == "lambda":
            run["sampling_mode"] = "domain"
        try:
            run[SWEEP_AXES[args.axis]] = _coerce(SWEEP_AXES[args.axis], raw_value)
            params, hp, history = _run_training(run, store, vocab, run_dir)
            split = store.test if len(store.test) else store.valid
            report = evaluate(split, params, hp, store, workers=_workers(run))
            seconds = [e["seconds"] for e in history["epochs"]]
            row = {
                "value": raw_value,
                "mean_rank": report.mean_rank,
                "hits_at_10": report.hits_at_10,
                "epoch_seconds": float(np.mean(seconds)) if seconds else 0.0,
                "error": "",
            }
            report_json(report, run_dir / "report.json")
        except (UsageError, DataError, CheckpointError, TrainingError, ValueError) as exc:
            row = {"value": raw_value, "error": str(exc)}
        rows.append(row)
        print(f"sweep {args.axis}={raw_value}: {row['error'] or 'ok'}")

    # epoch times are only compared across attention modes
    header = ["value", "mean_rank", "hits_at_10",
              *(["epoch_seconds"] if args.axis == "mode" else []), "error"]
    sweep_path = out_dir / "sweep.csv"
    _write_csv(sweep_path, header, [[row.get(k, "") for k in header] for row in rows])
    print(f"sweep table written to {sweep_path}")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    resolved = resolve_options(args)
    out = Path(args.out or f"{args.what}.csv")
    if args.what == "attention":
        if not args.checkpoint:
            raise UsageError("export attention needs --checkpoint")
        params, hp, meta = load_checkpoint(args.checkpoint)
        store, vocab = _load_store(resolved)
        check_vocab(meta, vocab)
        relations = args.relations.split(",") if args.relations else None
        export_attention(attention(params, hp, SIDE_HEAD), attention(params, hp, SIDE_TAIL),
                         vocab, out, relations)
        print(f"attention export written to {out}")
    elif args.what == "frequency":
        store, vocab = _load_store(resolved)
        export_frequency(store, out, vocab)
        print(f"frequency export written to {out}")
    else:
        if not args.reports:
            raise UsageError("export bins needs at least one --report name=path from eval runs")
        if args.bins < 1:
            raise UsageError(f"--bins must be at least 1, got {args.bins}")
        store, vocab = _load_store(resolved)
        bins = bin_relations(store, args.bins)
        reports = {}
        for entry in args.reports:
            if "=" not in entry:
                raise UsageError(f"--report must look like name=path, got {entry!r}")
            name, _, rpath = entry.partition("=")
            if not Path(rpath).exists():
                raise DataError(f"report file not found: {rpath}")
            reports[name] = load_report(rpath)
        export_bin_comparison(reports, bins, out)
        print(f"bin comparison written to {out}")
    return EXIT_OK


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--dataset", choices=["wn18", "fb15k", "custom"], default=None,
                   help="apply per-dataset hyperparameter defaults")
    p.add_argument("--data-dir", dest="data_dir",
                   help=f"directory with train.txt/valid.txt/test.txt (default ${ENV_DATA_DIR})")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads of evaluation and block updates (0 = all cores); "
                        "BLAS runs on one thread unless OPENBLAS/MKL/OMP_NUM_THREADS is set")


def _add_hyper_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="embedding dimension")
    p.add_argument("--m", type=int, default=None, help="number of concept matrices")
    p.add_argument("--k", type=int, default=None, help="max active concepts per side")
    p.add_argument("--gamma", type=float, default=None, help="hinge margin")
    p.add_argument("--tau", type=float, default=None, help="softmax temperature")
    p.add_argument("--ell", type=int, choices=[1, 2], default=None, help="energy norm")
    p.add_argument("--lr", type=float, default=None, help="learning rate")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--block-every", dest="block_every", type=int, default=None,
                   help="epochs between support reassignments")
    p.add_argument("--block-stop", dest="block_stop", type=int, default=None,
                   help="last epoch at which supports may change")
    p.add_argument("--init-noise-sd", dest="init_noise_sd", type=float, default=None)
    p.add_argument("--sampling-mode", dest="sampling_mode",
                   choices=SAMPLING_MODES, default=None)
    p.add_argument("--lambda", dest="domain_lambda", type=float, default=None,
                   help="domain-sampling strength")
    p.add_argument("--domain-side", dest="domain_side_rule",
                   choices=["bernoulli", "uniform"], default=None,
                   help="side-selection rule under domain sampling")
    p.add_argument("--attention-mode", dest="attention_mode",
                   choices=ATTENTION_MODES, default=None)
    p.add_argument("--l1-coef", dest="l1_coef", type=float, default=None)
    p.add_argument("--proj-penalty", dest="proj_penalty", type=float, default=None,
                   help="coefficient of the projected-norm penalty")
    p.add_argument("--model", choices=MODELS, default=None)
    p.add_argument("--block-budget", dest="block_budget", type=int, default=None,
                   help="max triples per relation when scoring concepts")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eval-every", dest="eval_every", type=int, default=None,
                   help="validation interval in epochs (0 = never)")
    p.add_argument("--early-stop-patience", dest="early_stop_patience", type=int, default=None)
    p.add_argument("--no-early-stop", dest="no_early_stop", action="store_true")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptkb",
        description="Knowledge-base completion with shared concept projections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write checkpoints")
    _add_common_options(p_train)
    _add_hyper_options(p_train)
    p_train.add_argument("--warm-start", dest="warm_start",
                         help="checkpoint whose embeddings seed this run")
    _add_run_options(p_train)
    p_train.add_argument("--dry-run", dest="dry_run", action="store_true",
                         help="print the resolved configuration and exit")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="rank a split under a checkpoint")
    _add_common_options(p_eval)
    p_eval.add_argument("--checkpoint", required=False)
    p_eval.add_argument("--split", choices=["train", "valid", "test"], default="test")
    p_eval.add_argument("--direction", choices=["head", "tail", "both"], default="both")
    p_eval.add_argument("--raw", action="store_true", help="disable filtering")
    p_eval.add_argument("--bins", type=int, default=0, help="add a per-bin hits@10 table")
    p_eval.add_argument("--per-relation-csv", dest="per_relation_csv",
                        help="also write per-relation metrics CSV here")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="train/evaluate one run per value")
    _add_common_options(p_sweep)
    _add_hyper_options(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    _add_run_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_export = sub.add_parser("export", help="emit plot-ready CSV/JSON data")
    _add_common_options(p_export)
    p_export.add_argument("what", choices=["attention", "frequency", "bins"])
    p_export.add_argument("--checkpoint")
    p_export.add_argument("--relations", help="comma-separated relation names to keep")
    p_export.add_argument("--report", dest="reports", action="append",
                          help="name=path of an eval report.json (repeatable)")
    p_export.add_argument("--bins", type=int, default=3)
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ExportError, InitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
