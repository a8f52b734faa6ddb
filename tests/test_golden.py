"""Golden files for the command-line surface and the report writers.

Each case renders a help text (at 80 columns) or writes a report from
hand-made inputs, and its bytes must equal ``tests/golden/<name>``.  After
an intended change to one of them, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import conceptkb.cli as cli
from conceptkb.data import FrequencyBins, Vocab
from conceptkb.evaluation import EvalReport, RelationMetrics, report_text
from conceptkb.export import export_attention, export_bin_comparison, per_relation_csv

GOLDEN = Path(__file__).parent / "golden"


def _vocab() -> Vocab:
    vocab = Vocab()
    for i in range(4):
        vocab.add_entity(f"e{i}")
    for name in ("parent_of", "located_in", "similar_to"):
        vocab.add_relation(name)
    return vocab


# per-relation figures whose repr needs all 17 digits, and relations out of order
REPORT = EvalReport(
    mean_rank=3.5555555555555554,
    hits_at_10=66.66666666666667,
    per_relation={
        2: RelationMetrics(5 / 3, 33.333333333333336, 3),
        0: RelationMetrics(2.0, 100.0, 2),
        1: RelationMetrics(7.25, 50.0, 4),
    },
    per_bin={1: 41.66666666666667, 0: 100.0},
    direction="both",
    n_queries=9,
)
RAW_REPORT = EvalReport(
    mean_rank=12.0,
    hits_at_10=0.0,
    per_relation={0: RelationMetrics(12.0, 0.0, 1)},
    per_bin=None,
    direction="tail",
    n_queries=1,
    filtered=False,
)
BINS = FrequencyBins({0: 0, 1: 1, 2: 1}, [0.0, 1.5, 3.0])


def _help(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main([*argv, "--help"])
    return out.getvalue().encode("utf-8")


def _written(write, tmp: Path, name: str) -> bytes:
    path = tmp / name
    write(path)
    return path.read_bytes()


def _sweep_csv(tmp: Path) -> bytes:
    """``sweep.csv`` of a mode sweep whose first run fails, with training
    and ranking replaced by fixed results."""
    epochs = {"epochs": [{"seconds": 0.5}, {"seconds": 0.25}]}

    def run_training(run, store, vocab, run_dir):
        if run["attention_mode"] == "bad":
            raise ValueError("unknown attention_mode 'bad'")
        run_dir.mkdir(parents=True)
        return None, None, epochs

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "_load_store",
                   lambda resolved: (SimpleNamespace(test=np.zeros((1, 3))), None))
        mp.setattr(cli, "_run_training", run_training)
        mp.setattr(cli, "evaluate", lambda *args, **kw: REPORT)
        assert cli.main(["sweep", "--axis", "mode", "--values", "bad,dense",
                         "--out", str(tmp / "sweep")]) == 0
    return (tmp / "sweep" / "sweep.csv").read_bytes()


def _attention(tmp: Path) -> Path:
    head = np.array([[0.25, 0.75, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.0, 1.0]])
    tail = np.array([[0.1, 0.2, 0.7], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    return export_attention(head, tail, _vocab(), tmp / "attention.csv",
                            ["similar_to", "parent_of"])


CASES = {
    "help.txt": lambda tmp: _help([]),
    **{f"help_{cmd}.txt": (lambda tmp, cmd=cmd: _help([cmd]))
       for cmd in ("train", "eval", "sweep", "export")},
    "report.txt": lambda tmp: report_text(REPORT, _vocab()).encode("utf-8"),
    "report_raw.txt": lambda tmp: report_text(RAW_REPORT).encode("utf-8"),
    "per_relation.csv": lambda tmp: _written(lambda p: per_relation_csv(REPORT, p), tmp, "a.csv"),
    "per_relation_names.csv": lambda tmp: _written(
        lambda p: per_relation_csv(REPORT, p, _vocab()), tmp, "b.csv"),
    "attention.csv": lambda tmp: _attention(tmp).read_bytes(),
    "attention.json": lambda tmp: _attention(tmp).with_suffix(".json").read_bytes(),
    "bins.csv": lambda tmp: export_bin_comparison(
        {"itransf": REPORT, "raw": RAW_REPORT}, BINS, tmp / "bins.csv").read_bytes(),
    "sweep.csv": _sweep_csv,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert CASES[name](tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    for name, render in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(render(Path(tmp)))
