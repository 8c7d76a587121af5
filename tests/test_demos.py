"""The demo scripts import only names the package still has, and run."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    _load(path)


def test_fuse_predictions_runs(capsys):
    demo = _load(next(p for p in DEMOS if p.stem == "fuse_predictions"))
    demo.main()
    out = capsys.readouterr().out
    assert "learned fusion" in out
    assert "learned policy agrees with the majority vote" in out


def test_predict_occupancy_runs(monkeypatch, tmp_path, capsys):
    demo = _load(next(p for p in DEMOS if p.stem == "predict_occupancy"))
    monkeypatch.setattr(demo, "OUT_DIR", str(tmp_path))
    demo.main()
    out = capsys.readouterr().out
    assert "window sweep: test mse minimal at" in out
    assert "training is" in out
    assert (tmp_path / "prediction_seed42_mse_vs_window.svg").is_file()
