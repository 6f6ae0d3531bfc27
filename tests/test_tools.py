import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def output_digest(monkeypatch):
    """tools/output_digest.py as a module; the thread variables it sets are restored after."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_counts_the_differing_items(output_digest, capsys):
    theirs = [["a" * 64, "pass"], ["b" * 64, "silent"], ["c" * 64, "loud"]]
    assert output_digest.compare("analysis-low", [list(row) for row in theirs], theirs) == 0
    assert "0 of 3 items differ: none" in capsys.readouterr().out

    ours = [list(row) for row in theirs]
    ours[1] = ["d" * 64, "pass"]
    assert output_digest.compare("pipeline-high", ours, theirs) == 1
    out = capsys.readouterr().out
    assert "1 of 3 items differ: 1" in out
    assert "silent -> pass" in out and "items 1" in out

    assert output_digest.compare("cli-batch", ours[:2], theirs) == 3
