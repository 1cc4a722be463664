"""The CLI output of every shipped config against its pinned reference table.

tests/reference/<name>.csv is the CLI output of configs/<name>.json, written
with BLAS on one thread.  A rerun must match it line for line, numbers to
1e-10, apart from the '# generated:' timestamp.
"""

from pathlib import Path

import pytest

from ionjc.cli import main
from ionjc.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("evolve_coherent", "evolve_sideband", "modes_n3", "resonance", "sweep_rabi")


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("# generated:")]


def _same_field(got: str, want: str) -> bool:
    try:
        return abs(float(got) - float(want)) <= 1e-10
    except ValueError:
        return got == want


@pytest.mark.parametrize("name", NAMES)
def test_shipped_config_output_matches_reference(tmp_path, name):
    config = ROOT / "configs" / f"{name}.json"
    out = tmp_path / f"{name}.csv"
    command = parse_config(config).experiment
    assert main([command, "--config", str(config), "--out", str(out), "--format", "csv"]) == 0
    got, want = _lines(out), _lines(ROOT / "tests" / "reference" / f"{name}.csv")
    assert len(got) == len(want)
    for row, (g, w) in enumerate(zip(got, want)):
        if w.startswith("#"):
            assert g == w
            continue
        gf, wf = g.split(","), w.split(",")
        assert len(gf) == len(wf), f"line {row}"
        assert all(_same_field(a, b) for a, b in zip(gf, wf)), f"line {row}: {g!r} != {w!r}"


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in (ROOT / "configs").glob("*.json")) == sorted(NAMES)
