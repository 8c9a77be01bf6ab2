"""Smoke runs of the scripts in ``demos/``, in-process and with stdout
captured: each must run to completion and print something."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [p.name for p in DEMOS] == [
        "continuity_bounds.py",
        "couplings_tour.py",
        "gibbs_energy_bounds.py",
        "relative_entropy_distance.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
