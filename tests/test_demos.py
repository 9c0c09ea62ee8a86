"""Each script under demos/ runs to exit 0 on the package in src/, and the
classification demo's claims about its reruns are printed: a lambda-only
change reruns just the last two stages, and going back to the first
lambdas in the same process, which takes the parsed inputs from the loader
memo, gives the first report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

CLAIMS = {
    "stratified_classification": (
        "only ['vectorize_stratified', 'evaluate'] reran",
        "back at the first lambdas, the stratified report equals the first run's",
    ),
}


def test_every_claim_names_a_demo():
    assert DEMOS and set(CLAIMS) <= {demo.stem for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_and_prints_its_claims(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    for claim in CLAIMS.get(demo.stem, ()):
        assert claim in done.stdout
