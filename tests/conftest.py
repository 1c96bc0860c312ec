import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from pfasfab import (
    DEFAULT_CATALOG,
    DEFAULT_WEIGHTS,
    EnergyWeights,
    LayerSpec,
    Region,
    StackSpec,
    asap7_preset,
    cli,
    n7_fixture,
)
from pfasfab.stack import TAG_POWER_GRID, TAG_ROUTING

# More examples for the kernel-guard and reference-model properties (marked
# ``guard``), which CI runs a second time with ``--hypothesis-profile=ci``.
settings.register_profile("ci", max_examples=300)

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = REPO_ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args: str):
    """Run the CLI in a fresh interpreter; returns the completed process."""
    return subprocess.run(
        [sys.executable, "-m", "pfasfab", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def run_main(*args: str):
    """Run ``cli.main`` in this process with stdout and stderr captured;
    returns a completed process like ``run_cli`` does."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


@pytest.fixture
def catalog():
    return DEFAULT_CATALOG


@pytest.fixture
def weights():
    return DEFAULT_WEIGHTS


@pytest.fixture
def asap7():
    return asap7_preset()


@pytest.fixture
def n7_duv():
    return n7_fixture("duv")


_HUGE = st.sampled_from([10**400, -(10**400), 10**5000])
# Values of every type a field can be given by mistake; a list is unhashable,
# and 10**5000 has more digits than int's string conversion allows.
MIXED = (_HUGE | st.integers() | st.floats() | st.text(max_size=4)
         | st.lists(_HUGE | st.integers() | st.text(max_size=3), max_size=3) | st.none())

_PROCESSES = st.sampled_from(DEFAULT_CATALOG.ids())
# No pitch, or a positive int or finite float, as perfbench's stacks draw them.
_PITCHES = st.none() | st.integers(1, 400) | st.floats(min_value=0.5, max_value=400.0)
_NON_INTEGER = st.floats(min_value=0.1, max_value=40.0).filter(lambda w: w != int(w))
# Non-integer weights, so that an int where a float belongs shows in a repr.
NON_INTEGER_WEIGHTS = st.builds(EnergyWeights, _NON_INTEGER, _NON_INTEGER)


@st.composite
def random_stacks(draw):
    """Valid stacks with power-grid layers anywhere in the BEOL, each layer
    pitched or not."""
    layers = []
    for region, most in ((Region.FEOL, 3), (Region.MOL, 2)):
        for i in range(draw(st.integers(0, most))):
            metal = draw(st.none() | _PROCESSES)
            via = draw(_PROCESSES) if metal is None else draw(st.none() | _PROCESSES)
            layers.append(LayerSpec(f"{region.value}{i}", region, draw(_PITCHES), metal, via))
    for k in sorted(draw(st.sets(st.integers(1, 14), min_size=1, max_size=9))):
        tag = draw(st.sampled_from((TAG_ROUTING, TAG_POWER_GRID)))
        layers.append(LayerSpec(
            f"M{k}", Region.BEOL, draw(_PITCHES), draw(_PROCESSES), draw(st.none() | _PROCESSES),
            frozenset({tag}),
        ))
    return StackSpec("random", tuple(layers))
