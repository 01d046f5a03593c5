"""Every declat name the benchmark's tracer patches must still exist.

``perfbench/layers.py`` lists the traced names; a rename or removal in
``src/`` makes ``perfbench/run.py --trace 1`` raise.  This test applies
and removes each patch, so the same failure shows up in the test suite.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import SPANS, patches  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def test_every_traced_target_resolves():
    made = patches(Tracer())
    targets = {p.target for p in made}
    assert set(SPANS) <= targets and len(targets) == len(SPANS) + 4
    for patch in made:
        importlib.import_module(patch.target.partition(":")[0])
        patch.apply()
        patch.remove()
