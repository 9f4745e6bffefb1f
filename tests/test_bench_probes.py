"""The benchmark tracer still installs against the library.

``perfbench/layers.py`` names library functions by module and attribute,
and ``Tracer.install`` imports every probed module, so deleting a probed
module or renaming a probed function breaks every ``--trace 1`` run.
This checks that each probe still resolves and that uninstall puts every
original object back.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.layers import PROBES  # noqa: E402
from perfbench.tracer import Tracer, _sites  # noqa: E402


def test_every_probe_resolves_a_site():
    for probe in PROBES:
        assert _sites(probe), (probe.module, probe.cls, probe.attr)


def test_install_then_uninstall_restores_every_original():
    tracer = Tracer(PROBES)
    sites = [s for probe in PROBES for s in _sites(probe)]
    try:
        tracer.install()
        for owner, attr, original, owned in sites:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original, owned in sites:
        if owned:
            assert vars(owner).get(attr) is original, (owner, attr)
        else:
            assert attr not in vars(owner), (owner, attr)
