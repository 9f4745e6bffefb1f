"""Names the benchmark tracer probes; the library never calls them.

``perfbench/layers.py`` wraps these four functions, and
``perfbench/tracer.py`` imports every probed module when a traced run
installs, so the module must exist for ``--trace 1`` runs to start.
The attacks run on :func:`repro.attacks.engine.run_scheduled_steps`
alone, so each name here raises if called.  The module goes when a
benchmark change drops the ``repro.attacks.loop`` probes.
"""


def try_run_loop(*args, **kwargs):
    raise RuntimeError("try_run_loop is a benchmark probe anchor")


def _run_loop(*args, **kwargs):
    raise RuntimeError("_run_loop is a benchmark probe anchor")


def _gradient_and_aux(*args, **kwargs):
    raise RuntimeError("_gradient_and_aux is a benchmark probe anchor")


def compile_attack_loop(*args, **kwargs):
    raise RuntimeError("compile_attack_loop is a benchmark probe anchor")
