PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test chaos serve-net bench bench-all docs-check

test:
	$(PYTHON) -m pytest -q

# the fault-tolerance gate: the full tier-1 suite (which includes the
# deterministic chaos tests in tests/test_chaos.py) plus a CLI serve
# replay under the fault injector, both pinned to one seed so failures
# reproduce bit-for-bit
chaos:
	REPRO_FAULT_SEED=0 $(PYTHON) -m pytest -x -q
	REPRO_FAULT_SEED=0 $(PYTHON) -m repro.experiments.cli serve --smoke \
		--faults --deadline-ms 400

# the network-chaos gate: the socket-boundary tests plus a CLI loopback
# replay under seeded frame faults (drop/duplicate/delay/truncate) —
# every ok result must stay bit-identical to its in-process solo run
serve-net:
	REPRO_FAULT_SEED=0 $(PYTHON) -m pytest tests/test_net.py -x -q
	REPRO_FAULT_SEED=0 $(PYTHON) -m repro.experiments.cli serve --smoke \
		--net --net-faults --rate 20

bench:
	$(PYTHON) -m repro.benchrunner

bench-all:
	$(PYTHON) -m repro.benchrunner --all

# scripts/check_docs.py owns the authoritative doctest module list
# (DOCTEST_MODULES) and the markdown link/anchor check; the direct
# `python -m doctest` line is a packaging-free smoke for a module with
# no intra-package imports (runs without PYTHONPATH or install).
docs-check:
	$(PYTHON) -m doctest src/repro/serve/resilience.py
	$(PYTHON) scripts/check_docs.py
