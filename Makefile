PYTHON ?= python3

.PHONY: check fixtures lines reproduce test

# materialize every built-in example file under ./fixtures
fixtures:
	$(PYTHON) -m causalkit.cli fixtures --dest fixtures

# re-derive every documented example value; writes JSON artifacts too
reproduce:
	$(PYTHON) scripts/reproduce_examples.py --artifacts artifacts

# total line count of src/causalkit/*.py, the figure CHANGES.md quotes
lines:
	@cat src/causalkit/*.py | wc -l

test:
	$(PYTHON) -m pytest -v

# everything that must pass before a change lands: the tier-1 suite, the
# reproduction script's checks, and the benchmark harness's own tests
check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q --continue-on-collection-errors
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/reproduce_examples.py
	$(PYTHON) -m pytest bench/tests -q
