from hypothesis import settings

# Deterministic property tests: the same examples on every run, no per-example
# deadline (timings on a shared machine vary). Tests that need fewer examples
# set their own max_examples.
settings.register_profile("ttrally", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("ttrally")
