"""Suite-wide set-up: every hypothesis test runs under one derandomized profile, so every
run of the suite tries the same inputs; a test's own ``settings`` override it field by field."""

from hypothesis import settings

settings.register_profile("kernelnn", derandomize=True, database=None, deadline=None,
                          max_examples=200)
settings.load_profile("kernelnn")
