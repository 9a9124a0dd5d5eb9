"""Shared test settings: a fixed hypothesis profile, so every run of the
suite draws the same examples and takes a bounded time."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("hullkit", derandomize=True, max_examples=150,
                              deadline=None, database=None)
    settings.load_profile("hullkit")
