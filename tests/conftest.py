"""Suite-wide test configuration.

One hypothesis profile for every property test: no per-example
deadline (the first example of a run pays for imports and the example
database, and on a busy box that alone can pass 200 ms — a tier-1 run
once failed ``test_value_at_matches_naive_model`` that way and passed on
rerun), examples derived from the test itself rather than from the
clock (a failure reproduces by running the test again), and the
reproduction blob printed when one does fail.  Per-test ``@settings``
still override what they name.
"""

from hypothesis import settings

settings.register_profile(
    "repro", deadline=None, derandomize=True, print_blob=True
)
settings.load_profile("repro")
