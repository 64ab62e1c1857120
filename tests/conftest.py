"""One hypothesis profile for every property test: derandomized, so a
run draws the same examples each time and tier-1 stays deterministic;
no deadline, since a first example may build a mesh and its operators;
and no example database, so no earlier run's failures are replayed."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
