"""Test-suite settings: property tests draw the same examples on every
run, and no example database is written."""

from hypothesis import settings

settings.register_profile("formalconn", derandomize=True, deadline=None, database=None)
settings.load_profile("formalconn")
