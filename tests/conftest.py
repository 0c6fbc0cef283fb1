"""Test settings shared by every module.

Every property test draws the same examples on every run: the examples are
seeded from each test function (``derandomize``), so a failure reproduces
and a passing run stays passing until the test or Hypothesis changes.  A
test that asks for fresh draws says so in its own ``@settings``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
