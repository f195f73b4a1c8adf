from hypothesis import settings

# CI runs with --hypothesis-profile=ci: examples are drawn from a fixed
# seed, so a CI failure reproduces locally with the same flag. Example
# counts stay those of each test's own @settings; local runs stay random.
settings.register_profile("ci", derandomize=True)
