from hypothesis import settings

# Properties replay the same examples on every run (derandomize) and are not
# timed per example (deadline=None): a CPU whose speed drifts would otherwise
# turn slow examples into spurious failures.
settings.register_profile("conicstab", derandomize=True, deadline=None)
settings.load_profile("conicstab")
