"""Suite-wide test settings."""

try:
    from hypothesis import settings
except ImportError:  # the property tests that need hypothesis import it themselves
    pass
else:
    # Example run times follow the load of the host, so a per-example
    # deadline would make property tests flaky without catching anything.
    settings.register_profile("mwgap", deadline=None)
    settings.load_profile("mwgap")
