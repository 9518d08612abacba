"""Shared test setup: let a failing Hypothesis property report as a failure
under -W error.

To explain a failing property, Hypothesis's pytest plugin imports its
patch writer, which imports libcst. Some libcst releases use
mypy_extensions.TypedDict at import, which raises a DeprecationWarning.
Under -W error that warning escapes the plugin's report hook as a pytest
INTERNALERROR, which ends the session before the later tests run. So the
writer is imported once here, with only that one warning ignored; every
other warning, from src/ or from a test, still follows -W. Where libcst
is not installed, the plugin skips the writer, and so does this.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
