import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(__file__))

# On a failing property the Hypothesis plugin imports hypothesis.extra._patching,
# whose libcst import raises a DeprecationWarning. With filterwarnings = error
# that warning would be an INTERNALERROR that stops the whole run, so the module
# is imported once here with that one warning ignored; the plugin itself skips
# the import when libcst is missing.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
