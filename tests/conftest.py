"""Setup shared by every test module."""

import tempfile
from pathlib import Path

from hypothesis import configuration

# Even with no example database, Hypothesis caches the constants it finds in
# local source files under its home directory, `.hypothesis/` in the working
# directory by default. It does so while pytest collects, so it is set here,
# before any test module is imported.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "moesim-hypothesis")
