"""Set-up a user of the package pays in a fresh process.

Imports carsdj from the checkout's ``src``, builds the default model and
loads the benchmark's goldens.  ``measure.setup_times`` times this script
from outside, interpreter start included.
"""

import json

import boot

boot.prepare()

import carsdj  # noqa: E402

carsdj.build_model()
json.loads(boot.GOLDENS.read_text())
