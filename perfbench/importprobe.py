"""Times ``import qotto`` and ``qotto.cli`` in this fresh interpreter and prints JSON.

The pure-Python host reference loop is sampled during the imports, so that
the time can also be given on the nominal host (see ``hostref.py``).

Run under ``python -X importtime`` to get the per-module import log on
stderr instead; everything between the two marker lines belongs to these two
imports, and no sampling runs then.
"""

import json
import sys
from pathlib import Path

import hostref

MARKERS = ("-- perfbench import probe --", "-- perfbench import probe end --")  # as in run.py

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
if "importtime" in sys._xoptions:
    sys.stderr.write(MARKERS[0] + "\n")
    sys.stderr.flush()
    import qotto  # noqa: E402,F401
    import qotto.cli  # noqa: E402,F401

    sys.stderr.write(MARKERS[1] + "\n")
    sys.stderr.flush()
else:
    wall, nominal = hostref.timed_import("qotto", "qotto.cli")
    print(json.dumps({"setup_s": wall, "nominal_setup_s": nominal}))
