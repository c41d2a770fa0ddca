"""Time one cold start: import nmixtime, then run the given CLI calls.

    python3 setup_probe.py SPEC.json

SPEC.json holds a list of argument lists for ``nmixtime.cli.main``. numpy
is loaded before the clock starts, because the speed calibration that runs
alongside (see calibrate.py) needs it. Prints ``{"setup_s": ..., "raw_s":
...}``, scaled and raw seconds, and exits non-zero if any call fails.
"""
import contextlib
import io
import json
import sys

from calibrate import timed

argvs = json.loads(open(sys.argv[1], encoding="utf-8").read())


def cold_start():
    import nmixtime.cli

    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = nmixtime.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"nmixtime {argv[0]} exited {code}")


_, scaled, raw, error = timed(cold_start)
if error is not None:
    sys.exit(str(error))
print(json.dumps({"setup_s": scaled, "raw_s": raw}))
