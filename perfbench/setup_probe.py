"""Set-up probe, run in a fresh interpreter by run.py.

Reads {"src", "bench", "program", "database", "delta"} as JSON on stdin,
then times `import adlog` plus parsing and validating those inputs, and
prints {"seconds", "scaled_s"}.  Interpreter start-up is not part of the
time.  `scaled_s` is the time scaled by the calibration kernel, run three
times before and twice after the timed part.
"""

import json
import statistics
import sys
from time import perf_counter


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["bench"])
    import calibrate
    kernel_times = [calibrate.kernel() for _ in range(3)]
    sys.path.insert(0, job["src"])
    start = perf_counter()
    import adlog
    program = adlog.parse_program(job["program"])
    database = adlog.parse_database(job["database"])
    delta = adlog.parse_delta(job["delta"])
    adlog.validate_update_program(adlog.UpdateProgram(delta, program))
    seconds = perf_counter() - start
    kernel_times += [calibrate.kernel() for _ in range(2)]
    scaled = seconds * calibrate.REFERENCE_S / statistics.median(kernel_times)
    print(json.dumps({"seconds": seconds, "scaled_s": scaled, "facts": len(database.true_facts)}))


if __name__ == "__main__":
    main()
