#!/usr/bin/env python3
"""Record every workload's outputs for the default seed into pins.json.

    python3 bench/record_pins.py

The benchmark counts an op whose output differs from these pins as failed,
so record them only at a commit whose outputs are known to be right, and
name in the change log any output whose bits a change alters on purpose.
"""

import json
import tempfile

import run

if __name__ == "__main__":
    run.import_hexch()
    from workloads import WORKLOADS

    run.OUT.mkdir(exist_ok=True)
    pins = {"seed": run.DEFAULT_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name in run.WORKLOAD_NAMES:
            wl = WORKLOADS[name](run.DEFAULT_SEED, tmp)
            outputs = [wl.digest(k, wl.call(k)) for k in range(wl.pool_size)]
            pins["workloads"][name] = {"params": wl.params, "outputs": outputs}
    run.PINS.write_text(json.dumps(pins, indent=1) + "\n")
