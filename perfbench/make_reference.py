"""Store the clean boundary trace of every workload as the generation gate.

Usage: python3 perfbench/make_reference.py

Run from the checkout root at the commit whose traces define the gate; the
job compares each generated clean trace to these copies (relative L2).
"""

import os
import sys

import numpy as np

from workloads import REFERENCE_TRIANGLES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from heatprobe import mesh, scenario, synth  # noqa: E402


def main():
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name, w in WORKLOADS.items():
        trace = synth.generate_reference(
            scenario.builtin(w["scenario"]), mesh.build_disk_mesh(w["fine"]),
            REFERENCE_TRIANGLES, horizon=w["horizon"])
        np.save(os.path.join(HERE, "reference", f"{name}.npy"), trace.values)
        print(name, trace.values.shape)


if __name__ == "__main__":
    main()
