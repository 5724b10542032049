"""Record the reference outputs that the preset-maps and fine-grid gates compare to.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.npz``: lambda_max and labels of the three preset
planes, and of each scheme's 6x6 fine-grid lattice (the seed picks a plane
whose corners are lattice points, so every seed is covered).  The file was
recorded once from the dense-eigensolver code and is not meant to be
re-recorded by a change that claims the same verdicts.
"""

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from cplstab import assembly, sweep  # noqa: E402


def main():
    arrays = {}
    for name, r in workloads.PRESETS:
        field = sweep.run_sweep(sweep.preset_sweep(name, r=r))
        arrays[f"preset/{name}/lambda"] = field.lambda_max
        arrays[f"preset/{name}/label"] = field.classification
        print(f"preset {name}: {field.lambda_max.size} cells", flush=True)
    for name in assembly.SCHEMES:
        ax, ay, fixed = workloads.fine_lattice(name)
        spec = sweep.SweepSpec(assembly.SCHEMES[name], ax, ay, fixed,
                               n_minus=workloads.FINE_N, n_plus=workloads.FINE_N)
        field = sweep.run_sweep(spec)
        # the seeded planes must hit the lattice values exactly for the lookup to hold
        for axis in (ax, ay):
            values = axis.values()
            for i, j in itertools.combinations(range(values.size), 2):
                plane = sweep.Axis(axis.name, float(values[i]), float(values[j]), 2, axis.scale)
                if not (plane.values() == values[[i, j]]).all():
                    raise SystemExit(f"{name}: plane {i}-{j} misses the {axis.name} lattice")
        arrays[f"fine/{name}/lambda"] = field.lambda_max
        arrays[f"fine/{name}/label"] = field.classification
        print(f"fine {name}: {field.lambda_max.size} cells", flush=True)
    np.savez_compressed(workloads.REFERENCE, **arrays)
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
