"""Set-up work of one workload, in a fresh process (timed by the parent).

Imports fftcond, parses each invocation's config with its overrides,
builds the phase maps and makes one warm-up projection (an FFT pair) at
each grid size. Usage::

    python3 perfbench/setup_probe.py '<json list of [config, [overrides...]]>'
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fftcond import cli  # noqa: E402
from fftcond.spectral_ops import VectorField, gamma1  # noqa: E402


def main(spec: str) -> int:
    sizes = set()
    for config, overrides in json.loads(spec):
        pmap = cli.build_phase_map(cli.parse_config(ROOT / config, overrides))
        sizes.add(pmap.chi.shape)
    for ny, nx in sorted(sizes):
        gamma1(VectorField.zeros(ny, nx))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
