"""The `encode` stage: embed every instance of a manifest with the
message-passing encoder and write a summary the correctness gate reads.

    python3 perfbench/encode.py MANIFEST OUT_JSON

The program has no encode subcommand, so this stage belongs to the
benchmark. It looks `load_instance` and `encode_instance` up on their
modules at call time, so the traced run's wrappers see these calls.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from qpaug import fileio, graphenc


def main(argv) -> int:
    manifest, out = Path(argv[0]), Path(argv[1])
    weights = graphenc.init_mpnn_weights(seed=0)
    digest = hashlib.sha256()
    count, finite = 0, True
    for entry in fileio.load_manifest(manifest):
        inst, _ = fileio.load_instance(manifest.parent / entry["path"])
        z = graphenc.encode_instance(inst, weights)
        finite = finite and bool(np.all(np.isfinite(z)))
        digest.update(np.ascontiguousarray(z, dtype=np.float64).tobytes())
        count += 1
    out.write_text(json.dumps({"count": count, "finite": finite,
                               "sha256": digest.hexdigest()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
