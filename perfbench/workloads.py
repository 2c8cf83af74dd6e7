"""Workload definitions and the outputs each session must reproduce.

Standard library only: the orchestrator imports this module without
importing diskcomplex.

Every workload is a closed-loop session with one caller, run in a fresh
interpreter: build a complex through the CLI, then certify its homology
through the CLI.  The two workloads stress different layers: Smith normal
form in complexes dominates certify-g4, word canonicalisation and the disk
predicate dominate sample-g3-L5.  A change to one layer should show on one
workload and leave the other flat.
"""

from __future__ import annotations

from math import comb

WORKLOADS = {
    "certify-g4": {
        "genus": 4,
        "build": ["bbm", "build", "-g", "4"],
        "input": "diskcx bbm build -g 4 --out <doc>, then diskcx homology <doc> --json",
        "why": "the ROADMAP headline certificate: Smith normal form in "
               "complexes does about 90% of the work",
    },
    "sample-g3-L5": {
        "genus": 3,
        "build": ["gamma", "sample", "-g", "3", "-L", "5", "--json"],
        "input": "diskcx gamma sample -g 3 -L 5 --out <doc> --json, then "
                 "diskcx homology <doc> --json",
        "why": "the sampler path: canonicalising 193,260 words and the disk "
               "predicate dominate, reduction is about 5%",
    },
}


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# certify-g4: the interval complex of genus 4 is a 6-sphere with Catalan(8)
# facets.  The payload digest pins the document bytes the current code writes;
# the payload is a pure function of the input, so a new digest is a new output.
SPHERE_G4 = {
    "dim": 6,
    "facets": catalan(8),
    "f_vector": (35, 385, 1925, 5005, 7007, 5005, 1430),
    "betti": (0, 0, 0, 0, 0, 0, 1),
    "sha": "d4a0b675ae9b3441f2ad9aabb0db29f8907063afc7fc0294ecb40a2ad6becbbb",
}

SAMPLE_G3_L5 = {
    "n_enumerated": 193260,
    "vertices": 105,
    "edges": 813,
    "facets": 474,
    "max_simplex_dim": 5,
    "betti0": 0,
    "betti1": 0,
    "f_vector": (105, 813, 2157, 2506, 1380, 292),
    "betti": (0, 0, 32, 2, 0, 0),
    "sha": "5ee73dc38a22f00b5632001c6f27822c54e9b856bcf430b941401ef9e8176355",
}
