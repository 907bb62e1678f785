#!/usr/bin/env python3
"""Write one JSON line per trap design of a benchmark seed's spectrum workload.

Usage: ``python3 scripts/spectrum_records.py --seed N [--limit K] [--out FILE]``
or ``python3 scripts/spectrum_records.py --seed N [--limit K] --compare OLD.jsonl``

Each line holds every field of the ``TrapSolution`` that
``trap.secular_spectrum`` returns for one design of ``bench/gen.py``'s
``trap_designs(N, 128)``, built as the benchmark builds it: the null, the
height, the secular frequencies and axes, the Mathieu q, the depth and the
unstable axes.  Floats are written with ``repr`` and arrays through
``tolist()``, so two outputs are byte-identical exactly when every solution
is bit for bit the same.  Diffing the output of two checkouts therefore
checks that a change to the trap solver leaves every result as it was; a
design whose solve raises is recorded with its error.  ``--limit`` keeps the
first K designs.

``--compare OLD.jsonl`` solves the designs of an earlier output (by default
as many as it holds) and prints, for each field, the largest relative
difference |new - old| / |old| over the designs and over the numbers in the
field (``fit_records.compare``): 0.0 where every value is equal, and inf
where a value appears, changes shape or changes from 0 or from a
non-number.  Two fields are measured on their own scale instead, so that
rounding does not read as inf: ``axes`` column by column up to sign
(``axes_difference``), and ``null_position`` as |new - old| over the old
height (``null_difference``).  It shows which fields a solver change moved,
and by how much; only a byte diff tells 0.0 from -0.0.

``bench/gen.py`` is only imported, through ``fit_records.load_gen``; it
writes no file for the designs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from cryoion import trap  # noqa: E402
from cryoion.errors import CryoionError  # noqa: E402
from fit_records import (load_gen, number, print_comparison,  # noqa: E402  (this script's dir)
                         relative_difference)

#: designs per seed, as many as the benchmark's pool
DESIGNS = 128


def exact(value):
    """A field value as JSON keeps it exactly: arrays through ``tolist()``,
    tuples as lists and floats through ``number``."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return number(value) if isinstance(value, float) else value


def design_record(index: int, design) -> dict:
    layout, _ = trap.five_wire_layout(design.center_half_width, rail_width=design.rail_width,
                                      gap=design.gap, rf_voltage=design.rf_voltage,
                                      rf_omega=design.rf_omega,
                                      dc_segments=design.dc_segments)
    record = {"design": index}
    try:
        sol = trap.secular_spectrum(layout, trap.CA40, dc_voltages=design.dc_voltages)
    except CryoionError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record.update((name, exact(getattr(sol, name))) for name in sol._fields)
    return record


def _arrays(old: dict, new: dict, *names):
    """The fields ``names`` of two records as float arrays, or None where a
    record lacks one (a design whose solve raised)."""
    try:
        return [np.array(r[name], dtype=float) for name in names for r in (old, new)]
    except KeyError:
        return None


def axes_difference(old: dict, new: dict) -> float:
    """Largest entry difference between the old and the new unit column of
    each secular axis, the smaller of the two over the column's sign, since
    an eigenvector's sign is arbitrary; inf where the shapes differ."""
    arrays = _arrays(old, new, "axes")
    if arrays is None:
        return relative_difference(old.get("axes"), new.get("axes"))
    a, b = arrays
    if a.shape != b.shape:
        return math.inf
    return float(np.minimum(abs(b - a).max(axis=0), abs(b + a).max(axis=0)).max(initial=0.0))


def null_difference(old: dict, new: dict) -> float:
    """Largest |new - old| of the null's coordinates over the old height, so
    that a rounding-level x (about 0, of either sign) moving by 1e-20 m
    reads as rounding; inf where the shapes differ."""
    arrays = _arrays(old, new, "null_position", "height")
    if arrays is None:
        return relative_difference(old.get("null_position"), new.get("null_position"))
    a, b, height, _ = arrays
    if a.shape != b.shape:
        return math.inf
    return float(abs(b - a).max(initial=0.0) / height)


def records(seed: int, limit: int | None = None):
    """One record per design of ``seed``, in the workload's order."""
    designs = load_gen().trap_designs(seed, DESIGNS)
    for index, design in enumerate(designs[:limit]):
        yield design_record(index, design)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--limit", type=int, default=None,
                        help="keep only the first LIMIT designs")
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--out", default=None, help="output file (default: stdout)")
    target.add_argument("--compare", metavar="OLD", default=None,
                        help="print the largest relative difference per field "
                             "against an earlier output")
    args = parser.parse_args()
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be >= 0")
    if args.compare:
        return print_comparison(args.compare, lambda limit: records(args.seed, limit),
                                "design", args.limit,
                                {"axes": axes_difference, "null_position": null_difference})
    handle = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for record in records(args.seed, args.limit):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if args.out:
            handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
