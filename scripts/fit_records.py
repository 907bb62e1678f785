#!/usr/bin/env python3
"""Write one JSON line per distinct scan of a benchmark seed's fit workload.

Usage: ``python3 scripts/fit_records.py --seed N [--limit K] [--out FILE]``
or ``python3 scripts/fit_records.py --seed N [--limit K] --compare OLD.jsonl``

Each line holds what the fit reports for one scan of ``bench/gen.py``'s
``scans(N)``: the parameters, their sigmas, the covariance, the stop reason,
the iteration and model-call counts of every ``lm_fit`` behind the scan,
and the scan's ``unconstrained`` flag or regime.  Floats are written with
``repr``, so two outputs are byte-identical exactly when every fit is bit
for bit the same.  Diffing the output of two checkouts therefore checks
that a change to the fitting engine leaves every result, stop reason and
flag as it was.  Scans are listed in the order the workload first meets
them; ``--limit`` keeps the first K.

``--compare OLD.jsonl`` fits the scans of an earlier output (by default as
many as it holds) and prints, for each field, the largest relative
difference |new - old| / |old| over the scans and over the numbers in the
field (``compare``): 0.0 where every value is equal, and inf where a value
appears, changes shape, changes from 0 or from a non-number, or a flag or
stop reason changes.  A field of a nested record is named ``outer.inner``,
such as ``params.waist`` or ``skin.sigmas``.  So a change that should move
only the sigmas, the covariance and the ``unconstrained`` flags shows 0.0
on every other field; only a byte diff tells 0.0 from -0.0.

``bench/gen.py`` is only imported: it writes the scans into a temporary
directory that is removed afterwards.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from cryoion import csvio, metrology, qubit, shielding  # noqa: E402

#: family -> the public fit the benchmark runs on a scan's columns
FITS = {
    "waist": lambda t: qubit.waist_from_rabi_scan(t["position_m"], t["rabi_rad_s"]),
    "ramsey": lambda t: qubit.ramsey_contrast_fit(t["wait_s"], t["contrast"]),
    "heating": lambda t: qubit.heating_rate_fit(t["wait_s"], t["nbar"]),
    "image": lambda t: metrology.gaussian_profile_fit(
        metrology.ImageProfile(pixel_counts=t["counts"])),
    "linewidth": lambda t: metrology.lorentzian_linewidth_fit(t["freq_hz"], t["power"]),
    "regime": lambda t: shielding.fit_attenuation_regime(shielding.AttenuationCurve(
        freqs_hz=tuple(t["freq_hz"]), atten_db=tuple(t["atten_db"]), floor_db=-58.0)),
}


def load_gen():
    """``bench/gen.py`` as a module, imported from its file."""
    path = os.path.join(ROOT, "bench", "gen.py")
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look the module up
    spec.loader.exec_module(gen)
    return gen


def number(value: float):
    """A float as JSON keeps it exactly; non-finite values as strings."""
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def fit_record(res) -> dict:
    return {"params": {k: number(v) for k, v in res.params.items()},
            "sigmas": [number(s) for s in res.sigmas],
            "covariance": [number(c) for c in res.covariance.ravel()],
            "reason": res.reason, "iterations": res.iterations,
            "model_calls": res.model_calls}


def scan_record(scan, res) -> dict:
    record = {"scan": os.path.basename(scan.path)}
    if scan.family == "regime":
        record.update(regime=res.regime, ambiguous=res.ambiguous,
                      skin=fit_record(res.skin_fit), contact=fit_record(res.contact_fit))
    elif scan.family == "heating":
        record.update(fit_record(res))
    else:
        record.update(fit_record(res.fit), unconstrained=res.unconstrained)
    return record


def records(seed: int, limit: int | None = None):
    """One record per distinct scan of ``seed``, in the order first met."""
    gen = load_gen()
    with tempfile.TemporaryDirectory() as directory:
        unique = list({scan.path: scan for scan in gen.scans(seed, directory)}.values())
        for scan in unique[:limit]:
            table = csvio.read_table(scan.path, scan.columns)
            yield scan_record(scan, FITS[scan.family](table))


def relative_difference(old, new) -> float:
    """Largest |new - old| / |old| over the numbers of two values of a field:
    0.0 where they are equal, inf where their shapes or non-numbers differ,
    a flag changed or an old 0 became another number."""
    if old == new:
        return 0.0
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return max(map(relative_difference, old, new))
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)]
    if all(numbers) and old != 0:
        return abs(new - old) / abs(old)
    return math.inf


def fields(record: dict, prefix: str = ""):
    """(name, value) of each field of a record; the fields of a nested
    record are named ``outer.inner``."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from fields(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def compare(old: list, new: list, key: str, measures=None) -> dict:
    """Field -> largest ``relative_difference`` over two lists of records
    that hold the same ``key`` values in the same order; a field that only
    one of two records holds differs by inf.  ``measures`` maps a field to
    its own difference instead, a function of the old and the new record."""
    if [r[key] for r in old] != [r[key] for r in new]:
        raise ValueError(f"the two outputs hold different {key}s")
    measures = measures or {}
    worst = {}
    for a, b in zip(old, new):
        a, b = dict(fields(a)), dict(fields(b))
        for name in (a.keys() | b.keys()) - {key}:
            diff = (measures[name](a, b) if name in measures
                    else relative_difference(a.get(name), b.get(name)))
            worst[name] = max(worst.get(name, 0.0), diff)
    return worst


def print_comparison(path: str, solve, key: str, limit: int | None, measures=None) -> int:
    """Print ``compare`` of the records in ``path`` with ``solve(n)``, the
    first n records of this checkout (n = ``limit``, by default as many as
    ``path`` holds), one ``field = difference`` line per field; an exit code."""
    with open(path, encoding="utf-8") as handle:
        old = [json.loads(line) for line in handle]
    try:
        worst = compare(old, list(solve(len(old) if limit is None else limit)), key, measures)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{key}s = {len(old)}")
    for name in sorted(worst):
        print(f"{name} = {worst[name]!r}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--limit", type=int, default=None,
                        help="keep only the first LIMIT distinct scans")
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
                                "scan", args.limit)
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
