"""Byte identity of CLI outputs: one argv table and its checked-in manifest.

``ROWS`` is a fixed matrix of in-process ``cli.main`` calls covering all
twelve subcommands: hc builds at five alphas with their plans read back by
``orbit --plan``, fhc builds at p = 1, 2 and inf with
``frequency`` and ``decay`` on each, ``weights`` at alpha 0.5 and at -0.49
(whose 4097 entries fill on the tuple route), the four ``verify-*``
commands (``verify-barnes`` at an integer and a fractional order), ``means``
at p = 1 and 2, ``apply`` at three precisions, and the windowed C_star
ladder of ``orbit --windows`` on an hc series and on a prime-degree fhc
series, whose M_1 samples take the split transform.  Rows run in order in
one directory, and later rows read the files earlier rows wrote.  Every name
is fixed and relative, because the CSV banner records input and output paths.

Each output must match ``byte_identity.json``.  Most files match by SHA-256.
The files in ``APPROX`` take their numbers from float64 FFT sums (``means`` at
p != 2, ``verify-hy`` at p != 2 and the M_1 of ``orbit --windows``), whose
last bits may differ under another numpy build or CPU.  Their banner and
header lines must be equal, their ``exact`` columns equal as text, and every
other cell within ``REL`` of the largest such cell in its row.

After a deliberate output change, rewrite the manifest and list each changed
file in CHANGES.md:

    PYTHONPATH=src python tests/byte_identity.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import mpmath
from mpmath import mp, mpf

MANIFEST = Path(__file__).with_name("byte_identity.json")
ALPHAS = ("-0.49", "0", "0.5", "1", "3")
PS = ("1", "2", "inf")
REL = 1e-12  # float64 FFT sums; the tolerance tests/test_means.py holds M_p to
DIGITS = 20  # significant digits kept of an approximate reference cell

ROWS = (
    *[row for a in ALPHAS for row in (
        ["build-hc", "--alpha", a, "-o", f"hc{a}.csv"],
        ["orbit", "--input", f"hc{a}.series", "--plan", f"hc{a}.plan", "-o", f"hc{a}-orbit.csv"],
    )],
    *[row for p in PS for row in (
        ["build-fhc", "--alpha", "1", "--p", p, "-o", f"fhc{p}.csv"],
        ["frequency", "--input", f"fhc{p}.series", "--plan", f"fhc{p}.plan",
         "-o", f"fhc{p}-freq.csv"],
        ["decay", "--input", f"fhc{p}.series", "-o", f"fhc{p}-decay.csv"],
    )],
    ["weights", "--alpha", "0.5", "-o", "weights.csv"],
    ["weights", "--alpha", "-0.49", "-o", "weights-049.csv"],
    ["verify-lemma1", "--alpha", "-0.49", "-o", "lemma1.csv"],
    ["verify-lemma3", "--q", "1.5", "--alpha", "3", "-o", "lemma3.csv"],
    ["verify-hy", "--p", "1.5", "--count", "20", "-o", "hy.csv"],
    ["verify-barnes", "--r-points", "4", "-o", "barnes.csv"],
    ["verify-barnes", "--ml-alpha", "0.5", "--r-min", "10", "--r-max", "30", "--r-points", "2",
     "-o", "barnes-half.csv"],
    ["means", "--input", "fhc1.series", "--p", "1", "--r-points", "64", "-o", "means1.csv"],
    ["means", "--input", "fhc2.series", "--p", "2", "-o", "means2.csv"],
    *[["apply", "--input", "fhc2.series", "--k", "3", "--precision-bits", bits,
       "-o", f"apply{bits}.csv"] for bits in ("128", "256", "512")],
    *[["orbit", "--input", f"{name}.series", "--windows", "50,100,200,400", "--r-points", "64",
       "-o", f"{name}-windows.csv"] for name in ("hc0", "fhc1")],
)

# file -> the columns compared as text; the other cells are compared at REL
APPROX = {"means1.csv": ("r",), "hy.csv": ("poly", "r"),
          "hc0-windows.csv": ("rmax",), "fhc1-windows.csv": ("rmax",)}


def run_rows(directory) -> None:
    """Run every row, in order, with directory as the working directory."""
    from dunkldyn.cli import main

    here = os.getcwd()
    os.chdir(directory)
    try:
        for argv in ROWS:
            code = main(argv)
            if code != 0:
                raise AssertionError(f"dunkldyn {' '.join(argv)}: exit {code}")
    finally:
        os.chdir(here)


def _approx_entry(path: Path, exact) -> dict:
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    keep = [name in exact for name in header]
    with mp.workprec(256):
        rows = [[cell if k else mpmath.nstr(mpf(cell), DIGITS)
                 for cell, k in zip(line.split(","), keep)] for line in lines[2:]]
    return {"head": lines[:2], "exact": list(exact), "rows": rows}


def snapshot(directory) -> dict:
    """The manifest of the files in directory."""
    directory = Path(directory)
    manifest = {"sha256": {}, "approx": {}}
    for name in sorted(os.listdir(directory)):
        if name in APPROX:
            manifest["approx"][name] = _approx_entry(directory / name, APPROX[name])
        else:
            manifest["sha256"][name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    return manifest


def _approx_mismatch(path: Path, want: dict) -> str | None:
    lines = path.read_text().splitlines()
    if lines[:2] != want["head"]:
        return "banner or header differs"
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != len(want["rows"]):
        return f"{len(rows)} rows, want {len(want['rows'])}"
    keep = [name in want["exact"] for name in want["head"][1].split(",")]
    with mp.workprec(256):
        for i, (got, ref) in enumerate(zip(rows, want["rows"])):
            if [g for g, k in zip(got, keep) if k] != [r for r, k in zip(ref, keep) if k]:
                return f"row {i}: an exact column differs"
            pairs = [(mpf(g), mpf(r)) for g, r, k in zip(got, ref, keep) if not k]
            scale = max(abs(r) for _, r in pairs)
            if any(abs(g - r) > REL * scale for g, r in pairs):
                return f"row {i}: a cell differs by more than {REL} of {mpmath.nstr(scale, 8)}"
    return None


def mismatches(directory, manifest: dict) -> list:
    """One message per file that is missing, extra or differs from the manifest."""
    directory = Path(directory)
    want = set(manifest["sha256"]) | set(manifest["approx"])
    have = set(os.listdir(directory))
    out = [f"{name}: not written" for name in sorted(want - have)]
    out += [f"{name}: not in the manifest" for name in sorted(have - want)]
    for name, digest in sorted(manifest["sha256"].items()):
        if name in have and hashlib.sha256((directory / name).read_bytes()).hexdigest() != digest:
            out.append(f"{name}: SHA-256 differs")
    for name, entry in sorted(manifest["approx"].items()):
        problem = _approx_mismatch(directory / name, entry) if name in have else None
        if problem:
            out.append(f"{name}: {problem}")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        run_rows(directory)
        manifest = snapshot(directory)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{MANIFEST}: {len(manifest['sha256'])} hashed and "
          f"{len(manifest['approx'])} approximate files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
