"""Seeded census-like CSV inputs, built without the program's own code.

The benchmark never imports ``repro``: a change to the program can
therefore never change what the benchmark sends.  Every table is a pure
function of ``(seed, stream, index)``, and :func:`digest` fingerprints a
list of tables so two commits can be shown to have run identical inputs.

Columns mimic a census extract: a 5-year age band (triangular over
18..90), a zip code clustered into a few 3-digit regions and coarsened
to tens, and five categorical columns with skewed marginals.  Rows are
about 35 bytes of CSV, so ``n=1000`` is about 35-40 KB.
"""

from __future__ import annotations

import hashlib

import numpy as np

HEADER = ("age", "zip", "sex", "race", "education", "marital", "work")

_CATEGORIES = (
    (("F", "M"), (0.5, 0.5)),
    (("White", "Black", "Asian", "Native", "Other"),
     (0.62, 0.14, 0.12, 0.04, 0.08)),
    (("NoHS", "HighSchool", "College", "Bachelor", "Master", "Doctor"),
     (0.10, 0.28, 0.27, 0.20, 0.11, 0.04)),
    (("Never", "Married", "Divorced", "Widowed", "Separated"),
     (0.33, 0.46, 0.12, 0.06, 0.03)),
    (("Private", "SelfEmp", "Federal", "State", "Local", "Unpaid",
      "Retired", "Student"),
     (0.55, 0.11, 0.04, 0.05, 0.07, 0.02, 0.10, 0.06)),
)

#: stream tags keep the workloads' tables disjoint for one seed
STREAMS = {"cold-solve": 1, "warm-hits": 2, "delta-stream": 3, "warm-up": 4,
           "probe": 5}


def rng_for(seed: int, stream: str, index: int) -> np.random.Generator:
    """The generator of table *index* in *stream* under *seed*."""
    return np.random.default_rng([seed, STREAMS[stream], index])


def census_rows(rng: np.random.Generator, n: int, regions: int = 4) -> list:
    """*n* census-like rows as tuples of strings."""
    ages = rng.triangular(18, 38, 90, size=n).astype(int)
    ages -= ages % 5
    prefixes = rng.choice(900, size=regions, replace=False) + 100
    zips = prefixes[rng.integers(0, regions, size=n)] * 100 \
        + rng.integers(0, 10, size=n) * 10
    columns = [[str(a) for a in ages], [str(z) for z in zips]]
    for values, weights in _CATEGORIES:
        codes = rng.choice(len(values), size=n, p=weights)
        columns.append([values[c] for c in codes])
    return list(zip(*columns))


def to_csv(rows, header=HEADER) -> str:
    """CSV text with a header line and ``\\n`` line ends."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def table_csv(seed: int, stream: str, index: int, n: int) -> str:
    """One census-like table of *n* rows, as CSV text."""
    return to_csv(census_rows(rng_for(seed, stream, index), n))


def digest(texts) -> str:
    """SHA-256 over a sequence of texts (order and boundaries count)."""
    h = hashlib.sha256()
    for text in texts:
        data = text.encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()[:16]
