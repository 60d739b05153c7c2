"""The Fig. 11 means quoted in the docs must match the committed results.

EXPERIMENTS.md and the README quote the M-128/M-512 geomeans of
``benchmarks/results/fig11_rodinia.txt`` in several places; each quote is
checked against the file's geomean row at the precision it is quoted, so a
regenerated result or an edited sentence cannot drift apart silently.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results" / "fig11_rodinia.txt"

#: (document, pattern, results column): each pattern's one group is a
#: quoted measured mean.
QUOTES = [
    ("EXPERIMENTS.md", r"\| speedup M-128 \| [\d.]+× \| \**([\d.]+)×",
     "speedup M-128"),
    ("EXPERIMENTS.md", r"\| speedup M-512 \| [\d.]+× \| \**([\d.]+)×",
     "speedup M-512"),
    ("EXPERIMENTS.md", r"\| energy-eff M-128 \| [\d.]+× \| \**([\d.]+)×",
     "energy-eff M-128"),
    ("EXPERIMENTS.md", r"\| energy-eff M-512 \| [\d.]+× \| \**([\d.]+)×",
     "energy-eff M-512"),
    ("EXPERIMENTS.md", r"our M-512 average \(([\d.]+)×\)", "speedup M-512"),
    ("EXPERIMENTS.md", r"M-512's advantage is muted\*\* \(([\d.]+)×",
     "speedup M-512"),
    ("README.md", r"\| M-128 speedup vs 16-core CPU \(Rodinia avg\) "
                  r"\| [\d.]+× \| ([\d.]+)×", "speedup M-128"),
    ("README.md", r"\| M-512 speedup \| [\d.]+× \| ([\d.]+)×",
     "speedup M-512"),
    ("README.md", r"\| Energy-efficiency gain \(M-128 / M-512\) "
                  r"\| [^|]+\| ([\d.]+)× / [\d.]+×", "energy-eff M-128"),
    ("README.md", r"\| Energy-efficiency gain \(M-128 / M-512\) "
                  r"\| [^|]+\| [\d.]+× / ([\d.]+)×", "energy-eff M-512"),
]


def fig11_geomeans() -> dict[str, float]:
    """Column name -> geomean, from the committed Fig. 11 table."""
    lines = RESULTS.read_text().splitlines()
    header = next(line for line in lines if line.startswith("kernel"))
    columns = re.split(r"\s{2,}", header.strip())[1:]
    row = next(line for line in lines if line.startswith("geomean"))
    values = [float(value) for value in row.split()[1:]]
    assert len(values) == len(columns)
    return dict(zip(columns, values))


def test_results_file_has_every_quoted_column():
    assert {column for _, _, column in QUOTES} <= set(fig11_geomeans())


@pytest.mark.parametrize("document,pattern,column", QUOTES)
def test_quoted_mean_matches_results(document, pattern, column):
    quotes = re.findall(pattern, (ROOT / document).read_text())
    assert quotes, f"{document} no longer quotes {column}: {pattern!r}"
    mean = fig11_geomeans()[column]
    for quoted in quotes:
        decimals = len(quoted.partition(".")[2])
        assert f"{mean:.{decimals}f}" == quoted, (document, column, mean)
