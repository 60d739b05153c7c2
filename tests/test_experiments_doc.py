"""The Fig. 11 and Fig. 13 figures quoted in the docs must match the
committed results.

EXPERIMENTS.md and the README quote the M-128/M-512 geomeans of
``benchmarks/results/fig11_rodinia.txt`` and the energy fractions of
``benchmarks/results/fig13_breakdown.txt`` in several places; each quote is
checked against the file at the precision it is quoted, so a regenerated
result or an edited sentence cannot drift apart silently.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results" / "fig11_rodinia.txt"
FIG13_RESULTS = ROOT / "benchmarks" / "results" / "fig13_breakdown.txt"

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


#: (document, pattern, energy components, scale): each pattern's one group
#: quotes the summed Fig. 13 energy fractions of the components, times
#: ``scale`` (100 for a percentage).
FIG13_QUOTES = [
    ("EXPERIMENTS.md", r"energy fractions — memory (\d\.\d+)",
     ("memory",), 1),
    ("EXPERIMENTS.md", r"energy fractions — memory \d\.\d+, compute "
                       r"(\d\.\d+)", ("compute",), 1),
    ("EXPERIMENTS.md", r"\(together\s+\*\*(\d\.\d+)\*\*\)",
     ("memory", "compute"), 1),
    ("EXPERIMENTS.md", r"network (\d\.\d+), control", ("network",), 1),
    ("EXPERIMENTS.md", r"control (\d\.\d+), static", ("control",), 1),
    ("EXPERIMENTS.md", r"control \d\.\d+, static (\d\.\d+)",
     ("static",), 1),
    ("EXPERIMENTS.md", r"memory\+compute dominate \((\d\.\d+) vs",
     ("memory", "compute"), 1),
    ("README.md", r"\| energy in memory\+compute \(Fig\. 13\) "
                  r"\| [^|]+\| ~(\d+)%", ("memory", "compute"), 100),
]


def fig13_energy() -> dict[str, float]:
    """Component -> energy fraction, from the committed Fig. 13 table."""
    lines = FIG13_RESULTS.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("component")) + 2
    return {line.split()[0]: float(line.split()[3])
            for line in lines[start:] if line.strip()}


@pytest.mark.parametrize("document,pattern,components,scale", FIG13_QUOTES)
def test_quoted_energy_fraction_matches_results(document, pattern,
                                                components, scale):
    quotes = re.findall(pattern, (ROOT / document).read_text())
    assert quotes, f"{document} no longer quotes {components}: {pattern!r}"
    energy = fig13_energy()
    value = scale * sum(energy[component] for component in components)
    for quoted in quotes:
        decimals = len(quoted.partition(".")[2])
        assert f"{value:.{decimals}f}" == quoted, (document, components,
                                                   value)
