#!/usr/bin/env python3
"""Fills EXPERIMENTS.md placeholders from a `repro` run log.

Usage: python3 scripts/fill_experiments.py <repro.log>

Looks for the rendered sections of fig5/fig6/fig7/fig8, Table V and the
ablation suite in the log and splices them into EXPERIMENTS.md at the
corresponding `<!-- ..._RESULTS -->` markers. Idempotent: run once per
placeholder (already-filled markers are left untouched).
"""

import re
import sys


def block(log: str, start: str, end: str) -> str | None:
    i = log.find(start)
    if i < 0:
        return None
    j = log.find(end, i)
    if j < 0:
        return None
    return log[i:j].rstrip()


def fill(exp: str, marker: str, content: str | None, preamble: str) -> str:
    if content is None or marker not in exp:
        return exp
    return exp.replace(marker, f"{preamble}\n\n```\n{content}\n```")


def main() -> None:
    log = open(sys.argv[1]).read()
    exp = open("EXPERIMENTS.md").read()

    exp = fill(
        exp,
        "<!-- FIG5_RESULTS -->",
        block(log, "== Eclipse / MVTS", "[fig5 in"),
        "Measured:",
    )
    exp = fill(
        exp,
        "<!-- TABLE5_RESULTS -->",
        block(log, "== Table V-style summary ==", "[table5 in"),
        "Measured:",
    )
    exp = fill(
        exp,
        "<!-- FIG6_RESULTS -->",
        block(log, "== Fig.6-style", "[fig6 in"),
        "Measured:",
    )
    exp = fill(
        exp,
        "<!-- FIG7_RESULTS -->",
        block(log, "== Fig.7-style", "[fig7 in"),
        "Measured:",
    )
    exp = fill(
        exp,
        "<!-- FIG8_RESULTS -->",
        block(log, "== Fig.8-style", "[fig8 in"),
        "Measured:",
    )
    exp = fill(
        exp,
        "<!-- ABLATION_RESULTS -->",
        block(log, "== Ablation: query strategy", "[ablations in"),
        "Measured:",
    )

    # Table V quick cells.
    m = re.search(r"\| Volta\s+\|[^\n]+", log)
    e = re.search(r"\| Eclipse\s+\|[^\n]+", log)

    def cells(row: str) -> list[str]:
        return [c.strip() for c in row.strip("|").split("|")]

    if m and e:
        v, ec = cells(m.group(0)), cells(e.group(0))
        # columns: dataset, extractor, strategy, initial, start f1,
        # 0.85, 0.90, 0.95, pool, cv
        for marker, value in [
            ("<!--V_STRAT-->", v[2]),
            ("<!--V_SEED-->", v[3]),
            ("<!--V_START-->", v[4]),
            ("<!--V_T85-->", v[5]),
            ("<!--V_POOL-->", v[8]),
            ("<!--V_CV-->", v[9]),
            ("<!--E_STRAT-->", ec[2]),
            ("<!--E_SEED-->", ec[3]),
            ("<!--E_START-->", ec[4]),
            ("<!--E_T85-->", ec[5]),
            ("<!--E_POOL-->", ec[8]),
            ("<!--E_CV-->", ec[9]),
        ]:
            exp = exp.replace(marker, value)

    open("EXPERIMENTS.md", "w").write(exp)
    remaining = exp.count("<!--")
    print(f"filled; {remaining} markers remaining")


if __name__ == "__main__":
    main()
