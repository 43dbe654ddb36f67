"""Golden outputs: the corpus reports, derivation files, law-suite runs and
oracle queries come out byte for byte as recorded under ``tests/golden``.

Each case runs ``cli.main`` in-process from the repository root and
compares one transcript: every command with its exit code and its stdout
(timings masked), followed by the files it wrote.  A verify case runs
``check-derivation`` on the file it emitted.  After a change that means
to alter an output, rewrite the files with ``python tests/test_golden.py``
and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from wandpack.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# the oracle queries of ORACLE_CALLS in perfbench/workloads.py
PTR_WAND = "acc(x.f) * (x.f == y || x.f == z) * acc(x.f.g, 1/2) --* acc(x.f.g)"
ORACLE_CALLS = (
    ("footprint", "pointers", ["--wand", PTR_WAND, "--state", "{y.g @ 1 = 0, z.g @ 1 = 0}"]),
    ("footprint", "pointers", ["--wand", PTR_WAND, "--state", "{y.g @ 1 = 0}"]),
    ("combinable", "mixed", ["--assertion", "acc(x.f, 1/2) --*c acc(x.g)"]),
    ("entail", "pointers", ["--lhs", "acc(y.g, 1/2) * acc(z.g)",
                            "--rhs", "acc(x.f) * (x.f == y || x.f == z) * acc(x.f.g, 1/2) --* acc(y.g)"]),
    ("minimal", "mixed", ["--wand", "acc(x.b, 1/2) --* acc(x.b, 1/2) * (x.b ==> acc(x.f))", "--compatible-only"]),
)


def _cases() -> dict[str, list[list[str]]]:
    """Golden file name -> the commands of its transcript; ``{out}`` is a
    fresh directory for the files a command writes."""
    cases = {}
    for f in sorted((ROOT / "corpus").glob("*.wnd")):
        for alg in ("sound", "combinable", "fia"):
            cases[f"verify/{f.stem}.{alg}.txt"] = [
                ["verify", f"corpus/{f.name}", "--algorithm", alg, "--audit",
                 "--json", "{out}/report.json", "--emit-derivation", "{out}/derivations.json"],
                ["check-derivation", "{out}/derivations.json"],
            ]
    for f in sorted((ROOT / "corpus" / "derivations").glob("*.json")):
        cases[f"check-derivation/{f.stem}.txt"] = [["check-derivation", f"corpus/derivations/{f.name}"]]
    for f in sorted((ROOT / "corpus").glob("*.universe")):
        cases[f"laws/{f.stem}.txt"] = [["laws", f"corpus/{f.name}"]]
    for i, (query, u, args) in enumerate(ORACLE_CALLS):
        cases[f"oracle/{i}.{query}.txt"] = [["oracle", query, "--universe", f"corpus/{u}.universe", *args]]
    return cases


CASES = _cases()


def transcript(commands: list[list[str]]) -> str:
    """Run the commands from the repository root; their transcript."""
    out: list[str] = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(ROOT)
        try:
            for command in commands:
                argv = [a.replace("{out}", tmp) for a in command]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    code = main(argv)
                text = re.sub(r"[0-9]+\.[0-9]+s\b", "Ns", buf.getvalue()).replace(tmp, "{out}")
                out += [f"$ {' '.join(command)}", f"exit {code}", text]
        finally:
            os.chdir(cwd)
        for f in sorted(Path(tmp).iterdir()):
            out += [f"== {{out}}/{f.name}", f.read_text()]
    return "\n".join(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    assert transcript(CASES[name]) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    for name, commands in CASES.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(transcript(commands))
    print(f"wrote {len(CASES)} golden files under {GOLDEN}", file=sys.stderr)
