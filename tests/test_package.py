"""The package surface: the names the README documents, and its example."""

import contextlib
import io
import re
from pathlib import Path

import hyperverify

README = Path(__file__).resolve().parents[1] / "README.md"


def test_top_level_names_are_the_documented_ones():
    assert set(hyperverify.__all__) == {
        "IdentityCase", "theorem_lhs", "theorem_rhs", "verify_theorem",
        "VerificationError", "PoleError", "TranscendentalResidue",
        "DenominatorPoleBeforeTermination", "NonTerminatingSeries",
        "UnsupportedJ", "InvalidCase",
    }
    assert all(hasattr(hyperverify, name) for name in hyperverify.__all__)


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "PoleError: Gamma(0) is a pole\n"
