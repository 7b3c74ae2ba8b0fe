"""Whole-document regression test: every command x format against committed golden files.

Each document is compared byte for byte with ``tests/golden/<name>.<format>``.
Failing documents come from monkeypatched oracles; ``bench`` documents have
their ``*_ns`` timing fields masked before the comparison.

Regenerate the golden files (only when a document change is intended) with

    PYTHONPATH=src python tests/test_documents.py
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

import boolekit.boole_identity as bi
import boolekit.cli as cli
import boolekit.vandermonde as vm

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("json", "csv", "text")

# name -> (argv, exit code)
PASSING = {
    "verify-default": (["verify", "--n-max", "4", "--m-max", "5"], 0),
    "verify-trials": (["verify", "--a", "1/3", "--b", "-2/5", "--n-max", "4", "--m-max", "4",
                       "--trials", "3", "--seed", "4"], 0),
    "verify-zero-step": (["verify", "--a", "2", "--b", "0", "--n-max", "3", "--m-max", "3"], 0),
    "verify-order-zero": (["verify", "--a", "-7/2", "--b", "3", "--n-max", "0", "--m-max", "0"], 0),
    "solve": (["solve", "--a", "9/4", "--b", "-1/3", "--n", "3"], 0),
    "solve-singular": (["solve", "--a", "1", "--b", "0", "--n", "2"], 1),
    "solve-order-zero": (["solve", "--a", "5/3", "--b", "2", "--n", "0"], 0),
    "det": (["det", "--a", "1/2", "--b", "2/3", "--n", "3"], 0),
    "det-zero-step": (["det", "--a", "5", "--b", "0", "--n", "2"], 0),
    "stirling": (["stirling", "--m-max", "5", "--n-max", "4"], 0),
    "bench": (["bench", "--n-max", "4", "--seed", "3"], 0),
}


_REAL_EXPECTED_VALUE = bi.expected_value
_REAL_STIRLING2 = bi.stirling2
_REAL_CRAMER_NUMERATOR = vm.det_cramer_numerator


def _wrong_expected_value(a, b, n, m):
    value = _REAL_EXPECTED_VALUE(a, b, n, m)
    return value + 1 if (n, m) == (2, 2) else value


def _wrong_stirling2(m, n):
    value = _REAL_STIRLING2(m, n)
    return value + 1 if (m, n) == (3, 2) else value


def _wrong_cramer_numerator(n, k, b):
    value = _REAL_CRAMER_NUMERATOR(n, k, b)
    return value * 2 if k == 1 else value


# name -> (argv, [(module, attribute, replacement)]); every run exits 1
FAILING = {
    "fail-expected-value": (
        ["verify", "--a", "1/2", "--b", "3", "--n-max", "3", "--m-max", "3"],
        [(bi, "expected_value", _wrong_expected_value)],
    ),
    "fail-stirling2": (
        ["stirling", "--m-max", "4", "--n-max", "3"],
        [(cli, "stirling2", _wrong_stirling2)],
    ),
    "fail-stirling2-verify": (
        ["verify", "--n-max", "3", "--m-max", "4"],
        [(bi, "stirling2", _wrong_stirling2)],
    ),
    "fail-cramer-numerator": (
        ["det", "--a", "1", "--b", "-1/2", "--n", "2"],
        [(cli, "det_cramer_numerator", _wrong_cramer_numerator)],
    ),
    "fail-cramer-numerator-verify": (
        ["verify", "--a", "1", "--b", "-1/2", "--n-max", "2", "--m-max", "2"],
        [(bi, "det_cramer_numerator", _wrong_cramer_numerator)],
    ),
}

_NS_JSON = re.compile(r'("\w+_ns": )\d+')


def mask_timings(document: str, fmt: str) -> str:
    """Replace every ``*_ns`` value with ``*``, leaving the rest of the document as is."""
    if fmt == "json":
        return _NS_JSON.sub(r'\1"*"', document)
    sep = "," if fmt == "csv" else " "
    lines = document.split("\n")
    masked: list[str] = []
    columns: set[int] = set()
    width = 0
    for line in lines:
        fields = line.split(sep)
        if any(f.endswith("_ns") for f in fields):
            columns = {i for i, f in enumerate(fields) if f.endswith("_ns")}
            width = len(fields)
        elif columns and len(fields) == width:
            line = sep.join("*" if i in columns else f for i, f in enumerate(fields))
        masked.append(line)
    return "\n".join(masked)


def render(argv: list[str], fmt: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", fmt])
    document = out.getvalue()
    if argv[0] == "bench":
        document = mask_timings(document, fmt)
    return code, document


def _golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}"


@contextlib.contextmanager
def _patched(patches):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(PASSING))
def test_document_matches_golden(name, fmt):
    argv, expected_code = PASSING[name]
    code, document = render(argv, fmt)
    assert code == expected_code
    assert document == _golden_path(name, fmt).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_document_matches_golden(name, fmt):
    argv, patches = FAILING[name]
    with _patched(patches):
        code, document = render(argv, fmt)
    assert code == cli.EXIT_FAILURE
    assert document == _golden_path(name, fmt).read_text(encoding="utf-8")


def test_masking_touches_only_timing_fields():
    csv_doc = "n,closed_ns,bareiss_ns,agree\n1,120,3400,true"
    assert mask_timings(csv_doc, "csv") == "n,closed_ns,bareiss_ns,agree\n1,*,*,true"
    text_doc = "bench: n_max=1 seed=0\nn closed_ns bareiss_ns agree\n1 120 3400 true"
    assert mask_timings(text_doc, "text").endswith("1 * * true")
    assert mask_timings('{"n": 1, "closed_ns": 120}', "json") == '{"n": 1, "closed_ns": "*"}'


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, _) in PASSING.items():
        for fmt in FORMATS:
            _golden_path(name, fmt).write_text(render(argv, fmt)[1], encoding="utf-8")
    for name, (argv, patches) in FAILING.items():
        for fmt in FORMATS:
            with _patched(patches):
                document = render(argv, fmt)[1]
            _golden_path(name, fmt).write_text(document, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
