"""Structured probe reports with a canonical plain-text rendering.

Reports are the artifact's evidence format: a claim, the parameters that
produced the evidence, optional table and witness blocks, and a PASS/FAIL
verdict read off the witnesses: a report is FAIL exactly when it carries a
counter-witness, so a FAIL without one cannot be built. Rendering is
deterministic — identical inputs (including seeds) give byte-identical
text — so golden-file tests and human diffs both work.
"""
from __future__ import annotations

import os
import sys
from typing import Tuple

from .exactnum import decimal_int, decimal_text
from .records import Record

PASS = "PASS"
FAIL = "FAIL"

_DIGITS_ENV = "PI1LAB_DIGITS"

# Most decimal places a report prints: Python's default limit on the digits
# of an int it converts to a string. Fractional parts are printed as one int.
# ``dsl`` imports it as MAX_LITERAL_DIGITS, the longest integer literal a
# script may hold: the same limit, for a decimal string converted to an int.
MAX_REPORT_DIGITS = 4300

# Decimal places a report prints when PI1LAB_DIGITS is unset.
DEFAULT_DIGITS = 40


class ProbeParameterError(Exception):
    """A probe was given parameters it cannot be run or reported with."""


def report_digits() -> int:
    """Decimal places used in report renderings: DEFAULT_DIGITS, or
    PI1LAB_DIGITS, an integer from 1 to MAX_REPORT_DIGITS read by ``decimal_int``."""
    raw = os.environ.get(_DIGITS_ENV)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        val = decimal_int(raw)
    except ValueError as exc:
        raise ValueError(f"{_DIGITS_ENV} must be an integer, got {raw!r}") from exc
    if not 1 <= val <= MAX_REPORT_DIGITS:
        raise ValueError(f"{_DIGITS_ENV} must lie between 1 and {MAX_REPORT_DIGITS}, got {decimal_text(val)}")
    return val


def exact_str(value, where: str) -> str:
    """``str(value)`` of an exact number a report prints.

    Python refuses to print an int of more than ``sys.get_int_max_str_digits()``
    digits (4300 by default). Such a value is refused here as a
    ProbeParameterError, whose message starts with ``where``: the probe and
    the parameter that made the value this long.
    """
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ProbeParameterError(
            f"{where} gives an exact value longer than {limit} digits, "
            "the interpreter's limit for printing an integer"
        ) from None


KV = Tuple[str, str]


class ProbeReport(Record):
    __slots__ = ("probe", "claim", "parameters", "table_header", "table_rows", "witnesses", "notes")
    _fields = ("probe", "claim", "verdict", "parameters", "table_header", "table_rows", "witnesses", "notes")

    def __init__(
        self,
        probe: str,
        claim: str,
        parameters: Tuple[KV, ...] = (),
        table_header: Tuple[str, ...] = (),
        table_rows: Tuple[Tuple[str, ...], ...] = (),
        witnesses: Tuple[Tuple[KV, ...], ...] = (),
        notes: Tuple[str, ...] = (),
    ):
        self.probe = probe
        self.claim = claim
        self.parameters = parameters
        self.table_header = table_header
        self.table_rows = table_rows
        self.witnesses = witnesses
        self.notes = notes

    @property
    def verdict(self) -> str:
        """FAIL exactly when the report carries a counter-witness."""
        return FAIL if self.witnesses else PASS

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def render(self) -> str:
        lines = [f"== probe: {self.probe} =="]
        lines.append(f"claim: {self.claim}")
        for key, value in self.parameters:
            lines.append(f"param: {key} = {value}")
        if self.table_header:
            lines.append("table: " + " | ".join(self.table_header))
            for row in self.table_rows:
                lines.append("  " + " | ".join(row))
        for i, witness in enumerate(self.witnesses):
            lines.append(f"witness[{i}]:")
            for key, value in witness:
                lines.append(f"  {key}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.render()
